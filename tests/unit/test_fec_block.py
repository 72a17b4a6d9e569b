"""Unit tests for transmission-group framing (BlockEncoder/BlockDecoder)."""

import pytest

from repro.fec.block import (
    BlockDecoder,
    BlockEncoder,
    TransmissionGroup,
    join_stream,
    slice_stream,
)
from repro.fec.rse import DecodeError, RSECodec


class TestSliceStream:
    def test_exact_fit(self):
        groups = slice_stream(b"ab" * 6, packet_size=4, k=3)
        assert len(groups) == 1
        assert groups[0] == [b"abab", b"abab", b"abab"]

    def test_tail_padding_within_packet(self):
        groups = slice_stream(b"abcde", packet_size=4, k=2)
        assert groups[0][0] == b"abcd"
        assert groups[0][1] == b"e\x00\x00\x00"

    def test_group_padding_with_zero_packets(self):
        groups = slice_stream(b"x" * 4, packet_size=4, k=3)
        assert len(groups[0]) == 3
        assert groups[0][1] == b"\x00" * 4
        assert groups[0][2] == b"\x00" * 4

    def test_empty_payload_still_one_group(self):
        groups = slice_stream(b"", packet_size=8, k=2)
        assert len(groups) == 1
        assert all(p == b"\x00" * 8 for p in groups[0])

    def test_multiple_groups(self):
        groups = slice_stream(b"z" * 100, packet_size=10, k=3)
        assert len(groups) == 4  # 10 packets -> ceil(10/3) groups
        assert sum(len(g) for g in groups) == 12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="packet_size"):
            slice_stream(b"x", 0, 3)
        with pytest.raises(ValueError, match="k must be"):
            slice_stream(b"x", 4, 0)

    def test_join_inverts_slice(self):
        payload = bytes(range(256)) * 3
        groups = slice_stream(payload, packet_size=17, k=4)
        assert join_stream(groups, len(payload)) == payload


class TestTransmissionGroup:
    def test_packet_indexing(self):
        group = TransmissionGroup(0, data=[b"a", b"b"], parities=[b"p"])
        assert group.packet(0) == b"a"
        assert group.packet(1) == b"b"
        assert group.packet(2) == b"p"
        assert group.k == 2

    def test_missing_parity_raises(self):
        group = TransmissionGroup(0, data=[b"a", b"b"])
        with pytest.raises(IndexError, match="not yet encoded"):
            group.packet(2)


class TestBlockEncoder:
    def test_groups_and_packets(self, rng):
        payload = rng.bytes(1000)
        encoder = BlockEncoder(payload, k=3, h=2, packet_size=100)
        assert len(encoder) == 4  # 10 packets -> 4 groups of 3
        assert encoder.data_packet(0, 0) == payload[:100]

    def test_lazy_parity_encoding(self, rng):
        encoder = BlockEncoder(rng.bytes(300), k=3, h=2, packet_size=100)
        assert encoder.groups[0].parities == []
        parity = encoder.parity_packet(0, 1)
        assert len(parity) == 100
        assert len(encoder.groups[0].parities) == 2  # all encoded on demand

    def test_a_round_encodes_exactly_its_parities(self, rng):
        encoder = BlockEncoder(rng.bytes(300), k=3, h=8, packet_size=100)
        encoder.encode_parities(0, 3)
        assert len(encoder.groups[0].parities) == 3
        encoder.encode_parities(0, 5)
        assert len(encoder.groups[0].parities) == 5
        # a parity past the encoded ones encodes the rest of the group
        encoder.parity_packet(0, 5)
        assert len(encoder.groups[0].parities) == 8
        assert encoder.groups[0].parities == encoder.codec.encode(
            encoder.groups[0].data
        )

    def test_pre_encode(self, rng):
        encoder = BlockEncoder(
            rng.bytes(300), k=3, h=2, packet_size=100, pre_encode=True
        )
        assert all(len(g.parities) == 2 for g in encoder.groups)

    def test_parity_consistency_with_codec(self, rng):
        payload = rng.bytes(300)
        codec = RSECodec(3, 2)
        encoder = BlockEncoder(payload, k=3, h=2, packet_size=100, codec=codec)
        direct = codec.encode([encoder.data_packet(0, i) for i in range(3)])
        assert [encoder.parity_packet(0, j) for j in range(2)] == direct

    def test_index_bounds(self, rng):
        encoder = BlockEncoder(rng.bytes(100), k=2, h=1, packet_size=100)
        with pytest.raises(IndexError):
            encoder.data_packet(0, 2)
        with pytest.raises(IndexError):
            encoder.parity_packet(0, 1)

    def test_incompatible_codec_rejected(self, rng):
        codec = RSECodec(4, 1)
        with pytest.raises(ValueError, match="incompatible"):
            BlockEncoder(rng.bytes(10), k=3, h=1, packet_size=10, codec=codec)


class TestBlockDecoder:
    @pytest.fixture
    def setup(self, rng):
        codec = RSECodec(4, 3)
        data = [rng.bytes(50) for _ in range(4)]
        parities = codec.encode(data)
        return codec, data, parities

    def test_decode_after_k_packets(self, setup):
        codec, data, parities = setup
        decoder = BlockDecoder(4, codec)
        assert decoder.missing == 4
        decoder.add(0, data[0])
        decoder.add(2, data[2])
        assert decoder.missing == 2
        assert not decoder.decodable
        decoder.add(4, parities[0])
        assert decoder.add(6, parities[2]) is True
        assert decoder.reconstruct() == data
        assert decoder.missing == 0

    def test_duplicates_counted(self, setup):
        codec, data, _ = setup
        decoder = BlockDecoder(4, codec)
        decoder.add(0, data[0])
        decoder.add(0, data[0])
        assert decoder.duplicates == 1

    def test_post_decode_packets_are_duplicates(self, setup):
        codec, data, parities = setup
        decoder = BlockDecoder(4, codec)
        for i in range(4):
            decoder.add(i, data[i])
        decoder.reconstruct()
        decoder.add(4, parities[0])
        assert decoder.duplicates == 1

    def test_premature_reconstruct_raises(self, setup):
        codec, data, _ = setup
        decoder = BlockDecoder(4, codec)
        decoder.add(0, data[0])
        with pytest.raises(DecodeError, match="incomplete"):
            decoder.reconstruct()

    def test_decoding_work_counts_missing_data(self, setup):
        codec, data, parities = setup
        decoder = BlockDecoder(4, codec)
        decoder.add(1, data[1])
        for j in range(3):
            decoder.add(4 + j, parities[j])
        assert decoder.decoding_work() == 3
        assert decoder.reconstruct() == data

    def test_mismatched_codec_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            BlockDecoder(5, RSECodec(4, 1))

    def test_out_of_range_index_is_rejected_and_not_stored(self, setup):
        # a stored bad index used to poison the decoder: every later add and
        # missing raised once k packets were held
        codec, data, parities = setup
        decoder = BlockDecoder(4, codec)
        decoder.add(0, data[0])
        for bad in (codec.n, 9, -1):
            with pytest.raises(ValueError, match="out of range"):
                decoder.add(bad, b"\0" * 50)
        assert sorted(decoder.received) == [0]
        assert decoder.missing == 3
        decoder.add(2, data[2])
        decoder.add(5, parities[1])
        assert decoder.add(3, data[3]) is True
        assert decoder.missing == 0
        assert decoder.reconstruct() == data
