"""Shared types for the vectorised Monte-Carlo experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fec.rse import RSECodec, create_codec

__all__ = [
    "Timing",
    "PAPER_TIMING",
    "MCResult",
    "PayloadVerifier",
    "block_verifier",
    "resolve_rng",
]


@dataclass(frozen=True)
class Timing:
    """Transmission timing of Figure 13, in seconds.

    * ``packet_interval`` — the paper's ``Delta``: spacing between
      back-to-back packet transmissions (40 ms, Bolot's 25 pkt/s path).
    * ``round_gap`` — the paper's ``T``: the feedback/retransmission delay
      inserted between rounds (300 ms).
    """

    packet_interval: float = 0.040
    round_gap: float = 0.300

    def __post_init__(self) -> None:
        if self.packet_interval <= 0:
            raise ValueError("packet_interval must be positive")
        if self.round_gap < 0:
            raise ValueError("round_gap must be >= 0")


#: The Section 4.2 values: Delta = 40 ms, T = 300 ms.
PAPER_TIMING = Timing()


@dataclass(frozen=True)
class MCResult:
    """A Monte-Carlo estimate with its sampling uncertainty.

    ``mean`` estimates the paper's E[M] (or whatever the experiment
    measures); ``stderr`` is the standard error over replications.

    Degenerate-case contract (see also :func:`summarize`):

    * ``replications == 1`` — the sample variance is *undefined*, so
      ``stderr`` is NaN (not ``0.0``: a single draw carries no evidence
      of determinism).  ``confidence95`` is ``(nan, nan)`` and
      :meth:`compatible_with` is vacuously true — one replication cannot
      falsify anything, so a 1-rep smoke run is never flaky.
    * ``stderr == 0.0`` with ``replications >= 2`` — the variance was
      *measured* to be zero (a deterministic process, e.g. zero loss);
      :meth:`compatible_with` demands near-exact equality.
    """

    mean: float
    stderr: float
    replications: int

    @property
    def confidence95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval."""
        half = self.ci95_halfwidth
        return self.mean - half, self.mean + half

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the 95% CI (NaN when ``stderr`` is undefined)."""
        return 1.96 * self.stderr

    def compatible_with(self, expected: float, sigmas: float = 4.0) -> bool:
        """True if ``expected`` lies within ``sigmas`` standard errors.

        With a single replication (or an otherwise undefined ``stderr``)
        this is vacuously true; with a measured-zero ``stderr`` it falls
        back to near-exact equality.  See the class docstring.
        """
        if self.replications < 2 or math.isnan(self.stderr):
            return True
        if self.stderr == 0.0:
            return math.isclose(self.mean, expected, rel_tol=1e-9)
        return abs(self.mean - expected) <= sigmas * self.stderr


def summarize(samples: list[float] | np.ndarray) -> MCResult:
    """Mean and standard error of a vector of per-replication estimates.

    A single sample yields ``stderr = nan`` (variance undefined), per the
    :class:`MCResult` degenerate-case contract.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples to summarise")
    stderr = (
        float(samples.std(ddof=1) / math.sqrt(samples.size))
        if samples.size > 1
        else math.nan
    )
    return MCResult(float(samples.mean()), stderr, int(samples.size))


#: float32 represents every integer up to 2**24 exactly
_EXACT_FLOAT32_COUNT = 1 << 24


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """Per-row count of ``True`` in a boolean ``(R, T)`` matrix, as ``intp``.

    Equal to the axis-1 sum of ``mask`` but computed as one float32
    matrix-vector product: numpy's axis-1 reduce pays ~30 ns per *row*,
    which on the narrow ``(receivers, packets)`` masks of the chunk
    kernels costs more than the Bernoulli draws that filled them.  The
    float32 sum is exact while ``T < 2**24``: a repair round is never
    wider than ``_MAX_TRANSMISSIONS = 10**6`` columns, and a mask at or
    past the bound is refused rather than miscounted.  Any strides are
    accepted (``~lost``, ``lost[index]``, ``received[:, :k]``, Fortran
    order) and ``T = 0`` yields zeros.
    """
    if mask.shape[1] >= _EXACT_FLOAT32_COUNT:
        raise ValueError(
            f"mask has {mask.shape[1]} columns; float32 row counts are only "
            f"exact below {_EXACT_FLOAT32_COUNT}"
        )
    ones = np.ones(mask.shape[1], dtype=np.float32)
    return (mask.view(np.uint8).astype(np.float32) @ ones).astype(np.intp)


def resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fresh entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


class PayloadVerifier:
    """Opt-in end-to-end coding check for the Monte-Carlo simulators.

    The MC loops track only *which* packets each receiver got; passing a
    codec to a simulator additionally pushes real payloads through the
    codec's batched paths: one reference block is encoded per verifier (via
    :meth:`~repro.fec.rse.RSECodec.encode_blocks`), and every *distinct*
    erasure pattern with at least ``k`` packets is replayed through
    :meth:`~repro.fec.rse.RSECodec.decode_symbols` and checked
    bit-for-bit against the data.  Patterns are deduplicated here per
    verifier, and the codec's :class:`~repro.fec.rse.InverseCache`
    deduplicates the algebra across replications and simulator calls —
    across 10^6 simulated receivers the same few patterns recur constantly,
    which is exactly the case that cache is built for.

    Parameters
    ----------
    codec:
        Codec whose geometry matches the simulated block (``k`` data
        packets, up to ``codec.h`` parities).
    symbols:
        Payload symbols per packet of the reference block.
    rng:
        Source for the reference payload; a seed or Generator.
    """

    def __init__(self, codec, symbols: int = 64, rng=None):
        if symbols < 1:
            raise ValueError(f"symbols must be >= 1, got {symbols}")
        self.codec = codec
        generator = resolve_rng(rng)
        self.data = generator.integers(
            0, codec.field.order, size=(1, codec.k, symbols)
        ).astype(codec.field.dtype)
        parities = codec.encode_blocks(self.data)
        #: the full FEC block as transmitted, data rows then parity rows:
        #: (n, symbols)
        self.block = np.concatenate([self.data[0], parities[0]])
        self.patterns_verified = 0
        self._seen: set[tuple[int, ...]] = set()

    def verify_masks(self, received: np.ndarray) -> int:
        """Check every distinct decodable erasure pattern in ``received``.

        ``received`` is a boolean ``(R, n)`` (or ``(n,)``) matrix of
        per-receiver reception indicators over the first ``n <= codec.n``
        packets of a block.  Patterns of at least ``k`` packets are
        decoded and compared against the reference data; returns the
        number of *new* patterns verified.

        Raises
        ------
        AssertionError
            If a decode does not reproduce the original data packets —
            a codec correctness bug, which MC statistics would silently
            absorb.
        """
        received = np.atleast_2d(np.asarray(received, dtype=bool))
        n = received.shape[1]
        if n > self.codec.n:
            raise ValueError(
                f"pattern covers {n} packets but the codec block is only "
                f"n={self.codec.n}"
            )
        decodable = received.sum(axis=1) >= self.codec.k
        if not decodable.any():
            return 0
        fresh = 0
        for row in np.unique(received[decodable], axis=0):
            pattern = tuple(int(i) for i in np.flatnonzero(row))
            if pattern in self._seen:
                continue
            self._seen.add(pattern)
            rows = {i: self.block[i] for i in pattern}
            decoded = self.codec.decode_symbols(rows)
            for i in range(self.codec.k):
                if not np.array_equal(decoded[i], self.data[0, i]):
                    raise AssertionError(
                        f"codec failed to reconstruct packet {i} from "
                        f"erasure pattern {pattern}"
                    )
            fresh += 1
        self.patterns_verified += fresh
        return fresh


def block_verifier(
    codec: RSECodec | str | None, k: int, h: int
) -> PayloadVerifier | None:
    """The opt-in :class:`PayloadVerifier` for a ``k + h`` block.

    ``codec`` is None (no check), a live codec with ``k`` data packets
    and at least ``h`` parities, or the name ``"rse"`` -- the form that
    crosses the sharded engine's process boundary -- built at ``(k, h)``.
    The verifier draws its reference block from a dedicated generator:
    drawing it from the simulation's stream would perturb the loss
    samples, making a verified run statistically different from a plain
    one.
    """
    if codec is None:
        return None
    if isinstance(codec, str):
        codec = create_codec(codec, k, h)
    if codec.k != k or codec.h < h:
        raise ValueError(
            f"codec {codec!r} does not fit the simulated block "
            f"(k={k}, h={h})"
        )
    return PayloadVerifier(codec, rng=np.random.default_rng(0x5EED))
