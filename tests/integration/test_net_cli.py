"""Integration: the ``serve``/``fetch`` transport verbs of the CLI.

Exit-code convention under test (shared with the figure driver): bad
arguments print usage and return 2, failed transfers return 1, success
returns 0.
"""

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.experiments.__main__ import main
from repro.net.cli import parse_address


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("localhost:0") == ("localhost", 0)

    @pytest.mark.parametrize(
        "text", ["nocolon", ":9000", "host:", "host:abc", "host:70000"]
    )
    def test_bad_addresses(self, text):
        with pytest.raises(ValueError):
            parse_address(text)


class TestUsageErrors:
    """Every malformed invocation: usage + exit 2, matching the driver."""

    def test_fetch_bad_connect_address(self, capsys):
        assert main(["fetch", "--connect", "nocolon"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--connect" in err

    def test_fetch_missing_connect(self, capsys):
        assert main(["fetch"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_fetch_nonpositive_deadline(self, capsys):
        code = main(
            ["fetch", "--connect", "127.0.0.1:1", "--deadline", "-3"]
        )
        assert code == 2
        assert "--deadline" in capsys.readouterr().err

    def test_serve_bad_bind_address(self, capsys):
        assert main(["serve", "--size", "100", "--bind", "nope"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--bind" in err

    def test_serve_unknown_codec(self, capsys):
        """serve has no codec choice: ``--codec`` is an unknown flag."""
        assert main(["serve", "--size", "100", "--codec", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--codec" in err

    def test_serve_without_payload(self, capsys):
        assert main(["serve"]) == 2
        err = capsys.readouterr().err
        assert "--file" in err and "--size" in err

    def test_serve_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.bin"
        assert main(["serve", "--file", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_bad_geometry(self, capsys):
        assert main(["serve", "--size", "100", "--k", "0"]) == 2
        assert "k must be" in capsys.readouterr().err

    def test_serve_block_longer_than_gf256_holds(self, capsys):
        assert main(["serve", "--size", "1000", "--h", "300"]) == 2
        assert "exceeds 255" in capsys.readouterr().err

    def test_unknown_subcommand_still_usage_error(self, capsys):
        # not a transport verb: falls through to the figure driver, which
        # rejects it the same way
        assert main(["teleport"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fetch_unreachable_server_is_failure_not_usage(self, capsys):
        # a *valid* invocation that cannot transfer: exit 1, not 2
        code = main(
            [
                "fetch",
                "--connect",
                "127.0.0.1:9",  # discard port: nothing listens
                "--deadline",
                "1.0",
            ]
        )
        assert code == 1
        assert "fetch failed" in capsys.readouterr().err


class TestServeFetchRoundTrip:
    def test_loopback_transfer_via_cli(self, capsys, tmp_path):
        payload = os.urandom(30000)
        source = tmp_path / "payload.bin"
        source.write_bytes(payload)
        fetched = tmp_path / "fetched.bin"

        repo_src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_src), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "serve",
                "--file",
                str(source),
                "--bind",
                "127.0.0.1:19811",
                "--duration",
                "15",
                "--packet-size",
                "512",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # wait for the listening banner before fetching
            banner = server.stdout.readline()
            assert "serving 30000 bytes" in banner
            code = main(
                [
                    "fetch",
                    "--connect",
                    "127.0.0.1:19811",
                    "--out",
                    str(fetched),
                    "--deadline",
                    "10",
                ]
            )
        finally:
            server.terminate()
            server.wait(timeout=10)
        assert code == 0
        out = capsys.readouterr().out
        assert '"complete": true' in out
        assert fetched.read_bytes() == payload
