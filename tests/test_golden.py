"""Golden run directories: the sha256 of every file the four CLI subcommands
write on the acceptance configs.

A change that only reorganizes work must leave these bytes alone.  A change
that moves them on purpose updates ``GOLDEN`` and says why in CHANGES.md;
``python tests/test_golden.py`` prints the current table.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from spdelab import acceptance, cli

CONFIGS = {"run-spde": acceptance.HEAT_CONFIG, "run-filter": acceptance.FILTER_CONFIG,
           "picard": acceptance.PICARD_CONFIG,
           "sweep-commutator": acceptance.SWEEP_CONFIG}

# subcommand -> {path relative to the output root: sha256}
GOLDEN = {
    "picard": {
        "4458d793beb2/iterates.csv":
            "10cf59e8e9621209e9131a81a65fb32627faabb6214250823626c994ed5765ad",
        "4458d793beb2/manifest.json":
            "5e8d2bfba6b16be48577c7d5e3442e7e894e1b883bef2a59095553526989accb",
    },
    "run-filter": {
        "722c65c03f0c/manifest.json":
            "315f841d26bfa6a73509a9096857ed31409817ea7b2f29dce71d7ecd67d33589",
        "722c65c03f0c/moments.csv":
            "36455160d1076c535f2030e7d6fadb76beca4b9f5190942db3afb65e78221824",
        "722c65c03f0c/oracle.csv":
            "d867678b8976c4c7ab09620a7541cc1a20fc3d5732e82d64db062dd9c093282e",
        "722c65c03f0c/posterior.csv":
            "76d093181fa5e33565c2455dbed6e590e38acc6dec6106bef38941ff900684a9",
    },
    "run-spde": {
        "213b12a0375c/manifest.json":
            "b7091c4ab67f372a3759328c5444d32f67cb01cdcbfdf6dd5657b942d236e6dd",
        "213b12a0375c/series.csv":
            "ec1fac34f721ca08fe625667bfdb69822ce2490a745bc35781df31a92e78d60c",
        "213b12a0375c/trajectory.csv":
            "035fa72d2a3f55c2627aec8ebc9c07dad344eb40c0d97fab7cd6121fd01b7d20",
    },
    "sweep-commutator": {
        "6682d0f5b72f/manifest.json":
            "ad2987a3f4085e2c267ce7408fd532ffddd698a9ad0e0ae9df48cbc432654957",
        "6682d0f5b72f/sweep.csv":
            "25ca1b145c297d0a3d85b367f53b15e2cce210475deadd4f9c0d5d7642fde28f",
    },
}


def run_digests(sub, tmp):
    """Run ``sub`` on its acceptance config under ``tmp`` and hash every file
    it leaves in the output root."""
    cfg = tmp / "scenario.cfg"
    cfg.write_text(CONFIGS[sub])
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([sub, "--config", str(cfg), "--out", str(out)]) == 0
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("sub", sorted(CONFIGS))
def test_run_directory_bytes(sub, tmp_path):
    assert run_digests(sub, tmp_path) == GOLDEN[sub]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for sub in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f"    {sub!r}: {run_digests(sub, Path(tmp))!r},\n")
