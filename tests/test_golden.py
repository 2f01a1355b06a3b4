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
        "4ffdcbca5a45/iterates.csv":
            "10cf59e8e9621209e9131a81a65fb32627faabb6214250823626c994ed5765ad",
        "4ffdcbca5a45/manifest.json":
            "bfd6596990f21f36989d01a7e4231a2375bf013f04a4e0df80b8074a7c6fcc04",
    },
    "run-filter": {
        "28c3c795705c/manifest.json":
            "fc18e7ddc618d5b7deb907606d8064f38f3422e573c2245e74f4fdb37e8e286d",
        "28c3c795705c/moments.csv":
            "c0207f5403e1617703c11cf00ad3c252330c2011f322c4567768f92848cc115e",
        "28c3c795705c/oracle.csv":
            "1f540be501408965225d4454bd96579a060cd6d62b14104b9427d3128d37ccfe",
        "28c3c795705c/posterior.csv":
            "76d093181fa5e33565c2455dbed6e590e38acc6dec6106bef38941ff900684a9",
    },
    "run-spde": {
        "2f18a25a13c4/manifest.json":
            "08b5156c5a441a2d4a7f5a0e88127d667c908a389f35f6116c5a068c23b09571",
        "2f18a25a13c4/series.csv":
            "3f1db2cec2a0e2f8bb51c8f6c73aeffb7348c1c80a53afa631810ac2a44823a6",
        "2f18a25a13c4/trajectory.csv":
            "035fa72d2a3f55c2627aec8ebc9c07dad344eb40c0d97fab7cd6121fd01b7d20",
    },
    "sweep-commutator": {
        "d2609b66b625/manifest.json":
            "8fde3df5ffeb499fa3e4c94f8067f16cd725073659604949332c3114e8f71083",
        "d2609b66b625/sweep.csv":
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
