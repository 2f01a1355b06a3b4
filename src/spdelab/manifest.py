"""Run manifests and deterministic output writers.

A manifest captures everything needed to reproduce a run bit-for-bit, and
only what the command read: scenario parameters and, for a command that
solves on a grid, the grid and time discretization, driver counts and every
seed.  Run directories are named by the manifest hash, so identical inputs
collide onto identical outputs and nothing else ever does.  All floats are
serialized with repr (shortest round-trip form) to keep files byte-stable
across reruns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__


@dataclass
class RunManifest:
    """A field set to None is left out: the command does not read it."""

    scenario: str
    subcommand: str
    parameters: dict = field(default_factory=dict)
    grid: dict | None = None
    dt: float | None = None
    L: int | None = None
    seeds: dict | None = None

    def canonical_json(self) -> str:
        def clean(v):
            if isinstance(v, dict):
                return {k: clean(t) for k, t in sorted(v.items())}
            if isinstance(v, (list, tuple)):
                return [clean(t) for t in v]
            if isinstance(v, float):
                return repr(float(v))
            if hasattr(v, "item"):
                return repr(v.item())
            return v
        recorded = {k: v for k, v in asdict(self).items() if v is not None}
        recorded["tool_version"] = __version__
        return json.dumps(clean(recorded), sort_keys=True, separators=(",", ":"))

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]

    def write(self, directory):
        (directory / "manifest.json").write_text(self.canonical_json() + "\n")


def format_value(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # numpy scalars subclass float but repr differently
    if hasattr(v, "item"):
        return repr(v.item())
    return str(v)


def write_csv(path, header, columns) -> None:
    """Deterministic CSV of equal-length columns, one per header name:
    repr-formatted floats, LF endings, no quoting."""
    cells = [map(repr if col.dtype.kind == "f" else str, col.tolist())
             for col in map(np.asarray, columns)]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    path.write_text("\n".join(lines) + "\n")


def write_json_report(path, reports, manifest_hash: str) -> None:
    payload = []
    for r in reports:
        d = r.as_dict()
        d["manifest_hash"] = manifest_hash
        payload.append(d)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1,
                               default=format_value) + "\n")
