"""Lines of spdelab that no claim reaches.

    python3 tools/unreached_defs.py

Runs ``spdelab check`` (``cli.main(["check"])``) and then one setup and body
of each perfbench workload at its default seed, all in this process under a
``sys.settrace`` call tracer, and lists every ``def`` in ``src/spdelab``
that was never entered.  The count is the union of the line ranges of those
defs (decorators through the last line of the body), so a def nested in an
unreached def is counted once.  Prints the count, then one line per unreached
def: ``file:first-last qualified.name``.  Output files go to a temporary
directory that is removed afterwards.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spdelab"


def defs():
    """{(file, first line of the code object): (first, last, qualified name)}
    for every def in the package; a decorated def's code object starts at its
    first decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    out[(str(path), first)] = (first, child.end_lineno, name)
                    name += "."
                elif isinstance(child, ast.ClassDef):
                    name = f"{prefix}{child.name}."
                visit(child, name)
        visit(tree, "")
    return out


def run_claims(workdir: Path):
    """``spdelab check`` and one setup and body of each perfbench workload."""
    import spdelab
    if Path(spdelab.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"spdelab was imported from {spdelab.__file__}, not {PACKAGE}")
    from spdelab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["check", "--out", str(workdir / "check")])
    if rc != 0:
        raise SystemExit(f"spdelab check exited with {rc}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Checks
    for name, wl in WORKLOADS.items():
        checks = Checks()
        wl.body(wl.setup(wl.default_seed, workdir / name), checks)
        failed = [r["name"] for r in checks.rows if r["gated"] and not r["passed"]]
        if failed:
            raise SystemExit(f"{name}: failed checks {failed}")


def main() -> int:
    entered = set()
    prefix = str(PACKAGE) + "/"

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer)
        try:
            run_claims(Path(tmp))
        finally:
            sys.settrace(None)
    unreached = sorted((k[0], v) for k, v in defs().items() if k not in entered)
    lines = {(f, i) for f, (first, last, _) in unreached for i in range(first, last + 1)}
    print(len(lines))
    for f, (first, last, name) in unreached:
        print(f"{Path(f).relative_to(ROOT)}:{first}-{last} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
