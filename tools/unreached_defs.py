"""Lines of spdelab that no claim reaches.

    python3 tools/unreached_defs.py

Runs ``spdelab check`` (``cli.main(["check"])``) and then one setup and body
of each perfbench workload at its default seed, all in this process under a
``sys.settrace`` call tracer, and lists every ``def`` in ``src/spdelab``
that was never entered.  The count is the union of the line ranges of those
defs (decorators through the last line of the body), so a def nested in an
unreached def is counted once.  Prints the count, then one line per unreached
def: ``file:first-last qualified.name``.  Output files go to a temporary
directory that is removed afterwards.  The tracer is also installed with
``threading.settrace``, so defs entered only on threads started during the
run (the particle blocks) count as reached.

The tracer also records line events, and after the def list comes
``statements: N`` and one line per run of consecutive statements that never
executed inside code that did run, as ``file:first-last scope``.  N is the
union of their line ranges.  A def that was never entered is left to the def
list, and docstrings are not statements.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
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


def _blocks(node):
    """The statement lists directly under ``node``: its body, else and
    finally blocks, and the bodies of its except handlers and match cases."""
    for field in ("body", "orelse", "finalbody"):
        if getattr(node, field, None):
            yield getattr(node, field)
    for sub in getattr(node, "handlers", []) + getattr(node, "cases", []):
        yield sub.body


def _children(node):
    return [child for block in _blocks(node) for child in block]


def _span(node):
    """First line, decorators included, and last line of a statement."""
    decorators = [d.lineno for d in getattr(node, "decorator_list", [])]
    return min([node.lineno] + decorators), node.end_lineno


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unexecuted(path: str, hit: set, entered: set):
    """(first, last, scope) of each run of consecutive statements of
    ``path`` that no line event reached, in blocks that did run.  A
    statement ran when a line of its own (not of a nested statement) was
    hit, or a nested statement ran."""
    tree = ast.parse(Path(path).read_text(), path)
    out = []

    def ran(node):
        first, last = _span(node)
        own = set(range(first, last + 1))
        for child in _children(node):
            a, b = _span(child)
            own -= set(range(a, b + 1))
        return bool(own & hit) or any(map(ran, _children(node)))

    def walk(block, scope, with_docstring):
        run = []
        for i, node in enumerate(block):
            if with_docstring and i == 0 and _is_docstring(node):
                continue
            if not ran(node):
                run.append(node)
                continue
            if run:
                out.append((_span(run[0])[0], run[-1].end_lineno, scope))
                run = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (path, _span(node)[0]) in entered:
                    walk(node.body, f"{scope}{node.name}.", True)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, f"{scope}{node.name}.", True)
            else:
                for sub in _blocks(node):
                    walk(sub, scope, False)
        if run:
            out.append((_span(run[0])[0], run[-1].end_lineno, scope))
    walk(tree.body, "", True)
    return [(first, last, scope.rstrip(".") or "<module>") for first, last, scope in out]


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
    entered, hit = set(), set()
    prefix = str(PACKAGE) + "/"

    def line_tracer(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
            return line_tracer
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer)
        threading.settrace(tracer)
        try:
            run_claims(Path(tmp))
        finally:
            sys.settrace(None)
            threading.settrace(None)
    unreached = sorted((k[0], v) for k, v in defs().items() if k not in entered)
    lines = {(f, i) for f, (first, last, _) in unreached for i in range(first, last + 1)}
    print(len(lines))
    for f, (first, last, name) in unreached:
        print(f"{Path(f).relative_to(ROOT)}:{first}-{last} {name}")
    runs = [(str(path), run) for path in sorted(PACKAGE.glob("*.py"))
            for run in unexecuted(str(path), {i for f, i in hit if f == str(path)}, entered)]
    print(f"statements: {len({(f, i) for f, (a, b, _) in runs for i in range(a, b + 1)})}")
    for f, (first, last, scope) in runs:
        print(f"{Path(f).relative_to(ROOT)}:{first}-{last} {scope}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
