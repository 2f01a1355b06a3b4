"""The number of independently settable values in the package stays pinned.

A settable value is a defaulted parameter of a ``def`` (positional or
keyword-only) or an annotated field of a ``@dataclass``, counted by an
``ast`` pass over ``spdelab/*.py``.  Each one is an input a caller may set
and the tests may have to cover, so the count may fall but not rise; a
change that lowers it lowers ``PINNED`` too.
"""

import ast
from pathlib import Path

import spdelab

PINNED = 100


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_by_definition(source: str) -> dict:
    """Settable values per ``def`` and per dataclass that has any, by
    dotted name within the module."""
    counts = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                n = len(child.args.defaults) + sum(d is not None for d in child.args.kw_defaults)
            elif isinstance(child, ast.ClassDef):
                fields = sum(isinstance(s, ast.AnnAssign) for s in child.body)
                n = fields if _is_dataclass(child) else 0
            else:
                visit(child, prefix)
                continue
            name = prefix + child.name
            if n:
                counts[name] = counts.get(name, 0) + n
            visit(child, name + ".")

    visit(ast.parse(source), "")
    return counts


def settable_values(source: str) -> int:
    return sum(settable_by_definition(source).values())


def test_counts_defaults_and_dataclass_fields():
    source = """
from dataclasses import dataclass

def f(a, b=1, *, c=2, d):
    def inner(x=0):
        pass

@dataclass(frozen=True)
class P:
    kind: str
    coeff: float = 0.0
    LIMIT = 3

class Plain:
    x: int
"""
    assert settable_values(source) == 5
    assert settable_by_definition(source) == {"f": 2, "f.inner": 1, "P": 2}


def test_settable_values_do_not_grow():
    package = Path(spdelab.__file__).parent
    per_file = {p.name: settable_by_definition(p.read_text())
                for p in sorted(package.glob("*.py"))}
    total = sum(sum(counts.values()) for counts in per_file.values())
    where = "\n".join(f"  {name}: {sum(counts.values())} ("
                      + ", ".join(f"{d} {n}" for d, n in counts.items()) + ")"
                      for name, counts in per_file.items() if counts)
    assert total <= PINNED, (f"{total} settable values in spdelab, pinned at {PINNED}: "
                             f"a new option needs two callers that set it differently; "
                             f"per file and definition:\n{where}")
