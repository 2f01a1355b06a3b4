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

PINNED = 107


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


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


def test_settable_values_do_not_grow():
    package = Path(spdelab.__file__).parent
    total = sum(settable_values(p.read_text()) for p in sorted(package.glob("*.py")))
    assert total <= PINNED, (f"{total} settable values in spdelab, pinned at {PINNED}: "
                             f"a new option needs two callers that set it differently")
