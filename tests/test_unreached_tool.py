"""The statement listing of tools/unreached_defs.py on a hand-made file."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unreached_defs.py"
spec = importlib.util.spec_from_file_location("unreached_defs", TOOL)
unreached_defs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached_defs)

SOURCE = '''"""Module docstring."""


def entered(x):
    """Docstring."""
    if x:
        y = 1
        z = 2
    else:
        y = 3
    return y


def never(x):
    return x
'''


def test_lists_runs_of_unexecuted_statements_in_code_that_ran(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # import ran lines 4 and 14 (the defs); entered(1) ran 6, 7, 8 and 11
    hit = {4, 14, 6, 7, 8, 11}
    entered = {(str(path), 4)}
    # the else branch of entered; never's body is left to the def list
    assert unreached_defs.unexecuted(str(path), hit, entered) == [(10, 10, "entered")]
    # nothing of entered ran: its if and return are one run, the docstring is skipped
    assert unreached_defs.unexecuted(str(path), {4, 14}, entered) == [(6, 11, "entered")]
