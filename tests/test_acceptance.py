"""Acceptance gate: every criterion at its pinned tolerance, with the bytes
of its report rows pinned too.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them, or `spdelab check` for the JSON report.  ``GOLDEN`` holds the
sha256 of each criterion's rows as `spdelab check` serializes them into
report.json (without the manifest hash).  A change that only reorganizes
work must leave these bytes alone; a change that moves them on purpose
updates ``GOLDEN`` and says why in CHANGES.md.  ``python
tests/test_acceptance.py`` prints the current table.
"""

import hashlib
import json

import pytest

from spdelab import acceptance, manifest

# criterion -> sha256 of its rows
GOLDEN = {
    1: 'd7867be23bc18291b73d659f3d4a6ce28a7d0951fa560ff16fa81edc86fbf6c6',
    2: '8b34efb184eb5c5ef3bd4a6f956dbe478e0037ddd4a9e2caa41263e5564a1284',
    3: 'd2358db3a1e0979a38eb708192686584ecd32184fe009c82e0913239a597ebe0',
    4: '9a48ea18fc5e569a874d4c77a892bcbcdc68e65326cc3148938c0f1f38be0925',
    5: 'ead661d450d948bc860e1e0ca869d91eb22d6b0a11483d1981173a7784aa66c3',
    6: 'd44aecb12ea7239666d8fcd464c7a5d74c90336b40e71458912aa538d2cb125c',
    7: 'e52dbbd77373d9b0e65c23126100771896ec90956c76ec3c58eb2392337ab172',
    8: 'b92dbc42a3e49e80f8fff7bea460106813d5a8e7b9ef4172befee4368c8a42fa',
    9: '7d6b19aa760b8eb447d4eaf168e83dea8b6c6cd21d6a3a81200df379d9f8e8e0',
    10: '9868632cb444880e0364da7d5825b530920225c9476439be88407a7a82808698',
    11: '836a29033d2b4b085f2a59b320c1c63df7bd2540e81c88c42e14a59dbbe36515',
    12: '513d93d6d71a399571bfc2d3760b40ee1794818c127746c1524641a1257d70c0',
}


def digest(rows) -> str:
    blob = json.dumps([r.as_dict() for r in rows], sort_keys=True,
                      default=manifest.format_value)
    return hashlib.sha256(blob.encode()).hexdigest()


def _drive(k):
    rows = acceptance.CRITERIA[k]()
    ok = all(r.passed for r in rows)
    detail = "; ".join(f"{r.name.split(':', 1)[1]}: measured={r.measured:.3g} "
                       f"threshold={r.threshold:.3g}" for r in rows)
    print(f"\ncriterion {k:2d}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"criterion {k} failed: {detail}"
    return rows


@pytest.mark.parametrize("k", sorted(acceptance.CRITERIA))
def test_criterion(k):
    assert digest(_drive(k)) == GOLDEN[k]


if __name__ == "__main__":
    for k in sorted(acceptance.CRITERIA):
        print(f"    {k}: {digest(acceptance.CRITERIA[k]())!r},")
