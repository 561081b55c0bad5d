"""The benchmark's traced layers still exist in the package.

perfbench/run.py wraps each function of its TRACED table where the
package looks it up, so a renamed or inlined function would silently drop
a layer from the trace.  The table and the imports it names are read with
ast, without importing or running the benchmark.
"""

import ast
import importlib
from pathlib import Path

from grhdesk.characters import char_group
from grhdesk.hurwitz import build_lattice
from grhdesk.sampler_largeq import l_values_at

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced() -> list[tuple[object, str]]:
    """(owner object, attribute name) for every row of run.py's TRACED table."""
    tree = ast.parse(RUN.read_text(), filename=str(RUN))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("grhdesk"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                owner = getattr(module, alias.name, None)
                if owner is None:  # a submodule: from grhdesk import hurwitz
                    owner = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = owner
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    rows = []
    for row in table.elts:
        owner, attr = row.elts[0], row.elts[1]
        rows.append((names[owner.id], attr.value))
    return rows


def test_every_traced_attribute_exists_on_its_owner():
    rows = _traced()
    assert len(rows) >= 10
    missing = [(owner, attr) for owner, attr in rows if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_l_values_at_returns_one_value_per_character():
    # the benchmark's lvalue_use_ratio counts len(l_values_at(...)) as phi(q)
    lat = build_lattice(16.0, D=4, cache=False)
    for q in (7, 12, 101):
        assert len(l_values_at(q, lat)) == char_group(q).phi
