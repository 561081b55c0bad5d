"""The benchmark's traced layers still exist in the package, and its
own output checks pass.

perfbench/run.py wraps each function of its TRACED table where the
package looks it up, so a renamed or inlined function would silently drop
a layer from the trace.  The table and the imports it names are read with
ast, without importing or running the benchmark.  The last test runs
the benchmark itself, one traced pass of each declared workload in a
subprocess, and asserts that its checks report the outputs correct.
"""

import ast
import importlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from grhdesk import hurwitz, sampler_largeq
from grhdesk.characters import char_group
from grhdesk.dft import group_dft_cvec, units_of
from grhdesk.hurwitz import DEFAULT_NCOLS, HurwitzLattice, unit_hurwitz
from grhdesk.interval import ComplexBox, RealInterval
from grhdesk.ivec import CVec, IVec
from grhdesk.sampler_largeq import l_values_at

from lattices import lattice

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


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
    # the benchmark's lvalue_use_ratio counts len(l_values_at(...)) of a
    # one-lattice block as phi(q)
    lat = lattice(16.0, 4)
    for q in (7, 12, 101):
        assert len(l_values_at(q, [lat])) == char_group(q).phi


def test_width_hooks_read_the_cvec_surface():
    # _lattice_width walks `for row in lat.rows for c in row` and reads
    # c.re.width(); _unit_width and _dft_width read v.re.width() and
    # v.im.width() of whole arrays
    lat = lattice(16.0, 4)
    rows = list(lat.rows)
    assert len(rows) == lat.D + 1 and all(isinstance(row, CVec) for row in rows)
    cells = [c for row in lat.rows for c in row]
    assert len(cells) == (lat.D + 1) * (DEFAULT_NCOLS + 1)
    assert all(isinstance(c, ComplexBox) for c in cells)
    assert max(max(c.re.width(), c.im.width()) for c in cells) > 0.0
    group = char_group(101)
    values = unit_hurwitz([lat], 101, units_of(group))[0]
    for v in (l_values_at(101, [lat]), values, group_dft_cvec(group, values)):
        for part in (v.re, v.im):
            w = part.width()
            assert isinstance(w, np.ndarray) and w.shape == v.shape and np.all(w >= 0.0)


def test_samples_keep_the_surface_the_benchmark_reads(tmp_path):
    # check_pass and _widths walk `for s in grid.samples`, check_oracle
    # reads grid.samples[i], and each compares len(grid) with the ordinate
    # count; every grid owns its row, so one kept grid keeps no other alive
    grids = sampler_largeq.sample_all(7, 16, 16 + Fraction(2, 16), Fraction(1, 16), cache_dir=tmp_path)
    assert len(grids) == 5
    for grid in grids.values():
        assert isinstance(grid.samples, IVec) and len(grid) == 3
        cells = list(grid.samples)
        assert len(cells) == 3
        for i, s in enumerate(cells):
            assert isinstance(s, RealInterval)
            assert type(s.lo) is float and type(s.hi) is float and s.lo <= s.hi
            t = grid.samples[i]
            assert isinstance(t, RealInterval) and (t.lo, t.hi) == (s.lo, s.hi)
    blocks = [grid.samples.e for grid in grids.values()]
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("on_disk", [True, False], ids=["cache_dir", "no-cache_dir"])
def test_cold_sample_range_keeps_the_benchmark_call_contract(on_disk, tmp_path, monkeypatch):
    # perfbench's lattice-cold workload counts one build_lattice call per
    # ordinate, each returning a lattice, and one .dat file per ordinate in
    # its fresh cache_dir; a block build must keep both, and its lattices
    # come back from memory, not from the files it just wrote.  Without a
    # cache_dir the calls are the same, and no file is read or written.
    cache_dir = tmp_path if on_disk else None
    built, loaded, saved = [], [], []
    build, load, save = sampler_largeq.build_lattice, hurwitz.load_lattice, hurwitz.save_lattice

    def counted_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def counted_load(*args, **kwargs):
        loaded.append(args)
        return load(*args, **kwargs)

    def counted_save(*args, **kwargs):
        saved.append(args)
        return save(*args, **kwargs)

    monkeypatch.setattr(sampler_largeq, "build_lattice", counted_build)
    monkeypatch.setattr(hurwitz, "load_lattice", counted_load)
    monkeypatch.setattr(hurwitz, "save_lattice", counted_save)
    # no lattice or table kept by an earlier test
    monkeypatch.setattr(sampler_largeq, "_lattices", {})
    monkeypatch.setattr(sampler_largeq, "_tables", {})
    grid = sampler_largeq.sample_range(7, (1,), 16, 16 + Fraction(2, 16), Fraction(1, 16), cache_dir=cache_dir)
    assert len(grid) == 3
    assert [lat.t for lat in built] == [16.0, 16.0625, 16.125]
    assert all(isinstance(lat, HurwitzLattice) for lat in built)
    assert loaded == []
    assert len(saved) == (3 if on_disk else 0)
    assert len(list(tmp_path.glob("*.dat"))) == len(saved)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_reports_its_outputs_correct(workload):
    # what the benchmark refuses as incorrect: a build_lattice call per
    # ordinate, the .dat files it globs, load_lattice(path), passes that
    # repeat bit for bit and its mpmath oracle; it writes only under
    # .bench_build/
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, run.stdout
