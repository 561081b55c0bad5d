"""Golden pins: the endpoints of the package's main outputs, bit for bit.

Each pin is a sha256 over the float.hex form of every endpoint of one
output, recorded before the complex interval arrays moved to one
endpoint block.  A change to any kernel's rounding, operation order or
layout that moves a single endpoint by one ulp breaks the pin.  Each
assertion prints the digest it computed, so a deliberate re-pin is
copied from the failure output.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from grhdesk.hurwitz import build_lattice
from grhdesk.sampler_largeq import l_values_at, sample_all, sample_range
from grhdesk.sampler_smallq import default_plan, smallq_all

from lattices import lattice


def _cvec_digest(v) -> str:
    """Shape, then (re.lo, re.hi, im.lo, im.hi) of each cell in row-major order."""
    ends = np.stack([v.re.lo, v.re.hi, v.im.lo, v.im.hi], axis=-1).reshape(-1)
    h = hashlib.sha256(repr(tuple(v.shape)).encode())
    h.update(" ".join(map(float.hex, ends.tolist())).encode())
    return h.hexdigest()


def _grids_digest(grids) -> str:
    """Each grid's character, start and samples (lo, hi), in the given order."""
    h = hashlib.sha256()
    for g in grids:
        h.update(f"{g.character} {g.n_start} {g.t_step}:".encode())
        h.update(" ".join(float.hex(e) for s in g.samples for e in (s.lo, s.hi)).encode())
        h.update(b";")
    return h.hexdigest()


# rows 1..D; 64 re-recorded when the Bernoulli coefficients past k = 1
# became complex128 balls (hurwitz._em_constants): every new cell meets
# the one it replaced, and the widest cell is the same
LATTICE_PINS = {
    4: "2c8d598eb16dafda4c64f2e894120722226be1edea19e2988b2b2704964892aa",
    64: "4ba34b54de424b47b86c7a64dc10e22e29a3f5d4752e486c67cdcd61772218b7",
}

# row 0: its bases n + M + 1 are integers and both D truncate it alike;
# re-recorded with LATTICE_PINS
LATTICE_ROW0_PINS = {
    4: "da2f8bd182df119408c133bd1999a1e28ca1eb07b423c9204aef1781abab3583",
    64: "da2f8bd182df119408c133bd1999a1e28ca1eb07b423c9204aef1781abab3583",
}

# 1009 and 1024 re-recorded when their units below q/(2D) moved to row 0
LVALUE_PINS = {
    101: "c415bb9d08824faa3e695ae1ce419dc517e9303d95cf9a893514b060a77a2a3c",
    1009: "5b2fc1b5ac17d9db232f2abfa74a3f8c7c60b0d8075b5146a4643b38c878945d",
    1024: "d309193bedc49a7083da1bbd90ddd1e77a46463f92bc9bd03af661dc9710a2de",
}

# whole lattices, recorded before IVec moved onto the endpoint block:
# t = 0 builds its rows through the real-only CVec.from_real path, and
# t = 300 runs a = 230 direct terms with shift-form rounding on its parts;
# t = 300 re-recorded with LATTICE_PINS
LATTICE_WHOLE_PINS = {
    (0.0, 8): "5259ac9a0c53c918eb2fbec68cfb9931ba97359d8efb20aa1ddec9fcc902c1f8",
    (300.0, 64): "c0f06ab77c87ac7c194a8638433547f8e35d003c1e0dbbd85aa7d5005330b808",
}

# the one file build_lattice(16.0, D=4) writes to an empty cache_dir: its
# name, a NUL, then its bytes (header and endpoint block); re-recorded
# with LATTICE_PINS
LATTICE_FILE_PIN = "40d9e65531fd7c76f97e3070eac1bfcbf5b0e19c74c515e1d386fb54f56ebbf3"

# re-recorded when the completion factor became one fixed-point log Gamma
# ball: every new sample lies inside the one it replaced
SAMPLE_ALL_PIN = "ba7eeefcfb1f044f2cf4abd1900eadb70de69076b46ee650db4028b72fc552ba"
SAMPLE_RANGE_PIN = "33e8b0d19799bfd3a965d7a99a3c041b8e3baadaf38340a81cfee6612823fff8"
# re-recorded when small q's values became fixed-point balls: every new
# sample meets the one it replaced and is at most 0.63 of its width
SMALLQ_PIN = "4074b0168b616ba8d49d15647ad73ace937a64c6edb823bae716819f5c408575"


@pytest.fixture(scope="module")
def lat64():
    return lattice(16.0, 64)


@pytest.mark.parametrize("D", sorted(LATTICE_PINS))
def test_lattice_rows_are_pinned(D):
    rows = lattice(16.0, D).rows
    assert rows.shape == (D + 1, 16)
    got = _cvec_digest(rows[1:])
    assert got == LATTICE_PINS[D], got
    got = _cvec_digest(rows[:1])
    assert got == LATTICE_ROW0_PINS[D], got


@pytest.mark.parametrize("t, D", sorted(LATTICE_WHOLE_PINS))
def test_whole_lattice_is_pinned(t, D):
    got = _cvec_digest(lattice(t, D).rows)
    assert got == LATTICE_WHOLE_PINS[t, D], got


def test_lattice_file_is_pinned(tmp_path):
    lat = build_lattice(16.0, D=4, cache_dir=tmp_path)
    (path,) = tmp_path.iterdir()
    assert path.name == "hurlat_t16.0_D4_N15_M9_b64.dat"
    h = hashlib.sha256(path.name.encode() + b"\0")
    h.update(path.read_bytes())
    assert h.hexdigest() == LATTICE_FILE_PIN, h.hexdigest()
    # and the file reads back as the lattice that wrote it
    assert np.array_equal(build_lattice(16.0, D=4, cache_dir=tmp_path).rows.e, lat.rows.e)


@pytest.mark.parametrize("q", sorted(LVALUE_PINS))
def test_l_values_are_pinned(q, lat64):
    got = _cvec_digest(l_values_at(q, [lat64]))
    assert got == LVALUE_PINS[q], got


def test_sample_all_is_pinned(tmp_path):
    grids = sample_all(7, 16, 16 + Fraction(1, 8), Fraction(1, 16), cache_dir=tmp_path)
    got = _grids_digest(grids[c] for c in sorted(grids))
    assert got == SAMPLE_ALL_PIN, got


def test_sample_range_is_pinned(tmp_path):
    grid = sample_range(
        101, (5,), 16, 16 + Fraction(1, 16), Fraction(1, 16), size=64, cache_dir=tmp_path
    )
    got = _grids_digest([grid])
    assert got == SAMPLE_RANGE_PIN, got


def test_smallq_all_is_pinned():
    grids = smallq_all(7, default_plan(), 2)
    got = _grids_digest(grids[c] for c in sorted(grids))
    assert got == SMALLQ_PIN, got
