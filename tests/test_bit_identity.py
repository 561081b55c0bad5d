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

from grhdesk.characters import char_group
from grhdesk.dft import unity_table
from grhdesk.balls import log_gamma
from grhdesk.hurwitz import build_lattice
from grhdesk.sampler_largeq import completion_factor, l_values_at, q_pow, sample_all, sample_range
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
# t = 0 builds its rows with every imaginary part set to [0, 0], and
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


# ---------------------------------------------------------------------------
# the exact kernel's direct outputs, pinned before the fixed-point balls
# moved into one module

# epsilon then root_number of each character, in primitive_indices order:
# every primitive character mod 101 and 1024, the first 16 mod 1009
CHAR_META_PINS = {
    101: "fa66bbf9bd719d4db1993cce6320ad04fa1d714087c528dbe2ff89ecb7786f0e",
    1009: "9f2312c09c10f631a31dee2a4aff0554881c9b91a59b7026c632bdb6ae229f58",
    1024: "d3b7412384d828aa27957246efab8511aa3ecb2c9c682d36f3ca8c0655b99209",
}

UNITY_TABLE_PINS = {
    64: "47b748e038b270b4a0b379ea082be55cc80dd6e736c4fef08f88cc159368e5b1",
    360: "0450980419490f9d0e3e4cf3cbf8d296e4f3e85cf1493017b7f048c05f49efd4",
    2016: "e63dabc1e8f0934b2d1d68475a07dd13badeca0de527953bebcb78e1dc9a4797",
}

# q^(-s) for q = 7, 101, 1009, then the completion factor of both
# parities at each of those q
POINT_BALL_PINS = {
    0.0: "95ff4f0d7781ffe18b567609af2337440fdfbc8c667060024a5b89382c8ec07b",
    16.0: "d159bdb2efe0911b4b4f2e6939e9a82f8f8283fbc73ed9d25c2556b88dd2b855",
    300.0: "30fd35f20b0816a93beecdab84903019928109cddf5e908e8994f79433306559",
}

# (X, Y, R, e) of log_gamma at exact points: a parity's (2a+1)/4 + it/2,
# a point Stirling takes unshifted, a real one and a rational one
LOG_GAMMA_POINTS = [
    (Fraction(1, 4), Fraction(8)),
    (Fraction(3, 4), Fraction(150)),
    (Fraction(1, 4), Fraction(0)),
    (Fraction(25, 2), Fraction(-3, 7)),
    (Fraction(1, 3), Fraction(1, 5)),
]
LOG_GAMMA_PIN = "cd533b889749172d834bdb38a1226f281df27d34b1b7664134348a9d82674c6c"


@pytest.mark.parametrize("q", sorted(CHAR_META_PINS))
def test_root_numbers_are_pinned(q):
    group = char_group(q)
    metas = [group.char_meta(idx) for idx in group.primitive_indices()[: 16 if q == 1009 else None]]
    h = hashlib.sha256()
    for meta in metas:
        h.update(f"{meta.parity}:{_cvec_digest(meta.epsilon)}:{_cvec_digest(meta.root_number)};".encode())
    assert h.hexdigest() == CHAR_META_PINS[q], h.hexdigest()


@pytest.mark.parametrize("n", sorted(UNITY_TABLE_PINS))
def test_unity_table_is_pinned(n):
    got = _cvec_digest(unity_table(n))
    assert got == UNITY_TABLE_PINS[n], got


@pytest.mark.parametrize("t", sorted(POINT_BALL_PINS))
def test_point_balls_are_pinned(t):
    qs = (7, 101, 1009)
    cells = [q_pow(q, t) for q in qs] + [completion_factor(t, a, q) for q in qs for a in (0, 1)]
    got = hashlib.sha256(" ".join(_cvec_digest(c) for c in cells).encode()).hexdigest()
    assert got == POINT_BALL_PINS[t], got


def test_log_gamma_balls_are_pinned():
    got = hashlib.sha256(repr([log_gamma(x, y) for x, y in LOG_GAMMA_POINTS]).encode()).hexdigest()
    assert got == LOG_GAMMA_PIN, got
