"""DFT engines against definition-sum oracles."""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv
from mpmath.libmp import mpf_cos_sin

from grhdesk import characters, dft as dft_module
from grhdesk.characters import CharGroup
from grhdesk.dft import (
    dft,
    dft_bluestein,
    dft_naive,
    fft_pow2,
    group_dft_cvec,
    units_of,
    unity_table,
)
from grhdesk.interval import ComplexBox, RealInterval
from grhdesk.ivec import CVec

from char_oracle import eval_char
from em_oracle import ends, iv_real, ivprec

RNG = np.random.default_rng(1729)


def rand_cvec(n):
    return CVec.from_points(RNG.uniform(-1, 1, n) + 1j * RNG.uniform(-1, 1, n))


def numpy_dft(x: np.ndarray, direction="forward") -> np.ndarray:
    n = len(x)
    sign = -1 if direction == "forward" else 1
    m = np.arange(n)
    w = np.exp(sign * 2j * np.pi * np.outer(m, m) / n)
    return w.T @ x


def contains_complex(v: CVec, ref: np.ndarray, slack=0.0) -> bool:
    return bool(
        np.all((v.re.lo <= ref.real + slack) & (ref.real - slack <= v.re.hi))
        and np.all((v.im.lo <= ref.imag + slack) & (ref.imag - slack <= v.im.hi))
    )


# ---------------------------------------------------------------------------
# unity tables


@pytest.mark.parametrize("n", [3, 4, 6, 8, 12, 30, 64, 100, 256, 2016, 2048])
def test_unity_table_contains_roots(n):
    tab = unity_table(n)
    j = np.arange(n)
    ref = np.exp(-2j * np.pi * j / n)
    # the numpy reference itself carries a few ulps of argument error
    assert contains_complex(tab, ref, slack=5e-15)
    w = np.maximum(tab.re.width(), tab.im.width())
    assert float(np.max(w)) < 1e-14


@pytest.mark.parametrize("n", [3, 6, 10, 12, 100, 200, 256, 2016])
def test_unity_table_matches_per_entry_reference(n):
    """Each side is the outward double of a 128-bit enclosure of e(-j/n)
    in mpmath.iv, and the exact points 1, -i, -1, i where 4j = 0 mod n."""
    ref = CVec.from_boxes([_unit_reference(Fraction(-j, n)) for j in range(n)])
    tab = unity_table(n)
    for got, want in zip((tab.re, tab.im), (ref.re, ref.im)):
        assert np.array_equal(got.lo, want.lo)
        assert np.array_equal(got.hi, want.hi)


def _unit_reference(turns: Fraction) -> ComplexBox:
    quarter = 4 * (turns % 1)
    if quarter.denominator == 1:
        return ComplexBox.point((1, 1j, -1, -1j)[int(quarter)])
    with ivprec(128):
        z = iv.exp(iv.mpc(0, 2 * iv.pi * iv_real(turns)))
    return ComplexBox(RealInterval(*ends(z.real)), RealInterval(*ends(z.imag)))


def test_unity_table_one_transcendental_per_length(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return mpf_cos_sin(*args)

    monkeypatch.setattr(characters, "mpf_cos_sin", counted)
    monkeypatch.delitem(dft_module._table_cache, 360, raising=False)
    unity_table(360)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# naive DFT


def test_naive_identity_n1():
    x = rand_cvec(1)
    y = dft_naive(x)
    assert y.re.lo[0] == x.re.lo[0] and y.im.hi[0] == x.im.hi[0]


def test_naive_delta_gives_ones():
    x = CVec.from_points(np.array([1.0, 0, 0, 0], dtype=complex))
    y = dft_naive(x, "forward")
    assert contains_complex(y, np.ones(4, dtype=complex))


def test_naive_forward_backward_scales_by_n():
    x = rand_cvec(6)
    y = dft_naive(dft_naive(x, "forward"), "backward")
    ref = 6 * (x.re.mid() + 1j * x.im.mid())
    assert contains_complex(y, ref, slack=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_naive_matches_numpy(n):
    x = rand_cvec(n)
    pts = x.re.mid() + 1j * x.im.mid()
    for direction in ("forward", "backward"):
        y = dft_naive(x, direction)
        assert contains_complex(y, numpy_dft(pts, direction), slack=1e-11)


# ---------------------------------------------------------------------------
# radix-2


@pytest.mark.parametrize("n", [2, 4, 8, 64, 512])
def test_fft_pow2_matches_naive(n):
    x = rand_cvec(n)
    ref = numpy_dft(x.re.mid() + 1j * x.im.mid())
    y = fft_pow2(x, "forward")
    assert contains_complex(y, ref, slack=1e-10)
    z = dft_naive(x, "forward")
    assert np.all(y.re.intersects(z.re)) and np.all(y.im.intersects(z.im))


def test_fft_pow2_backward_inverse():
    x = rand_cvec(32)
    y = fft_pow2(fft_pow2(x, "forward"), "backward")
    ref = 32 * (x.re.mid() + 1j * x.im.mid())
    assert contains_complex(y, ref, slack=1e-10)


def test_fft_pow2_batched_leading_axes():
    flat = rand_cvec(64)
    shaped = flat.reshape(4, 16)
    whole = fft_pow2(shaped, "forward")
    for r in range(4):
        row = fft_pow2(flat[16 * r : 16 * (r + 1)], "forward")
        assert np.allclose(whole.re.lo[r], row.re.lo)
        assert np.allclose(whole.im.hi[r], row.im.hi)


def test_fft_pow2_rejects_odd_lengths():
    with pytest.raises(ValueError):
        fft_pow2(rand_cvec(6))


# ---------------------------------------------------------------------------
# Bluestein


def test_bluestein_identity_n1():
    x = rand_cvec(1)
    y = dft_bluestein(x)
    assert y.re.lo[0] == x.re.lo[0]


@pytest.mark.parametrize("n", [7, 13, 30, 100, 101])
def test_bluestein_intersects_naive(n):
    x = rand_cvec(n)
    for direction in ("forward", "backward"):
        a = dft_bluestein(x, direction)
        b = dft_naive(x, direction)
        assert np.all(a.re.intersects(b.re)), (n, direction)
        assert np.all(a.im.intersects(b.im)), (n, direction)
        ref = numpy_dft(x.re.mid() + 1j * x.im.mid(), direction)
        assert contains_complex(a, ref, slack=1e-9)


@pytest.mark.parametrize("n", [8, 32])
def test_bluestein_matches_radix2(n):
    x = rand_cvec(n)
    a = dft_bluestein(x, "forward")
    b = fft_pow2(x, "forward")
    assert np.all(a.re.intersects(b.re)) and np.all(a.im.intersects(b.im))


def test_bluestein_width_growth_bounded():
    for n in (96, 341, 1024):
        x = rand_cvec(n)
        a = dft_bluestein(x, "forward")
        b = dft_naive(x, "forward")
        wa = float(np.max(np.maximum(a.re.width(), a.im.width())))
        wb = float(np.max(np.maximum(b.re.width(), b.im.width())))
        assert wa <= 64.0 * wb, (n, wa, wb)


def test_dft_dispatch_consistency():
    for n in (16, 24, 97):
        x = rand_cvec(n)
        y = dft(x)
        z = dft_naive(x)
        assert np.all(y.re.intersects(z.re)) and np.all(y.im.intersects(z.im))


# ---------------------------------------------------------------------------
# group DFT


def naive_char_sums(g: CharGroup, vals: CVec) -> dict:
    """sum a(n) chi(n) for every character, term by term in scalar boxes.

    vals is aligned with units_of(g), as group_dft_cvec takes it.
    """
    units = [int(n) for n in units_of(g)]
    out = {}
    for idx in g.all_indices():
        acc = ComplexBox.zero()
        for i, n in enumerate(units):
            acc = acc + vals[i] * eval_char(g, idx, n)
        out[idx] = acc
    return out


def assert_matches_naive_oracle(g: CharGroup, vals: CVec) -> None:
    fast = group_dft_cvec(g, vals)
    slow = naive_char_sums(g, vals)
    assert fast.shape == g.orders
    for idx in g.all_indices():
        assert fast[idx].re.intersects(slow[idx].re), (g.q, idx)
        assert fast[idx].im.intersects(slow[idx].im), (g.q, idx)


def test_group_dft_q3_by_hand():
    g = CharGroup(3)
    x = ComplexBox.point(0.7 + 0.2j)
    y = ComplexBox.point(-0.3 + 0.5j)
    out = group_dft_cvec(g, CVec.from_boxes([x, y]))
    s = out[(0,)]
    d = out[(1,)]
    assert s.re.contains_zero() or abs(s.re.mid() - 0.4) < 1e-12
    assert abs(s.re.mid() - 0.4) < 1e-12 and abs(s.im.mid() - 0.7) < 1e-12
    assert abs(d.re.mid() - 1.0) < 1e-12 and abs(d.im.mid() + 0.3) < 1e-12


# q = 101 has one axis of order 100 and q = 201 orders (2, 66): dft() sends
# both long axes to Bluestein, at q = 201 with the radix-2 axis beside it
@pytest.mark.parametrize("q", [8, 15, 101, 201])
def test_group_dft_matches_naive_oracle(q):
    g = CharGroup(q)
    assert_matches_naive_oracle(g, rand_cvec(g.phi))


def test_group_dft_oracle_sweep_small_q():
    for q in range(3, 65):
        g = CharGroup(q)
        assert_matches_naive_oracle(g, rand_cvec(g.phi))


def test_group_dft_linearity():
    q = 20
    g = CharGroup(q)
    va = rand_cvec(g.phi)
    vb = rand_cvec(g.phi)
    alpha, beta = 0.75, -1.25
    lhs = group_dft_cvec(g, va * alpha + vb * beta)
    rhs = group_dft_cvec(g, va) * alpha + group_dft_cvec(g, vb) * beta
    assert np.all(lhs.re.intersects(rhs.re)) and np.all(lhs.im.intersects(rhs.im))


def test_group_dft_batched_rows():
    q = 15
    g = CharGroup(q)
    units = units_of(g)
    batch = CVec.from_points(
        RNG.uniform(-1, 1, (3, len(units))) + 1j * RNG.uniform(-1, 1, (3, len(units)))
    )
    out = group_dft_cvec(g, batch)
    assert out.shape == (3, *g.orders)
    single = group_dft_cvec(g, batch[0])
    assert np.allclose(out.re.lo[0], single.re.lo)


def test_group_dft_principal_is_plain_sum():
    q = 24
    g = CharGroup(q)
    vals = rand_cvec(g.phi)
    out = group_dft_cvec(g, vals)
    acc = ComplexBox.zero()
    for i in range(g.phi):
        acc = acc + vals[i]
    p = out[g.principal()]
    assert p.re.intersects(acc.re) and p.im.intersects(acc.im)
