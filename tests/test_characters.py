"""Character group structure against brute-force definitions."""

import math
from dataclasses import fields
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from mpmath import iv
from hypothesis import strategies as st

from grhdesk.characters import (
    GAUSS_BITS,
    CharGroup,
    CharMeta,
    char_group,
    euler_phi,
    factorize,
    index_label,
    parse_index_label,
)
from grhdesk.balls import fixed_quotient, fixed_unit_powers
from grhdesk.errors import HypothesisViolated, NotPrimitive, QTooSmall
from grhdesk.interval import ComplexBox

from char_oracle import eval_char, unit_phase
from em_oracle import covers, ends, holds, iv_complex, iv_real, ivprec, meets


# ---------------------------------------------------------------------------
# brute-force oracles (definition-level, independent of the fast rules)


def oracle_char_table(g: CharGroup, idx):
    """chi(n) phases for n = 0..q-1 straight from generator images."""
    q = g.q
    vals = {}
    for n in range(q):
        ph = g.phase(idx, n)
        vals[n] = ph
    return vals


def oracle_is_primitive(g: CharGroup, idx) -> bool:
    """Definition: for every proper divisor d < q some a = 1 (mod d),
    gcd(a, q) = 1 has chi(a) != 1."""
    q = g.q
    for d in range(1, q):
        if q % d != 0:
            continue
        found = False
        for a in range(1, q + 1):
            if a % d == 1 % d and math.gcd(a, q) == 1 and g.phase(idx, a) != 0:
                found = True
                break
        if not found:
            return False
    return True


def iv_conj(z: iv.mpc) -> iv.mpc:
    return iv.mpc(z.real, -z.imag)


def unimodular_sqrt(z: iv.mpc) -> iv.mpc:
    """One square root of a box near the unit circle, by the half-angle identity.

    For z = e^(i theta), 1 + z = 2 cos(theta/2) e^(i theta/2), so
    (1 + z)/|1 + z| is the principal root wherever Re z is not certified
    negative; there 1 + z stays clear of 0.  When Re z is certified
    negative, i (1 - z)/|1 - z| is i times the principal root of -z, with
    Re(1 - z) > 1.  Both are box arithmetic at iv.prec, with no log or exp.
    """
    if ends(z.real)[1] < 0:
        w = 1 - z
        w = w / abs(w)
        return iv.mpc(-w.imag, w.real)
    w = 1 + z
    return w / abs(w)


def gauss_disc(g: CharGroup, idx) -> tuple[Fraction, Fraction, Fraction]:
    """tau(chi) as _gauss_fixed gives it: each part within r of x + iy, exactly."""
    re, im, rad, scale = g._gauss_fixed(idx)
    den = 1 << scale
    return Fraction(re, den), Fraction(im, den), Fraction(rad, den)


def oracle_root_and_constant(g: CharGroup, idx) -> tuple[iv.mpc, iv.mpc]:
    """The root number and completion constant in mpmath.iv at GAUSS_BITS.

    _gauss_fixed's disc as an iv box, divided by i^parity sqrt(q), then
    unimodular_sqrt of its conjugate: the half-angle rule of
    CharGroup.char_meta, in interval arithmetic at 160 bits where
    char_meta works in integer fixed point.
    """
    x, y, r = gauss_disc(g, idx)
    if g.parity(idx) == 1:
        x, y = y, -x  # divide by i
    with ivprec(GAUSS_BITS):
        root = iv_complex(((x - r, x + r), (y - r, y + r))) / iv.sqrt(g.q)
        assert holds(abs(root) ** 2, 1), (g.q, idx)
        return root, unimodular_sqrt(iv_conj(root))


def box_width(z: ComplexBox) -> float:
    return max(z.re.width(), z.im.width())


def box_bits(z: ComplexBox) -> tuple[str, ...]:
    """The four endpoints of z as hex strings: equal iff bit-identical."""
    return tuple(v.hex() for v in (z.re.lo, z.re.hi, z.im.lo, z.im.hi))


def oracle_primitive_count(q: int) -> int:
    g = CharGroup(q)
    return sum(1 for idx in g.all_indices() if oracle_is_primitive(g, idx))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_8_special_two():
    g = CharGroup(8)
    sign, five = g.factors
    assert (sign.prime_power, sign.generator, sign.order) == (8, 7, 2)
    assert (five.prime_power, five.generator, five.order) == (8, 5, 2)
    assert g.orders == (2, 2)
    assert g.phi == 4


def test_decompose_4_single_order_2():
    g = CharGroup(4)
    assert len(g.factors) == 1
    f = g.factors[0]
    assert (f.prime_power, f.generator, f.order) == (4, 3, 2)


def test_decompose_9_generator_2():
    g = CharGroup(9)
    assert len(g.factors) == 1
    f = g.factors[0]
    assert (f.prime_power, f.generator, f.order) == (9, 2, 6)


def test_decompose_merged_even():
    g = CharGroup(6)
    assert len(g.factors) == 1
    f = g.factors[0]
    assert f.prime_power == 6 and f.order == 2 and f.generator % 2 == 1


def test_q_too_small():
    with pytest.raises(QTooSmall):
        CharGroup(2)


@pytest.mark.parametrize("q", [3, 4, 5, 6, 8, 9, 12, 15, 16, 24, 35, 40, 72, 100])
def test_orders_multiply_to_phi(q):
    g = CharGroup(q)
    prod = 1
    for o in g.orders:
        prod *= o
    assert prod == euler_phi(q) == g.phi
    assert len(list(g.all_indices())) == g.phi


@pytest.mark.parametrize("q", [9, 25, 27, 49])
def test_generator_has_stated_order(q):
    g = CharGroup(q)
    f = g.factors[0]
    assert pow(f.generator, f.order, f.prime_power) == 1
    for d in range(1, f.order):
        if f.order % d == 0 and d < f.order:
            assert pow(f.generator, d, f.prime_power) != 1 or d == f.order


def test_crt_reconstruction_unique():
    g = CharGroup(120)  # 8 * 3 * 5
    assert g.orders == (2, 4, 2, 2)  # the factors of 8 come after the odd ones
    seen = set()
    for n in range(120):
        if math.gcd(n, 120) != 1:
            continue
        coords = [int(f.dlog[n % f.prime_power]) for f in g.factors]
        assert all(c >= 0 for c in coords)
        key = tuple(coords)
        assert key not in seen
        seen.add(key)
    assert len(seen) == euler_phi(120)


# ---------------------------------------------------------------------------
# evaluation


def test_principal_character_is_one():
    g = CharGroup(7)
    for n in (1, 2, 3, 10):
        assert holds(eval_char(g, g.principal(), n), 1, 0)


def test_nontrivial_mod4_at_3():
    g = CharGroup(4)
    v = eval_char(g, (1,), 3)
    assert holds(v, -1, 0)


def test_char_vanishes_off_units():
    g = CharGroup(12)
    for idx in g.all_indices():
        v = eval_char(g, idx, 12)
        assert ends(v.real) == (0, 0)
        assert g.phase(idx, 8) is None


@pytest.mark.parametrize("q", [5, 8, 9, 12, 21, 40])
def test_multiplicativity(q):
    g = CharGroup(q)
    rng = np.random.default_rng(q)
    units = [n for n in range(1, q) if math.gcd(n, q) == 1]
    for idx in g.all_indices():
        for _ in range(8):
            n, m = rng.choice(units, 2)
            lhs = g.phase(idx, int(n) * int(m))
            rhs = (g.phase(idx, int(n)) + g.phase(idx, int(m))) % 1
            assert lhs == rhs


def test_periodicity_exact():
    g = CharGroup(15)
    for idx in g.all_indices():
        for n in range(1, 15):
            assert g.phase(idx, n) == g.phase(idx, n + 15)


# ---------------------------------------------------------------------------
# parity


def test_parity_examples():
    assert CharGroup(5).parity(CharGroup(5).principal()) == 0
    assert CharGroup(4).parity((1,)) == 1
    g3 = CharGroup(3)
    nontrivial = [i for i in g3.all_indices() if i != g3.principal()][0]
    assert g3.parity(nontrivial) == 1


@pytest.mark.parametrize("q", [5, 8, 9, 16, 21])
def test_parity_matches_phase_at_minus_one(q):
    g = CharGroup(q)
    for idx in g.all_indices():
        ph = g.phase(idx, q - 1)
        assert g.parity(idx) == (0 if ph == 0 else 1)
        assert g.parity(idx) == g.parity(g.conjugate(idx))


# ---------------------------------------------------------------------------
# primitivity


def test_principal_never_primitive():
    for q in (3, 4, 5, 9, 12):
        g = CharGroup(q)
        assert not g.is_primitive(g.principal())


def test_nontrivial_mod4_primitive():
    assert CharGroup(4).is_primitive((1,))


def test_mod9_exponent3_factors_through_mod3():
    g = CharGroup(9)
    assert not g.is_primitive((3,))
    assert not oracle_is_primitive(g, (3,))


@pytest.mark.parametrize("q", list(range(3, 101)) + [105, 120, 128, 144, 200])
def test_primitive_rules_match_definition(q):
    g = CharGroup(q)
    for idx in g.all_indices():
        assert g.is_primitive(idx) == oracle_is_primitive(g, idx), (q, idx)


def test_primitive_count_zero_for_2_mod_4():
    for q in (6, 10, 14, 18, 22):
        assert not CharGroup(q).primitive_indices()


def test_conjugate_involution():
    g = CharGroup(35)
    for idx in g.all_indices():
        assert g.conjugate(g.conjugate(idx)) == idx


def test_canonical_index_is_one_shared_int_tuple():
    g = CharGroup(7)
    first = g.canonical([np.int64(1)])
    assert first == (1,) and type(first[0]) is int
    assert g.canonical((1,)) is first
    assert g.canonical(g.conjugate((5,))) is first


# ---------------------------------------------------------------------------
# Gauss sums and root numbers


def brute_gauss_sum(q: int, g: CharGroup, idx, prec=200):
    with mpmath.workprec(prec):
        acc = mpmath.mpc(0)
        for a in range(1, q):
            ph = g.phase(idx, a)
            if ph is None:
                continue
            total = ph + Fraction(a, q)
            acc += mpmath.expjpi(2 * mpmath.mpf(total.numerator) / total.denominator)
        return acc


def test_root_number_mod4():
    g = CharGroup(4)
    x, y, r = gauss_disc(g, (1,))
    # tau = e(1/4) - e(3/4) = 2i
    assert abs(x) <= r and abs(y - 2) <= r
    eps = g.char_meta((1,)).root_number
    assert holds(eps[0], 1, 0)


def test_root_number_quadratic_mod5():
    g = CharGroup(5)
    quad = None
    for idx in g.all_indices():
        if idx != g.principal() and g.conjugate(idx) == idx:
            quad = idx
    assert quad is not None
    x, y, r = gauss_disc(g, quad)
    with mpmath.workprec(300):
        root5 = _mp_fraction(mpmath.sqrt(5))
    assert abs(x - root5) <= r and abs(y) <= r
    eps = g.char_meta(quad).root_number
    assert holds(eps[0], 1, 0)


def test_gauss_sum_matches_brute_force():
    for q, idx in [(5, (1,)), (8, (1, 1)), (9, (1,)), (12, (1, 1)), (35, (1, 2))]:
        g = CharGroup(q)
        x, y, r = gauss_disc(g, idx)
        ref = brute_gauss_sum(q, g, idx, prec=300)
        assert abs(x - _mp_fraction(ref.real)) <= r, (q, idx)
        assert abs(y - _mp_fraction(ref.imag)) <= r, (q, idx)


def _assert_unit_powers_within_radius(n: int, shift: int):
    """Every entry lies within rad 2^-shift of e(k/n), checked at 50 digits."""
    re, im, rad = fixed_unit_powers(n, shift)
    with mpmath.workdps(50):
        scale = mpmath.mpf(2) ** -shift
        bound = rad * scale
        for k in range(n):
            z = mpmath.mpc(int(re[k]), int(im[k])) * scale
            assert abs(z - mpmath.expjpi(mpmath.mpf(2 * k) / n)) <= bound, (n, shift, k)


def test_fixed_unit_powers_within_radius_at_low_shift():
    """A thousand rounded products at shift 56 make the radius matter."""
    _assert_unit_powers_within_radius(1000, 56)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_fixed_unit_powers_exact_at_quarter_turns(n):
    """e(k/n) is 1, i, -1 or -i when n divides 4: exact, with radius 0."""
    re, im, rad = fixed_unit_powers(n, 60)
    exact = [(1, 0), (0, 1), (-1, 0), (0, -1)][:: 4 // n]
    assert [(int(x), int(y)) for x, y in zip(re, im)] == [(x << 60, y << 60) for x, y in exact]
    assert rad == 0


@pytest.mark.parametrize("n, shift", [(1000, 20), (7, 30)])
def test_fixed_unit_powers_below_the_tier_floor(n, shift):
    """Shifts below 56, where e(1/n) once came from a 64-bit floor, stay
    within the radius."""
    _assert_unit_powers_within_radius(n, shift)


@pytest.mark.parametrize("sx, sy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(0, 2**200),
    y=st.integers(0, 2**200),
    d=st.integers(1, 2**120),
    r=st.integers(0, 2**40),
    scale=st.integers(0, 400),
)
def test_fixed_quotient_holds_parts_of_either_sign(sx, sy, x, y, d, r, scale):
    """_root_and_constant passes Gauss-sum parts of either sign: every
    (x + iy)/D + delta with d <= D < d + 1 and |delta| <= r/d lies in the
    ends, checked exactly at D = d, d + 1/2 and d + 1 - 2^-64 and at each
    part of delta -r/d, 0 and r/d."""
    x, y = sx * x, sy * y
    re_lo, re_hi, im_lo, im_hi = fixed_quotient(x, y, d, r, scale)
    for D in (Fraction(d), d + Fraction(1, 2), d + 1 - Fraction(1, 2**64)):
        for v, lo, hi in ((x, re_lo, re_hi), (y, im_lo, im_hi)):
            for delta in (Fraction(-r, d), Fraction(0), Fraction(r, d)):
                assert Fraction(lo) <= v / D + delta <= Fraction(hi), (v, D, delta)


def _mp_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


# one modulus per group shape: odd prime, odd prime power, 4, 8, 2^a, 2^a p
@pytest.mark.parametrize("q", [11, 27, 4, 8, 32, 24, 20])
def test_gauss_sum_every_primitive_character_per_group_shape(q):
    g = CharGroup(q)
    prims = g.primitive_indices()
    assert prims
    for idx in prims:
        x, y, r = gauss_disc(g, idx)
        ref = brute_gauss_sum(q, g, idx, prec=300)
        assert abs(x - _mp_fraction(ref.real)) <= r, (q, idx)
        assert abs(y - _mp_fraction(ref.imag)) <= r, (q, idx)
        assert 2 * r < 1e-40, (q, idx)


def test_root_number_modulus_one_random_primitives():
    rng = np.random.default_rng(7)
    count = 0
    for q in (5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 23, 24, 25, 28, 29, 31, 32):
        g = CharGroup(q)
        prim = g.primitive_indices()
        take = min(8, len(prim))
        for pos in rng.choice(len(prim), size=take, replace=False):
            idx = prim[int(pos)]
            eps = g.char_meta(idx).root_number
            assert holds(eps.abs2()[0], 1), (q, idx)
            count += 1
    assert count >= 100


def test_root_number_conjugate_intersects_conj():
    g = CharGroup(13)
    for idx in g.primitive_indices()[:4]:
        conj = g.conjugate(idx)
        e1 = g.char_meta(idx).root_number
        e2 = g.char_meta(conj).root_number
        assert e1.conj()[0].intersects(e2[0])
        # the same identity at 160 bits, and each hardware box holds its oracle
        o1, o2 = oracle_root_and_constant(g, idx)[0], oracle_root_and_constant(g, conj)[0]
        assert meets(iv_conj(o1), o2)
        assert covers(e1[0], o1) and covers(e2[0], o2)


def test_root_number_requires_primitive():
    g = CharGroup(9)
    with pytest.raises(NotPrimitive):
        g.char_meta((3,))


def test_char_meta_refuses_a_root_number_off_the_unit_circle(monkeypatch):
    # a Gauss sum of twice its modulus gives |epsilon|^2 near 4, not 1
    original = CharGroup._gauss_fixed

    def doubled(self, idx):
        re, im, rad, scale = original(self, idx)
        return 2 * re, 2 * im, rad, scale

    monkeypatch.setattr(CharGroup, "_gauss_fixed", doubled)
    g = CharGroup(13)
    with pytest.raises(HypothesisViolated, match=r"misses 1 for index \(5,\) mod 13"):
        g.char_meta((5,))
    assert not g._metas


# ---------------------------------------------------------------------------
# completion constants


def test_lambda_prefactor_squares_to_conj_root_number():
    # the completion constant char_meta(idx).epsilon is the prefactor
    for q in (5, 7, 8, 12, 13, 17, 21, 40, 101, 1009):
        g = CharGroup(q)
        for idx in g.primitive_indices():
            eps, w = oracle_root_and_constant(g, idx)
            with ivprec(GAUSS_BITS):
                assert meets(w * w, iv_conj(eps)), (q, idx)
                assert holds(abs(w) ** 2, 1)
            meta = g.char_meta(idx)
            hw_w, hw_eps = meta.epsilon, meta.root_number
            assert covers(hw_w[0], w) and covers(hw_eps[0], eps), (q, idx)
            assert (hw_w * hw_w)[0].intersects(hw_eps.conj()[0]), (q, idx)


def test_lambda_prefactor_real_for_quadratic():
    # real primitive characters have root number 1, so the prefactor is +-1
    for q, idx in [(5, (2,)), (8, (0, 1)), (12, (1, 1))]:
        g = CharGroup(q)
        assert g.conjugate(idx) == idx and g.is_primitive(idx)
        for w in (oracle_root_and_constant(g, idx)[1], g.char_meta(idx).epsilon[0]):
            assert holds(w, 1, 0) or holds(w, -1, 0)


def _epsilon_cases():
    """Every primitive character mod q <= 200, and a sample mod 1009, 1024, 4099."""
    for q in range(3, 201):
        g = char_group(q)
        for idx in g.primitive_indices():
            yield g, idx
    rng = np.random.default_rng(15)
    for q in (1009, 1024, 4099):
        g = char_group(q)
        prim = g.primitive_indices()
        picks = {int(pos) for pos in rng.choice(len(prim), size=12, replace=False)}
        real = [i for i, idx in enumerate(prim) if g.conjugate(idx) == idx]
        for pos in sorted(picks | set(real)):
            yield g, prim[pos]


def test_hardware_completion_constant_contains_the_160_bit_oracle():
    count = 0
    for g, idx in _epsilon_cases():
        w = oracle_root_and_constant(g, idx)[1]
        eps = g.char_meta(idx).epsilon[0]
        assert covers(eps, w), (g.q, idx)
        # each side is the exact value rounded outward once: two ulps of 1 at most
        assert box_width(eps) <= 2 * math.ulp(1.0), (g.q, idx, box_width(eps))
        count += 1
    assert count > 4700


@pytest.mark.parametrize("idx", [(7,), (-1,), (1, 2), (), (6,)])
def test_canonical_refuses_malformed_indices(idx):
    g = CharGroup(9)  # one cyclic factor of order 6
    with pytest.raises(ValueError, match=r"mod 9"):
        g.canonical(idx)
    with pytest.raises(ValueError, match=r"mod 9"):
        g.char_meta(idx)


def test_char_meta_fields():
    assert [f.name for f in fields(CharMeta)] == ["parity", "epsilon", "root_number"]
    g = CharGroup(5)
    meta = g.char_meta((1,))
    assert meta.parity == 1
    assert holds(meta.epsilon.abs2()[0], 1) and holds(meta.root_number.abs2()[0], 1)
    # the conjugate character has the same parity and the conjugate root number
    again = g.char_meta(g.conjugate((1,)))
    assert again.parity == 1
    assert again.root_number[0].intersects(meta.root_number.conj()[0])


def _count_gauss_sums(monkeypatch) -> list:
    """Patch CharGroup._gauss_fixed to record (q, idx) of every call."""
    calls = []
    original = CharGroup._gauss_fixed

    def counted(self, idx):
        calls.append((self.q, idx))
        return original(self, idx)

    monkeypatch.setattr(CharGroup, "_gauss_fixed", counted)
    return calls


def test_char_meta_refuses_imprimitive_before_any_gauss_sum(monkeypatch):
    calls = _count_gauss_sums(monkeypatch)
    g = CharGroup(9)
    for idx in [(3,), [np.int64(0)]]:
        with pytest.raises(NotPrimitive, match=r"index \((3|0),\) mod 9 is imprimitive"):
            g.char_meta(idx)
    assert calls == [] and not g._metas


def test_char_meta_and_root_number_are_kept_per_character(monkeypatch):
    # a character's Gauss sum runs once over the life of its group, for any
    # spelling of its index, and its root number is read off the kept meta
    calls = _count_gauss_sums(monkeypatch)
    g = CharGroup(1009)
    meta = g.char_meta((3,))
    assert g.char_meta((3,)) is meta and g.char_meta([np.int64(3)]) is meta
    assert g.char_meta([3]).root_number is meta.root_number
    eps = g.char_meta((700,)).root_number
    assert g.char_meta((700,)).root_number is eps
    assert calls == [(1009, (3,)), (1009, (700,))]
    # a new group keeps its own
    assert CharGroup(1009).char_meta((3,)) is not meta
    assert calls[-1] == (1009, (3,)) and len(calls) == 3


@pytest.mark.parametrize("q", [8, 101, 1024])
def test_kept_char_meta_matches_a_fresh_group(q):
    # every character asked for once, then read back from the kept dict,
    # against a second group that computes each one on first use
    g, other = CharGroup(q), CharGroup(q)
    for idx in g.primitive_indices():
        g.char_meta(idx)
    for idx in g.primitive_indices():
        kept, fresh = g.char_meta(idx), other.char_meta(idx)
        assert kept.parity == fresh.parity
        assert box_bits(kept.epsilon[0]) == box_bits(fresh.epsilon[0]), (q, idx)
        assert box_bits(kept.root_number[0]) == box_bits(fresh.root_number[0]), (q, idx)


def test_unimodular_sqrt_covers_all_quadrants():
    near = Fraction(1, 10**9)
    turns = [Fraction(num, 8) for num in range(8)]
    # near +-i and -1, on both sides; the boxes at +-i straddle Re z = 0,
    # the one at -1 straddles Im z = 0
    turns += [Fraction(1, 4) + near, Fraction(1, 4) - near, Fraction(3, 4) + near]
    turns += [Fraction(3, 4) - near, Fraction(1, 2) + near, Fraction(1, 2) - near]
    with ivprec(120):
        for pad in (Fraction(0), Fraction(1, 10**30)):
            r = iv_real(pad).b
            for turn in turns:
                point = iv.exp(iv.mpc(0, 2 * iv.pi * iv_real(turn)))
                z = point + iv.mpc(iv.mpf([-r, r]), iv.mpf([-r, r]))
                w = unimodular_sqrt(z)
                assert covers(w * w, point), turn
                assert holds(abs(w) ** 2, 1), turn
                if ends(z.real)[1] >= 0:
                    assert ends(w.real)[0] > 0, turn


# ---------------------------------------------------------------------------
# misc


def test_factorize_and_phi():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert euler_phi(1) == 1
    assert euler_phi(97) == 96
    assert euler_phi(120) == 32


def test_unit_phase_exact_quadrants():
    for fr, (re, im) in [
        (Fraction(0), (1, 0)),
        (Fraction(1, 2), (-1, 0)),
        (Fraction(1, 4), (0, 1)),
        (Fraction(3, 4), (0, -1)),
    ]:
        v = unit_phase(fr)
        assert ends(v.real) == (re, re) and ends(v.imag) == (im, im)


def test_index_label_roundtrip():
    q, idx = 40, (1, 0, 3)
    assert parse_index_label(index_label(q, idx)) == (q, idx)


def test_char_group_cache():
    assert char_group(15) is char_group(15)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=400))
def test_group_structure_random_q(q):
    g = CharGroup(q)
    prod = 1
    for o in g.orders:
        prod *= o
    assert prod == euler_phi(q)
    # a random character is multiplicative on a few pairs
    rng = np.random.default_rng(q)
    idx = tuple(int(rng.integers(0, o)) for o in g.orders)
    units = [n for n in range(1, q) if math.gcd(n, q) == 1]
    for _ in range(5):
        n, m = int(rng.choice(units)), int(rng.choice(units))
        assert g.phase(idx, n * m) == (g.phase(idx, n) + g.phase(idx, m)) % 1
