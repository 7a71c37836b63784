"""The integer-backed UPoly kernel against a Fraction-list reference."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from conftest import upoly_eval
from diffgal.errors import PrintLimitExceeded
from diffgal.ratfield import RatFunc, UPoly, _coprime_mod_p, poly_str

SEEDS = range(6)


# -- reference: dense Fraction lists, coefficient i multiplying x^i ----------


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_neg(a):
    return [-c for c in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        off = len(r) - len(b)
        q[off] = c
        for j, y in enumerate(b):
            r[off + j] -= c * y
        r = ref_trim(r)
    return ref_trim(q), r


def ref_monic(a):
    return [c / a[-1] for c in a] if a else []


def ref_derivative(a):
    return ref_trim([i * a[i] for i in range(1, len(a))])


def ref_eval(a, v):
    return sum((c * v**i for i, c in enumerate(a)), Fraction(0))


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def rand_coeffs(rng, max_deg, big=False):
    hi = 10**30 if big else 9
    out = []
    for _ in range(rng.randint(0, max_deg) + 1):
        num = rng.randint(-hi, hi)
        den = rng.choice([1, 1, 2, 3, 6, 7, 10**12 + 39]) if rng.random() < 0.5 else 1
        out.append(Fraction(num, den))
    return ref_trim(out)


def assert_canonical(p):
    assert type(p.ints) is tuple and all(type(v) is int for v in p.ints)
    assert type(p.denom) is int and p.denom > 0
    assert not p.ints or p.ints[-1] != 0
    assert math.gcd(p.denom, *p.ints) == 1
    if not p.ints:
        assert p.denom == 1
    assert p.coeffs == tuple(Fraction(v, p.denom) for v in p.ints)
    rebuilt = UPoly(p.coeffs)
    assert (rebuilt.ints, rebuilt.denom) == (p.ints, p.denom)
    assert hash(rebuilt) == hash(p)


def check(p, ref):
    assert_canonical(p)
    assert list(p.coeffs) == ref


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        big = rng.random() < 0.3
        a, b = rand_coeffs(rng, 7, big), rand_coeffs(rng, 7, big)
        pa, pb = UPoly(a), UPoly(b)
        check(pa, a)
        check(pb, b)
        check(pa + pb, ref_add(a, b))
        check(pa - pb, ref_add(a, ref_neg(b)))
        check(-pa, ref_neg(a))
        check(pa * pb, ref_mul(a, b))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        check(pa * c, ref_mul(a, [c] if c else []))
        check(c * pa, ref_mul(a, [c] if c else []))
        check(pa + c, ref_add(a, [c] if c else []))
        check(c - pa, ref_add([c] if c else [], ref_neg(a)))
        check(pa**3, ref_mul(a, ref_mul(a, a)))
        check(pa.monic(), ref_monic(a))
        check(pa.derivative(), ref_derivative(a))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert upoly_eval(pa, v) == ref_eval(a, v)
        assert type(upoly_eval(pa, v)) is Fraction
        assert upoly_eval(pa, 3) == ref_eval(a, Fraction(3))
        assert pa.lc == (a[-1] if a else 0)
        assert [pa[k] for k in range(-1, len(a) + 2)] == [0] + a + [0, 0]
        if b:
            q, r = divmod(pa, pb)
            qr, rr = ref_divmod(a, b)
            check(q, qr)
            check(r, rr)


@pytest.mark.parametrize("seed", SEEDS)
def test_xgcd_matches_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        common = rand_coeffs(rng, 2)
        a = ref_mul(rand_coeffs(rng, 5), common or [Fraction(1)])
        b = ref_mul(rand_coeffs(rng, 5), common or [Fraction(1)])
        pa, pb = UPoly(a), UPoly(b)
        g, s, t = pa.xgcd(pb)
        for p in (g, s, t):
            assert_canonical(p)
        check(s * pa + t * pb, list(g.coeffs))
        check(g, ref_gcd(a, b))
        check(pa.gcd(pb), ref_gcd(a, b))


def test_zero_and_constants_are_canonical():
    zero = UPoly([Fraction(0), 0, Fraction(0, 5)])
    check(zero, [])
    assert zero == UPoly.zero() == 0
    check(UPoly.x() - UPoly.x(), [])
    check(UPoly([Fraction(4, 6), Fraction(2, 6)]), [Fraction(2, 3), Fraction(1, 3)])
    p = UPoly([Fraction(1, 2), Fraction(-3, 2)])
    assert (p.ints, p.denom) == ((1, -3), 2)
    m = p.monic()
    assert (m.ints, m.denom) == ((-1, 3), 3)
    check(UPoly((0, 0, 1)) * Fraction(1, 2) * 2, [0, 0, 1])
    check(UPoly((0, 0, Fraction(1, 2))).derivative(), [0, 1])
    check(UPoly((1, 1, 1)).integral(), [0, 1, Fraction(1, 2), Fraction(1, 3)])


def _sympy_gcd(a, b):
    x = sympy.Symbol("x")
    pa = sympy.Poly(list(reversed(a)), x, domain="QQ")
    pb = sympy.Poly(list(reversed(b)), x, domain="QQ")
    g = sympy.gcd(pa, pb).monic()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]


@pytest.mark.parametrize("seed", SEEDS)
def test_gcd_of_planted_factor_matches_sympy(seed):
    rng = random.Random(200 + seed)
    for _ in range(10):
        common = rand_coeffs(rng, 4, big=rng.random() < 0.5)
        if len(common) < 2:
            common = [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(1, 9))]
        a = ref_mul(common, rand_coeffs(rng, 6) or [Fraction(1)])
        b = ref_mul(common, rand_coeffs(rng, 6) or [Fraction(1)])
        g = UPoly(a).gcd(UPoly(b))
        check(g, _sympy_gcd(a, b))
        assert g.degree >= len(common) - 1


def _int_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_coprime_mod_p_never_certifies_a_common_factor(p):
    rng = random.Random(p)
    ran_euclid = 0
    for _ in range(300):
        leads = [rng.choice([1, p, rng.randint(1, 50)]) for _ in range(3)]
        common = [rng.randint(-20, 20) for _ in range(rng.randint(1, 3))] + [leads[0]]
        a = _int_product(common, [rng.randint(-20, 20) for _ in range(rng.randint(0, 4))] + [leads[1]])
        b = _int_product(common, [rng.randint(-20, 20) for _ in range(rng.randint(0, 4))] + [leads[2]])
        assert _coprime_mod_p(a, b, p) is False
        assert _coprime_mod_p(b, a, p) is False
        ran_euclid += a[-1] % p != 0 and b[-1] % p != 0
    assert ran_euclid > 30
    # Leading coefficients divisible by p are never a certificate; a unit
    # leading coefficient and a constant remainder are.
    assert _coprime_mod_p([1, 0, p], [1, p], p) is False
    assert _coprime_mod_p([1, p], [2, 1], p) is False
    assert _coprime_mod_p([1, 0, 1], [0, 1], p) is True


def test_constant_hash_agrees_with_equality():
    for value in (0, 2, -7, Fraction(1, 2), Fraction(-9, 4)):
        for obj in (UPoly((value,)), RatFunc.from_fraction(Fraction(value))):
            assert obj == value
            assert hash(obj) == hash(value) == hash(Fraction(value))
            assert {obj: "found"}.get(value) == "found"
            assert {value: "found"}.get(obj) == "found"
    assert {UPoly((2,)): 1}.get(2) == 1
    assert {RatFunc.from_int(2): 1}.get(2) == 1


def test_polynomial_ratfunc_hashes_as_its_upoly():
    p = UPoly((1, Fraction(2, 3), 5))
    assert RatFunc(p) == p
    assert hash(RatFunc(p)) == hash(p)
    f = RatFunc(UPoly.one(), UPoly((1, 1)))
    assert f == RatFunc(UPoly((2,)), UPoly((2, 2)))
    assert hash(f) == hash(RatFunc(UPoly((2,)), UPoly((2, 2))))


def test_sub_defers_to_the_other_operand():
    diff = UPoly.x() - RatFunc.x()
    assert isinstance(diff, RatFunc) and diff.is_zero()
    assert UPoly.x() - RatFunc.from_int(1) == RatFunc(UPoly((-1, 1)))
    assert UPoly.x() + RatFunc.x() == RatFunc(UPoly((0, 2)))
    assert UPoly.x() - Fraction(1, 2) == UPoly((Fraction(-1, 2), 1))
    assert 3 - UPoly.x() == UPoly((3, -1))

    class OnlyRsub:
        def __rsub__(self, other):
            return "rsub"

    assert UPoly.x() - OnlyRsub() == "rsub"


@pytest.mark.parametrize("op", [
    lambda p: p - 1.5, lambda p: 1.5 - p, lambda p: p + 1.5, lambda p: p * 1.5,
    lambda p: UPoly((1.5,)),
])
def test_floats_still_raise_type_error(op):
    with pytest.raises(TypeError):
        op(UPoly.x())


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_at_fractional_and_negative_points(seed):
    rng = random.Random(seed)
    points = [Fraction(0), Fraction(-1), Fraction(-7, 3), Fraction(5, 12), Fraction(-10**20, 3)]
    for _ in range(30):
        a = rand_coeffs(rng, 7, rng.random() < 0.3)
        pa = UPoly(a)
        for v in points + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))]:
            got = upoly_eval(pa, v)
            assert got == ref_eval(a, v) and type(got) is Fraction
        assert upoly_eval(pa, -4) == ref_eval(a, Fraction(-4))
    zero = UPoly.zero()
    for v in points + [3]:
        assert upoly_eval(zero, v) == 0 and type(upoly_eval(zero, v)) is Fraction


# -- printing ------------------------------------------------------------------


def ref_poly_str(p, var="x"):
    """The formatter `poly_str` replaced: one `Fraction` per coefficient."""

    def frac_str(c):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        a = abs(c)
        if k == 0:
            body = frac_str(a)
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if a == 1 else f"{frac_str(a)}*{xs}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


@pytest.mark.parametrize("seed", SEEDS)
def test_poly_str_matches_fraction_formatter(seed):
    rng = random.Random(300 + seed)
    for _ in range(200):
        cs = [rng.choice((0, 0, 1, -1, Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                          Fraction(rng.getrandbits(90) - 2**89, rng.randint(1, 10**9))))
              for _ in range(rng.randint(0, 8))]
        p = UPoly(cs)
        assert poly_str(p) == ref_poly_str(p)
        assert poly_str(p, "z") == ref_poly_str(p, "z")


@pytest.mark.parametrize("coeffs, digits", [
    ([0, 10**5000], 5001),
    ([Fraction(1, 3 * 10**4400), 1], 4401),
    ([-(10**4299), Fraction(7, 2)], None),
])
def test_poly_str_digit_limit(int_str_limit, coeffs, digits):
    p = UPoly(coeffs)
    if digits is None:
        assert poly_str(p) == ref_poly_str(p)
        return
    with pytest.raises(PrintLimitExceeded, match=f"has {digits} digits, more than the 4300"):
        poly_str(p)
