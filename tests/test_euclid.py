"""Euclid on `MPoly`: `mpoly._divmod`, the univariate gcd that `MRat` cancels
with, and the inverse modulo th^root - x that clears a radical denominator.

The reference is a dense coefficient-list Euclid, kept here only to compare
against: coefficient lists, lowest degree first, over the ring's coefficient
field; the empty list is zero.
"""

import random
from fractions import Fraction

import pytest

from conftest import degree_in, rand_small_entry
from diffgal.mpoly import MPoly, PolyRing, _cancel_univariate, _divmod
from diffgal.ratfield import RatFunc
from diffgal.tower import Tower, _rationalize_radical

X = RatFunc.x()


# -- reference: dense univariate Euclid -------------------------------------------


def to_dense(p, i):
    out = [p.ring.czero] * (degree_in(p, i) + 1)
    for m, c in p.terms.items():
        out[m[i]] = c
    return out


def from_dense(cs, i, ring):
    zeros = (0,) * ring.nvars
    return MPoly(ring, {zeros[:i] + (e,) + zeros[i + 1:]: c for e, c in enumerate(cs) if c})


def trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def dense_divmod(a, b, ring):
    r = trim(list(a))
    db = len(b) - 1
    q = [ring.czero] * max(1, len(r) - db)
    while r and len(r) - 1 >= db:
        f = r[-1] / b[-1]
        off = len(r) - 1 - db
        q[off] = f
        for k, c in enumerate(b):
            r[off + k] = r[off + k] - f * c
        trim(r)
    return q, r


def dense_gcd(a, b, ring):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, dense_divmod(a, b, ring)[1]
    return a


def dense_mul(a, b, ring):
    out = [ring.czero] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def dense_sub(a, b, ring):
    z = ring.czero
    return [(a[k] if k < len(a) else z) - (b[k] if k < len(b) else z)
            for k in range(max(len(a), len(b)))]


def dense_inverse_mod(a, m, ring):
    """Extended Euclid tracking the cofactor of a; None when gcd(a, m) is not constant."""
    r0, r1 = list(m), trim(list(a))
    s0, s1 = [ring.czero], [ring.cone]
    while r1:
        if len(r1) == 1:
            inv = ring.cone / r1[0]
            return [c * inv for c in s1]
        q, r = dense_divmod(r0, r1, ring)
        r0, r1 = r1, r
        s0, s1 = s1, dense_sub(s0, dense_mul(q, s1, ring), ring)
    return None


def ref_cancel_univariate(num, den, i):
    ring = num.ring
    a, b = to_dense(num, i), to_dense(den, i)
    g = dense_gcd(a, b, ring)
    if len(g) <= 1:
        return num, den
    return (from_dense(dense_divmod(a, g, ring)[0], i, ring),
            from_dense(dense_divmod(b, g, ring)[0], i, ring))


def ref_rationalize(tower, num, den, idx, root):
    modulus = [-X] + [RatFunc.zero()] * (root - 1) + [RatFunc.one()]
    inv = dense_inverse_mod(to_dense(den, idx), modulus, den.ring)
    if inv is None:
        return num, den
    inv = from_dense(inv, idx, den.ring)
    return tower.reduce_poly(num * inv), tower.reduce_poly(den * inv)


# -- random univariate polynomials -------------------------------------------------


def rand_coeff(rng, ring):
    if ring.coeff == "rational":
        return Fraction(rng.choice([c for c in range(-6, 7) if c]), rng.randint(1, 3))
    return rand_small_entry(rng)


def rand_univariate(rng, ring, i, deg, lo=0):
    """A polynomial in the i-th variable with degree exactly deg (> lo - 1)."""
    zeros = (0,) * ring.nvars
    terms = {zeros[:i] + (e,) + zeros[i + 1:]: rand_coeff(rng, ring)
             for e in range(lo, deg + 1) if e == deg or rng.random() < 0.7}
    return MPoly(ring, terms)


RINGS = [PolyRing(("a", "b", "c"), coeff=coeff, order=order)
         for coeff in ("rational", "ratfunc") for order in ("degrevlex", "lex")]


class TestDivmod:
    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_matches_dense_reference(self, ring):
        rng = random.Random(14)
        for _ in range(25):
            i = rng.randrange(ring.nvars)
            a = rand_univariate(rng, ring, i, rng.randint(0, 7))
            b = rand_univariate(rng, ring, i, rng.randint(1, 4))
            q, r = _divmod(a, b)
            dq, dr = dense_divmod(to_dense(a, i), to_dense(b, i), ring)
            assert q.terms == from_dense(dq, i, ring).terms
            assert r.terms == from_dense(dr, i, ring).terms
            assert q * b + r == a
            assert degree_in(r, i) < degree_in(b, i)

    def test_zero_and_constant_dividend(self):
        ring = RINGS[0]
        b = ring.var("b") ** 3 + ring.const(2)
        assert _divmod(ring.zero(), b) == (ring.zero(), ring.zero())
        assert _divmod(ring.const(5), b) == (ring.zero(), ring.const(5))

    def test_zero_divisor_raises(self):
        ring = RINGS[0]
        with pytest.raises(ValueError):
            _divmod(ring.var("a"), ring.zero())


class TestCancelUnivariate:
    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    @pytest.mark.parametrize("planted", [True, False])
    def test_matches_dense_reference(self, ring, planted):
        rng = random.Random(1400 + planted)
        cancelled = 0
        for _ in range(20):
            i = rng.randrange(ring.nvars)
            # Without a zero constant term the pair shares no monomial content.
            f = rand_univariate(rng, ring, i, rng.randint(0, 3))
            h = rand_univariate(rng, ring, i, rng.randint(1, 3))
            f, h = f + ring.const(1), h + ring.const(2)
            if planted:
                g = rand_univariate(rng, ring, i, rng.randint(1, 3)) + ring.const(3)
                f, h = f * g, h * g
            if not f or not h:
                continue
            got = _cancel_univariate(f, h, i)
            want = ref_cancel_univariate(f, h, i)
            assert got[0].terms == want[0].terms and got[1].terms == want[1].terms
            assert got[0] * h == got[1] * f
            cancelled += degree_in(got[1], i) < degree_in(h, i)
        assert cancelled >= 15 if planted else cancelled <= 5


class TestRationalizeRadical:
    @pytest.mark.parametrize("root", [2, 3, 4, 5, 6, 7])
    def test_matches_dense_reference(self, root):
        rng = random.Random(root)
        tw = Tower()
        tw.add_radical("r", root)
        ring = tw.ring
        modulus = ring.var("r") ** root - X
        for _ in range(6):
            den = rand_univariate(rng, ring, 0, rng.randint(1, min(root - 1, 4)))
            num = rand_univariate(rng, ring, 0, rng.randint(0, root - 1))
            got = _rationalize_radical(tw, num, den)
            assert got == ref_rationalize(tw, num, den, 0, root)
            assert not got[1].involves(0)
            # den * inv = 1 modulo r^root - x
            inv, one = _rationalize_radical(tw, ring.one(), den)
            assert one == ring.one()
            assert tw.reduce_poly(den * inv) == ring.one()
            assert _divmod(den * inv - ring.one(), modulus)[1].is_zero()

    def test_radical_after_other_generators(self):
        """The slot indexes the radical among log, integral and exp generators."""
        tw = Tower()
        assert tw.radical is None
        tw.add_log("L", X)
        tw.add_integral("s", 1 / (X + 1))
        r = tw.add_radical("r", 3)
        t = tw.add_exp("t", tw.x())
        assert tw.radical == (2, 3)
        e = (t + 1) / (r * r + r + 1)
        assert not e.den.involves(2)
        assert e * (r * r + r + 1) == t + 1
        assert r ** 4 == r * X
        assert str(r ** 7) == "x^2*r"

    def test_mixed_denominator_stays(self):
        tw = Tower()
        r = tw.add_radical("r", 2)
        t = tw.add_exp("t", tw.x())
        e = 1 / (r + t)
        assert e.den.involves(0) and e.den.involves(1)
        assert e * (r + t) == 1
