"""Integrability deciders, elementary witnesses, classifier oracles."""

from fractions import Fraction

import pytest

from conftest import rand_ratfunc
import diffgal.integrab as integrab
from diffgal.errors import NotSupported
from diffgal.integrab import (
    IntegrabilityVerdict,
    _lifted_roots,
    classify_exp,
    classify_log,
    classify_radical,
    elementary_n_witness,
    infinity_integrable_in_Cx,
    rational_log_parts,
)
from diffgal.parsing import parse_ratfunc
from diffgal.ratfield import RatFunc, UPoly, _primitive_int_list
from diffgal.tower import Tower, TowerExpr, laurent_normal

X = RatFunc.x()


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class TestInfinityIntegrable:
    def test_goldens(self):
        assert infinity_integrable_in_Cx(X**5).is_integrable
        assert not infinity_integrable_in_Cx(1 / X).is_integrable
        assert not infinity_integrable_in_Cx((X**2 - 1) / (X + 2)).is_integrable

    def test_agrees_with_polynomial_membership(self, rng):
        for _ in range(100):
            g = rand_ratfunc(rng, 5)
            assert infinity_integrable_in_Cx(g).is_integrable == g.is_polynomial()


class TestRationalLogParts:
    def test_single_log(self):
        parts = rational_log_parts(1 / X)
        assert parts == [(Fraction(1), UPoly.x())]

    def test_split_required(self):
        parts = rational_log_parts(1 / (X**2 - 1))
        assert sorted(str(f) for _, f in parts) == ["x + 1", "x - 1"]
        assert sorted(c for c, _ in parts) == [Fraction(-1, 2), Fraction(1, 2)]

    def test_equal_residues_no_split(self):
        parts = rational_log_parts((3 * X**2 + 1) / (X**3 + X))
        assert parts == [(Fraction(1), (UPoly.x() ** 3 + UPoly.x()).monic())]

    def test_irrational_residues(self):
        with pytest.raises(NotSupported):
            rational_log_parts(1 / (X**2 - 2))

    def test_root_search_counts_candidates(self):
        """5040 has 60 divisors, so (5040 x - 1)(x - 5040) has 2 * 60 * 60
        candidate roots over the divisors; lifting the roots modulo a prime
        tries none of them."""
        roots = _lifted_roots([5040, -(5040**2 + 1), 5040])
        assert sorted(Fraction(a, b) for a, b in roots) == [Fraction(1, 5040), 5040]

    def test_root_candidates_in_lowest_terms(self):
        """Each root comes once, in lowest terms with a positive denominator,
        from the squarefree part of a product of random linear factors."""
        import random
        from math import gcd

        rng = random.Random(34)
        for _ in range(40):
            p = UPoly((rng.choice((1, 2, 3, 5)),))
            want = set()
            for _ in range(rng.randint(1, 4)):
                m, k = rng.randint(-12, 12) or 1, rng.choice((1, 2, 3, 4, 6, 8, 9))
                p = p * UPoly((m, k))
                want.add(Fraction(-m, k))
            squarefree = p.cofactors(p.derivative())[1]
            got = _lifted_roots(_primitive_int_list(squarefree.ints))
            assert all(b > 0 and gcd(a, b) == 1 for a, b in got)
            assert len(got) == len(want) and {Fraction(a, b) for a, b in got} == want


class TestElementaryWitness:
    def test_log_power_family(self):
        for n in range(1, 7):
            w = elementary_n_witness(1 / X, n)
            tower = w.tower
            assert len(tower.gens) == 1
            gen = tower.gens[0]
            assert gen.kind == "log" and gen.argument.as_ratfunc() == X
            expected = tower.gen_expr(gen.name) * RatFunc(
                UPoly.monomial(Fraction(1, factorial(n - 1)), n - 1))
            assert (w - expected).is_zero()

    def test_polynomial_input(self):
        w = elementary_n_witness(X**3, 2)
        assert w.as_ratfunc() == X**5 / 20

    def test_partial_fraction_split(self):
        w = elementary_n_witness(1 / (X**2 - 1), 1)
        tower = w.tower
        names = {g.name: g for g in tower.gens}
        assert len(names) == 2
        # (1/2) log(x-1) - (1/2) log(x+1)
        args = sorted(str(g.argument.as_ratfunc()) for g in tower.gens)
        assert args == ["x + 1", "x - 1"]
        assert (w.derive() - tower.expr(1 / (X**2 - 1))).is_zero()

    def test_witness_shape_degree_bound(self, rng):
        corpus = [1 / X, 1 / (X**2 - 1), (X + 3) / (X**2 + X),
                  1 / X + X**2, 5 / (X - 2) + 1 / X**3]
        for g in corpus:
            for n in (1, 2, 3, 4):
                w = elementary_n_witness(g, n)
                tower = w.tower
                assert (w.derive_n(n) - tower.expr(g)).is_zero()
                for gen in tower.gens:
                    m = laurent_normal(w, gen.name)
                    for d, coeff in m.items():
                        if d >= 1:
                            f = coeff.as_ratfunc() if coeff.is_base() else None
                            if f is not None:
                                assert f.is_polynomial()
                                assert f.num.degree <= n - 1

    def test_needs_algebraic_constants(self):
        with pytest.raises(NotSupported):
            elementary_n_witness(1 / (X**2 - 2), 1)
        with pytest.raises(NotSupported):
            elementary_n_witness(1 / (X**2 + 1), 1)


def _coeff_in_ring(f: RatFunc, laurent: bool) -> bool:
    """Independent membership test by denominator inspection."""
    den = f.den
    if den.degree == 0:
        return True
    if not laurent:
        return False
    return all(c == 0 for c in den.coeffs[:-1])  # den = x^k


def _membership_oracle(expr, gen_name, kind, root=None) -> bool:
    """Classifier oracle: collect coefficients via laurent_normal and inspect
    denominators per the target coefficient ring."""
    try:
        m = laurent_normal(expr, gen_name)
    except Exception:
        return False
    for d, coeff in m.items():
        if not coeff.is_base():
            return False
        f = coeff.as_ratfunc()
        if kind == "exp":
            if not _coeff_in_ring(f, laurent=False):
                return False
        elif kind == "log":
            if not _coeff_in_ring(f, laurent=True):
                return False
        else:
            if d == 0 and not _coeff_in_ring(f, laurent=False):
                return False
            if d != 0 and not _coeff_in_ring(f, laurent=True):
                return False
    return True


def exp_cases():
    tw = Tower()
    t = tw.add_exp("t", tw.x())
    x = tw.x()
    pos = [t, t * x, t**-1, x * t + t**-1, tw.expr(X**3), t**2 * (x**2 + 1),
           t * 3 + x, (t**5) * x, t**-3 * (x + 2), tw.one() + t]
    neg = [t / x, t / (t + 1), t * (1 / (X + 1)), t + tw.expr(1 / X),
           t**-1 / x, t / (x**2 - x), (t + 1) / (t - 1), t * x / (x - 5),
           tw.expr(1 / (X**2 + 1)), t**2 / (x + 7)]
    return tw, "t", pos, neg


def log_cases():
    tw = Tower()
    th = tw.add_log("th", X)
    x = tw.x()
    xinv = tw.expr(1 / X)
    pos = [th, th / x, th**2 * x, th**3 * x**2, xinv, th * xinv + x,
           th**2 * xinv + th, tw.expr(X**4), th * 5, (x + xinv) * th**2]
    neg = [th / (x + 1), th / (th + 1), tw.expr(1 / (X + 1)), th * x / (x - 1),
           th**2 / (x**2 + 1), th + tw.expr(1 / (X - 2)), x / (th + x),
           th**3 * (1 / (X + 5)), tw.expr(X / (X**2 - 4)), th / (x**2 + x)]
    return tw, "th", pos, neg


def radical_cases(root):
    tw = Tower()
    r = tw.add_radical("r", root)
    x = tw.x()
    xinv = tw.expr(1 / X)
    pos = [r, r * x, r * xinv, tw.expr(X**2), r ** (root - 1) * (x + xinv),
           x + r, r * 7, r * x**3, r ** (root - 1), r * (x**2 + 3),
           r**-1,            # = r^(root-1)/x after rationalization
           (r + 1) / (r + x) if root == 2 else r**-1 * xinv]
    neg = [r / (x + 1), xinv, tw.expr(1 / (X + 2)), r / (x**2 - 1),
           x + xinv, r * x / (x - 3), tw.expr((X + 1) / X), r / (x**2 + x),
           r / (x**2 + 1), r ** (root - 1) / (x + 9)]
    return tw, "r", pos, neg


class TestClassifiers:
    def test_exp_goldens(self):
        tw, _, _, _ = exp_cases()
        t = tw.gen_expr("t")
        x = tw.x()
        assert classify_exp(x * t + t**-1).is_integrable
        assert not classify_exp(t / x).is_integrable
        assert not classify_exp(t / (t + 1)).is_integrable

    def test_log_goldens(self):
        tw, _, _, _ = log_cases()
        th = tw.gen_expr("th")
        x = tw.x()
        assert classify_log(th / x).is_integrable
        assert not classify_log(th / (x + 1)).is_integrable
        assert classify_log(x**2 * th**3).is_integrable

    def test_radical_goldens(self):
        tw = Tower()
        r = tw.add_radical("r", 2)
        x = tw.x()
        assert classify_radical(r).is_integrable
        assert not classify_radical(r / (x + 1)).is_integrable
        assert not classify_radical(tw.expr(1 / X)).is_integrable

    @pytest.mark.parametrize("maker,classify", [
        (exp_cases, classify_exp),
        (log_cases, classify_log),
        (lambda: radical_cases(2), classify_radical),
        (lambda: radical_cases(3), classify_radical),
    ])
    def test_against_membership_oracle(self, maker, classify):
        tw, name, pos, neg = maker()
        kind = tw.gen(name).kind
        root = tw.gen(name).root
        assert len(pos) >= 10 and len(neg) >= 10
        for e in pos:
            assert _membership_oracle(e, name, kind, root), f"oracle rejects {e}"
            assert classify(e).is_integrable, f"classifier rejects {e}"
        for e in neg:
            assert not _membership_oracle(e, name, kind, root), f"oracle accepts {e}"
            assert not classify(e).is_integrable, f"classifier accepts {e}"

    @pytest.mark.parametrize("maker,classify", [
        (exp_cases, classify_exp),
        (log_cases, classify_log),
        (lambda: radical_cases(2), classify_radical),
        (lambda: radical_cases(3), classify_radical),
    ])
    def test_witness_rederives_at_all_depths(self, maker, classify):
        _, _, pos, _ = maker()
        for e in pos:
            for depth in (1, 2, 3, 4):
                v = classify(e, depth=depth)
                assert v.is_integrable
                assert (v.witness.derive_n(depth) - e).is_zero()

    @pytest.mark.parametrize("maker,classify", [
        (exp_cases, classify_exp),
        (log_cases, classify_log),
        (lambda: radical_cases(3), classify_radical),
    ])
    def test_wrong_witness_is_caught(self, maker, classify, monkeypatch):
        """The classifiers differentiate each witness back: a wrong
        integration rule is an AssertionError, never a wrong answer."""
        import diffgal.integrab as integrab

        right = integrab._integrate_once

        def off_by_one(kind, monos, root):
            return {key: b + 1 for key, b in right(kind, monos, root).items()}

        monkeypatch.setattr(integrab, "_integrate_once", off_by_one)
        _, _, pos, _ = maker()
        with pytest.raises(AssertionError, match="differentiate back"):
            classify(pos[0], depth=2)

    @pytest.mark.parametrize("u,kind,text", [
        (X**2, "exp", "x*t + t^2"),
        (2 * X, "exp", "x*t + t^2"),
        (X**2 + 1, "log", "x*t"),
    ])
    def test_non_standard_towers(self, u, kind, text):
        """The classifiers integrate as if t' = t (exp) or t' = 1/x (log).
        In another tower of the kind the slices still decide infinite
        integrability, but a finite-depth witness fails its check."""
        tw = Tower()
        (tw.add_exp if kind == "exp" else tw.add_log)("t", u)
        classify = classify_exp if kind == "exp" else classify_log
        g = tw.parse(text)
        assert classify(g).is_integrable
        with pytest.raises(AssertionError, match="differentiate back"):
            classify(g, depth=1)

    def test_verdict_shape(self):
        tw, _, pos, neg = exp_cases()
        v = classify_exp(neg[0])
        assert v.status == "not_integrable"
        assert not v.is_integrable
        v2 = IntegrabilityVerdict.not_supported("because")
        assert v2.status == "not_supported" and v2.reason == "because"


def _tower_of(kind):
    """The tower of one generator t: exp(x), log(x), or x^(1/N) for `radical:N`."""
    tw = Tower()
    if kind == "exp":
        return tw, tw.add_exp("t", X), tw.gen("t")
    if kind == "log":
        return tw, tw.add_log("t", X), tw.gen("t")
    return tw, tw.add_radical("t", int(kind.split(":")[1])), tw.gen("t")


def _read(e, gen):
    return integrab._monomials({i: c.as_ratfunc() for i, c in laurent_normal(e, gen).items()})


class TestMonomialCheck:
    @pytest.mark.parametrize("kind", ["exp", "log"] + [f"radical:{n}" for n in range(2, 8)])
    def test_matches_tower_derivation(self, kind):
        """On 50 seeded Laurent monomial maps, the monomial derivative with
        th' read off the generator's image is `TowerExpr.derive`, and the
        witness built from a map is the sum of its monomials and reads back
        as the map, with each `laurent_normal` slice in the normal form that
        the full `TowerExpr` constructor gives."""
        import random

        tw, th, gen = _tower_of(kind)
        lo, hi = {"exp": (-2, 3), "log": (0, 3)}.get(kind, (0, (gen.root or 0) - 1))
        image = integrab._image(gen)
        rng = random.Random(f"monomials {kind}")
        for _ in range(50):
            monos = {}
            for _ in range(rng.randint(1, 5)):
                a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if a:
                    monos[(rng.randint(-3, 3), rng.randint(lo, hi))] = a
            e = tw.zero()
            for (m, i), a in monos.items():
                e = e + th**i * RatFunc.from_fraction(a) * X**m
            w = integrab._witness(tw, gen.name, monos)
            assert w == e and str(w) == str(e)
            for s in laurent_normal(w, gen).values():
                full = TowerExpr(tw, s.num, s.den)
                assert (s.num, s.den) == (full.num, full.den)
            assert _read(e, gen) == monos
            assert integrab._derive_monomials(monos, image) == _read(e.derive(), gen)

    def test_image_without_monomial_form(self):
        """log(x^2 + 1)' = 2x/(x^2 + 1) is not h(x) th^k with h Laurent: a
        map with a power of th cannot be differentiated, a map without one
        can."""
        tw = Tower()
        tw.add_log("t", X**2 + 1)
        image = integrab._image(tw.gen("t"))
        assert image is None
        assert integrab._derive_monomials({(2, 0): Fraction(3)}, image) == {(1, 0): 6}
        with pytest.raises(AssertionError, match="differentiate back"):
            integrab._derive_monomials({(0, 1): Fraction(1)}, image)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rational_wrong_witness_is_caught(self, n, monkeypatch):
        """A rational witness is differentiated back in Q(x): one residue off
        by one is an AssertionError, never a wrong answer."""
        right = integrab.rational_log_parts

        def off_by_one(remainder):
            (c, fac), *rest = right(remainder)
            return [(c + 1, fac), *rest]

        monkeypatch.setattr(integrab, "rational_log_parts", off_by_one)
        with pytest.raises(AssertionError, match="differentiate back"):
            elementary_n_witness(1 / (X**2 - 1) + 3 / (X - 5), n)


class TestPolePartsWithoutRationalPoles:
    @pytest.mark.parametrize("text,parts", [
        ("x/(x^2-2)", [(Fraction(1, 2), "x^2 - 2")]),
        ("1/(x^3+x+1)", []),
        ("(2*x+1)/(x^2+x-1)", [(Fraction(1), "x^2 + x - 1")]),
    ])
    def test_straight_to_the_resultant(self, text, parts, monkeypatch):
        """With no rational pole, p/q goes to the resultant as it is: the
        parts are the same, and no extended gcd runs on a constant."""
        receivers = []
        xgcd = UPoly.xgcd

        def spy(self, other):
            receivers.append(self.degree)
            return xgcd(self, other)

        monkeypatch.setattr(UPoly, "xgcd", spy)
        f = parse_ratfunc(text)
        assert _lifted_roots(_primitive_int_list(f.den.ints)) == []
        got = integrab._pole_parts(f.num, f.den, [])
        assert [(c, str(fac)) for c, fac in got] == parts
        assert receivers and all(d > 0 for d in receivers)
