"""The skew ring Q(x)[D] with D*f = f*D + f', and matrices over Q(x).

Products expand through the commutation rule D^i f = sum_k C(i,k) f^(k) D^(i-k),
so operator composition is exact.  Exact Gauss-Jordan elimination, the
determinant and the companion matrix back the cyclic-vector pipeline; the
inverse and the gauge transform are library API.  A rank that only has to be
full is first tried modulo one prime (`full_rank_mod_p`), where a yes is a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import NotMonic, SingularGauge, ZeroEntry
from .ratfield import _GCD_PRIME, RatFunc

_ONE = RatFunc.one()


class SkewOp:
    """Element of Q(x)[D]: coeffs[i] multiplies D^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [RatFunc.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs: tuple[RatFunc, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "SkewOp":
        return cls(())

    @classmethod
    def const(cls, f) -> "SkewOp":
        return cls((f,))

    @classmethod
    def D(cls, k: int = 1) -> "SkewOp":
        return cls((0,) * k + (1,))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == RatFunc.one()

    def coeff(self, i: int) -> RatFunc:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFunc.zero()

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @staticmethod
    def _coerce(v) -> "SkewOp | None":
        if isinstance(v, SkewOp):
            return v
        try:
            return SkewOp((RatFunc.coerce(v),))
        except TypeError:
            return None

    def __neg__(self) -> "SkewOp":
        return SkewOp(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "SkewOp":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewOp(out)

    __radd__ = __add__

    def __sub__(self, other) -> "SkewOp":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SkewOp":
        return (-self) + other

    def __mul__(self, other) -> "SkewOp":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return SkewOp.zero()
        # a D^i * b D^j = sum_k C(i,k) a b^(k) D^(i+j-k); hoist the derivative
        # chains of the right-hand coefficients.
        chains: list[list[RatFunc]] = []
        for b in other.coeffs:
            chain = [b]
            for _ in range(self.order):
                chain.append(chain[-1].derive())
            chains.append(chain)
        out = [RatFunc.zero()] * (self.order + other.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            a_is_one = a == _ONE
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                chain = chains[j]
                for k in range(i + 1):
                    bk = chain[k]
                    if not bk.is_zero():
                        term = bk if a_is_one else a * bk
                        c = comb(i, k)
                        if c > 1:
                            term = term * c
                        out[i + j - k] = out[i + j - k] + term
        return SkewOp(out)

    def __rmul__(self, other) -> "SkewOp":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __truediv__(self, other) -> "SkewOp":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero operator")
        if other.order != 0:
            raise NotMonic("division is only defined by order-0 operators")
        inv = RatFunc.one() / other.coeffs[0]
        return SkewOp(tuple(c * inv for c in self.coeffs))

    def __rtruediv__(self, other) -> "SkewOp":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "SkewOp":
        if k < 0:
            raise ValueError("negative operator power")
        if self.is_monic() and not any(self.coeffs[:-1]):  # (D^m)^k = D^(mk)
            return SkewOp.D(self.order * k)
        out = SkewOp.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.order, -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            if i == 0:
                body = _coeff_str(c)
            else:
                ds = "D" if i == 1 else f"D^{i}"
                body = ds if c == RatFunc.one() else f"{_coeff_str(c)}*{ds}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SkewOp({self})"


def _coeff_str(c: RatFunc) -> str:
    s = str(c)
    if c.is_polynomial() and c.num.degree <= 0 and c.num.lc >= 0:
        return s
    return f"({s})"


def check_nonzero(fs: Sequence[RatFunc]) -> tuple[RatFunc, ...]:
    out = tuple(RatFunc.coerce(f) for f in fs)
    for i, f in enumerate(out):
        if f.is_zero():
            raise ZeroEntry(f"tuple entry {i + 1} is zero")
    return out


def build_Lf(fs: Sequence[RatFunc]) -> SkewOp:
    """Expand f1*D*f2*D*...*f_{l-1}*D*f_l*D for a tuple of nonzero elements."""
    fs = check_nonzero(fs)
    op = SkewOp.D()
    for f in reversed(fs[1:]):
        op = SkewOp.D() * (SkewOp.const(f) * op)
    return SkewOp.const(fs[0]) * op


def monicize(f_partial: Sequence[RatFunc]) -> tuple[RatFunc, ...]:
    """Prepend f1 = 1/(f2*...*fn) so that the expanded operator is monic."""
    rest = check_nonzero(f_partial)
    prod = RatFunc.one()
    for f in rest:
        prod = prod * f
    return (RatFunc.one() / prod,) + rest


def gauss_jordan(rows: Sequence[Sequence], ncols: int) -> tuple[list[list], list[int], object]:
    """Gauss-Jordan elimination over an exact field (`Fraction` or `RatFunc` entries).

    Pivots on the first nonzero entry of each of the first `ncols` columns,
    scales every pivot row to a leading 1 and clears the rest of the pivot
    column.  Returns the reduced rows, the pivot columns and the signed product
    of the pivots, which is the determinant of a square matrix of full rank.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    det = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        p = a[r][c]
        det = det * p
        if p != 1:
            pinv = 1 / p
            a[r] = [e * pinv for e in a[r]]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f:
                a[i] = [e - f * g for e, g in zip(row, a[r])]
        pivots.append(c)
    return a, pivots, det


def full_rank_mod_p(rows: Sequence[Sequence[int]]) -> bool:
    """Whether integer rows have full row rank modulo `ratfield._GCD_PRIME`.

    A nonzero maximal minor mod p is a nonzero integer, so True proves the
    rows independent over Q; False proves nothing.  Scaling a row by a nonzero
    integer keeps its rank over Q, and one prime to p keeps it mod p too.
    """
    p = _GCD_PRIME
    a = [[v % p for v in row] for row in rows]
    for r, row in enumerate(a):
        # Earlier pivot columns are cleared from this row: its first nonzero
        # entry is a new pivot, and a zero row is a dependence mod p.
        c = next((j for j, v in enumerate(row) if v), None)
        if c is None:
            return False
        inv = pow(row[c], -1, p)
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if f:
                f = f * inv % p
                a[i] = [(e - f * g) % p for e, g in zip(a[i], row)]
    return True


class FMatrix:
    """Rectangular matrix over Q(x)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows: tuple[tuple[RatFunc, ...], ...] = tuple(
            tuple(RatFunc.coerce(e) for e in row) for row in rows
        )
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "FMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int, m: int | None = None) -> "FMatrix":
        m = n if m is None else m
        return cls([[0] * m for _ in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __add__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other: "FMatrix") -> "FMatrix":
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        # Products only over nonzero entries: gauge and companion matrices are sparse.
        zero = RatFunc.zero()
        out = []
        for row in self.rows:
            acc = [zero] * other.ncols
            for a, orow in zip(row, other.rows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return FMatrix(out)

    def scale(self, c) -> "FMatrix":
        c = RatFunc.coerce(c)
        return FMatrix([[e * c for e in row] for row in self.rows])

    def derive(self) -> "FMatrix":
        return FMatrix([[e.derive() for e in row] for row in self.rows])

    def det(self) -> RatFunc:
        n = self._square("determinant")
        _, pivots, det = gauss_jordan(self.rows, n)
        return RatFunc.coerce(det) if len(pivots) == n else RatFunc.zero()

    def inverse(self) -> "FMatrix":
        n = self._square("inverse")
        one, zero = RatFunc.one(), RatFunc.zero()
        augmented = [row + tuple(one if i == j else zero for j in range(n))
                     for i, row in enumerate(self.rows)]
        reduced, pivots, _ = gauss_jordan(augmented, n)
        if len(pivots) < n:
            raise SingularGauge("matrix is singular over Q(x)")
        return FMatrix([row[n:] for row in reduced])

    def _square(self, what: str) -> int:
        if self.nrows != self.ncols:
            raise ValueError(f"{what} of a non-square matrix")
        return self.nrows

    def is_strictly_upper(self) -> bool:
        return all(
            self.rows[i][j].is_zero()
            for i in range(self.nrows)
            for j in range(min(i + 1, self.ncols))
        )

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"FMatrix({self})"


def shape_matrix(f_partial: Sequence[RatFunc]) -> FMatrix:
    """Strictly upper matrix with superdiagonal 1/f_n, 1/f_{n-1}, ..., 1/f_2."""
    fs = check_nonzero(f_partial)
    n = len(fs) + 1
    rows = [[RatFunc.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = RatFunc.one() / fs[n - 2 - i]
    return FMatrix(rows)


def gauge_transform(a: FMatrix, b: FMatrix) -> FMatrix:
    """The gauge action B A B^-1 + B' B^-1, as the solution X of X B = C with
    C = B' + B A; neither B^-1 nor a product by it is formed.

    One Gauss-Jordan elimination of [B^T | C^T] gives X^T, and its pivot count
    proves B invertible (SingularGauge otherwise).
    """
    n = b._square("gauge transform")
    c = b.derive() + b * a
    augmented = [bcol + ccol for bcol, ccol in zip(zip(*b.rows), zip(*c.rows))]
    reduced, pivots, _ = gauss_jordan(augmented, n)
    if len(pivots) < n:
        raise SingularGauge("matrix is singular over Q(x)")
    return FMatrix(list(zip(*(row[n:] for row in reduced))))


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion form of a monic operator: superdiagonal ones, last row -a_i."""

    coeffs: tuple[RatFunc, ...]  # a_0 ... a_{n-1}

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def matrix(self) -> FMatrix:
        n = self.n
        rows = [[RatFunc.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = RatFunc.one()
        for j in range(n):
            rows[n - 1][j] = -self.coeffs[j]
        return FMatrix(rows)


def companion_of(op: SkewOp) -> CompanionMatrix:
    """Companion matrix of a monic operator."""
    if not op.is_monic():
        raise NotMonic(f"operator {op} is not monic")
    return CompanionMatrix(tuple(op.coeff(i) for i in range(op.order)))


def operator_of(c: CompanionMatrix) -> SkewOp:
    """Monic operator with the given companion matrix."""
    return SkewOp(tuple(c.coeffs) + (RatFunc.one(),))
