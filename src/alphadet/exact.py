"""Exact scalar and matrix arithmetic over Q and Q[a].

Rationals are `fractions.Fraction` throughout: always reduced, positive
denominator, and `str()` already produces the canonical "p/q" text form.
`PolyQ` is a dense univariate polynomial over Q with coefficients stored in
ascending degree; the zero polynomial has degree -1.  `PolyMatrix` stores a
matrix of `PolyQ` entries by the nonzero entries of each row.

Ranks over the rational function field are certified by specialization:
evaluating at a point can only lower a rank, so the largest rank over the
points a = 0, 1, 2, ... is the generic rank once it reaches min(rows, cols),
or once enough points have been tried that no nonzero minor can vanish at
all of them.  Every transition matrix stops at the first point, because
F(0) = I.  A rank at a = p/q does no Fraction arithmetic: each matrix keeps,
built once, its rows over Z[a] (row i's stored entries times the lcm L_i
of their coefficient denominators) and its largest degree D.  Row i of
F(p/q) times L_i q^D is then a row of integers, and the rank counts the rows
that `kernels.RowReducer` keeps.  `eval_at` still builds F(a) in Fractions,
for exploration and the verify suites.  Polynomial gcds use Euclid over Q.
No floating point and no polynomial factorization anywhere.  No package
module solves a system; `nullspace_q` stays for the benchmark's trace and
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from alphadet import kernels

QMatrix = list[list[Fraction]]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into a reduced Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected Fraction or int, got {type(value).__name__}")


class PolyQ:
    """Dense univariate polynomial over Q, printed in the variable "a"."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> PolyQ:
        return cls(())

    @classmethod
    def one(cls) -> PolyQ:
        return cls((1,))

    @classmethod
    def constant(cls, c: Fraction | int) -> PolyQ:
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, c: Fraction | int = 1) -> PolyQ:
        return cls((0,) * degree + (c,))

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other) -> PolyQ:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __neg__(self) -> PolyQ:
        return PolyQ(-c for c in self.coeffs)

    def __sub__(self, other) -> PolyQ:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> PolyQ:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> PolyQ:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return PolyQ.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        out[i + j] += x * y
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> PolyQ:
        if exponent < 0:
            raise ValueError("negative exponent")
        result = PolyQ.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, a: Fraction | int) -> Fraction:
        """Evaluate by Horner's rule; a must be an int or a Fraction."""
        a = _as_fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def derivative(self) -> PolyQ:
        return PolyQ(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __divmod__(self, other) -> tuple[PolyQ, PolyQ]:
        """Long division over Q: (q, r) with self = q*other + r, deg r < deg other."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        lead = other.coeffs[-1]
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - db, 0)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + db] / lead
            if c:
                quot[k] = c
                for j, y in enumerate(other.coeffs):
                    rem[k + j] -= c * y
        return PolyQ(quot), PolyQ(rem)

    def monic(self) -> PolyQ:
        """Divided by its leading coefficient; the zero polynomial stays zero."""
        return PolyQ(c / self.coeffs[-1] for c in self.coeffs) if self.coeffs else self

    def gcd(self, other: PolyQ) -> PolyQ:
        """Monic greatest common divisor by Euclid over Q; gcd(0, 0) = 0."""
        a, b = self, other
        while b:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("PolyQ", self.coeffs))

    def format(self, var: str = "a") -> str:
        """Ascending-term text form, e.g. "1 - 2*a + 3/4*a^2"."""
        if not self.coeffs:
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            pieces.append(("-" if c < 0 else "+", body))
        sign0, body0 = pieces[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"PolyQ({self.format()})"

    def coeff_strings(self) -> list[str]:
        """Ascending "p/q" coefficient strings (the JSON wire form)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> PolyQ:
        return cls(parse_rational(s) for s in items)


def _coerce(value) -> PolyQ:
    if isinstance(value, PolyQ):
        return value
    if isinstance(value, (int, Fraction)):
        return PolyQ((value,))
    return NotImplemented


@dataclass(frozen=True)
class PolyMatrix:
    """Matrix over Q[a], stored as each row's nonzero entries: nonzero[i]
    maps column j to entry (i, j).  Absent entries are zero, and `entry`,
    `row`, `to_rows` and `str` show them.  The rows are read-only: a rank
    reads integer rows cached from them."""

    rows: int
    cols: int
    nonzero: tuple[dict[int, PolyQ], ...]

    def __post_init__(self):
        # Equality compares the stored entries, so none may be zero.
        if len(self.nonzero) != self.rows:
            raise ValueError("row count does not match shape")
        stored = (item for row in self.nonzero for item in row.items())
        if not all(j in range(self.cols) and isinstance(e, PolyQ) and e for j, e in stored):
            raise ValueError("a stored entry is zero, not a PolyQ, or outside the columns")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[PolyQ]]) -> PolyMatrix:
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        nonzero = tuple({j: p for j, p in enumerate(map(_coerce, row)) if p} for row in rows)
        return cls(len(rows), ncols, nonzero)

    def entry(self, i: int, j: int) -> PolyQ:
        return self.nonzero[i].get(j) or PolyQ.zero()

    def row(self, i: int) -> list[PolyQ]:
        return [self.entry(i, j) for j in range(self.cols)]

    def to_rows(self) -> list[list[PolyQ]]:
        return [self.row(i) for i in range(self.rows)]

    def trace(self) -> PolyQ:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        # Each coefficient is summed in integers over one lcm L.
        diag = [row[i].coeffs for i, row in enumerate(self.nonzero) if i in row]
        L = lcm(*(c.denominator for cs in diag for c in cs))
        return PolyQ(
            Fraction(sum(c.numerator * (L // c.denominator) for c in cs), L)
            for cs in zip_longest(*diag, fillvalue=Fraction(0))
        )

    def eval_at(self, a: Fraction | int) -> QMatrix:
        """The matrix at a, evaluating the stored entries only.  a must be an
        int or a Fraction."""
        a = _as_fraction(a)
        zero = Fraction(0)
        out = [[zero] * self.cols for _ in range(self.rows)]
        for values, row in zip(out, self.nonzero):
            for j, e in row.items():
                values[j] = e(a)
        return out

    @cached_property
    def _integer_rows(self) -> tuple[int, tuple[dict[int, tuple[int, ...]], ...]]:
        """(D, rows): D the largest entry degree (0 for a zero matrix), and
        row i as {column: coefficients} over its stored entries, each
        coefficient times L_i, the lcm of the row's coefficient denominators.
        Equal coefficient tuples share one object, which rank_at evaluates
        once per point."""
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        rows = []
        degree = 0
        for entries in self.nonzero:
            scale = lcm(*(c.denominator for e in entries.values() for c in e.coeffs))
            row = {}
            for j, e in entries.items():
                t = tuple(c.numerator * (scale // c.denominator) for c in e.coeffs)
                row[j] = shared.setdefault(t, t)
                degree = max(degree, len(t) - 1)
            rows.append(row)
        return degree, tuple(rows)

    def __str__(self) -> str:
        cells = [[e.format() for e in row] for row in self.to_rows()]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)] if self.rows else []
        return "\n".join(
            "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols)) + " ]"
            for i in range(self.rows)
        )


def generic_rank(mat: PolyMatrix) -> int:
    """Rank of a PolyQ matrix over the rational function field Q(a).

    The largest rank at a = 0, 1, 2, ..., stopping once it reaches
    full = min(rows, cols) and otherwise after a = full*D, D the largest
    entry degree: a nonzero r x r minor has degree at most r*D <= full*D, so
    it cannot vanish at all full*D + 1 points.
    """
    full = min(mat.rows, mat.cols)
    degree = mat._integer_rows[0]
    rank = 0
    for a in range(full * degree + 1):
        if rank == full:
            break
        rank = max(rank, rank_at(mat, a))
    return rank


def rank_at(mat: PolyMatrix, a: Fraction | int) -> int:
    """Rank over Q of the matrix specialized at a.

    At a = p/q each cached integer row becomes the integers
    sum_e c_e p^e q^(D-e): row i of F(a) times L_i q^D, which keeps the rank.
    Each distinct coefficient tuple is evaluated once, and the nonzero values
    go, keyed by -column, into one `kernels.RowReducer`.
    """
    a = _as_fraction(a)
    degree, int_rows = mat._integer_rows
    p, q = a.numerator, a.denominator
    weights = [p**e * q ** (degree - e) for e in range(degree + 1)]
    values: dict[int, int] = {}
    reducer = kernels.RowReducer()
    for entries in int_rows:
        row = {}
        for j, coeffs in entries.items():
            v = values.get(id(coeffs))
            if v is None:
                v = values[id(coeffs)] = sum(map(mul, coeffs, weights))
            if v:
                row[-j] = v
        row = reducer.reduce(row)
        if row:
            reducer.insert(row)
    return len(reducer.pivots)


def mat_identity(n: int) -> QMatrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A: QMatrix, B: QMatrix) -> QMatrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("inner dimensions disagree")
    ncols = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [Fraction(0)] * ncols
        for k, x in enumerate(row):
            if x:
                bk = B[k]
                for j in range(ncols):
                    if bk[j]:
                        acc[j] += x * bk[j]
        out.append(acc)
    return out


def nullspace_q(rows: QMatrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace of a rational matrix.

    Returns one vector per free column, each with a 1 in its free position;
    this normalization makes the basis deterministic.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rref, pivcols = kernels.qm_rref(rows)
    pivset = set(pivcols)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivcols):
            vec[pc] = -rref[r][free]
        basis.append(vec)
    return basis
