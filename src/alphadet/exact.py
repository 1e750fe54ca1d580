"""Exact scalar and matrix arithmetic over Q and Q[a].

Rationals are `fractions.Fraction` throughout: always reduced, positive
denominator, and `str()` already produces the canonical "p/q" text form.
`PolyQ` is a dense univariate polynomial over Q with coefficients stored in
ascending degree; the zero polynomial has degree -1.  `PolyMatrix` stores a
matrix over Q[a] as integer rows over Z[a]: each row is one positive
denominator over the integer coefficients of its nonzero entries, in
lowest terms, and the matrix keeps its largest degree D.

Ranks over the rational function field are certified by specialization:
evaluating at a point can only lower a rank, so the largest rank over the
points a = 0, 1, 2, ... is the generic rank once it reaches min(rows, cols),
or once enough points have been tried that no nonzero minor can vanish at
all of them.  Every transition matrix stops at the first point, because
F(0) = I.  A rank at a = p/q does no Fraction arithmetic: row i of F(p/q)
times its denominator and q^D is a row of integers, built from the stored
row in one pass, and the rank counts the rows that `kernels.RowReducer.add`
keeps.  `eval_at` still builds F(a) in Fractions, entry by entry, for
exploration, the verify suites and the tests' second route to every rank.
The JSON and CSV cells of a printed matrix are read from the stored rows
too (`report._matrix_obj`), one Fraction per stored coefficient; only the
text form and entry-by-entry reads build `PolyQ`s.  Polynomial
gcds use Euclid over Q.  No floating point and no polynomial factorization
anywhere.  No package module solves a system; `nullspace_q` stays for the
benchmark's trace and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm
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
    """Matrix over Q[a], stored as integer rows over Z[a]: entry (i, j) is
    nonzero[i][j] / dens[i], ascending coefficients with no trailing zero,
    or zero if j is not stored.  dens[i] > 0 is coprime to row i's
    coefficients, so the form is unique and equality is value equality.
    `entry`, `row`, `to_rows` and `str` build `PolyQ`s on demand.  degree
    is the largest entry degree, 0 for a zero matrix.  Read-only."""

    rows: int
    cols: int
    dens: tuple[int, ...]
    nonzero: tuple[dict[int, tuple[int, ...]], ...]
    degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.dens) == len(self.nonzero) == self.rows:
            raise ValueError("row count does not match shape")
        for den, row in zip(self.dens, self.nonzero):
            if not (
                type(den) is int and den > 0
                and all(j in range(self.cols) and type(cs) is tuple and cs and cs[-1] for j, cs in row.items())
                and all(type(c) is int for cs in row.values() for c in cs)
                and gcd(den, *chain.from_iterable(row.values())) == 1
            ):
                raise ValueError("a row is not in lowest terms over Z[a]")
        degree = max((len(cs) - 1 for row in self.nonzero for cs in row.values()), default=0)
        object.__setattr__(self, "degree", degree)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[PolyQ]]) -> PolyMatrix:
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        dens, nonzero = [], []
        for row in rows:
            row = {j: p.coeffs for j, p in enumerate(map(_coerce, row)) if p}
            # Over the lcm of its reduced denominators a row is in lowest terms.
            den = lcm(*(c.denominator for cs in row.values() for c in cs))
            dens.append(den)
            nonzero.append({j: tuple(c.numerator * den // c.denominator for c in cs) for j, cs in row.items()})
        return cls(len(rows), ncols, tuple(dens), tuple(nonzero))

    def entry(self, i: int, j: int) -> PolyQ:
        cs = self.nonzero[i].get(j, ())
        return PolyQ(Fraction(c, self.dens[i]) for c in cs)

    def row(self, i: int) -> list[PolyQ]:
        return [self.entry(i, j) for j in range(self.cols)]

    def to_rows(self) -> list[list[PolyQ]]:
        return [self.row(i) for i in range(self.rows)]

    def trace(self) -> PolyQ:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        # Each coefficient is summed in integers over one lcm L.
        diag = [(self.dens[i], row[i]) for i, row in enumerate(self.nonzero) if i in row]
        L = lcm(*(den for den, _ in diag))
        lifted = [[c * (L // den) for c in cs] for den, cs in diag]
        return PolyQ(Fraction(sum(cs), L) for cs in zip_longest(*lifted, fillvalue=0))

    def eval_at(self, a: Fraction | int) -> QMatrix:
        """The matrix at a, each stored entry by Horner's rule over Q.  a
        must be an int or a Fraction."""
        a = _as_fraction(a)
        zero = Fraction(0)
        out = [[zero] * self.cols for _ in range(self.rows)]
        for i, (values, row) in enumerate(zip(out, self.nonzero)):
            for j in row:
                values[j] = self.entry(i, j)(a)
        return out

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
    full = min(rows, cols) and otherwise after a = full*D, D = mat.degree:
    a nonzero r x r minor has degree at most r*D <= full*D, so it cannot
    vanish at all full*D + 1 points.
    """
    full = min(mat.rows, mat.cols)
    rank = 0
    for a in range(full * mat.degree + 1):
        if rank == full:
            break
        rank = max(rank, rank_at(mat, a))
    return rank


def rank_at(mat: PolyMatrix, a: Fraction | int) -> int:
    """Rank over Q of the matrix specialized at a.

    At a = p/q, D = mat.degree, each stored integer row becomes the
    integers sum_e c_e p^e q^(D-e): row i of F(a) times dens[i] q^D, which
    keeps the rank.  The nonzero values go, keyed by -column, into one
    `kernels.RowReducer`, one `add` per row.
    """
    a = _as_fraction(a)
    p, q = a.numerator, a.denominator
    weights = [p**e * q ** (mat.degree - e) for e in range(mat.degree + 1)]
    reducer = kernels.RowReducer()
    for entries in mat.nonzero:
        reducer.add({-j: v for j, cs in entries.items() if (v := sum(map(mul, cs, weights)))})
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
