"""Exact scalar and matrix arithmetic over Q and Q[a].

Rationals are `fractions.Fraction` throughout: always reduced, positive
denominator, and `str()` already produces the canonical "p/q" text form.
`PolyQ` is a dense univariate polynomial over Q with coefficients stored in
ascending degree; the zero polynomial has degree -1.  `PolyMatrix` is a dense
matrix of `PolyQ` entries.

Ranks over the rational function field are certified by specialization:
evaluating at a point can only lower a rank, so the largest rank over the
points a = 0, 1, 2, ... is the generic rank once it reaches min(rows, cols),
or once enough points have been tried that no nonzero minor can vanish at
all of them.  Every transition matrix stops at the first point, because
F(0) = I.  A rank over Q counts the rows that `kernels.RowReducer` keeps,
each scaled to integers by the lcm of its denominators; polynomial gcds use
Euclid over Q.  No floating point and no polynomial factorization anywhere.
No package module solves a system; `nullspace_q` stays for the benchmark's
trace and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        """Evaluate by Horner's rule."""
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
    """Dense matrix over Q[a], entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[PolyQ, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[PolyQ]]) -> PolyMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        # Equal entries share one object, which eval_at evaluates once.
        shared: dict[PolyQ, PolyQ] = {}
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(shared.setdefault(p, p) for p in map(_coerce, row))
        return cls(nrows, ncols, tuple(flat))

    def entry(self, i: int, j: int) -> PolyQ:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[PolyQ]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list[PolyQ]]:
        return [self.row(i) for i in range(self.rows)]

    def trace(self) -> PolyQ:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = PolyQ.zero()
        for i in range(self.rows):
            acc = acc + self.entry(i, i)
        return acc

    def eval_at(self, a: Fraction | int) -> QMatrix:
        """The matrix at a.  Zero entries cost nothing, and each entry object
        is evaluated once: from_rows shares equal entries, so at l = 1 F(a)
        takes one evaluation."""
        zero = Fraction(0)
        values: dict[int, Fraction] = {}
        flat = []
        for e in self.entries:
            if not e.coeffs:
                flat.append(zero)
                continue
            v = values.get(id(e))
            if v is None:
                v = values[id(e)] = e(a)
            flat.append(v)
        return [flat[i * self.cols : (i + 1) * self.cols] for i in range(self.rows)]

    def __str__(self) -> str:
        cells = [[self.entry(i, j).format() for j in range(self.cols)] for i in range(self.rows)]
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
    degree = max((e.degree for e in mat.entries), default=0)
    rank = 0
    for a in range(full * max(degree, 0) + 1):
        if rank == full:
            break
        rank = max(rank, rank_at(mat, a))
    return rank


def rank_at(mat: PolyMatrix, a: Fraction | int) -> int:
    """Rank over Q of the matrix specialized at a."""
    return rank_q(mat.eval_at(a))


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


def rank_q(rows: QMatrix) -> int:
    """Rank over Q: the number of rows that survive the integer reducer."""
    return len(kernels.q_echelon(rows).pivots)


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
