"""Exact kernels: the one row elimination, and the integer-polynomial ones.

`RowReducer`, a sparse fraction-free echelon reducer on primitive integer
rows, is the package's only row elimination.  The oracle feeds it rows
keyed by packed monomial, and `q_echelon` rational rows scaled to integer
rows keyed by column: that serves every rank over Q, and `qm_rref` reads
the reduced row echelon form off the same reducer.  Callers reach
`qm_rref` as `kernels.qm_rref`, so one wrapper on the module sees it all.

The integer-polynomial ("zp") functions work over Z[x]: lists of int
coefficients in ascending degree with no trailing zeros, [] the zero
polynomial.  No other module of the package calls them.  `zpm_rank`, a
fraction-free Bareiss elimination, stays as the tests' independent
reference for generic ranks, and the benchmark wraps `zp_mul` and
`zpm_rank` as layers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# The one implementation; benchmark records carry it as their backend tag.
BACKEND = "python"


def zp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def zp_sub(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] -= x
    return zp_trim(out)


def zp_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return zp_trim(out)


def zp_divexact(a, b):
    """Quotient a // b when b divides a exactly in Z[x]; raises otherwise."""
    if not b:
        raise ZeroDivisionError("zp_divexact by zero polynomial")
    if not a:
        return []
    if len(a) < len(b):
        raise ValueError("inexact polynomial division")
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    out = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = rem[k + db]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ValueError("inexact polynomial division")
            out[k] = q
            for j in range(db + 1):
                rem[k + j] -= q * b[j]
    if any(rem):
        raise ValueError("inexact polynomial division")
    return zp_trim(out)


def zpm_rank(rows):
    """Rank of a matrix over Q(x) via fraction-free one-step Bareiss.

    Entries are zp polynomials.  Returns (rank, pivots) where pivots are the
    successive pivot polynomials actually used, in order.
    """
    mat = [[list(p) for p in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    prev = [1]
    rank = 0
    pivots = []
    for col in range(ncols):
        best = -1
        best_deg = -1
        for i in range(rank, nrows):
            p = mat[i][col]
            if p:
                d = len(p) - 1
                if best < 0 or d < best_deg:
                    best, best_deg = i, d
        if best < 0:
            continue
        if best != rank:
            mat[rank], mat[best] = mat[best], mat[rank]
        piv = mat[rank][col]
        for i in range(rank + 1, nrows):
            coef = mat[i][col]
            for j in range(col + 1, ncols):
                num = zp_sub(zp_mul(piv, mat[i][j]), zp_mul(coef, mat[rank][j]))
                mat[i][j] = zp_divexact(num, prev)
            mat[i][col] = []
        pivots.append(list(piv))
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank, pivots


class RowReducer:
    """Fraction-free echelon reducer for sparse integer rows.

    A row is a dict from key to nonzero int; keys are any totally ordered
    hashables, and the lead of a row is its largest key.  Rows are
    eliminated with the cofactors of the two leads over their gcd, and each
    stored pivot is primitive with a positive lead.
    """

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, row: dict) -> dict:
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return _normalize_int(row)
            row = _eliminate_int(row, piv, lead)
        return row

    def insert(self, row: dict) -> None:
        self.pivots[max(row)] = row

    def back_reduce(self) -> list[dict]:
        """Eliminate every pivot lead from every other row.

        Ascending lead order: once a row is clean, reducing against it cannot
        reintroduce pivot leads, so one elimination per occurrence suffices,
        and the occurrences can be listed once, before the first.
        """
        for lead in sorted(self.pivots):
            row = self.pivots[lead]
            for hit in [m for m in row if m != lead and m in self.pivots]:
                row = _eliminate_int(row, self.pivots[hit], hit)
            self.pivots[lead] = _normalize_int(row)
        return [self.pivots[lead] for lead in sorted(self.pivots, reverse=True)]


def _eliminate_int(row, piv, at):
    g = gcd(row[at], piv[at])
    rc, pc = row[at] // g, piv[at] // g
    out = {m: pc * c for m, c in row.items()} if pc != 1 else dict(row)
    for m, c in piv.items():
        val = out.get(m, 0) - rc * c
        if val:
            out[m] = val
        else:
            out.pop(m, None)
    return out


def _normalize_int(row):
    g = gcd(*row.values())
    if row[max(row)] < 0:
        g = -g
    return row if g == 1 else {m: c // g for m, c in row.items()}


def q_echelon(rows) -> RowReducer:
    """A RowReducer holding an echelon basis of the span of rational rows.

    Each row enters as its nonzero entries times the lcm of their
    denominators, keyed by -column so that the leftmost column leads; the
    number of pivots is the rank over Q.
    """
    reducer = RowReducer()
    for values in rows:
        nonzero = [(j, x) for j, x in enumerate(values) if x]
        scale = lcm(*(x.denominator for _, x in nonzero))
        row = reducer.reduce({-j: x.numerator * (scale // x.denominator) for j, x in nonzero})
        if row:
            reducer.insert(row)
    return reducer


def qm_rref(rows):
    """Reduced row echelon form over Q.  Returns (new_rows, pivot_columns).

    The back-reduced rows of `q_echelon`, in ascending pivot column, each
    divided by its lead, then zero rows up to the input's height.
    """
    ncols = len(rows[0]) if rows else 0
    mat = [[Fraction(0)] * ncols for _ in rows]
    pivcols = []
    for vec, row in zip(mat, q_echelon(rows).back_reduce()):
        lead = max(row)
        for k, c in row.items():
            vec[-k] = Fraction(c, row[lead])
        pivcols.append(-lead)
    return mat, pivcols
