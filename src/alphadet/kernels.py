"""Exact kernels: the inner loops of every rank and echelon computation.

Integer polynomials ("zp") are lists of int coefficients in ascending degree
with no trailing zeros; [] is the zero polynomial.  Rational rows ("q") are
lists of fractions.Fraction.  Callers reach these functions as module
attributes (`kernels.zp_mul`, not a from-import), so one wrapper installed
on the module sees every call, including the ones made inside `zpm_rank`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _zp_primitive(a):
    g = 0
    for c in a:
        g = gcd(g, c)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def zp_gcd(a, b):
    """Greatest common divisor over Q[x], as a primitive zp with positive lead.

    Primitive pseudo-remainder sequence; returns [1] as soon as a remainder
    is a nonzero constant, and [] only when both inputs are zero.
    """
    if not b:
        return _zp_primitive(a) if a else []
    if not a:
        return _zp_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    a, b = _zp_primitive(a), _zp_primitive(b)
    while len(b) > 1:
        rem = list(a)
        lead = b[-1]
        while len(rem) >= len(b):
            c = rem[-1]
            shift = len(rem) - len(b)
            rem = [x * lead for x in rem]
            for j, y in enumerate(b):
                rem[shift + j] -= c * y
            zp_trim(rem)
        if not rem:
            return b
        a, b = b, _zp_primitive(rem)
    return [1]


def zp_row_strip(row):
    """Divide a row by its integer content and any common power of x; fix sign.

    The sign convention makes the lowest-degree coefficient of the first
    nonzero entry positive, so stripped rows are canonical.
    """
    g = 0
    val = None
    for p in row:
        if p:
            v = 0
            while p[v] == 0:
                v += 1
            val = v if val is None else min(val, v)
            for c in p:
                if c:
                    g = gcd(g, c)
    if g == 0:
        return [list(p) for p in row]
    first = next(p for p in row if p)
    v0 = 0
    while first[v0] == 0:
        v0 += 1
    if first[v0] < 0:
        g = -g
    return [[c // g for c in p[val:]] if p else [] for p in row]


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


def qm_rref(rows):
    """Reduced row echelon form over Q.  Returns (new_rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivcols = []
    r = 0
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[r])]
        pivcols.append(col)
        r += 1
        if r == nrows:
            break
    return mat, pivcols
