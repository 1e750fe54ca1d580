"""Brute-force oracle: build the cyclic module and count its constituents.

This module never touches the seminormal machinery.  It works directly with
polynomials in the n^2 matrix entries x_ij: the alpha-determinant is expanded
literally, the Lie algebra acts by polarization operators
E_ij f = sum_s x_is d f / d x_js, and the cyclic module is the linear span of
the generator's iterated images.  By PBW, U(gl_n) = U(n-) U(h) U(n+), so the
closure applies only the simple raising operators E_i,i+1 and then only the
simple lowering operators E_i+1,i, keeping the span in echelon form and
returning its reduced echelon basis.  Multiplicities are read off as
dimensions of highest-weight spaces: among the module rows of weight lam
(row-degree vector), the kernel of all raising operators E_i,i+1.

All elimination is over Q, in one sparse fraction-free echelon reducer:
rows are integers divided by their content and made monic only when the
basis is returned.  The generic module over Q(alpha) is certified by
specialization.  It lies in the space of polynomials whose every column has
degree l, of dimension C(n+l-1, l)^n, and specializing alpha can only lower
its dimension; so one closure at a rational alpha that fills the space proves
that the generic module is the whole space, and its reduced echelon basis is
the unit monomials.  Highest-weight counts use the same reducer: the raising
images of each weight-lam row, scaled as a whole to integer coefficients,
form one sparse row, and the number of rows that reduce to zero is the
multiplicity.

`vere_jones_check` is the single floating-point routine in the package: it
compares det(I - a A)^(-1/a) against the truncated sum of alpha-determinants
of index-repeated blocks, with an explicit geometric bound on the dropped
tail.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, prod

from alphadet.errors import (
    CapExceededError,
    SizeMismatchError,
    SpectralRadiusError,
    UncertifiedClosureError,
    ZeroAlphaError,
)
from alphadet.exact import PolyQ, QMatrix
from alphadet.symgrp import ClassFunctionH, Partition, Permutation, enumerate_H, nu, theta

DEFAULT_ADET_CAP = 8
DEFAULT_GENERIC_CLOSURE_CAP = 6
DEFAULT_SPECIAL_CLOSURE_CAP = 8

# Specialization points tried, in order, to certify the generic closure.
CERTIFYING_ALPHAS = (Fraction(2), Fraction(7, 3))

Monomial = tuple[int, ...]


def _var(i: int, j: int, n: int) -> int:
    return (i - 1) * n + (j - 1)


@cache
def _polarization_shifts(i: int, j: int, n: int) -> tuple[tuple[int, int], ...]:
    """(source, target) variable indices (x_js, x_is) of E_ij, s = 1..n."""
    return tuple((_var(j, s, n), _var(i, s, n)) for s in range(1, n + 1))


class MultiPoly:
    """Sparse polynomial in the n^2 entries of an n x n variable matrix.

    Terms map exponent vectors (length n^2, variable order x11, x12, ...,
    xnn) to coefficients.  Coefficients may be PolyQ or Fraction; both
    support the ring operations used here, and falsy means zero.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, object] | None = None):
        self.n = n
        self.terms: dict[Monomial, object] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    @classmethod
    def zero(cls, n: int) -> MultiPoly:
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> MultiPoly:
        return cls(n, {(0,) * (n * n): c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: MultiPoly) -> MultiPoly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            acc = c if acc is None else acc + c
            if acc:
                out[m] = acc
            elif m in out:
                del out[m]
        return MultiPoly(self.n, out)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self + other.scale(-1)

    def scale(self, c) -> MultiPoly:
        if not c:
            return MultiPoly(self.n)
        return MultiPoly(self.n, {m: x * c for m, x in self.terms.items()})

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                acc = out.get(m)
                acc = c if acc is None else acc + c
                if acc:
                    out[m] = acc
                elif m in out:
                    del out[m]
        return MultiPoly(self.n, out)

    def __pow__(self, e: int) -> MultiPoly:
        out = MultiPoly.constant(self.n, Fraction(1))
        for _ in range(e):
            out = out * self
        return out

    def apply_E(self, i: int, j: int) -> MultiPoly:
        """Polarization operator E_ij f = sum_s x_is df/dx_js."""
        shifts = _polarization_shifts(i, j, self.n)
        out: dict[Monomial, object] = {}
        for m, c in self.terms.items():
            for src, dst in shifts:
                e = m[src]
                if e:
                    newm = list(m)
                    newm[src] -= 1
                    newm[dst] += 1
                    key = tuple(newm)
                    add = c * e
                    acc = out.get(key)
                    acc = add if acc is None else acc + add
                    if acc:
                        out[key] = acc
                    elif key in out:
                        del out[key]
        return MultiPoly(self.n, out)

    def eval_alpha(self, a: Fraction) -> MultiPoly:
        return MultiPoly(
            self.n,
            {m: (c(a) if isinstance(c, PolyQ) else c) for m, c in self.terms.items()},
        )

    def weight(self) -> tuple[int, ...]:
        """Row-degree vector; requires all terms to share it."""
        n = self.n
        starts = range(0, n * n, n)
        ws = {tuple(sum(m[k : k + n]) for k in starts) for m in self.terms}
        if len(ws) != 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return next(iter(ws))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("MultiPoly is mutable by construction; not hashable")

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, {len(self.terms)} terms)"


def apply_E(i: int, j: int, f: MultiPoly) -> MultiPoly:
    return f.apply_E(i, j)


def adet_eval(A: QMatrix, a: Fraction | int, max_size: int | None = None) -> Fraction:
    """alpha-determinant of a rational matrix at alpha = a, by expansion over
    all permutations weighted with a^nu."""
    m = len(A)
    cap = DEFAULT_ADET_CAP if max_size is None else max_size
    if m > cap:
        raise CapExceededError(f"matrix size {m} exceeds adet cap {cap}")
    if any(len(row) != m for row in A):
        raise SizeMismatchError("matrix is not square")
    if m == 0:
        return Fraction(1)
    apow = [Fraction(1)]
    for _ in range(m - 1):
        apow.append(apow[-1] * a)
    total = Fraction(0)
    for imgs in itertools.permutations(range(m)):
        # nu = m - number of cycles
        term = apow[m - _cycle_count(imgs)]
        for col, row in enumerate(imgs):
            term = term * A[row][col]
            if not term:
                break
        total += term
    return total


def _cycle_count(imgs: tuple[int, ...]) -> int:
    seen = [False] * len(imgs)
    count = 0
    for s in range(len(imgs)):
        if not seen[s]:
            count += 1
            x = s
            while not seen[x]:
                seen[x] = True
                x = imgs[x]
    return count


def adet_symbolic(n: int, max_size: int | None = None) -> MultiPoly:
    """The alpha-determinant of the generic matrix, coefficients in Q[alpha]."""
    cap = DEFAULT_ADET_CAP if max_size is None else max_size
    if n > cap:
        raise CapExceededError(f"matrix size {n} exceeds adet cap {cap}")
    out: dict[Monomial, object] = {}
    for imgs in itertools.permutations(range(1, n + 1)):
        sigma = Permutation(imgs)
        m = [0] * (n * n)
        for q in range(1, n + 1):
            m[_var(sigma(q), q, n)] += 1
        key = tuple(m)
        add = PolyQ.monomial(nu(sigma))
        acc = out.get(key)
        out[key] = add if acc is None else acc + add
    return MultiPoly(n, out)


def D_of(n: int, l: int, phi: ClassFunctionH, max_size: int | None = None) -> MultiPoly:
    """Column-group average sum_h phi(h) prod_{p,q} x_{theta(h)_p(q), q}."""
    acc: dict[Monomial, object] = {}
    for h in enumerate_H(n, l, max_size=max_size):
        c = phi.value(h)
        if not c:
            continue
        comps = theta(h, n, l)
        m = [0] * (n * n)
        for p in range(1, l + 1):
            comp = comps[p - 1]
            for q in range(1, n + 1):
                m[_var(comp(q), q, n)] += 1
        key = tuple(m)
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return MultiPoly(n, acc)


def weyl_dim(lam: Partition, n: int) -> int:
    """Dimension of the irreducible gl_n module with highest weight lam."""
    if lam.length > n:
        raise SizeMismatchError(f"lam has {lam.length} rows, more than n = {n}")
    num = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num *= Fraction(lam.part(i) - lam.part(j) + j - i, j - i)
    assert num.denominator == 1
    return int(num)


# ---------------------------------------------------------------------------
# Cyclic closure


# Integer rows, eliminated with the cofactors of the two leads over their gcd;
# pivots divided by their content, lead positive.


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


class _RowReducer:
    """Fraction-free echelon reducer for sparse integer rows keyed by monomial."""

    def __init__(self):
        self.pivots: dict[Monomial, dict[Monomial, int]] = {}

    def reduce(self, row: dict[Monomial, int]) -> dict[Monomial, int]:
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return _normalize_int(row)
            row = _eliminate_int(row, piv, lead)
        return row

    def insert(self, row: dict[Monomial, int]) -> None:
        self.pivots[max(row)] = row

    def back_reduce(self) -> list[dict[Monomial, int]]:
        """Eliminate every pivot lead from every other row.

        Ascending lead order: once a row is clean, reducing against it cannot
        reintroduce pivot leads, so one elimination per occurrence suffices.
        """
        for lead in sorted(self.pivots):
            row = self.pivots[lead]
            while True:
                hit = max(
                    (m for m in row if m != lead and m in self.pivots),
                    default=None,
                )
                if hit is None:
                    break
                row = _eliminate_int(row, self.pivots[hit], hit)
            self.pivots[lead] = _normalize_int(row)
        return [self.pivots[lead] for lead in sorted(self.pivots, reverse=True)]


@dataclass(frozen=True)
class ModuleBasis:
    """Reduced echelon basis of the cyclic module.

    `generators` are the basis polynomials in row order (descending lead
    monomial); `monomials` lists every monomial that occurs in them
    (descending lex).  `alpha` is None for the generic module over Q(alpha):
    a closure at a specialization certified it to be the whole space, so its
    generators are the unit monomials with coefficient PolyQ.one().
    Otherwise `alpha` is the specialization point and generators are monic
    over Q.  `hwv_multiplicity` reads a generic basis's coefficients as
    rationals, so a hand-built generic basis must have coefficients free of
    alpha.  Each row is weight-homogeneous; `weights` lists the row-degree
    vectors.
    """

    n: int
    l: int
    alpha: Fraction | None
    generators: tuple[MultiPoly, ...]
    monomials: tuple[Monomial, ...]
    weights: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.generators)


def cyclic_closure(
    n: int, l: int, alpha: Fraction | int | None = None, max_size: int | None = None
) -> ModuleBasis:
    """U(gl_n)-span of the l-th alpha-determinant power, in reduced echelon form.

    With `alpha` given, the closure of adet(X)^l specialized there.  The
    generic module (alpha None) is the whole space of polynomials whose
    every column has degree l when a closure at some alpha reaches the
    dimension C(n+l-1, l)^n of that space: the first alpha of
    CERTIFYING_ALPHAS that does certifies it, and the returned basis is the
    unit monomials over PolyQ.  Raises UncertifiedClosureError when none does.
    """
    default_cap = (
        DEFAULT_GENERIC_CLOSURE_CAP if alpha is None else DEFAULT_SPECIAL_CLOSURE_CAP
    )
    cap = default_cap if max_size is None else max_size
    if n * l > cap:
        raise CapExceededError(
            f"n*l = {n * l} exceeds the closure cap {cap}; pass max_size to override"
        )
    adet_cap = max(n, cap)
    if alpha is not None:
        return _closure(n, l, Fraction(alpha), adet_cap)
    full = comb(n + l - 1, l) ** n
    for a in CERTIFYING_ALPHAS:
        basis = _closure(n, l, a, adet_cap)
        if basis.dim == full:
            one = PolyQ.one()
            return replace(
                basis,
                alpha=None,
                generators=tuple(MultiPoly(n, {m: one}) for m in basis.monomials),
            )
    tried = ", ".join(str(a) for a in CERTIFYING_ALPHAS)
    raise UncertifiedClosureError(
        f"no closure for n = {n}, l = {l} reached the generic dimension {full}; "
        f"tried alpha = {tried}"
    )


def _closure(n: int, l: int, a: Fraction, adet_cap: int) -> ModuleBasis:
    """Closure of adet(X)^l at alpha = a, on integer rows.

    Phase 1 closes the span under the simple raising operators E_i,i+1,
    which gives U(n+) gen; phase 2 closes that under the simple lowering
    operators E_i+1,i, which gives U(n-) U(n+) gen.  By PBW this is
    U(gl_n) gen: the Cartan part U(h) only scales weight-homogeneous rows,
    and the simple operators generate n+ and n-.  Each image is reduced
    against the current echelon rows and kept when it is new; the final back
    reduction makes the basis the unique reduced echelon form of the module,
    whatever the elimination order.
    """
    gen = adet_symbolic(n, max_size=adet_cap).eval_alpha(a) ** l
    scale = lcm(*(c.denominator for c in gen.terms.values()))
    reducer = _RowReducer()

    def close(polys: list[MultiPoly], ops) -> list[MultiPoly]:
        """Close span(polys) under ops; returns polys plus every new row."""
        found = list(polys)
        queue = deque(polys)
        while queue:
            f = queue.popleft()
            for i, j in ops:
                row = reducer.reduce(dict(f.apply_E(i, j).terms))
                if row:
                    reducer.insert(row)
                    poly = MultiPoly(n, row)
                    found.append(poly)
                    queue.append(poly)
        return found

    start = reducer.reduce({m: int(c * scale) for m, c in gen.terms.items()})
    reducer.insert(start)
    raised = close([MultiPoly(n, start)], [(i, i + 1) for i in range(1, n)])
    close(raised, [(i + 1, i) for i in range(1, n)])

    rows = reducer.back_reduce()
    polys = tuple(
        MultiPoly(n, {m: Fraction(c, row[max(row)]) for m, c in row.items()})
        for row in rows
    )
    return ModuleBasis(
        n=n,
        l=l,
        alpha=a,
        generators=polys,
        monomials=tuple(sorted({m for r in rows for m in r}, reverse=True)),
        weights=tuple(p.weight() for p in polys),
    )


def _constant(c: PolyQ) -> Fraction:
    if c.degree > 0:
        raise ValueError(
            f"generic basis coefficient {c} depends on alpha; "
            "only alpha-free coefficients can be counted"
        )
    return c.coeff(0)


def hwv_multiplicity(basis: ModuleBasis, lam: Partition) -> int:
    """Multiplicity of the highest weight lam in the module: the dimension of
    the joint kernel of all raising operators on the weight-lam rows.

    Each weight-lam generator maps to one sparse row, its images under the
    simple raising operators E_i,i+1 keyed by (i, monomial), scaled as a
    whole to integer coefficients (a row operation, so the rank is kept).
    The rows go through the closure's fraction-free reducer; the
    multiplicity is the number of rows less the number that survive
    reduction.  The count is over Q for every basis: a generic basis's PolyQ
    coefficients are read as their constant terms, and a coefficient of
    positive degree in alpha raises ValueError.
    """
    n = basis.n
    if lam.size != n * basis.l:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {n * basis.l}")
    if lam.length > n:
        return 0
    target = tuple(lam.part(i) for i in range(1, n + 1))
    rows = [p for p, w in zip(basis.generators, basis.weights) if w == target]
    if basis.alpha is None:
        rows = [MultiPoly(n, {m: _constant(c) for m, c in p.terms.items()}) for p in rows]
    reducer = _RowReducer()
    rank = 0
    for poly in rows:
        image = {
            (i, m): c
            for i in range(1, n)
            for m, c in poly.apply_E(i, i + 1).terms.items()
        }
        scale = lcm(*(c.denominator for c in image.values()))
        row = reducer.reduce({key: int(c * scale) for key, c in image.items()})
        if row:
            reducer.insert(row)
            rank += 1
    return len(rows) - rank


def weight_consistency_check(basis: ModuleBasis) -> bool:
    """sum over admissible lam of multiplicity times Weyl dimension must equal
    the closure dimension."""
    from alphadet.symgrp import admissible_shapes

    total = sum(
        hwv_multiplicity(basis, lam) * weyl_dim(lam, basis.n)
        for lam in admissible_shapes(basis.n, basis.l)
    )
    return total == basis.dim


# ---------------------------------------------------------------------------
# Floating-point quarantine


@dataclass(frozen=True)
class VereJonesResult:
    """Both sides of the truncated power-series identity and the error budget."""

    lhs: float
    rhs: float
    difference: float
    tolerance: float
    tail_bound: float
    spectral_radius: float
    k_max: int

    @property
    def ok(self) -> bool:
        return self.difference <= self.tolerance + self.tail_bound


def _det_q(M: QMatrix) -> Fraction:
    n = len(M)
    mat = [list(row) for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for i in range(col + 1, n):
            if mat[i][col]:
                c = mat[i][col] * inv
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[col])]
    return det


def vere_jones_check(
    A: QMatrix,
    a: Fraction | int,
    k_max: int = 6,
    tol: float = 1e-9,
) -> VereJonesResult:
    """Compare det(I - a A)^(-1/a) with the truncated series

        sum_{k <= k_max} (1/k!) sum_{i_1..i_k} adet_a(A[(i),(i)]),

    where the inner sum ranges over all index tuples with repetition and
    A[(i),(i)] repeats rows and columns accordingly.  Tuples are grouped by
    multiset (the alpha-determinant is invariant under simultaneous row and
    column permutation), which turns 1/k! into 1/prod(multiplicities!).

    The dropped tail is bounded by sum_{k > k_max} C(nu+k-1, k) q^k with
    nu = n/|a| and q = |a| rho(A): each factor (1 - a lambda z)^(-1/a) of the
    generating function is coefficient-dominated by (1 - q z)^(-1/nu...),
    giving the binomial bound, and the partial sums are compared up to
    tolerance + tail.  Requires rho(a A) < 1 (checked in floating point).
    """
    import numpy as np

    a = Fraction(a)
    if a == 0:
        raise ZeroAlphaError("alpha = 0 is not in the domain of the identity")
    if k_max < 0 or k_max > 6:
        raise ValueError("k_max must lie in 0..6")
    n = len(A)
    if any(len(row) != n for row in A):
        raise SizeMismatchError("matrix is not square")

    rho = float(max(abs(np.linalg.eigvals(np.array(A, dtype=float)))) ) if n else 0.0
    if abs(float(a)) * rho >= 1.0:
        raise SpectralRadiusError(
            f"spectral radius of a*A is {abs(float(a)) * rho:.4f} >= 1"
        )

    eye_minus = [
        [Fraction(int(i == j)) - a * A[i][j] for j in range(n)] for i in range(n)
    ]
    det = _det_q(eye_minus)
    lhs = float(det) ** (-1.0 / float(a))

    rhs_exact = Fraction(0)
    for k in range(k_max + 1):
        for multiset in itertools.combinations_with_replacement(range(n), k):
            sub = [[A[i][j] for j in multiset] for i in multiset]
            mults: dict[int, int] = {}
            for i in multiset:
                mults[i] = mults.get(i, 0) + 1
            weight = prod(factorial(m) for m in mults.values())
            rhs_exact += adet_eval(sub, a) / weight
    rhs = float(rhs_exact)

    q = abs(float(a)) * (rho + 1e-12)
    nu_ = n / abs(float(a))
    ratio = q * max(1.0, (nu_ + k_max + 1) / (k_max + 2))
    if ratio >= 1.0:
        raise SpectralRadiusError(
            f"cannot certify the truncation tail: term ratio {ratio:.4f} >= 1"
        )
    head = q ** (k_max + 1)
    for t in range(k_max + 1):
        head *= (nu_ + t) / (t + 1)
    tail = head / (1.0 - ratio)
    return VereJonesResult(
        lhs=lhs,
        rhs=rhs,
        difference=abs(lhs - rhs),
        tolerance=tol,
        tail_bound=tail,
        spectral_radius=rho,
        k_max=k_max,
    )
