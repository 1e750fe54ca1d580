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

Only the cone part of the module is built: the weight spaces of weight mu
with mu_1 + ... + mu_k >= k*l for every k.  Every dominant weight of size
n*l lies in the cone, so the counts read nothing else, and a lowering image
that leaves the cone can never come back to it (each simple lowering lowers
one partial sum by one), so dropping those images loses nothing inside it.

All elimination is over Q, in the one reducer `kernels.RowReducer`, on
integer rows keyed by monomial, and that row is the only format of a module
row: a dict from monomial to int, primitive, with a positive lead.  Inside
the closure and the counts a monomial is one packed int: its n^2 exponents
are digits of width b, x11 the most significant, so E_ij moves a degree
from x_js to x_is by adding a constant to the key.  The closure takes
b = l.bit_length().  Each column of every monomial it meets has degree l
(adet(X)^l has, and polarization moves degree within a column), so no
exponent exceeds l, no digit carries, and the order of the packed ints is
the lex order of the exponent tuples: the leads, and so the reduced
echelon rows, are those of the tuples.  The closure's reduced echelon rows
go into the basis as they are, with their monomials unpacked to exponent
tuples; the counts pack the rows they read again, with the digit width of
n*l, the degree of every monomial of a weight of size n*l.  The generic
module over Q(alpha) is certified by specialization.  It lies in the space
of polynomials whose every column has degree l, and specializing alpha can
only lower the dimension of each weight space; so one closure at a rational
alpha whose cone part has as many rows as there are monomials of cone
weight proves that the generic cone part is all of them, and its reduced
echelon basis is those unit monomials, with coefficient 1.  Highest-weight
counts use the same reducer: the raising images of each weight-lam row form
one sparse integer row, and the number of rows that reduce to zero is the
multiplicity.

`vere_jones_check` compares, exactly and coefficient by coefficient, the
power series of det(I - a z A)^(-1/a) with the sum of alpha-determinants of
index-repeated blocks.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, prod

from alphadet.errors import CapExceededError, SizeMismatchError, UncertifiedClosureError
from alphadet.exact import QMatrix, mat_identity, mat_mul
from alphadet.kernels import RowReducer
from alphadet.symgrp import Partition, kostka_content

DEFAULT_ADET_CAP = 8
DEFAULT_GENERIC_CLOSURE_CAP = 6
DEFAULT_SPECIAL_CLOSURE_CAP = 8

# Specialization points tried, in order, to certify the generic closure.
CERTIFYING_ALPHAS = (Fraction(2), Fraction(7, 3))

Monomial = tuple[int, ...]


def _var(i: int, j: int, n: int) -> int:
    return (i - 1) * n + (j - 1)


def _pack(m: Monomial, b: int) -> int:
    """The exponent vector m as one int of n^2 digits of width b, x11 first."""
    key = 0
    for e in m:
        key = key << b | e
    return key


def _unpack(key: int, n: int, b: int) -> Monomial:
    """The exponent vector of a monomial packed with digit width b.

    Built from a list: tuple() of a generator grows its tuple by resizing,
    so the tuples it frees pile up in the interpreter's free list for their
    length instead of being reused.
    """
    mask = (1 << b) - 1
    return tuple([key >> s & mask for s in range(b * (n * n - 1), -1, -b)])


@cache
def _packed_shifts(i: int, j: int, n: int, b: int) -> tuple[tuple[int, int], ...]:
    """(shift, delta) of E_ij on monomials packed with digit width b, one pair
    per s = 1..n: the exponent of x_js is (m >> shift) & mask, and moving one
    degree from x_js to x_is gives the key m + delta."""
    top = n * n - 1
    out = []
    for s in range(1, n + 1):
        src, dst = b * (top - _var(j, s, n)), b * (top - _var(i, s, n))
        out.append((src, (1 << dst) - (1 << src)))
    return tuple(out)


def _polarize(row: dict[int, object], shifts: tuple[tuple[int, int], ...], mask: int) -> dict:
    """E_ij on a row keyed by packed monomial, given E_ij's `_packed_shifts`
    and the digit mask; zero terms dropped.  The digit that gains a degree
    must stay below the mask, or the key carries into its neighbour."""
    out: dict[int, int] = {}
    get = out.get
    for m, c in row.items():
        for shift, delta in shifts:
            e = m >> shift & mask
            if e:
                key = m + delta
                out[key] = get(key, 0) + c * e
    if 0 in out.values():
        return {m: c for m, c in out.items() if c}
    return out


def _monomial_weight(m: Monomial, n: int) -> tuple[int, ...]:
    """Row-degree vector of a monomial in x11, x12, ..., xnn."""
    return tuple([sum(m[k : k + n]) for k in range(0, n * n, n)])


class MultiPoly:
    """Sparse polynomial in the n^2 entries of an n x n variable matrix.

    Terms map exponent vectors (length n^2, variable order x11, x12, ...,
    xnn) to coefficients, and falsy means zero.  The alpha-determinant has
    coefficients in Q[alpha], specialized ones are rational, and a module
    row is an integer row (see the module docstring).  The library only
    stores polynomials here and does no arithmetic on them.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Monomial, object] | None = None):
        self.n = n
        self.terms: dict[Monomial, object] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, {len(self.terms)} terms)"


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


# ---------------------------------------------------------------------------
# Cyclic closure


def _in_cone(w: tuple[int, ...], l: int) -> bool:
    """True when every partial sum w_1 + ... + w_k is at least k*l."""
    s = 0
    for k, x in enumerate(w, 1):
        s += x
        if s < k * l:
            return False
    return True


def _cone_weights(n: int, l: int) -> list[tuple[int, ...]]:
    """Every weight of size n*l in the cone {mu_1 + ... + mu_k >= k*l for all k},
    in descending lex order."""
    out = []

    def extend(prefix: tuple[int, ...], s: int) -> None:
        k = len(prefix)
        if k == n - 1:
            out.append(prefix + (n * l - s,))
            return
        for x in range(n * l - s, max(0, (k + 1) * l - s) - 1, -1):
            extend(prefix + (x,), s + x)

    extend((), 0)
    return out


def cone_monomial_count(n: int, l: int) -> int:
    """Number of monomials whose every column has degree l and whose weight
    lies in the cone: the dimension of the generic module's cone part.

    A DP over the columns on the weight reached so far; for l = 1 it is
    (n+1)^(n-1).
    """
    columns = []
    for rows in itertools.combinations_with_replacement(range(n), l):
        c = [0] * n
        for i in rows:
            c[i] += 1
        columns.append(c)
    states = {(0,) * n: 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for w, count in states.items():
            for c in columns:
                v = tuple(a + b for a, b in zip(w, c))
                nxt[v] = nxt.get(v, 0) + count
        states = nxt
    return sum(count for w, count in states.items() if _in_cone(w, l))


@dataclass(frozen=True)
class ModuleBasis:
    """Reduced echelon basis of the cone part of the cyclic module.

    The cone part is the sum of the module's weight spaces M_mu with mu in
    the cone {mu_1 + ... + mu_k >= k*l for all k}; it holds every dominant
    weight, which is all the highest-weight counts read.  `generators` are
    the basis rows in descending lead order, with int coefficients: each
    row primitive, its lead positive, and no other row's lead among its
    terms.  `alpha` is the specialization point, or None for the generic
    module over Q(alpha), whose certified basis is the unit monomials of
    cone weight.  Each row is weight-homogeneous; `weights` lists the
    row-degree vectors.
    """

    n: int
    l: int
    alpha: Fraction | None
    generators: tuple[MultiPoly, ...]
    weights: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.generators)


def cyclic_closure(
    n: int, l: int, alpha: Fraction | int | None = None, max_size: int | None = None
) -> ModuleBasis:
    """Cone part of the U(gl_n)-span of the l-th alpha-determinant power, in
    reduced echelon form.

    With `alpha` given, the closure of adet(X)^l specialized there.  The
    generic module (alpha None) lies in the space of polynomials whose every
    column has degree l; its cone part is the whole cone part of that space
    when a closure at some alpha reaches `cone_monomial_count(n, l)`: the
    first alpha of CERTIFYING_ALPHAS that does certifies it, and the
    returned basis is the unit monomials of cone weight.  Raises
    UncertifiedClosureError when none does.
    """
    default_cap = (
        DEFAULT_GENERIC_CLOSURE_CAP if alpha is None else DEFAULT_SPECIAL_CLOSURE_CAP
    )
    cap = default_cap if max_size is None else max_size
    if n * l > cap:
        raise CapExceededError(
            f"n*l = {n * l} exceeds the closure cap {cap}; pass max_size to override"
        )
    if alpha is not None:
        a = Fraction(alpha)
        return _module_basis(n, l, a, _close(n, l, a).back_reduce())
    full = cone_monomial_count(n, l)
    for a in CERTIFYING_ALPHAS:
        leads = sorted(_close(n, l, a).pivots, reverse=True)
        if len(leads) == full:
            # full distinct leads of cone weight are every monomial of cone
            # weight, so the reduced echelon basis is the unit monomials and
            # needs no back reduction.
            return _module_basis(n, l, None, [{m: 1} for m in leads])
    tried = ", ".join(str(a) for a in CERTIFYING_ALPHAS)
    raise UncertifiedClosureError(
        f"no closure for n = {n}, l = {l} reached the dimension {full} of the "
        f"generic module's cone part; tried alpha = {tried}"
    )


def _module_basis(
    n: int, l: int, alpha: Fraction | None, rows: list[dict[int, int]]
) -> ModuleBasis:
    """Unpack reduced echelon rows of packed monomials, in descending lead
    order, into a ModuleBasis; the rows share one tuple per monomial."""
    b = l.bit_length()
    monomial: dict[int, Monomial] = {}
    generators = []
    for row in rows:
        terms = {}
        for m, c in row.items():
            key = monomial.get(m)
            if key is None:
                key = monomial[m] = _unpack(m, n, b)
            terms[key] = c
        generators.append(MultiPoly(n, terms))
    return ModuleBasis(
        n=n,
        l=l,
        alpha=alpha,
        generators=tuple(generators),
        weights=tuple(_monomial_weight(monomial[max(row)], n) for row in rows),
    )


def _generator(n: int, l: int, a: Fraction) -> dict[int, int]:
    """adet(X)^l at alpha = a = p/q, times q^((n-1)l), as an integer row of
    monomials packed with digit width l.bit_length().

    The term of sigma in adet(X) is alpha^nu(sigma), nu = n - cycles; times
    q^(n-1) it is the integer p^nu q^(cycles-1).  The l-th power adds keys,
    which never carries, because each column of a product of l such
    monomials has degree l.
    """
    p, q = a.numerator, a.denominator
    b = l.bit_length()
    base = {}
    for imgs in itertools.permutations(range(n)):
        m = [0] * (n * n)
        for col, row in enumerate(imgs):
            m[_var(row + 1, col + 1, n)] = 1
        cycles = _cycle_count(imgs)
        base[_pack(m, b)] = p ** (n - cycles) * q ** (cycles - 1)
    gen = {0: 1}
    for _ in range(l):
        out: dict[int, int] = {}
        for m1, c1 in gen.items():
            for m2, c2 in base.items():
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
        gen = {m: c for m, c in out.items() if c}
    return gen


def _close(n: int, l: int, a: Fraction) -> RowReducer:
    """Echelon rows spanning the cone part of the closure of adet(X)^l at
    alpha = a, on integer rows keyed by packed monomial.

    Phase 1 closes the span under the simple raising operators E_i,i+1,
    which gives U(n+) gen; phase 2 closes that under the simple lowering
    operators E_i+1,i, which gives U(n-) U(n+) gen.  By PBW this is
    U(gl_n) gen: the Cartan part U(h) only scales weight-homogeneous rows,
    and the simple operators generate n+ and n-.  Raising from (l^n) never
    leaves the cone.  A lowering E_j+1,j lowers the partial sum
    mu_1 + ... + mu_j by one and no operator of phase 2 raises one, so an
    image that leaves the cone never returns to it: phase 2 skips those
    images, and what remains is exactly the module's cone part.  Each image
    is reduced against the current echelon rows and kept when it is new;
    the caller's back reduction makes the basis the unique reduced echelon
    form of the cone part, whatever the elimination order.
    """
    b = l.bit_length()
    mask = (1 << b) - 1
    reducer = RowReducer()
    raising = [_packed_shifts(i, i + 1, n, b) for i in range(1, n)]
    lowering_shifts = [_packed_shifts(j + 1, j, n, b) for j in range(1, n)]

    def lowering(row):
        """The simple lowering operators whose image of row stays in the cone."""
        ops = []
        s = 0
        for j, x in enumerate(_monomial_weight(_unpack(max(row), n, b), n)[:-1], 1):
            s += x
            if s > j * l:
                ops.append(lowering_shifts[j - 1])
        return ops

    def close(ops_of):
        """Close the span of the current rows under ops_of(row)."""
        queue = deque(reducer.pivots.values())
        while queue:
            row = queue.popleft()
            for shifts in ops_of(row):
                new = reducer.reduce(_polarize(row, shifts, mask))
                if new:
                    reducer.insert(new)
                    queue.append(new)

    reducer.insert(reducer.reduce(_generator(n, l, a)))
    close(lambda row: raising)
    close(lowering)
    return reducer


def hwv_multiplicity(basis: ModuleBasis, lam: Partition) -> int:
    """Multiplicity of the highest weight lam in the module: the dimension of
    the joint kernel of all raising operators on the weight-lam rows.

    Each weight-lam generator maps to one sparse integer row, its images
    under the simple raising operators E_i,i+1, the image of E_i,i+1 at
    monomial m keyed by (packed m << k) | i with 2^k > n.  The rows go
    through the closure's fraction-free reducer; the multiplicity
    is the number of rows less the number that survive reduction.  The
    generators must have int coefficients, as every closure's do; the
    reducer raises TypeError on a nonzero image of any other kind.
    """
    n = basis.n
    if lam.size != n * basis.l:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {n * basis.l}")
    if lam.length > n:
        return 0
    target = tuple(lam.part(i) for i in range(1, n + 1))
    rows = [g.terms for g, w in zip(basis.generators, basis.weights) if w == target]
    # a monomial of weight lam has degree n*l, so no exponent passes n*l
    b = lam.size.bit_length()
    mask = (1 << b) - 1
    k = n.bit_length()
    raising = [(i, _packed_shifts(i, i + 1, n, b)) for i in range(1, n)]
    reducer = RowReducer()
    for terms in rows:
        packed = {_pack(m, b): c for m, c in terms.items()}
        row = reducer.reduce(
            {
                m << k | i: c
                for i, shifts in raising
                for m, c in _polarize(packed, shifts, mask).items()
            }
        )
        if row:
            reducer.insert(row)
    return len(rows) - len(reducer.pivots)


def weight_consistency_check(basis: ModuleBasis, mults: Mapping[Partition, int]) -> bool:
    """Per-weight identity of the cone part: every row weight lies in the
    cone, and for every weight mu of the cone
    dim M_mu = sum over lam of m_lam K(lam, mu), with m_lam = mults[lam]
    the highest-weight multiplicities being checked (a shape left out
    counts 0) and K the Kostka number (symmetric in the content, so read
    at mu sorted)."""
    n, l = basis.n, basis.l
    dims = Counter(basis.weights)
    cone = _cone_weights(n, l)
    if not dims.keys() <= set(cone):
        return False
    expected: dict[tuple[int, ...], int] = {}
    for mu in cone:
        content = tuple(sorted(mu, reverse=True))
        if content not in expected:
            expected[content] = sum(
                m * kostka_content(lam, content) for lam, m in mults.items() if m
            )
        if dims.get(mu, 0) != expected[content]:
            return False
    return True


# ---------------------------------------------------------------------------
# Vere-Jones series


@dataclass(frozen=True)
class VereJonesResult:
    """The z^0..z^k_max coefficients of both sides of the Vere-Jones identity."""

    lhs: tuple[Fraction, ...]
    rhs: tuple[Fraction, ...]
    k_max: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def vere_jones_check(A: QMatrix, a: Fraction | int, k_max: int = 6) -> VereJonesResult:
    """Compare, coefficient by coefficient in Q, the formal power series

        det(I - a z A)^(-1/a) = sum_k z^k sum_{|I| = k} adet_a(A_I) / prod(mult!)

    up to z^k_max, where I ranges over multisets of row indices and A_I
    repeats rows and columns accordingly (Vere-Jones 1988).

    The left side is exp(sum_{m >= 1} p_m z^m) with p_m = a^(m-1) tr(A^m) / m,
    the logarithm of the product of (1 - a lambda z)^(-1/a) over the
    eigenvalues lambda of A; its coefficients e_k follow from
    k e_k = sum_{j=1..k} j p_j e_(k-j), e_0 = 1.  At a = 0 it is the limit
    exp(z tr A), and no spectral condition enters: the identity holds as
    formal power series.  The right side expands each alpha-determinant over
    permutations.
    """
    a = Fraction(a)
    if k_max < 0 or k_max > 6:
        raise ValueError("k_max must lie in 0..6")
    n = len(A)
    if any(len(row) != n for row in A):
        raise SizeMismatchError("matrix is not square")

    p = [Fraction(0)]
    power = mat_identity(n)
    for m in range(1, k_max + 1):
        power = mat_mul(power, A)
        p.append(a ** (m - 1) * sum(power[i][i] for i in range(n)) / m)
    lhs = [Fraction(1)]
    for k in range(1, k_max + 1):
        lhs.append(sum(j * p[j] * lhs[k - j] for j in range(1, k + 1)) / k)

    rhs = []
    for k in range(k_max + 1):
        coeff = Fraction(0)
        for multiset in itertools.combinations_with_replacement(range(n), k):
            sub = [[A[i][j] for j in multiset] for i in multiset]
            weight = prod(factorial(m) for m in Counter(multiset).values())
            coeff += adet_eval(sub, a) / weight
        rhs.append(coeff)
    return VereJonesResult(lhs=tuple(lhs), rhs=tuple(rhs), k_max=k_max)
