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

The closure fills the module one weight space at a time, each in its own
reducer, in an order that finishes every space before any space it feeds.
The height of a weight, the sum of its prefix sums, goes up by one under
a simple raising operator and down by one under a simple lowering one, so
the raising phase visits the cone weights by ascending height and the
lowering phase by descending height, and each space takes the images of
its finished neighbours' rows.  Each space is filled against a size known
before any work: every image of weight w lies in the span of the
monomials of weight w whose every column has degree l, and their number
comes from one DP over the columns.  Once a space holds that many rows it
is full and takes no further image.  A finished space hands on its
reduced echelon rows, which for a full space are its unit monomials, so
no image is ever taken of a row that only served to fill a space, and the
coefficients stay those of reduced echelon rows.  The order, the sizes
and each space's feeds do not depend on alpha and are cached per (n, l).

All elimination is over Q, in the one reducer `kernels.RowReducer`, on
integer rows keyed by monomial, and that row is the only format of a module
row: a dict from monomial to int, primitive, with a positive lead.  A
monomial is one packed int: its n^2 exponents are digits of width b, x11
the most significant, so E_ij moves a degree from x_js to x_is by adding a
constant to the key.  The closure takes b = l.bit_length().  Each column
of every monomial it meets has degree l (adet(X)^l has, and polarization
moves degree within a column), so no exponent exceeds l, no digit carries,
and the order of the packed ints is the lex order of the exponent tuples:
the leads, and so the reduced echelon rows, are those of the tuples.  The
closure's reduced echelon rows go into the basis as they are, packed, and
the counts polarize them at the same width: a raising operator keeps every
column's degree too.  A hand-built basis is packed with the width of n*l,
the degree of every monomial of a weight of size n*l.  Exponent tuples
are made only when a caller reads `ModuleBasis.generators`.  The generic
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
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import factorial, prod
from types import MappingProxyType

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
    xnn) to coefficients, and falsy means zero.  The library does no
    arithmetic on them: a MultiPoly is the exponent-tuple view of a packed
    module row, an integer row (see the module docstring), that
    `ModuleBasis.generators` makes and `ModuleBasis.from_generators` takes.
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
        raise CapExceededError(
            f"matrix size {m} exceeds the adet cap {cap}; pass max_size (--max-size) to override"
        )
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


@cache
def _weight_monomial_counts(n: int, l: int) -> Mapping[tuple[int, ...], int]:
    """The number of monomials of each weight whose every column has degree
    l: n x n exponent matrices with column sums l, counted by row sums.

    A DP over the columns on the weight reached so far; a weight with no
    such monomial is absent.  Built on first use, cached per (n, l) and
    read-only.
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
    return MappingProxyType(states)


def cone_monomial_count(n: int, l: int) -> int:
    """Number of monomials whose every column has degree l and whose weight
    lies in the cone: the dimension of the generic module's cone part.  For
    l = 1 it is (n+1)^(n-1)."""
    return sum(c for w, c in _weight_monomial_counts(n, l).items() if _in_cone(w, l))


@dataclass(frozen=True)
class ModuleBasis:
    """Reduced echelon basis of the cone part of the cyclic module.

    The cone part is the sum of the module's weight spaces M_mu with mu in
    the cone {mu_1 + ... + mu_k >= k*l for all k}; it holds every dominant
    weight, which is all the highest-weight counts read.  `rows` are the
    basis rows in descending lead order, integer rows keyed by monomial
    packed with digit width `width` (l.bit_length() for a closure): each
    row primitive, its lead positive, and no other row's lead among its
    terms.  `alpha` is the specialization point, or None for the generic
    module over Q(alpha), whose certified basis is the unit monomials of
    cone weight.  Each row is weight-homogeneous; `weights` lists the
    row-degree vectors.  `generators` unpacks the rows into MultiPolys
    on first read.  A basis built by hand enters through `from_generators`.
    """

    n: int
    l: int
    alpha: Fraction | None
    rows: tuple[dict[int, int], ...]
    weights: tuple[tuple[int, ...], ...]
    width: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def generators(self) -> tuple[MultiPoly, ...]:
        """The rows with exponent tuples for monomials, sharing one tuple
        per monomial."""
        n, b = self.n, self.width
        monomial: dict[int, Monomial] = {}
        out = []
        for row in self.rows:
            terms = {}
            for m, c in row.items():
                key = monomial.get(m)
                if key is None:
                    key = monomial[m] = _unpack(m, n, b)
                terms[key] = c
            out.append(MultiPoly(n, terms))
        return tuple(out)

    @classmethod
    def from_generators(
        cls,
        n: int,
        l: int,
        alpha: Fraction | None,
        generators: Iterable[MultiPoly],
        weights: Iterable[tuple[int, ...]],
    ) -> ModuleBasis:
        """A basis of hand-built rows, each of the given weight, packed with
        the digit width of n*l.  The counts group rows by weight alone, so a
        row that is zero, is not homogeneous of its stated weight, or whose
        degree is not n*l raises SizeMismatchError; a coefficient that is not
        an int raises TypeError."""
        generators, weights = tuple(generators), tuple(map(tuple, weights))
        if len(generators) != len(weights):
            raise SizeMismatchError(f"{len(generators)} generators but {len(weights)} weights")
        b = (n * l).bit_length()
        rows = []
        for k, (g, w) in enumerate(zip(generators, weights)):
            if len(w) != n or sum(w) != n * l:
                raise SizeMismatchError(f"weight {w} of row {k} is not of size n*l = {n * l}")
            if not g.terms:
                raise SizeMismatchError(f"row {k} is zero")
            row = {}
            for m, c in g.terms.items():
                if type(c) is not int:
                    raise TypeError(f"row {k} has the coefficient {c!r}, not an int")
                if len(m) != n * n or min(m) < 0 or _monomial_weight(m, n) != w:
                    raise SizeMismatchError(f"row {k} has the monomial {m}, not of weight {w}")
                row[_pack(m, b)] = c
            rows.append(row)
        return cls(n=n, l=l, alpha=alpha, rows=tuple(rows), weights=weights, width=b)


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
            f"n*l = {n * l} exceeds the closure cap {cap}; "
            "pass max_size (--max-size) to override"
        )
    if alpha is not None:
        a = Fraction(alpha)
        return _module_basis(n, l, a, _close(n, l, a))
    full = cone_monomial_count(n, l)
    for a in CERTIFYING_ALPHAS:
        spaces = _close(n, l, a)
        if sum(map(len, spaces)) == full:
            # every space is full, so its rows are its unit monomials
            return _module_basis(n, l, None, spaces)
    tried = ", ".join(str(a) for a in CERTIFYING_ALPHAS)
    raise UncertifiedClosureError(
        f"no closure for n = {n}, l = {l} reached the dimension {full} of the "
        f"generic module's cone part; tried alpha = {tried}"
    )


def _module_basis(
    n: int, l: int, alpha: Fraction | None, spaces: list[list[dict[int, int]]]
) -> ModuleBasis:
    """The ModuleBasis of `_close`'s reduced echelon rows of each weight
    space, packed as `_close` packs them, in descending lead order."""
    cone = _closure_plan(n, l)[0]
    rows = sorted(
        ((row, w) for w, space in zip(cone, spaces) for row in space),
        key=lambda rw: max(rw[0]),
        reverse=True,
    )
    return ModuleBasis(
        n=n,
        l=l,
        alpha=alpha,
        rows=tuple([row for row, _ in rows]),
        weights=tuple([w for _, w in rows]),
        width=l.bit_length(),
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
    top = n * n - 1
    base = {}
    for imgs in itertools.permutations(range(n)):
        key = sum(1 << b * (top - _var(row + 1, col + 1, n)) for col, row in enumerate(imgs))
        cycles = _cycle_count(imgs)
        base[key] = p ** (n - cycles) * q ** (cycles - 1)
    gen = {0: 1}
    for _ in range(l):
        out: dict[int, int] = {}
        for m1, c1 in gen.items():
            for m2, c2 in base.items():
                key = m1 + m2
                out[key] = out.get(key, 0) + c1 * c2
        gen = {m: c for m, c in out.items() if c}
    return gen


def _height(w: tuple[int, ...]) -> int:
    """The sum of the prefix sums of w: a simple raising operator E_i,i+1
    adds one to it, and a simple lowering operator E_i+1,i takes one off."""
    return sum(itertools.accumulate(w))


@cache
def _closure_plan(n: int, l: int) -> tuple:
    """The order and the feeds of the closure of `_close`, which do not
    depend on alpha: (cone, sizes, raising, lowering).

    `cone` holds the cone weights that have monomials, by ascending height,
    so (l^n), the one weight of least height, comes first; `sizes[k]` is
    the number of monomials of cone[k] whose every column has degree l.
    `raising[k]` lists (source, shifts) for each cone weight cone[source]
    that a simple raising operator maps onto cone[k], with that operator's
    `_packed_shifts`; `lowering[k]` does the same for the simple lowering
    operators.  A raising source sits one height below its target, so
    before it in `cone`, and a lowering source one height above, so after
    it.  Cached per (n, l), like `_weight_monomial_counts`.
    """
    b = l.bit_length()
    counts = _weight_monomial_counts(n, l)
    cone = sorted((w for w in counts if _in_cone(w, l)), key=_height)
    index = {w: k for k, w in enumerate(cone)}

    def sources(ops):
        out = []
        for w in cone:
            feeds = []
            for i, j in ops:
                v = list(w)
                v[i - 1] -= 1
                v[j - 1] += 1
                k = index.get(tuple(v))
                if k is not None:
                    feeds.append((k, _packed_shifts(i, j, n, b)))
            out.append(tuple(feeds))
        return tuple(out)

    raising = sources([(i, i + 1) for i in range(1, n)])
    lowering = sources([(j + 1, j) for j in range(1, n)])
    return tuple(cone), tuple(counts[w] for w in cone), raising, lowering


def _close(n: int, l: int, a: Fraction) -> list[list[dict[int, int]]]:
    """The reduced echelon rows of each weight space of the cone part of the
    closure of adet(X)^l at alpha = a, one list per weight of
    `_closure_plan(n, l)`'s cone, on integer rows keyed by packed monomial.

    Phase 1 closes the generator under the simple raising operators
    E_i,i+1, which gives U(n+) gen; phase 2 closes that under the simple
    lowering operators E_i+1,i, which gives U(n-) U(n+) gen.  By PBW this
    is U(gl_n) gen: the Cartan part U(h) only scales weight-homogeneous
    rows, and the simple operators generate n+ and n-.

    Each phase fills one weight space at a time, in its own reducer: phase
    1 by ascending height, phase 2 by descending height.  A space starts
    from its rows so far (the generator, or its phase-1 rows) and takes the
    images of the rows of each source space under the operator that maps
    that source onto it.  A raising source sits one height lower and a
    lowering source one height higher, so every source is finished before
    its target, and the space gets its whole share of the span.  Every
    image of weight w lies in the span of the `sizes` monomials of weight w
    whose every column has degree l, so a space stops taking images as
    soon as it holds that many rows, and a phase-2 space that phase 1
    filled takes none.  A finished space hands on its reduced echelon rows:
    for a full space those are its unit monomials, its leads, so no image
    is taken of a row that only served to fill a space.  Raising from
    (l^n) never leaves the cone, and the lowering source of a cone weight
    has one partial sum mu_1 + ... + mu_j larger, so it lies in the cone
    too: the plan lists only cone sources, and no weight outside the cone
    is visited.  Rows of different weights share no monomial, so the
    spaces' reduced echelon rows together are the unique reduced echelon
    form of the cone part, whatever the order of the fill.
    """
    cone, sizes, raising, lowering = _closure_plan(n, l)
    mask = (1 << l.bit_length()) - 1
    spaces: list[list[dict[int, int]]] = [[] for _ in cone]
    spaces[0] = [_generator(n, l, a)]

    def fill(k, feeds):
        """The reduced echelon rows of the k-th space: its rows so far and
        the images of its sources' rows, until it is full."""
        reducer = RowReducer()
        for row in spaces[k]:
            reducer.add(row)
        size = sizes[k]
        for source, shifts in feeds[k]:
            for row in spaces[source]:
                if len(reducer.pivots) == size:
                    break
                reducer.add(_polarize(row, shifts, mask))
        if len(reducer.pivots) == size:
            return [{m: 1} for m in reducer.pivots]
        return reducer.back_reduce()

    for k in range(len(cone)):
        spaces[k] = fill(k, raising)
    for k in reversed(range(len(cone))):
        if len(spaces[k]) < sizes[k]:
            spaces[k] = fill(k, lowering)
    return spaces


def hwv_multiplicity(basis: ModuleBasis, lam: Partition) -> int:
    """Multiplicity of the highest weight lam in the module: the dimension of
    the joint kernel of all raising operators on the weight-lam rows.

    Each weight-lam row maps to one sparse integer row, its images under
    the simple raising operators E_i,i+1, polarized at the basis's digit
    width (a raising operator keeps every column's degree, so a closure
    row's image cannot carry, and no exponent of degree n*l passes the
    width of a hand-built basis), the image of E_i,i+1 at monomial m keyed
    by (m << k) | i with 2^k > n.  The rows go through the closure's
    fraction-free reducer; the multiplicity is the number of rows less the
    number that survive reduction.  The rows must have int coefficients, as
    every closure's and every `from_generators` basis's do; the reducer
    raises TypeError on a nonzero image of any other kind.
    """
    n = basis.n
    if lam.size != n * basis.l:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {n * basis.l}")
    if lam.length > n:
        return 0
    target = tuple(lam.part(i) for i in range(1, n + 1))
    rows = [row for row, w in zip(basis.rows, basis.weights) if w == target]
    b = basis.width
    mask = (1 << b) - 1
    k = n.bit_length()
    raising = [(i, _packed_shifts(i, i + 1, n, b)) for i in range(1, n)]
    reducer = RowReducer()
    for row in rows:
        reducer.add(
            {
                m << k | i: c
                for i, shifts in raising
                for m, c in _polarize(row, shifts, mask).items()
            }
        )
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
