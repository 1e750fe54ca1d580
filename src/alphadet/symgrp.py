"""Symmetric-group combinatorics for the block tableau of shape (l^n).

Permutations act on {1, ..., m} and are stored in one-line notation.  The
block tableau T of an (n, l) pair has n rows of length l with (i, j)-entry
(i-1)*l + j.  Its row group K consists of the permutations preserving every
row (iso to a product of n copies of S_l) and its column group H of the
permutations congruent to the identity mod l (iso to a product of l copies
of S_n via `theta`).

`nu` is the statistic sum_i (i-1) * m_i(sigma) = m - #cycles(sigma), the
exponent of alpha in the alpha-determinant.  Characters use the
Murnaghan-Nakayama rule on beta-numbers with memoization; `zonal` averages a
character over K, which is the spherical-function value attached to the pair
(S_m, K).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Iterable, Iterator, Sequence

from alphadet.errors import CapExceededError, NotInSubgroupError, SizeMismatchError
from alphadet.exact import PolyQ

DEFAULT_ENUM_CAP = 10


class Permutation:
    """A permutation of {1, ..., m} in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, m: int) -> Permutation:
        return cls(range(1, m + 1))

    @classmethod
    def from_cycles(cls, m: int, cycles: Sequence[Sequence[int]]) -> Permutation:
        imgs = list(range(1, m + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                imgs[a - 1] = b
        return cls(imgs)

    @classmethod
    def transposition(cls, m: int, a: int, b: int) -> Permutation:
        imgs = list(range(1, m + 1))
        imgs[a - 1], imgs[b - 1] = b, a
        return cls(imgs)

    @classmethod
    def from_text(cls, text: str) -> Permutation:
        """Parse one-line notation "2,3,1"."""
        return cls(int(tok) for tok in text.split(","))

    def to_text(self) -> str:
        return ",".join(str(x) for x in self.images)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition: (self * other)(x) = self(other(x))."""
        if self.size != other.size:
            raise SizeMismatchError("composing permutations of different sizes")
        simgs = self.images
        return Permutation(simgs[y - 1] for y in other.images)

    def inverse(self) -> Permutation:
        inv = [0] * self.size
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self(x)
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        return Partition(sorted((len(c) for c in self.cycles()), reverse=True))

    @property
    def sign(self) -> int:
        """Parity from inversion count (independent of the cycle structure)."""
        inv = 0
        imgs = self.images
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                if imgs[i] > imgs[j]:
                    inv += 1
        return -1 if inv & 1 else 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(("Permutation", self.images))

    def __repr__(self) -> str:
        return f"Permutation({self.to_text()})"


class Partition:
    """A weakly decreasing tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        if any(p <= 0 for p in ps):
            raise ValueError(f"parts must be positive: {ps}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {ps}")
        self.parts = ps

    @classmethod
    def from_text(cls, text: str) -> Partition:
        """Parse "3,1"; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(tok) for tok in text.split(","))

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """1-based part access; parts beyond the length are 0."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> Partition:
        if not self.parts:
            return Partition(())
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def cells(self) -> Iterator[tuple[int, int]]:
        """1-based (row, column) cells."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield i, j

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Partition", self.parts))

    def __repr__(self) -> str:
        return f"Partition({self.to_text() or '()'})"


def partitions(m: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of m, in descending lexicographic order."""

    def rec(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    slots = m if max_length is None else max_length
    return [Partition(t) for t in rec(m, m, slots)]


def admissible_shapes(n: int, l: int) -> list[Partition]:
    """Partitions of n*l with at most n rows, in descending lex order."""
    return partitions(n * l, max_length=n)


def nu(sigma: Permutation) -> int:
    """sum_i (i-1)*m_i(sigma), equivalently size minus number of cycles."""
    return sigma.size - len(sigma.cycles())


def z_lambda(mu: Partition) -> int:
    """Centralizer order of the class mu: prod_i i^{m_i} m_i!."""
    return prod(i**m * factorial(m) for i, m in mu.multiplicities().items())


def adjacent_word(g: Permutation) -> list[int]:
    """Indices w with g = s_{w[0]} o s_{w[1]} o ... (adjacent transpositions).

    Obtained by bubble-sorting the one-line notation, so the word length is
    the inversion number of g.
    """
    imgs = list(g.images)
    sortword = []
    changed = True
    while changed:
        changed = False
        for j in range(len(imgs) - 1):
            if imgs[j] > imgs[j + 1]:
                imgs[j], imgs[j + 1] = imgs[j + 1], imgs[j]
                sortword.append(j + 1)
                changed = True
    sortword.reverse()
    return sortword


@dataclass(frozen=True)
class BlockTableau:
    """The rectangular tableau with n rows of length l filled row by row."""

    n: int
    l: int

    def entry(self, i: int, j: int) -> int:
        return (i - 1) * self.l + j

    def row_of(self, x: int) -> int:
        return (x - 1) // self.l + 1

    def col_of(self, x: int) -> int:
        return (x - 1) % self.l + 1

    def in_row_group(self, g: Permutation) -> bool:
        return all(self.row_of(g(x)) == self.row_of(x) for x in range(1, self.n * self.l + 1))

    def in_column_group(self, g: Permutation) -> bool:
        return all((g(x) - x) % self.l == 0 for x in range(1, self.n * self.l + 1))


def _check_cap(n: int, l: int, max_size: int | None) -> None:
    cap = DEFAULT_ENUM_CAP if max_size is None else max_size
    if n * l > cap:
        raise CapExceededError(
            f"n*l = {n * l} exceeds the enumeration cap {cap}; pass max_size to override"
        )


def enumerate_K(n: int, l: int, max_size: int | None = None) -> list[Permutation]:
    """The row group of the block tableau, built row by row; size (l!)^n."""
    _check_cap(n, l, max_size)
    m = n * l
    rows = [[(i - 1) * l + j for j in range(1, l + 1)] for i in range(1, n + 1)]
    out = []
    for choice in itertools.product(*[itertools.permutations(row) for row in rows]):
        imgs = [0] * m
        for row, perm in zip(rows, choice):
            for pos, target in zip(row, perm):
                imgs[pos - 1] = target
        out.append(Permutation(imgs))
    return out


def enumerate_H(n: int, l: int, max_size: int | None = None) -> list[Permutation]:
    """The column group of the block tableau, built column by column; size (n!)^l."""
    _check_cap(n, l, max_size)
    m = n * l
    out = []
    for choice in itertools.product(itertools.permutations(range(1, n + 1)), repeat=l):
        imgs = [0] * m
        for p in range(1, l + 1):
            sigma = choice[p - 1]
            for q in range(1, n + 1):
                imgs[(q - 1) * l + p - 1] = (sigma[q - 1] - 1) * l + p
        out.append(Permutation(imgs))
    return out


def theta(h: Permutation, n: int, l: int) -> tuple[Permutation, ...]:
    """Column-wise splitting of h in H into l permutations of S_n.

    theta(h)[p-1] sends q to q' exactly when h moves the column-p entry of
    row q to the column-p entry of row q'.  Raises NotInSubgroupError when h
    does not preserve columns.
    """
    if h.size != n * l:
        raise SizeMismatchError(f"permutation size {h.size} is not n*l = {n * l}")
    comps = []
    for p in range(1, l + 1):
        imgs = []
        for q in range(1, n + 1):
            y = h((q - 1) * l + p)
            if (y - p) % l != 0:
                raise NotInSubgroupError(f"{h!r} does not preserve columns mod {l}")
            imgs.append((y - p) // l + 1)
        comps.append(Permutation(imgs))
    return tuple(comps)


def theta_inv(components: Sequence[Permutation], n: int, l: int) -> Permutation:
    """Inverse of `theta`: assemble an H-element from l permutations of S_n."""
    if len(components) != l:
        raise SizeMismatchError(f"expected {l} components, got {len(components)}")
    imgs = [0] * (n * l)
    for p in range(1, l + 1):
        sigma = components[p - 1]
        if sigma.size != n:
            raise SizeMismatchError("component size must be n")
        for q in range(1, n + 1):
            imgs[(q - 1) * l + p - 1] = (sigma(q) - 1) * l + p
    return Permutation(imgs)


def embed_column(sigma: Permutation, p: int, n: int, l: int) -> Permutation:
    """Embed sigma in S_n as the column-p factor of H, identity elsewhere."""
    comps = [Permutation.identity(n)] * l
    comps[p - 1] = sigma
    return theta_inv(comps, n, l)


def coset_rep_n2(l: int, s: int) -> Permutation:
    """The double-coset representative (1,l+1)(2,l+2)...(s,l+s) in S_{2l}."""
    if not 0 <= s <= l:
        raise ValueError(f"s must lie in 0..{l}")
    return Permutation.from_cycles(2 * l, [(i, l + i) for i in range(1, s + 1)])


@functools.cache
def _chi(shape: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    if not shape:
        return 0
    t = mu[0]
    k = len(shape)
    beta = tuple(shape[i] + (k - 1 - i) for i in range(k))
    bset = set(beta)
    total = 0
    for b in beta:
        c = b - t
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in beta if c < x < b)
        newbeta = sorted([c] + [x for x in beta if x != b], reverse=True)
        newshape = tuple(nb - (k - 1 - i) for i, nb in enumerate(newbeta))
        while newshape and newshape[-1] == 0:
            newshape = newshape[:-1]
        total += (-1) ** height * _chi(newshape, mu[1:])
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam on the class mu (Murnaghan-Nakayama)."""
    if lam.size != mu.size:
        raise SizeMismatchError(f"|lam| = {lam.size} but |mu| = {mu.size}")
    return _chi(lam.parts, mu.parts)


def dim_f(lam: Partition) -> int:
    """Number of standard tableaux of shape lam (hook length formula)."""
    if lam.size == 0:
        return 1
    conj = lam.conjugate()
    hooks = prod(
        lam.part(i) - j + conj.part(j) - i + 1 for i, j in lam.cells()
    )
    return factorial(lam.size) // hooks


def _count_ssyt(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Count semistandard tableaux of the given shape and content by backtracking."""
    cells = [(i, j) for i, p in enumerate(shape) for j in range(p)]
    nvals = len(content)
    remaining = list(content)
    grid = [[0] * p for p in shape]

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        total = 0
        for v in range(lo, nvals + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                grid[i][j] = v
                total += fill(idx + 1)
                remaining[v - 1] += 1
        grid[i][j] = 0
        return total

    return fill(0)


def kostka(lam: Partition, n: int, l: int) -> int:
    """Kostka number for shape lam and rectangular content (l^n)."""
    if lam.size != n * l:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {n * l}")
    return _count_ssyt(lam.parts, (l,) * n)


def kostka_content(lam: Partition, content: Sequence[int]) -> int:
    """Kostka number for an arbitrary content vector (test oracle helper)."""
    if lam.size != sum(content):
        raise SizeMismatchError("shape size and content size disagree")
    return _count_ssyt(lam.parts, tuple(content))


def zonal(
    lam: Partition, g: Permutation, n: int, l: int, max_size: int | None = None
) -> Fraction:
    """Average of chi^lam over the coset Kg: (1/|K|) sum_k chi^lam(k g).

    Products k*g are bucketed by cycle type so each character value is
    computed once per class.
    """
    m = n * l
    if lam.size != m:
        raise SizeMismatchError(f"|lam| = {lam.size} is not n*l = {m}")
    if g.size != m:
        raise SizeMismatchError(f"|g| = {g.size} is not n*l = {m}")
    buckets: dict[tuple[int, ...], int] = {}
    count = 0
    for k in enumerate_K(n, l, max_size=max_size):
        t = (k * g).cycle_type().parts
        buckets[t] = buckets.get(t, 0) + 1
        count += 1
    total = sum(mult * _chi(lam.parts, t) for t, mult in buckets.items())
    return Fraction(total, count)


@dataclass(frozen=True)
class ClassFunctionH:
    """A class function on the column group H, valued in Q[alpha].

    Stored as a function of the theta image's tuple of cycle types, which
    indexes the H-conjugacy classes, so constancy on classes holds by
    construction.  `kind` tags which of the two built-in functions it is;
    equality compares it, since the stored function cannot be.
    """

    n: int
    l: int
    kind: str
    _fn: Callable[[tuple[tuple[int, ...], ...]], PolyQ] = field(compare=False)

    @classmethod
    def alpha_nu(cls, n: int, l: int) -> ClassFunctionH:
        """h -> alpha^{nu(h)}; nu is additive across the theta components."""

        def fn(types: tuple[tuple[int, ...], ...]) -> PolyQ:
            e = sum(n - len(t) for t in types)
            return PolyQ.monomial(e)

        return cls(n, l, "alpha_nu", fn)

    @classmethod
    def delta_identity(cls, n: int, l: int) -> ClassFunctionH:
        """Indicator of the identity element."""

        def fn(types: tuple[tuple[int, ...], ...]) -> PolyQ:
            if all(t == (1,) * n for t in types):
                return PolyQ.one()
            return PolyQ.zero()

        return cls(n, l, "delta", fn)

    def value(self, h: Permutation) -> PolyQ:
        types = tuple(c.cycle_type().parts for c in theta(h, self.n, self.l))
        return self._fn(types)
