"""Reference objects that only the tests use.

Nothing under `src/` reaches these names.  Each is a textbook definition the
tests check the library's results against: the block tableau of shape (l^n)
with its row and column groups, the centralizer order z_mu of a class, and
the Weyl dimension of an irreducible gl_n module.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from alphadet.errors import SizeMismatchError
from alphadet.symgrp import Partition, Permutation


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


def z_lambda(mu: Partition) -> int:
    """Centralizer order of the class mu: prod_i i^{m_i} m_i!."""
    return prod(i**m * factorial(m) for i, m in Counter(mu.parts).items())


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
