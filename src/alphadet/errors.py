"""Exception types shared across the package."""


class AlphadetError(Exception):
    """Base class for package-specific errors."""


class CapExceededError(AlphadetError):
    """An enumeration or construction exceeded its size cap."""


class SizeMismatchError(AlphadetError, ValueError):
    """Incompatible sizes, e.g. a partition whose size is not n*l."""


class PochhammerZeroError(AlphadetError, ZeroDivisionError):
    """A denominator Pochhammer symbol vanished before the series truncated."""


class EmptyInvariantSpaceError(AlphadetError):
    """The row-group invariant subspace is zero for the requested shape."""


class UncertifiedClosureError(AlphadetError):
    """No specialized closure reached the dimension that certifies the generic one."""
