"""Exception types shared across the package, and the one size-cap rule,
`check_cap`: a layer passes the size it is about to take on and its default
cap, `max_size` (`--max-size`) overrides the default, and every refusal is
the same sentence."""


class AlphadetError(Exception):
    """Base class for package-specific errors."""


class CapExceededError(AlphadetError):
    """An enumeration or construction exceeded its size cap.  `refusal` is
    the sentence that names the size and the cap, and `hint` says how to
    get past it."""

    def __init__(self, refusal: str, hint: str = "pass max_size (--max-size) to override"):
        super().__init__(f"{refusal}; {hint}")
        self.refusal = refusal


class SizeMismatchError(AlphadetError, ValueError):
    """Incompatible sizes, e.g. a partition whose size is not n*l."""


class PochhammerZeroError(AlphadetError, ZeroDivisionError):
    """A denominator Pochhammer symbol vanished before the series truncated."""


class EmptyInvariantSpaceError(AlphadetError):
    """The row-group invariant subspace is zero for the requested shape."""


class UncertifiedClosureError(AlphadetError):
    """No specialized closure reached the dimension that certifies the generic one."""


def check_cap(what: str, size: int, cap_name: str, default: int, max_size: int | None) -> None:
    """Raise CapExceededError when `size` exceeds the cap: `max_size` when
    given, else the layer's `default`.  `what` is printed before the size,
    e.g. "n*l =" or "matrix size", and `cap_name` names the layer's cap."""
    cap = default if max_size is None else max_size
    if size > cap:
        raise CapExceededError(f"{what} {size} exceeds the {cap_name} cap {cap}")
