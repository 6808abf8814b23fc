"""The chart of rewrite rows for the leftover corner slices of the square.

Each row names a slice (a left element times a whole right progression), a
shape with a claimed j-range, and the target block that must hold the slice,
verified by checker.check_chart at every value of n (VAR_VALUES by var).
src "short" takes X_1's top M exponents, printed overrides rng where the
published chart deviates, and residue is the target's left exponent mod M."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional


class Row(NamedTuple):
    tag: str
    var: str
    left: Callable
    right: Callable
    src: str
    shape: Callable
    rng: Callable
    target: Callable
    residue: Optional[int]
    printed: Optional[Callable] = None


def _tok(*pairs):
    return tuple((g, e) for g, e in pairs if e != 0)


def _lo(s1: int, mid: int, s2: int) -> Callable:
    """The shape b^n a^(s1 p) b^mid a^(s2 p) b^j."""
    return lambda c, j: _tok(("b", c.n), ("a", s1 * c.p), ("b", mid), ("a", s2 * c.p), ("b", j))


def _hi(s: int) -> Callable:
    """The shape a^(s p) b^j."""
    return lambda c, j: _tok(("a", s * c.p), ("b", j))


# the fields that several rows share, each named once: the left element
# at either end of X_n or Y_n, the right progressions, the j-ranges and the
# target blocks
_X_LO, _X_HI = (lambda c: ("X", c.n, -c.q + 1)), (lambda c: ("X", c.n, c.top))
_Y_LO, _Y_HI = (lambda c: ("Y", c.n, -c.q + 2)), (lambda c: ("Y", c.n, c.top))
_X0_HI = lambda c: ("X", 0, c.top - c.M)
_X1, _X_LAST = (lambda c: ("X", 1)), (lambda c: ("X", c.M - 1))
_Y0, _Y_LAST = (lambda c: ("Y", 0)), (lambda c: ("Y", c.M - 1))
_SHORT, _FULL = (lambda c: (c.T1 - c.M, c.T1 - 1)), (lambda c: (1, c.T1 - 1))
_HI2, _HI3 = (lambda c: (c.n + 2 - c.T1 - c.M, c.n + 1 - c.M)), (lambda c: (c.n + 3 - c.T1 - c.M, c.n + 1 - c.M))
_TO_YN_Y0, _TO_YDOWN = (lambda c: (("Y", c.n), ("Y", 0))), (lambda c: (("Y", c.n - 1), ("Y", c.M - 1)))
_TO_XN_X1, _TO_XUP = (lambda c: (("X", c.n), ("X", 1))), (lambda c: (("X", c.n + 1), ("X", c.M - 1)))
_TO_ZZ = lambda c: (("Z", 0), ("Z", 0))

CHART: list[Row] = [
    Row("x(0,lo)X1", "zero", lambda c: ("X", 0, -c.q + 1), _X1, "short", _lo(1, 1, 1), _SHORT, _TO_YN_Y0, 1),
    Row("x(0,hi)X(M-1)", "zero", _X0_HI, _X_LAST, "full", _hi(-2),
        lambda c: (2 - c.T1, 1), lambda c: (("Y", c.M - 1), ("Y", c.M - 1)), 1),
    Row("x(l,lo)X1", "l", _X_LO, _X1, "short", _lo(1, 1, 1), _SHORT, _TO_YN_Y0, 1),
    Row("x(l,hi)X(M-1)", "l", _X_HI, _X_LAST, "full", _hi(2), _HI2, _TO_YDOWN, 1),
    Row("x(m,lo)X1", "m", _X_LO, _X1, "short", _lo(-1, 1, -1), _SHORT, _TO_YN_Y0, 1,
        printed=lambda c: (c.T1 - c.M, c.M + 2 * c.q - 1)),
    Row("x(m,hi)X(M-1)", "m", _X_HI, _X_LAST, "full", _hi(-2), _HI2, _TO_YDOWN, 1),
    Row("x(M-1,lo)X1", "last", _X_LO, _X1, "short", _lo(1, 1, 1), _SHORT, _TO_YN_Y0, 1),
    Row("x(M-1,hi)X(M-1)", "last", _X_HI, _X_LAST, "full", _hi(2),
        lambda c: (1 - c.T1, 0), lambda c: (("Y", c.M - 2), ("Y", c.M - 1)), 1),
    Row("y(n,lo)X1", "n", _Y_LO, _X1, "short", _lo(1, 2, -1), _SHORT, lambda c: (("X", c.n), ("Y", 1)), 1),
    Row("y(n,hi)X(M-1)", "n", _Y_HI, _X_LAST, "full", _hi(0), _HI2, _TO_ZZ, None),
    Row("y(0,lo)Y0", "zero", lambda c: ("Y", 0, -c.q + 2), _Y0, "full", _lo(1, 1, 1), _FULL, lambda c: (("X", 0), ("X", 1)), 0),
    Row("y(0,hi)Y(M-1)", "zero", lambda c: ("Y", 0, c.top), _Y_LAST, "full", _hi(2),
        lambda c: (3 - c.T1 - c.M, 1 - c.M), lambda c: (("X", 1), ("X", c.M - 1)), 1),
    Row("y(l,lo)Y0", "l", _Y_LO, _Y0, "full", _lo(1, 1, 1), _FULL, _TO_XN_X1, 0),
    Row("y(l,hi)Y(M-1)", "l", _Y_HI, _Y_LAST, "full", _hi(-2), _HI3, _TO_XUP, 1),
    Row("y(m,lo)Y0", "m", _Y_LO, _Y0, "full", _lo(1, 1, 1), _FULL, _TO_XN_X1, 0),
    Row("y(m,hi)Y(M-1)", "m", _Y_HI, _Y_LAST, "full", _hi(2), _HI3, _TO_XUP, 1),
    Row("y(M-1,lo)Y0", "last", _Y_LO, _Y0, "full", _lo(1, 1, 1), _FULL, lambda c: (("X", c.M - 1), ("X", 1)), 0,
        printed=lambda c: (1, 2**c.q + 2 * c.q - 1)),
    Row("y(M-1,hi)Y(M-1)", "last", _Y_HI, _Y_LAST, "full", _hi(-2), lambda c: (2 - c.T1, 0), lambda c: (("X", 0), ("X", c.M - 1)), 1),
    Row("x(n,lo)Y0", "n", _X_LO, _Y0, "full", _hi(0), lambda c: (c.n + 1, c.n + c.T1 - 1), _TO_ZZ, None),
    Row("x(0,hi)Y(M-1)", "zero", _X0_HI, _Y_LAST, "full", _hi(0), lambda c: (3 - c.T1, 1), _TO_ZZ, None),
    Row("x(n,hi)Y(M-1)", "n_nonzero", _X_HI, _Y_LAST, "full", _hi(0), _HI3, _TO_ZZ, None),
]


def context(inv, n: int) -> SimpleNamespace:
    """The values a chart row reads: M, q, p, top, T1 = (M + 2) q and n."""
    return SimpleNamespace(M=inv.M, q=inv.q, p=inv.p, top=inv.top, T1=inv.M * inv.q + 2 * inv.q, n=n)


VAR_VALUES: dict[str, Callable[[int], range]] = {  # a row's values of n by its var, for M = 2^k
    "zero": lambda M: range(0, 1),
    "last": lambda M: range(M - 1, M),
    "l": lambda M: range(1, M - 2, 2),
    "m": lambda M: range(2, M - 1, 2),
    "n": lambda M: range(M),
    "n_nonzero": lambda M: range(1, M),
}
