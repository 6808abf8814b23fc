"""Builders for the parametrized non-unique product sets.

For k >= 1 (write M = 2^k) the base set is the union of the b-progressions

    X_0 = { a^-1 b^j          :  0 <= j <= 1 }
    X_i = { b^i a^-1 b^j      :  0 <= j <= M+1 }      1 <= i <= M-1
    Y_l = { b^l a b^j         :  1 <= j <= M+1 }      0 <= l <= M-1
    Z_0 = { b^j               : -M <= j <= M }

of total size 2M^2 + 4M + 1.  The scaled family takes odd p >= 1 and odd
q >= 1 with M | q-1 and stretches every progression:

    X_0(p,q) = { a^-p b^j     : -q+1 <= j <= (M+1)q - M }
    X_i(p,q) = { b^i a^-p b^j : -q+1 <= j <= (M+1)q }
    Y_l(p,q) = { b^l a^p b^j  : -q+2 <= j <= (M+1)q }
    Z_0(p,q) = { b^j          : |j| <= M(q+1)/2 + (q-1) }

of total size (2M^2 + 5M + 2)q - (M+1); at p = q = 1 the two families agree
elementwise.  Every element carries a SliceLabel (family, index, j) so the
checker can address progressions symbolically; element identity, not the
label, drives set semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .sets import GroupSet, make_set
from .words import GroupParams, NormalForm, from_word


class SliceLabel(NamedTuple):
    family: str  # "X", "Y" or "Z"
    index: int  # progression index; 0 for Z
    j: int  # trailing b-exponent within the progression


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting the base set (p = q = None) or the scaled one."""

    k: int
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if (self.p is None) != (self.q is None):
            raise ValueError("p and q must be given together")
        if self.p is not None:
            if self.p < 1 or self.p % 2 == 0:
                raise ValueError(f"p must be a positive odd integer, got {self.p}")
            if self.q < 1 or self.q % 2 == 0:
                raise ValueError(f"q must be a positive odd integer, got {self.q}")
            # bit lengths first, so that a huge k never builds 2^k
            if self.q > 1 and ((self.q - 1).bit_length() <= self.k or (self.q - 1) % (1 << self.k)):
                raise ValueError(f"q - 1 = {self.q - 1} must be a multiple of 2^{self.k}")

    @property
    def scaled(self) -> bool:
        return self.p is not None

    @property
    def p_eff(self) -> int:
        return 1 if self.p is None else self.p

    @property
    def q_eff(self) -> int:
        return 1 if self.q is None else self.q

    @property
    def params(self) -> GroupParams:
        return GroupParams(self.k)

    def describe(self) -> str:
        if self.scaled:
            return f"T(p={self.p}, q={self.q}) in group k={self.k}"
        return f"T in group k={self.k}"


def z_halfwidth(spec: FamilySpec) -> int:
    """Largest b-exponent in the Z progression; always a multiple of 2^k."""
    M = 1 << spec.k
    q = spec.q_eff
    return M * (q + 1) // 2 + (q - 1)


def progression_bounds(spec: FamilySpec) -> dict[tuple[str, int], tuple[int, int]]:
    """Inclusive trailing-exponent range of every progression in the family."""
    M = 1 << spec.k
    q = spec.q_eff
    top = (M + 1) * q
    bounds: dict[tuple[str, int], tuple[int, int]] = {("X", 0): (-q + 1, top - M)}
    for i in range(1, M):
        bounds[("X", i)] = (-q + 1, top)
    for l in range(M):
        bounds[("Y", l)] = (-q + 2, top)
    D = z_halfwidth(spec)
    bounds[("Z", 0)] = (-D, D)
    return bounds


def expected_cardinality(spec: FamilySpec) -> int:
    """Closed-form size of the family; must match the built set exactly."""
    M = 1 << spec.k
    if not spec.scaled:
        return 2 * M * M + 4 * M + 1
    return (2 * M * M + 5 * M + 2) * spec.q - (M + 1)


# Largest predicted peak memory the CLI admits, in bytes.  The prediction is
# 400 B per element and 13 B per cell of the square's table (an 8-byte n0, a
# 4-byte entry in its prefix's cell array and the arrays' slack), fitted to
# the peak RSS of verify at base k = 5, 6 and 7 (20, 34 and 139 MiB) less the
# interpreter's 18 MiB.  A family has one b-run per progression, 2^(k+1) + 1
# of them, and the table one cell per row and run.  check adds its |T|^2-bit
# coverage and a 4-byte prefix id per cell.  This admits verify and check
# --k 7 (118 and 283 MiB predicted) and refuses verify --k 8 (890 MiB).
MEMORY_BUDGET = 512 << 20
_ELEMENT_BYTES = 400
_CELL_BYTES = 13


def check_memory(spec: FamilySpec, claims: bool = False) -> int:
    """The predicted peak bytes of scanning the family's square, and of its
    claims too when claims is set; ValueError above MEMORY_BUDGET."""
    limit = f"the budget of {MEMORY_BUDGET >> 20} MiB"
    if spec.k > 64:  # |T| > 2^(2k+1): say so without computing 2^k
        raise ValueError(f"{spec.describe()} has more than 2^{2 * spec.k + 1} elements, above {limit}")
    size = expected_cardinality(spec)
    cells = size * (2 * (1 << spec.k) + 1)
    predicted = size * _ELEMENT_BYTES + cells * _CELL_BYTES
    if claims:
        predicted += size * size // 8 + 4 * cells
    if predicted > MEMORY_BUDGET:
        raise ValueError(f"{spec.describe()} would have {size} elements and need about {predicted >> 20:,} MiB, above {limit}")
    return predicted


def _slice_element(params: GroupParams, p: int, fam: str, idx: int, j: int) -> NormalForm:
    if fam == "X":
        tokens = (("b", idx), ("a", -p), ("b", j))
    elif fam == "Y":
        tokens = (("b", idx), ("a", p), ("b", j))
    else:
        tokens = (("b", j),)
    return from_word([t for t in tokens if t[1] != 0], params)


def build_family(spec: FamilySpec) -> GroupSet:
    """Build the labeled set; raises if the construction ever collides."""
    params = spec.params
    p = spec.p_eff
    elements: list[NormalForm] = []
    labels: list[SliceLabel] = []
    bounds = progression_bounds(spec)
    order = {"X": 0, "Y": 1, "Z": 2}
    for (fam, idx) in sorted(bounds, key=lambda key: (order[key[0]], key[1])):
        lo, hi = bounds[(fam, idx)]
        for j in range(lo, hi + 1):
            elements.append(_slice_element(params, p, fam, idx, j))
            labels.append(SliceLabel(fam, idx, j))
    gset = make_set(params, elements, labels)
    if gset.duplicates_removed:
        raise RuntimeError(f"family construction produced {gset.duplicates_removed} duplicate elements")
    return gset


def build_base_set(k: int) -> GroupSet:
    return build_family(FamilySpec(k))


def build_scaled_set(k: int, p: int, q: int) -> GroupSet:
    return build_family(FamilySpec(k, p, q))
