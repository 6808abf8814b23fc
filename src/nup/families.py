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
label, drives set semantics.  The progressions are walked once, in
family_runs, which folds one word per progression, its head: build_family
steps each head's b-coordinate n to the rest of its progression, and
scan_family scans the square of the runs, building no element, for verify
and check; it lives here so that verify never imports the checker.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import NamedTuple, Optional

from .sets import FactorizationTable, GroupSet, RunSet, _from_b_key, b_key, make_set, product_table
from .words import MAX_K, GroupParams, from_word

FAMILIES = ("X", "Y", "Z")  # in progression order, which is also string order


class SliceLabel(NamedTuple):
    family: str  # "X", "Y" or "Z"
    index: int  # progression index; 0 for Z
    j: int  # trailing b-exponent within the progression


class FamilySpec(namedtuple("FamilySpec", "k p q", defaults=(None, None))):
    """Parameters selecting the base set (p = q = None) or the scaled one."""

    __slots__ = ()

    def __new__(cls, k: int, p: int | None = None, q: int | None = None):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        if (p is None) != (q is None):
            raise ValueError("p and q must be given together")
        if p is not None:
            for name, value in (("p", p), ("q", q)):
                if not isinstance(value, int) or isinstance(value, bool) or value < 1 or value % 2 == 0:
                    raise ValueError(f"{name} must be a positive odd integer, got {value!r}")
            # bit lengths first, so that a huge k never builds 2^k
            if q > 1 and ((q - 1).bit_length() <= k or (q - 1) % (1 << k)):
                raise ValueError(f"q - 1 = {q - 1} must be a multiple of 2^{k}")
        return super().__new__(cls, k, p, q)

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
    return (2 * M * M + 5 * M + 2) * spec.q_eff - (M + 1)


# Largest predicted peak memory the CLI admits, in bytes.  verify builds no
# element: less the interpreter's 14.9 MiB, it leaves 496, 517, 526 and 547
# B per element at base k = 6..9 (18.9, 31.3, 81.2 and 289.3 MiB), mostly
# triples and product prefixes, and export-set 409 and 456 at k = 8 and 9.
# check peaks in the same scan: its claims, run after the table is freed,
# keep no element and peak at 25 MiB past the interpreter at base k = 9.
MEMORY_BUDGET = 512 << 20
_ELEMENT_BYTES = 620


def check_memory(spec: FamilySpec) -> int:
    """The predicted peak bytes of verify or check on the family, those of
    scanning its square; ValueError above MEMORY_BUDGET."""
    limit = f"the budget of {MEMORY_BUDGET >> 20} MiB"
    if spec.k > MAX_K:  # |T| > 2^(2k+1): say so without computing 2^k
        raise ValueError(f"{spec.describe()} has more than 2^{2 * spec.k + 1} elements, above {limit}")
    size = expected_cardinality(spec)
    predicted = size * _ELEMENT_BYTES
    if predicted > MEMORY_BUDGET:
        raise ValueError(f"{spec.describe()} would have {size} elements and need about {predicted >> 20:,} MiB, above {limit}")
    return predicted


def family_runs(spec: FamilySpec) -> RunSet:
    """The family as its b-runs (head, indices), one per progression, with
    the elements numbered along the progressions; only the heads are built."""
    params, p, runs, start = spec.params, spec.p_eff, [], 0
    for (fam, idx), (lo, hi) in progression_bounds(spec).items():
        # the head: b^idx a^-p b^lo in X, b^idx a^p b^lo in Y, b^lo in Z
        word = [("b", lo)] if fam == "Z" else [("b", idx), ("a", p if fam == "Y" else -p), ("b", lo)]
        runs.append((from_word([t for t in word if t[1]], params), range(start, start + hi - lo + 1)))
        start += hi - lo + 1
    return RunSet(params, runs)


def build_family(spec: FamilySpec) -> GroupSet:
    """Build the labeled set from family_runs: element t of a progression is
    its head times b^t, the key (prefix, n0 + t) of a head keyed (prefix, n0),
    labeled j = lo + t; raises if the construction ever collides."""
    k, elements, labels = spec.k, [], []
    for ((fam, idx), (lo, _)), (head, ix) in zip(progression_bounds(spec).items(), family_runs(spec).runs):
        prefix, n0 = b_key(head)
        elements += [_from_b_key(k, prefix, n0 + t) for t in range(len(ix))]
        labels += [SliceLabel(fam, idx, lo + t) for t in range(len(ix))]
    gset = make_set(spec.params, elements, labels)
    if gset.duplicates_removed:
        raise RuntimeError(f"family construction produced {gset.duplicates_removed} duplicate elements")
    return gset


def scan_family(spec: FamilySpec, gset: Optional[GroupSet] = None) -> tuple[Optional[GroupSet], FactorizationTable, list, dict]:
    """(gset, table, uniques, report) of the square of gset, or of the
    family's runs; gset stays None then unless a witness needs its indices.
    The report has the fields of verify and check, with claims_s 0.0."""
    t0 = time.perf_counter()
    S = family_runs(spec) if gset is None else gset
    t1 = time.perf_counter()
    table = product_table(S, S)
    uniques = table.uniques()
    if uniques and gset is None:  # never for the paper's sets
        gset = build_family(spec)
        uniques = product_table(gset, gset).uniques()
    report = {
        "parameters": {"k": spec.k, "p": spec.p, "q": spec.q},
        "set_size": table.cols,
        "expected_size": expected_cardinality(spec),
        "duplicates_removed": 0 if gset is None else gset.duplicates_removed,
        "unique_count": len(uniques),
        "witnesses": [[str(z), [i, j]] for z, (i, j) in uniques],
        "counters": table.counters(),
        "timings": {"build_s": round(t1 - t0, 6), "scan_s": round(time.perf_counter() - t1, 6), "claims_s": 0.0},
    }
    return gset, table, uniques, report
