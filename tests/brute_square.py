"""The plain all-pairs scan of a product set: the oracle for sets.product_table.

Every one of the |X| * |Y| pairs is multiplied with NormalForm arithmetic and
filed under its product in row-major order, so each pair list comes out
sorted.
"""

from __future__ import annotations


def brute_pairs(X, Y) -> dict:
    """Product element -> sorted list of (i, j) with X[i] * Y[j] equal to it."""
    table: dict = {}
    for i, x in enumerate(X.elements):
        for j, y in enumerate(Y.elements):
            table.setdefault(x * y, []).append((i, j))
    return table


def brute_counts(X, Y) -> dict:
    """Product element -> [multiplicity, first (i, j)]; no pair lists kept."""
    table: dict = {}
    for i, x in enumerate(X.elements):
        for j, y in enumerate(Y.elements):
            z = x * y
            entry = table.get(z)
            if entry is None:
                table[z] = [1, (i, j)]
            else:
                entry[0] += 1
    return table


def brute_uniques(counts: dict) -> list:
    """(z, (i, j)) for every product of multiplicity 1, in canonical order."""
    singles = [(z, pair) for z, (count, pair) in counts.items() if count == 1]
    singles.sort(key=lambda t: t[0].sort_key())
    return singles
