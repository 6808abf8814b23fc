"""The plain all-pairs scan of a product set: the oracle for sets.product_table.

Every one of the |X| * |Y| pairs is multiplied with NormalForm arithmetic and
filed under its product in row-major order, so each pair list comes out
sorted.  reference_cells names every row times every b-run of Y, one
multiply each: the oracle for the table's shared multiplies and its triples,
and, through factorizations, for every pair list of one product.
"""

from __future__ import annotations

from nup.sets import b_key, b_runs


def reference_cells(X, Y) -> list[tuple]:
    """(prefix, n0, run length) of X[i] times the b-run r of Y for every
    (i, r) in row-major order, multiplying every row by every run head."""
    runs = b_runs(Y.elements)
    out = []
    for x in X.elements:
        for run in runs:
            prefix, n = b_key(x * Y.elements[run[0]])
            out.append((prefix, n, len(run)))
    return out


_CELLS: dict = {}  # the last (X, Y) asked: (id(X), id(Y)) -> (X, Y, cells by prefix)


def factorizations(X, Y, z) -> list[tuple[int, int]]:
    """Every (i, j) with X[i] * Y[j] = z, sorted, read from reference_cells:
    one multiply per row and b-run of Y, made once for the last (X, Y)."""
    key = (id(X), id(Y))
    if key not in _CELLS:
        runs, by_prefix = b_runs(Y.elements), {}
        for c, (prefix, n0, length) in enumerate(reference_cells(X, Y)):
            by_prefix.setdefault(prefix, []).append((n0, length, c // len(runs), runs[c % len(runs)]))
        _CELLS.clear()
        _CELLS[key] = X, Y, by_prefix  # X and Y are held, so their ids stay theirs
    prefix, n = b_key(z)
    return sorted((i, run[n - n0]) for n0, length, i, run in _CELLS[key][2].get(prefix, ()) if 0 <= n - n0 < length)


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
    singles.sort(key=lambda t: t[0])
    return singles
