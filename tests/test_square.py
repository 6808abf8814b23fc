"""Differential tests of the b-interval product table against the plain scan.

tests/brute_square.py multiplies every pair; product_table does one multiply
per (x, b-run of Y).  They must agree on every pair list, multiplicity,
unique product (order and witness), on the pair total and on the key
(prefix id, n) of every pair.
"""

import random
import tracemalloc

import pytest

from brute_square import brute_counts, brute_pairs, brute_uniques
from conftest import random_element
from nup import sets
from nup.families import FamilySpec, build_family
from nup.search import candidate_universe
from nup.sets import b_key, b_runs, make_set, product_table, unique_products
from nup.words import GroupParams, NormalForm, from_string, generator

ACCEPTANCE_06 = [(1, 1, 3), (1, 3, 3), (1, 1, 5), (2, 1, 5), (2, 3, 5)]


def assert_same_as_brute(X, Y):
    table = product_table(X, Y)
    brute = brute_pairs(X, Y)
    items = table.items()
    assert [z for z, _ in items] == sorted(brute, key=lambda z: z.sort_key())
    assert dict(items) == brute
    assert len(table) == len(brute)
    assert table.total_pairs() == sum(len(p) for p in brute.values()) == len(X) * len(Y)
    # every pair's key names its product, both ways
    for z, pairs in brute.items():
        key = table.key_of(z)
        assert table.element_of(key) == z
        assert all(table.product(i, j) == key for i, j in pairs)
    for z in random.Random(len(brute)).sample(sorted(brute, key=lambda z: z.sort_key()), min(len(brute), 1500)):
        assert table.factorizations(z) == brute[z]
        assert table.multiplicity(z) == len(brute[z])
    uniques = brute_uniques({z: [len(pairs), pairs[0]] for z, pairs in brute.items()})
    assert unique_products(X, Y, table=table) == uniques
    assert table.unique_count() == len(uniques)
    return table


class TestBKey:
    def test_right_b_shifts_n_only(self, rng):
        for k in (1, 2, 3):
            P = GroupParams(k)
            for _ in range(200):
                w = random_element(rng, P)
                e = rng.randrange(-40, 41)
                prefix, n = b_key(w)
                assert b_key(w * generator(P, "b") ** e) == (prefix, n + e)

    def test_names_elements_exactly(self, rng):
        P = GroupParams(2)
        ws = {random_element(rng, P) for _ in range(500)}
        assert len({b_key(w) for w in ws}) == len(ws)

    def test_runs_are_b_progressions(self, rng):
        P = GroupParams(1)
        U = candidate_universe(P, 4)
        S = make_set(P, rng.sample(U, 40))
        runs = b_runs(S.elements)
        assert sorted(j for run in runs for j in run) == list(range(len(S)))
        b = generator(P, "b")
        for run in runs:
            for j0, j1 in zip(run, run[1:]):
                assert S[j0] * b == S[j1]
            assert S[run[-1]] * b not in S  # maximal on the right


class TestAgainstBrute:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_base(self, k):
        T = build_family(FamilySpec(k))
        table = assert_same_as_brute(T, T)
        assert len(table.runs) == 2 * (1 << k) + 1  # one run per progression

    @pytest.mark.parametrize("point", ACCEPTANCE_06)
    def test_scaled(self, point):
        T = build_family(FamilySpec(*point))
        assert_same_as_brute(T, T)

    def test_scaled_3_1_9(self):
        # 2.3M pairs: compared by multiplicity counts, not pair lists
        T = build_family(FamilySpec(3, 1, 9))
        table = product_table(T, T)
        counts = brute_counts(T, T)
        assert len(table) == len(counts)
        assert table.total_pairs() == sum(c for c, _ in counts.values())
        assert unique_products(T, T, table=table) == brute_uniques(counts) == []
        rng = random.Random(9)
        for z in rng.sample(sorted(counts, key=lambda z: z.sort_key()), 300):
            assert table.multiplicity(z) == counts[z][0]
            assert table.factorizations(z)[0] == counts[z][1]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_universe_subsets(self, k):
        P = GroupParams(k)
        U = candidate_universe(P, 4)
        rng = random.Random(k)
        for _ in range(60):
            S = make_set(P, rng.sample(U, rng.randrange(1, 25)))
            assert_same_as_brute(S, S)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_distinct_factors(self, k):
        P = GroupParams(k)
        U = candidate_universe(P, 4)
        rng = random.Random(100 + k)
        for _ in range(60):
            X = make_set(P, rng.sample(U, rng.randrange(1, 20)))
            Y = make_set(P, rng.sample(U, rng.randrange(1, 20)))
            assert_same_as_brute(X, Y)
            assert_same_as_brute(Y, X)

    def test_touching_and_overlapping_runs(self):
        # Y = b^0..b^3, b^5..b^7: two runs with a gap of one; x = b^4 makes
        # the intervals of the rows 1 and b^4 touch, overlap and leave holes
        P = GroupParams(1)
        b = generator(P, "b")
        Y = make_set(P, [b**j for j in (0, 1, 2, 3, 5, 6, 7)])
        assert len(b_runs(Y.elements)) == 2
        for xs in ([0, 4], [0, 1, 4, 8], [-3, 0, 2, 4, 7], [0, 8]):
            X = make_set(P, [b**j for j in xs])
            assert_same_as_brute(X, Y)
            assert_same_as_brute(Y, X)

    def test_interleaved_runs(self):
        # b^j and a b^j lie on different prefixes and alternate in canonical
        # order; long runs cross several values of v
        for k in (1, 2):
            P = GroupParams(k)
            a, b = generator(P, "a"), generator(P, "b")
            Y = make_set(P, [w * b**j for w in (a**0, a, b * a, a**-1) for j in range(-9, 10)])
            assert len(b_runs(Y.elements)) == 4
            X = make_set(P, [from_string(t, P) for t in ("1", "a", "A", "b", "B^3", "ab", "b^5 a")])
            assert_same_as_brute(X, Y)
            assert_same_as_brute(Y, X)
            assert_same_as_brute(Y, Y)

    def test_empty_factor(self):
        P = GroupParams(1)
        empty, one = make_set(P, []), make_set(P, [generator(P, "a")])
        for X, Y in ((empty, one), (one, empty), (empty, empty)):
            table = product_table(X, Y)
            assert len(table) == table.total_pairs() == table.unique_count() == 0
            assert table.items() == [] and table.uniques() == []


@pytest.mark.parametrize("point", [(2,), (1, 3, 5)])
def test_right_factor_finds_only_the_pair(point):
    # a row meets each product at most once: the key of (i, j) leads row i
    # back to j, and a key from another row to no column or to one whose
    # product in row i is that key
    T = build_family(FamilySpec(*point))
    table = product_table(T, T)
    n = len(T)
    rng = random.Random(n)
    hits = 0
    for i in range(n):
        for j in range(n):
            key = table.product(i, j)
            assert table.right_factor(i, key) == j
            for other in rng.sample(range(n), 3):
                found = table.right_factor(other, key)
                if found is not None:
                    hits += other != i
                    assert table.product(other, found) == key
    assert hits  # the other rows do meet some of these products
    # prefix id -1 (key_of's answer for a prefix no product has) is no prefix,
    # not the last one
    i, j = next((i, j) for i in range(n) for j in range(n) if table.product(i, j)[0] == len(table.cells_of) - 1)
    assert table.right_factor(i, (-1, table.product(i, j)[1])) is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_family(FamilySpec(2, 1, 5)),
        lambda: make_set(GroupParams(1), [from_string(t, GroupParams(1)) for t in ("1", "a", "b", "ab", "B^2", "bAb")]),
    ],
    ids=["T(2,1,5)", "with-uniques"],
)
def test_one_sweep_per_prefix(make, monkeypatch):
    # every count reads the one sweep of the first
    S = make()
    table = product_table(S, S)
    calls = 0
    cover = sets._cover

    def counting(*args):
        nonlocal calls
        calls += 1
        return cover(*args)

    monkeypatch.setattr(sets, "_cover", counting)
    counts = brute_counts(S, S)
    assert table.uniques() == brute_uniques(counts)
    assert len(table) == table.counters()["distinct_products"] == len(counts)
    assert table.unique_count() == len(brute_uniques(counts))
    assert calls == len(table.cells_of)


def test_b_coordinate_beyond_64_bits_refused():
    P = GroupParams(1)
    S = make_set(P, [from_string(f"b^{2**64}", P), generator(P, "a")])
    with pytest.raises(ValueError, match="64 bits"):
        product_table(S, S)


def test_one_multiply_per_row_and_run(monkeypatch):
    T = build_family(FamilySpec(4))
    calls = 0
    mul = NormalForm.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(NormalForm, "__mul__", counting)
    table = product_table(T, T)
    assert calls == 577 * 33
    assert table.counters() == {"elements": 577, "runs": 33, "multiplies": 577 * 33, "distinct_products": len(table)}
    assert calls == 577 * 33  # len() and counters() multiply nothing


def test_cells_are_machine_ints():
    # an 8-byte n0 and a 4-byte entry in the prefix's cell array per cell, plus
    # the arrays' slack; cells as lists of int objects took about 58 B
    T = build_family(FamilySpec(4))
    tracemalloc.start()
    try:
        table = product_table(T, T)
        len(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(cells.typecode == "i" for cells in table.cells_of)
    assert peak <= 30 * len(T) * len(table.runs)
