"""Differential tests of the b-interval product table against the plain scan.

tests/brute_square.py multiplies every pair; product_table does one multiply
per (row prefix, u shift and core, residue of n mod 2^k).  They must agree on
every product's multiplicity, read from the table's triples, on every unique
product (order and witness), on the pair total and on the key (prefix id, n)
of every pair.  The key of every
row times every run head must equal brute_square.reference_cells, which
multiplies them, and the weights of the triples of each (prefix, n0, run
length) must add up to the number of (row, run) pairs that meet it.
"""

import random
import tracemalloc
from collections import Counter

import pytest

from brute_square import brute_counts, brute_pairs, brute_uniques, factorizations, reference_cells
from conftest import random_element
from nup import search, sets
from nup.families import FamilySpec, build_family
from nup.search import candidate_universe
from nup.sets import RunProducts, b_key, b_runs, make_set, product_table, unique_products
from nup.words import GroupParams, NormalForm, from_string, generator

ACCEPTANCE_06 = [(1, 1, 3), (1, 3, 3), (1, 1, 5), (2, 1, 5), (2, 3, 5)]
# acceptance 08 adds no point outside the base sets and ACCEPTANCE_06
REFERENCE_POINTS = [(k,) for k in range(1, 6)] + ACCEPTANCE_06 + [(3, 1, 9), (3, 3, 9)]


def kernel_keys(table, X, Y):
    """key(i, j), the key of X[i] * Y[j] read through the table's kernel as
    the scan reads it: one RunProducts.key per row and b-run of Y, with a
    product memo per row prefix, moved by the column's offset in its run."""
    kernel, memos, heads, where = table._kernel, {}, {}, {}
    for r, run in enumerate(table.runs):
        where.update((j, (r, t)) for t, j in enumerate(run))
        split = kernel.split(Y[run[0]])
        for i, x in enumerate(X):
            prefix, n = b_key(x)
            heads[i, r] = kernel.key(memos.setdefault(prefix, {}), x.u, x.alpha, x.syllables, n, split[(sum(x.syllables) + n) & 1])

    def key(i, j):
        r, t = where[j]
        pid, n0 = heads[i, r]
        return pid, n0 + t

    return key


def multiplicities(table) -> Counter:
    """The triples expanded: key (prefix id, n) -> the weight of the triples
    whose interval holds n, the number of pairs whose product it names."""
    mult: Counter = Counter()
    for pid, n0, length, weight in zip(table.triple_pid, table.triple_n0, table.triple_len, table.triple_weight):
        for n in range(n0, n0 + length):
            mult[pid, n] += weight
    return mult


def assert_same_as_brute(X, Y):
    table = product_table(X, Y)
    brute = brute_pairs(X, Y)
    key_of = kernel_keys(table, X, Y)
    mult = multiplicities(table)
    assert len(table) == len(mult) == len(brute)
    assert table.total_pairs() == sum(len(p) for p in brute.values()) == len(X) * len(Y)
    # every pair's key names its product, and the triples give every product
    # its multiplicity; distinct products have distinct keys, since b_key
    # names an element and a prefix has one id
    for z, pairs in brute.items():
        pid, n = key_of(*pairs[0])
        assert (table.prefixes[pid], n) == b_key(z)
        assert all(key_of(i, j) == (pid, n) for i, j in pairs)
        assert mult[pid, n] == len(pairs)
    uniques = brute_uniques({z: [len(pairs), pairs[0]] for z, pairs in brute.items()})
    assert table.uniques() == unique_products(X, Y) == uniques
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

    @pytest.mark.parametrize("point", [(2,), (3,), (1, 1, 3), (2, 1, 5)])
    def test_family_with_one_element_dropped(self, point):
        # dropping an element leaves unique products, so uniques() names
        # their pairs in its second pass
        T = build_family(FamilySpec(*point))
        for drop in [0] + random.Random(len(T)).sample(range(1, len(T)), 2):
            S = make_set(T.params, T.elements[:drop] + T.elements[drop + 1 :])
            table = assert_same_as_brute(S, S)
            assert table.unique_count() > 0 or drop  # the first element's row always leaves some
            assert_same_triples(S, S)

    @pytest.mark.parametrize("point", [(2,), (3,), (1, 1, 3)])
    def test_distinct_factors_with_unique_products(self, point):
        # X is not Y, so uniques() walks the rows of X apart from the runs of
        # Y, and half of a family leaves unique products on either side
        T = build_family(FamilySpec(*point))
        X = make_set(T.params, random.Random(len(T)).sample(T.elements, len(T) // 2))
        for A, B in ((X, T), (T, X)):
            assert assert_same_as_brute(A, B).unique_count() > 0

    def test_scaled_3_1_9(self):
        # 2.3M pairs: compared by multiplicity counts, not pair lists
        T = build_family(FamilySpec(3, 1, 9))
        table = product_table(T, T)
        counts = brute_counts(T, T)
        mult = multiplicities(table)
        assert len(table) == len(mult) == len(counts)
        assert table.total_pairs() == sum(c for c, _ in counts.values())
        assert table.uniques() == brute_uniques(counts) == []
        key_of = kernel_keys(table, T, T)
        for z, (count, first) in counts.items():
            pid, n = key_of(*first)
            assert (table.prefixes[pid], n) == b_key(z) and mult[pid, n] == count

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
            assert table.uniques() == []


@pytest.mark.parametrize("point", [(2,), (1, 3, 5)])
def test_factorizations_hold_only_the_pairs_of_a_key(point):
    # the key of (i, j) names the element whose pairs, read from the
    # oracle's cells, hold (i, j), and every such pair has that key
    T = build_family(FamilySpec(*point))
    table = product_table(T, T)
    key_of = kernel_keys(table, T, T)
    n = len(T)
    shared = 0
    for i in range(n):
        for j in range(n):
            pid, m = key = key_of(i, j)
            pairs = factorizations(T, T, sets._from_b_key(T.params.k, table.prefixes[pid], m))
            assert (i, j) in pairs
            assert all(key_of(*pair) == key for pair in pairs)
            shared += len(pairs) > 1
    assert shared  # other rows do meet some of these products


def with_uniques():
    return make_set(GroupParams(1), [from_string(t, GroupParams(1)) for t in ("1", "a", "b", "ab", "B^2", "bAb")])


# a family and a set with unique products, for the tests of the one sweep
SWEPT = pytest.mark.parametrize(
    "make",
    [lambda: build_family(FamilySpec(2, 1, 5)), with_uniques],
    ids=["T(2,1,5)", "with-uniques"],
)


@SWEPT
def test_one_sweep_per_prefix(make, monkeypatch):
    # the table sweeps the triples of every prefix once, as it is built, and
    # every count reads that sweep
    S = make()
    walks = 0

    class Walked(list):
        def __iter__(self):
            nonlocal walks
            walks += 1
            return super().__iter__()

    sweep = sets.FactorizationTable._sweep

    def walked_sweep(self):
        self.last_triple = Walked(self.last_triple)
        return sweep(self)

    monkeypatch.setattr(sets.FactorizationTable, "_sweep", walked_sweep)
    table = product_table(S, S)
    assert walks == 1
    counts = brute_counts(S, S)
    assert table.uniques() == brute_uniques(counts)
    assert len(table) == table.counters()["distinct_products"] == len(counts)
    assert table.unique_count() == len(brute_uniques(counts))
    assert walks == 1


@SWEPT
def test_counts_are_fixed_when_the_table_is_built(make, monkeypatch):
    # product_table returns with its counts already swept: none of the
    # readers sweeps again
    S = make()
    table = product_table(S, S)

    def no_sweep(self):
        raise AssertionError("swept after the table was built")

    monkeypatch.setattr(sets.FactorizationTable, "_sweep", no_sweep)
    counts = brute_counts(S, S)
    assert len(table) == table.counters()["distinct_products"] == len(counts)
    assert table.unique_count() == len(brute_uniques(counts))
    assert table.uniques() == brute_uniques(counts)


def less_one(spec, middle=False):
    """The family with its first or its middle element dropped."""
    elements = list(build_family(spec).elements)
    del elements[len(elements) // 2 if middle else 0]
    return make_set(spec.params, elements)


@pytest.mark.parametrize(
    "make",
    [with_uniques, lambda: less_one(FamilySpec(3), middle=True), lambda: less_one(FamilySpec(1, 1, 3))],
    ids=["with-uniques", "T(3)-less-middle", "(1,1,3)-less-first"],
)
def test_every_triple_expanded(make):
    # with every product prefix marked as holding a unique product,
    # uniques() expands every triple into its (row, run) pairs; a wrong
    # expansion anywhere shows as a false witness or a missing one
    S = make()
    table = product_table(S, S)
    assert table.unique_count()
    distinct, unique, _ = table._counts
    table._counts = distinct, unique, set(range(len(table.prefixes)))
    assert table.uniques() == brute_uniques(brute_counts(S, S))


def test_b_coordinate_beyond_64_bits_refused():
    P = GroupParams(1)
    S = make_set(P, [from_string(f"b^{2**64}", P), generator(P, "a")])
    with pytest.raises(ValueError, match="64 bits"):
        product_table(S, S)


def test_one_multiply_per_row_and_run(monkeypatch):
    # one multiply per (row prefix, u shift and core, rho), not per row and
    # run, and the count reported is the count made
    T = build_family(FamilySpec(4))
    calls = 0
    mul = NormalForm.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(NormalForm, "__mul__", counting)
    table = product_table(T, T)
    assert calls == 1056 < 577 * 33
    assert table.counters() == {"elements": 577, "runs": 33, "multiplies": 1056, "triples": 3265, "distinct_products": len(table)}
    assert calls == 1056  # len() and counters() multiply nothing
    assert table.unique_count() == 0 and table.uniques() == []
    assert calls == 1056  # nor does uniques() of a set with no unique product
    # the table keeps no product memo: reading every pair's key again through
    # its kernel multiplies once per entry of fresh memos, at most the scan's
    # count again
    key_of = kernel_keys(table, T, T)
    keys = [key_of(i, j) for i in range(len(T)) for j in range(len(T))]
    assert 1056 < calls <= 2 * 1056
    assert len(set(keys)) == len(table)
    # a set with unique products: uniques() walks the constructor's lattices
    # again and expands triples from their classes, keying nothing, so it
    # multiplies nothing
    S = make_set(T.params, T.elements[1:])
    calls = 0
    table = product_table(S, S)
    assert calls == table.multiplies and table.unique_count() > 0
    witnesses = table.uniques()
    assert calls == table.multiplies
    assert witnesses == brute_uniques(brute_counts(S, S))


def assert_same_triples(X, Y):
    """The triple oracle: the key of every row times every run head, read
    through the kernel, is reference_cells' (prefix, n0); the weights of each
    (prefix, n0, run length) add up to the number of (row, run) pairs that
    meet it, and all weights to |X| times the runs; and each prefix links
    its own triples, the last made first."""
    table = product_table(X, Y)
    cells = reference_cells(X, Y)
    assert [a.typecode for a in (table.triple_pid, table.triple_n0, table.triple_len, table.triple_weight)] == ["i", "q", "i", "i"]
    key_of = kernel_keys(table, X, Y)
    keys = [key_of(i, run[0]) for i in range(len(X)) for run in table.runs]
    assert [(table.prefixes[pid], n0, length) for (pid, n0), (_, _, length) in zip(keys, cells)] == cells
    pid, n0, length, weight = table.triple_pid, table.triple_n0, table.triple_len, table.triple_weight
    weights: Counter = Counter()
    for t in range(len(pid)):
        weights[table.prefixes[pid[t]], n0[t], length[t]] += weight[t]
    assert weights == Counter(cells)
    assert sum(weight) == len(X) * len(table.runs)
    assert min(weight, default=1) >= 1
    assert table.last_triple.typecode == table.triple_prev.typecode == "i"
    newest_first: dict = {}
    for t in range(len(pid)):
        newest_first.setdefault(pid[t], []).insert(0, t)
    linked: dict = {}
    for p, t in enumerate(table.last_triple):
        while t >= 0:
            linked.setdefault(p, []).append(t)
            t = table.triple_prev[t]
    assert linked == newest_first
    return table


class TestSharedMultiplies:
    """The table multiplies each row by a run head's a-letter core once per
    (row prefix, u shift and core, rho), and makes one triple per interval
    of a row prefix and head class; every (row, run) pair must still have
    the key of one multiply per row and run."""

    @pytest.mark.parametrize("point", REFERENCE_POINTS)
    def test_family(self, point):
        T = build_family(FamilySpec(*point))
        table = assert_same_triples(T, T)
        assert table.multiplies < len(T) * len(table.runs)
        # in the paper's sets every distinct (prefix, n0, run length) of the
        # cells has exactly one triple
        assert len(set(zip(table.triple_pid, table.triple_n0, table.triple_len))) == len(table.triple_pid)

    @pytest.mark.parametrize("k, base, qs", [(1, 20, (3, 5, 101)), (2, 72, (5, 9, 201))])
    def test_multiplies_do_not_grow_with_q(self, k, base, qs):
        # T(1, q) has the row prefixes and heads of T, only more rows of each
        # and longer runs, and a product is named by its residue mod 2^k
        counts = []
        for spec in [FamilySpec(k)] + [FamilySpec(k, 1, q) for q in qs]:
            T = build_family(spec)
            counts.append(product_table(T, T).multiplies)
        assert counts == [base] * 4

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ball_progressions(self, k):
        # unions of b-progressions of Cayley-ball elements: heads of every
        # shape, and rows of one prefix that run across several values of v
        P = GroupParams(k)
        M = 1 << k
        U = candidate_universe(P, 4)
        b = generator(P, "b")
        rng = random.Random(40 + k)
        shapes = set()
        for _ in range(25):
            elements = []
            for w in rng.sample(U, rng.randrange(1, 6)):
                elements.append(w)
                for _ in range(rng.choice((0, 1, M, 2 * M + 3))):
                    elements.append(elements[-1] * b)
            X = make_set(P, elements)
            Y = make_set(P, rng.sample(U, rng.randrange(1, 30)))
            for A, B in ((X, X), (X, Y), (Y, X)):
                assert_same_triples(A, B)
            for run in b_runs(X.elements):
                h = X[run[0]]
                shapes.add("alpha = 1" if h.alpha else "leading syllable" if h.syllables else "b-power, v != 0" if h.v else "b-power")
                shapes.add("u != 0" if h.u else "u = 0")
                if len({X[j].v for j in run}) > 1:
                    shapes.add("rows cross a block")
        assert shapes == {"alpha = 1", "leading syllable", "b-power, v != 0", "b-power", "u != 0", "u = 0", "rows cross a block"}


def test_triples_are_machine_ints():
    # 24 bytes per triple in flat arrays, and nothing per row or (row, run)
    # pair.  The prefixes, and the scan's events and the product memo of one
    # row prefix at a time, add the rest: the traced peak is about 84 B per
    # triple here
    T = build_family(FamilySpec(5))
    tracemalloc.start()
    try:
        table = product_table(T, T)
        len(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [a.typecode for a in (table.triple_pid, table.triple_n0, table.triple_len, table.triple_weight)] == ["i", "q", "i", "i"]
    assert len(table.triple_pid) == 12673
    assert peak <= 120 * len(table.triple_pid)


def assert_kernel_keys(X, Y, rng) -> set:
    """RunProducts.key of every row of X and b-run of Y against b_key of a
    plain multiply by the run's head, the rows met in a random order that
    shares each row prefix's memo; returns the shapes of what was met."""
    runs = b_runs(Y.elements)
    kernel = RunProducts(X.params.k)
    splits = [kernel.split(Y[run[0]]) for run in runs]
    memos: dict = {}
    rows = list(range(len(X)))
    rng.shuffle(rows)
    names: list = []  # the prefixes by id
    shapes = set()
    for i in rows:
        x = X[i]
        prefix, n = b_key(x)
        parity = (sum(x.syllables) + x.beta) & 1
        for run, head in zip(runs, (split[parity] for split in splits)):
            pid, n0 = kernel.key(memos.setdefault(prefix, {}), x.u, x.alpha, x.syllables, n, head)
            if pid >= len(names):
                names = list(kernel.prefix_id)
            assert (names[pid], n0) == b_key(x * Y[run[0]])
            _, _, c_h, _, flip, _, core = head
            shapes.add("b-power" if core is None else "odd a letters" if flip else "even a letters")
            if core is not None and (n + c_h) >> X.params.k:
                shapes.add("core passed by b^(M w), w != 0")
    # one multiply per memo entry of a core, and none for a power of b
    cores = {h[0] >> X.params.k for split in splits for h in split if h[6] is not None}
    assert kernel.multiplies == sum(key >> X.params.k in cores for memo in memos.values() for key in memo)
    v_of: dict = {}
    for x in X.elements:
        v_of.setdefault(b_key(x)[0], set()).add(x.v)
    if any(len(vs) > 1 for vs in v_of.values()):
        shapes.add("rows of a row prefix span several v")
    return shapes


class TestRunProducts:
    """The product kernel against a plain multiply, for every row and run."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ball_subsets(self, k):
        P = GroupParams(k)
        U = candidate_universe(P, 4)
        b = generator(P, "b")
        rng = random.Random(70 + k)
        shapes = set()
        for _ in range(20):
            # b-progressions of ball elements, so rows of a row prefix span
            # several v and runs are long, and random ball subsets
            elements = []
            for w in rng.sample(U, rng.randrange(1, 5)):
                elements.append(w)
                for _ in range(rng.choice((0, 1, 1 << k, (2 << k) + 3))):
                    elements.append(elements[-1] * b)
            X = make_set(P, elements)
            Y = make_set(P, rng.sample(U, rng.randrange(1, 30)))
            for A, B in ((X, X), (X, Y), (Y, X), (Y, Y)):
                shapes |= assert_kernel_keys(A, B, rng)
        assert shapes == {"b-power", "odd a letters", "even a letters", "core passed by b^(M w), w != 0", "rows of a row prefix span several v"}

    @pytest.mark.parametrize("point", REFERENCE_POINTS)
    def test_family(self, point):
        T = build_family(FamilySpec(*point))
        shapes = assert_kernel_keys(T, T, random.Random(len(T)))
        assert {"b-power", "odd a letters", "core passed by b^(M w), w != 0", "rows of a row prefix span several v"} <= shapes


@pytest.mark.parametrize("k, cap", [(1, 4), (2, 3), (3, 3)])
def test_search_ids_name_products(k, cap):
    # two entries of the search's table share an id exactly when their
    # products are equal, with the entries named in a random order of blocks
    P = GroupParams(k)
    U = candidate_universe(P, cap)
    counts = search._Counts(search._State(U, P, False), 8)
    rng = random.Random(k)
    order = list(range(len(U)))
    for _ in range(6):
        rng.shuffle(order)
        counts._block(order[:5], order[: rng.randrange(1, len(U))])
    n = len(U)
    ids = counts._block(range(n), range(n))
    id_of: dict = {}
    for c, p in enumerate(ids):
        assert id_of.setdefault(U[c // n] * U[c % n], p) == p
    assert len(set(id_of.values())) == len(id_of)
