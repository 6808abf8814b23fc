from collections import Counter

import pytest

from conftest import random_element
from nup.families import FamilySpec, build_family
from nup.sets import (
    load_set_file,
    make_set,
    product_table,
    save_set_file,
    unique_products,
)
from nup.words import GroupParams, from_string, identity


P1 = GroupParams(1)


def elems(*texts, params=P1):
    return [from_string(t, params) for t in texts]


class TestMakeSet:
    def test_dedup_and_count(self):
        s = make_set(P1, elems("a", "a"))
        assert len(s) == 1
        assert s.duplicates_removed == 1

    def test_empty(self):
        s = make_set(P1, [])
        assert len(s) == 0
        assert s.duplicates_removed == 0

    def test_sorted_strictly_increasing(self, rng):
        ws = [random_element(rng, P1) for _ in range(100)]
        s = make_set(P1, ws)
        for x, y in zip(s.elements, s.elements[1:]):
            assert x < y

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_set(P1, elems("a", "b"), labels=["only-one"])

    def test_labels_follow_elements_through_sort(self):
        s = make_set(P1, elems("b", "a"), labels=["is-b", "is-a"])
        by_elem = {str(w): lab for w, lab in zip(s.elements, s.labels)}
        assert by_elem == {"a": "is-a", "b": "is-b"}

    def test_mixed_params_rejected(self):
        with pytest.raises(ValueError):
            make_set(P1, [identity(GroupParams(2))])

    def test_base_family_size_k1(self):
        assert len(build_family(FamilySpec(1))) == 17

    @pytest.mark.parametrize("point", [(1,), (2,), (3,), (1, 1, 3)])
    def test_index_of_and_membership(self, point):
        # elements are found at their positions; a non-element before,
        # between or past them, another group's element and an object that
        # is no NormalForm are not
        T = build_family(FamilySpec(*point))
        assert [T.index_of(w) for w in T] == list(range(len(T))) and all(w in T for w in T)
        steps = elems("a^2", "b", "B", "a^-2 b", params=T.params)
        outside = {w * g for w in T for g in steps} - set(T.elements)
        assert len(outside) > len(T) // 2
        for w in [*outside, from_string("ab", GroupParams(T.params.k + 1)), None, "ab"]:
            assert T.index_of(w) is None and w not in T


class TestProductTable:
    def test_singleton(self):
        g = from_string("ab", P1)
        t = product_table(make_set(P1, [identity(P1)]), make_set(P1, [g]))
        assert len(t) == t.total_pairs() == t.unique_count() == 1
        assert t.uniques() == [(g, (0, 0))]

    def test_one_a_square(self):
        X = make_set(P1, elems("1", "a"))
        t = product_table(X, X)
        aa = from_string("a^2", P1)
        # 1, a and a^2 from four pairs, a from (0, 1) and (1, 0)
        assert (len(t), t.total_pairs()) == (3, 4)
        assert t.uniques() == [(identity(P1), (0, 0)), (aa, (1, 1))]

    def test_pair_count_conservation(self, rng):
        for _ in range(20):
            X = make_set(P1, [random_element(rng, P1) for _ in range(rng.randrange(1, 12))])
            Y = make_set(P1, [random_element(rng, P1) for _ in range(rng.randrange(1, 12))])
            t = product_table(X, Y)
            assert t.total_pairs() == len(X) * len(Y)
            mult = Counter(x * y for x in X for y in Y)
            assert len(t) == len(mult)
            assert t.unique_count() == sum(c == 1 for c in mult.values())
            for z, (i, j) in t.uniques():
                assert X[i] * Y[j] == z and mult[z] == 1

    def test_mixed_params_rejected(self):
        with pytest.raises(ValueError):
            product_table(make_set(P1, [identity(P1)]), make_set(GroupParams(2), [identity(GroupParams(2))]))


class TestUniqueProducts:
    def test_base_family_squares_empty(self):
        for k in (1, 2):
            T = build_family(FamilySpec(k))
            assert unique_products(T, T) == []

    def test_small_control_set(self):
        # brute force over the 9 products of {1, a, b}: multiplicities are
        # 1:1, a:2, b:2, a^2:1, ab:1, ba:1, b^2:1
        S = make_set(P1, elems("1", "a", "b"))
        t = product_table(S, S)
        assert (len(t), t.total_pairs(), t.unique_count()) == (7, 9, 5)
        uniq = unique_products(S, S)
        assert [z for z, _ in uniq] == sorted(elems("1", "a^2", "a b", "b a", "b^2"))  # canonical order
        assert len(uniq) == 5

    def test_translation_invariance(self, rng):
        for _ in range(30):
            X = make_set(P1, [random_element(rng, P1) for _ in range(5)])
            Y = make_set(P1, [random_element(rng, P1) for _ in range(5)])
            g = random_element(rng, P1)
            gX = make_set(P1, [g * x for x in X])
            assert len(unique_products(gX, Y)) == len(unique_products(X, Y))

    def test_inverse_symmetry(self, rng):
        for _ in range(30):
            X = make_set(P1, [random_element(rng, P1) for _ in range(4)])
            Y = make_set(P1, [random_element(rng, P1) for _ in range(4)])
            t = product_table(X, Y)
            Y_inv, X_inv = make_set(P1, [y.inverse() for y in Y]), make_set(P1, [x.inverse() for x in X])
            t_inv = product_table(Y_inv, X_inv)
            assert len(t_inv) == len(t) and t_inv.unique_count() == t.unique_count()
            # (x y)^-1 = y^-1 x^-1: the witnesses correspond, inverted and swapped
            inverted = sorted((z.inverse(), (Y_inv.index_of(Y[j].inverse()), X_inv.index_of(X[i].inverse()))) for z, (i, j) in t.uniques())
            assert t_inv.uniques() == inverted

    def test_two_element_sets_always_have_unique_product(self, rng):
        for _ in range(200):
            X = make_set(P1, {random_element(rng, P1, 8) for _ in range(4)})
            Y = make_set(P1, {random_element(rng, P1, 8) for _ in range(4)})
            if len(X) < 2 or len(Y) < 2:
                continue
            X = make_set(P1, X.elements[:2])
            Y = make_set(P1, Y.elements[:2])
            assert unique_products(X, Y)


class TestNonUniqueSquare:
    def test_base_family(self):
        T = build_family(FamilySpec(1))
        assert unique_products(T, T) == []

    def test_singleton_identity(self):
        S = make_set(P1, [identity(P1)])
        assert unique_products(S, S) == [(identity(P1), (0, 0))]

    def test_empty_square_is_empty(self):
        S = make_set(P1, [])
        assert unique_products(S, S) == []


class TestSetFiles:
    def test_round_trip_with_labels(self, tmp_path):
        T = build_family(FamilySpec(1))
        path = tmp_path / "t1.txt"
        save_set_file(T, path, header="base set k=1")
        back = load_set_file(path, P1)
        assert back.elements == T.elements
        assert back.labels == T.labels

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# heading\n\na b  # inline comment\nB\n")
        s = load_set_file(path, P1)
        assert len(s) == 2
        assert from_string("ab", P1) in s

    def test_plain_string_labels_round_trip(self, tmp_path):
        # a label that is no slice label is written and read back as text
        s = make_set(P1, elems("a", "b", "ab"), ["first", None, "X 1"])
        path = tmp_path / "labeled.txt"
        save_set_file(s, path)
        assert path.read_text().splitlines() == ["b", "a | first", "a b | X 1"]
        back = load_set_file(path, P1)
        assert back.elements == s.elements and back.labels == s.labels

    def test_unlabeled_round_trip(self, tmp_path):
        s = make_set(P1, elems("a", "b", "ab"))
        path = tmp_path / "plain.txt"
        save_set_file(s, path)
        assert load_set_file(path, P1).elements == s.elements
