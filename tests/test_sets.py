import pytest

from conftest import random_element
from nup.families import build_base_set
from nup.sets import (
    is_nonunique_square,
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
            assert x.sort_key() < y.sort_key()

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
        assert len(build_base_set(1)) == 17


class TestProductTable:
    def test_singleton(self):
        g = from_string("ab", P1)
        t = product_table(make_set(P1, [identity(P1)]), make_set(P1, [g]))
        assert t.items() == [(g, [(0, 0)])]

    def test_one_a_square(self):
        X = make_set(P1, elems("1", "a"))
        t = product_table(X, X)
        a = from_string("a", P1)
        aa = from_string("a^2", P1)
        assert t.factorizations(identity(P1)) == [(0, 0)]
        assert t.factorizations(a) == [(0, 1), (1, 0)]
        assert t.factorizations(aa) == [(1, 1)]

    def test_pair_count_conservation(self, rng):
        for _ in range(20):
            X = make_set(P1, [random_element(rng, P1) for _ in range(rng.randrange(1, 12))])
            Y = make_set(P1, [random_element(rng, P1) for _ in range(rng.randrange(1, 12))])
            t = product_table(X, Y)
            assert t.total_pairs() == len(X) * len(Y)
            for z, pairs in t.items():
                assert pairs == sorted(pairs)
                for i, j in pairs:
                    assert X[i] * Y[j] == z

    def test_mixed_params_rejected(self):
        with pytest.raises(ValueError):
            product_table(make_set(P1, [identity(P1)]), make_set(GroupParams(2), [identity(GroupParams(2))]))


class TestUniqueProducts:
    def test_base_family_squares_empty(self):
        for k in (1, 2):
            T = build_base_set(k)
            assert unique_products(T, T) == []

    def test_small_control_set(self):
        # brute force over the 9 products of {1, a, b}: multiplicities are
        # 1:1, a:2, b:2, a^2:1, ab:1, ba:1, b^2:1
        S = make_set(P1, elems("1", "a", "b"))
        t = product_table(S, S)
        mult = {str(z): len(pairs) for z, pairs in t.items()}
        assert mult == {"1": 1, "a": 2, "b": 2, "a^2": 1, "a b": 1, "b a": 1, "b^2": 1}
        uniq = unique_products(S, S)
        assert [str(z) for z, _ in uniq] == sorted(["1", "a^2", "a b", "b a", "b^2"], key=lambda s: str(from_string(s, P1).sort_key()))  # noqa: E501 deterministic order
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
            t_inv = product_table(Y.inverse_set(), X.inverse_set())
            for z, pairs in t.items():
                assert len(t_inv.factorizations(z.inverse())) == len(pairs)

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
        ok, witness = is_nonunique_square(build_base_set(1))
        assert ok and witness is None

    def test_singleton_identity(self):
        ok, witness = is_nonunique_square(make_set(P1, [identity(P1)]))
        assert not ok
        assert witness == (identity(P1), (0, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_nonunique_square(make_set(P1, []))


class TestSetFiles:
    def test_round_trip_with_labels(self, tmp_path):
        T = build_base_set(1)
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

    def test_unlabeled_round_trip(self, tmp_path):
        s = make_set(P1, elems("a", "b", "ab"))
        path = tmp_path / "plain.txt"
        save_set_file(s, path)
        assert load_set_file(path, P1).elements == s.elements
