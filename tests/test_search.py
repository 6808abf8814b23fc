import pytest

from nup import search
from nup.families import FamilySpec, build_family
from nup.search import SearchConfig, candidate_universe, run_search, score
from nup.sets import make_set, unique_products
from nup.words import GroupParams, NormalForm, from_string, generator, identity


def word_balls(params, length_cap):
    """The distinct normal forms of all freely reduced words of length <= L,
    for L = 0..length_cap, by enumerating the words one letter at a time."""
    atoms = [generator(params, g, s) for g in ("a", "b") for s in (1, -1)]
    seen = {identity(params)}
    words = [(identity(params), None)]
    balls = [set(seen)]
    for _ in range(length_cap):
        words = [(w * atom, ai) for w, last in words for ai, atom in enumerate(atoms) if last is None or ai != last ^ 1]
        seen.update(w for w, _ in words)
        balls.append(set(seen))
    return balls


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1, size=1),
            dict(k=1, size=4, budget=0),
            dict(k=1, size=4, word_length_cap=0),
            dict(k=1, size=4, neighborhood="teleport"),
            dict(k=1, size=4, init="oracle"),
            dict(k=1, size=4, cooling=0.0),
            dict(k=0, size=4),
            dict(k=1, size=4, restarts=2.5),
            dict(k=1, size=4, word_length_cap=2.5),
            dict(k=1, size=14.5),
            dict(k=1.0, size=4),
            dict(k=1, size=4, seed="11"),
            dict(k=1, size=4, budget=True),
            dict(k=1, size=4, symmetric="no"),
            dict(k=1, size=4, symmetric=1),
            dict(k=1, size=4, temp0=float("nan")),
            dict(k=1, size=4, temp0=float("inf")),
            dict(k=1, size=4, cooling=float("nan")),
            dict(k=1, size=4, temp0="2"),
            dict(k=1, size=4, cooling=True),
            dict(k=1, size=4, budget=1, restarts=5),
            dict(k=1, size=17, init="base", symmetric=True),
            dict(k=1, size=4, restarts=0),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    def test_restarts_equal_to_budget_accepted(self):
        assert SearchConfig(k=1, size=4, budget=2, restarts=2).restarts == 2

    def test_int_temperatures_accepted(self):
        assert SearchConfig(k=1, size=4, temp0=2, cooling=1).temp0 == 2


class TestUniverse:
    def test_distinct_and_sorted(self):
        U = candidate_universe(GroupParams(1), 4)
        assert len(U) == len(set(U))
        assert U == sorted(U)

    def test_contains_short_elements(self):
        P = GroupParams(1)
        U = set(candidate_universe(P, 3))
        for text in ("1", "a", "B", "ab", "bAb"):
            assert from_string(text, P) in U

    def test_closed_under_inversion(self):
        U = set(candidate_universe(GroupParams(2), 4))
        assert all(w.inverse() in U for w in U)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ball_equals_word_enumeration(self, k):
        P = GroupParams(k)
        for cap, ball in enumerate(word_balls(P, 7)):
            if cap:
                U = candidate_universe(P, cap)
                assert len(U) == len(ball) and set(U) == ball

    def test_oversized_ball_refused(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_UNIVERSE_SIZE", 100)
        assert len(candidate_universe(GroupParams(1), 3)) <= 100
        with pytest.raises(ValueError, match="more than 100 elements"):
            candidate_universe(GroupParams(1), 5)


class TestScore:
    def test_score_examples(self):
        P = GroupParams(1)
        assert score(build_family(FamilySpec(1))) == 0
        assert score(make_set(P, [identity(P)])) == 1
        small = make_set(P, [from_string(t, P) for t in ("1", "a", "b")])
        assert score(small) >= 1
        with pytest.raises(ValueError, match="empty set"):
            score(make_set(P, []))

    def test_score_matches_unique_products(self, rng):
        # oracle equivalence on sampled candidates
        P = GroupParams(1)
        U = candidate_universe(P, 4)
        for _ in range(40):
            picks = {U[rng.randrange(len(U))] for _ in range(6)}
            S = make_set(P, picks)
            assert score(S) == len(unique_products(S, S))


def moved(idxs, out, into):
    return tuple(sorted(set(idxs).difference(out).union(into)))


class TestCounts:
    """The incremental counts against a fresh score() of every state."""

    @pytest.mark.parametrize("low_bound", [False, True], ids=["table-kept", "table-dropped"])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
    @pytest.mark.parametrize("neighborhood", ["swap-one", "mutate-one"])
    @pytest.mark.parametrize("k, cap, size", [(1, 4, 8), (2, 3, 7), (3, 3, 8)])
    def test_apply_and_undo_match_score(self, k, cap, size, neighborhood, symmetric, low_bound, rng):
        P = GroupParams(k)
        U = candidate_universe(P, cap)
        state = search._State(U, P, symmetric)
        counts = search._Counts(state, size)
        if low_bound:
            counts.max_rows = size
        fresh = lambda idxs: score(make_set(P, [U[i] for i in idxs]))
        idxs = state.random_state(rng, size)
        assert counts.reset(idxs) == fresh(idxs)
        moves = dropped = 0
        while moves < 300:
            move = state.neighbor(rng, idxs, neighborhood)
            if move is None:
                continue
            out, into = move
            assert len(out) == len(into) == (2 if symmetric else 1)
            assert set(out) <= set(idxs) and not set(into) & set(idxs)
            moves += 1
            proposal = moved(idxs, out, into)
            dropped += len(counts.rows) > counts.max_rows
            assert counts.apply(idxs, out, into) == fresh(proposal)
            # memory: one move adds at most two rows, and every id is named by a filled entry
            assert len(counts.rows) <= counts.max_rows + 2
            assert len(counts.ids) <= sum(len(row) - row.count(-1) for row in counts.rows.values())
            if rng.random() < 0.5:
                idxs = proposal
            else:
                assert counts.undo() == fresh(idxs)
        assert (dropped > 0) == low_bound

    @pytest.mark.parametrize("neighborhood", ["swap-one", "mutate-one"])
    def test_symmetric_move_keeps_inverse_closure(self, neighborhood, rng):
        # {x, x^-1, y}: y's inverse is missing, so a move may only replace the pair
        P = GroupParams(1)
        U = candidate_universe(P, 4)
        state = search._State(U, P, True)
        x, y = (U.index(from_string(t, P)) for t in ("ab", "bb"))
        idxs = tuple(sorted((x, state.inv_index[x], y)))
        moves = [state.neighbor(rng, idxs, neighborhood) for _ in range(200)]
        assert {out for out, _ in filter(None, moves)} == {(x, state.inv_index[x]), (state.inv_index[x], x)}
        # with no inverse-closed pair left, every move is refused
        idxs = tuple(sorted((x, y)))
        assert all(state.neighbor(rng, idxs, neighborhood) is None for _ in range(50))


class TestRunSearch:
    def test_base_init_succeeds_immediately(self):
        r = run_search(SearchConfig(k=1, size=17, init="base", seed=11, budget=10))
        assert r.score == 0
        assert r.iterations == 0
        assert set(r.best.elements) == set(build_family(FamilySpec(1)).elements)

    def test_base_init_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_search(SearchConfig(k=1, size=10, init="base"))
        # the cap-1 ball has 5 elements, and the cap-2 ball's 17 miss T(1)
        with pytest.raises(ValueError, match="universe of 5 words cannot fill a set of size 17"):
            run_search(SearchConfig(k=1, size=17, init="base", word_length_cap=1))
        with pytest.raises(ValueError, match="initial set lies outside the word-length-capped universe"):
            run_search(SearchConfig(k=1, size=17, init="base", word_length_cap=2))

    def test_determinism(self):
        cfg = SearchConfig(k=1, size=6, seed=20240817, budget=250, restarts=3)
        r1 = run_search(cfg)
        r2 = run_search(cfg)
        assert r1.as_dict() == r2.as_dict()

    def test_different_seeds_differ(self):
        r1 = run_search(SearchConfig(k=1, size=6, seed=1, budget=150))
        r2 = run_search(SearchConfig(k=1, size=6, seed=2, budget=150))
        assert r1.as_dict() != r2.as_dict()  # astronomically unlikely to tie

    def test_two_element_sets_never_score_zero(self):
        r = run_search(SearchConfig(k=1, size=2, seed=5, budget=400, word_length_cap=4))
        assert r.score > 0

    def test_symmetric_mode_keeps_closure(self):
        r = run_search(SearchConfig(k=1, size=8, seed=3, budget=200, symmetric=True))
        elems = set(r.best.elements)
        assert all(w.inverse() in elems for w in elems)

    def test_symmetric_odd_size_pins_identity(self):
        r = run_search(SearchConfig(k=1, size=5, seed=3, budget=60, symmetric=True))
        elems = set(r.best.elements)
        assert identity(GroupParams(1)) in elems
        assert all(w.inverse() in elems for w in elems)

    @pytest.mark.parametrize("symmetric, neighborhood", [(False, "swap-one"), (False, "mutate-one"), (True, "swap-one")])
    def test_only_symmetric_search_inverts(self, symmetric, neighborhood, monkeypatch):
        # the inverse of every universe element is read only by symmetric moves
        calls = 0
        inverse = NormalForm.inverse

        def counting(self):
            nonlocal calls
            calls += 1
            return inverse(self)

        monkeypatch.setattr(NormalForm, "inverse", counting)
        run_search(SearchConfig(k=2, size=6, seed=1, budget=100, symmetric=symmetric, neighborhood=neighborhood))
        assert (calls > 0) == symmetric

    def test_mutate_one_neighborhood(self):
        r = run_search(SearchConfig(k=1, size=6, seed=4, budget=200, neighborhood="mutate-one"))
        assert r.score == len(unique_products(r.best, r.best))

    def test_restart_scores_recorded(self):
        r = run_search(SearchConfig(k=1, size=6, seed=9, budget=300, restarts=3))
        assert len(r.restart_scores) == 3
        assert r.score == min(r.restart_scores)
