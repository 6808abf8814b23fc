"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured time so the gate is auditable from the test log."""

import random
import sys
import time

import conftest
from conftest import random_element, random_tokens
from relator_oracle import TrivialWordClosure, all_reduced_words
from nup.checker import FAIL, TYPO_SUSPECT, verify_family
from nup.families import FamilySpec, build_family, expected_cardinality
from nup.search import SearchConfig, run_search, candidate_universe
from nup.sets import make_set, unique_products
from nup.words import GroupParams, from_string, from_word, identity


def report(number: int, label: str, elapsed: float, budget: float, detail: str = ""):
    line = f"[acceptance {number:02d}] PASS {label}: {elapsed:.2f}s (budget {budget:.0f}s)"
    if detail:
        line += f" - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert elapsed < budget, f"criterion {number} exceeded its time budget: {elapsed:.2f}s >= {budget}s"


def test_01_relator_sanity():
    t0 = time.perf_counter()
    for k in range(1, 6):
        P = GroupParams(k)
        M = P.modulus
        assert from_string(f"a b^{M} A b^{M}", P).is_identity()
        assert from_string("b a^2 B a^2", P).is_identity()
    report(1, "relators reduce to identity for k=1..5", time.perf_counter() - t0, 1.0)


def test_02_group_axiom_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(2)
    checked = 0
    for trial in range(10_000):
        P = GroupParams(1 + trial % 3)
        w1 = from_word(random_tokens(rng, 30), P)
        w2 = from_word(random_tokens(rng, 30), P)
        w3 = from_word(random_tokens(rng, 30), P)
        e = identity(P)
        assert (w1 * w2) * w3 == w1 * (w2 * w3)
        assert w1 * w1.inverse() == e and w1.inverse() * w1 == e
        assert w1 * e == w1 and e * w1 == w1
        assert from_string(str(w1), P) == w1
        checked += 1
    report(2, "group axioms + round trip on 10k random triples", time.perf_counter() - t0, 30.0, f"{checked} triples")


def test_03_bounded_oracle_agreement():
    t0 = time.perf_counter()
    P = GroupParams(1)
    closure = TrivialWordClosure(k=1, length_cap=16, node_budget=10**6)
    # Every word the oracle can prove trivial must have the trivial normal
    # form.  Since oracle moves are invertible inside the cap, an equality
    # proof for any pair (w1, w2) is exactly membership of the freely reduced
    # w1 * w2^-1 in this closure, so zero violations here covers every pair
    # of generator words of length <= 8.
    violations = [w for w in closure.words if w and not from_string(w, P).is_identity()]
    assert violations == []
    # spot-check the pair formulation directly on equal-normal-form pairs
    words = [w for w in all_reduced_words(8) if w]
    by_nf = {}
    for w in words:
        by_nf.setdefault(from_string(w, P), []).append(w)
    rng = random.Random(3)
    proved = 0
    classes = [g for g in by_nf.values() if len(g) > 1]
    for _ in range(2000):
        group = classes[rng.randrange(len(classes))]
        w1 = group[rng.randrange(len(group))]
        w2 = group[rng.randrange(len(group))]
        if closure.prove_equal(w1, w2):
            proved += 1
            assert from_string(w1, P) == from_string(w2, P)
    report(
        3,
        "bounded-oracle agreement (cap 16, budget 1e6)",
        time.perf_counter() - t0,
        300.0,
        f"{len(closure.words)} trivial words, 0 violations, {proved}/2000 sampled proofs",
    )


def test_04_homomorphism_suite():
    t0 = time.perf_counter()
    rng = random.Random(4)
    for k in range(1, 5):
        P = GroupParams(k)
        M = P.modulus
        for text in (f"a b^{M} A b^{M}", "b a^2 B a^2"):
            w = from_string(text, P)
            assert w.sigma_a() == 1 and w.sigma_b() == 1 and w.abelianization() == (0, 0)
        for _ in range(10_000):
            w1 = random_element(rng, P, 16)
            w2 = random_element(rng, P, 16)
            w12 = w1 * w2
            assert w12.sigma_a() == w1.sigma_a() * w2.sigma_a()
            assert w12.sigma_b() == w1.sigma_b() * w2.sigma_b()
            a1, b1 = w1.abelianization()
            a2, b2 = w2.abelianization()
            assert w12.abelianization() == ((a1 + a2) % 4, (b1 + b2) % (2 * M))
    report(4, "sigma/abelianization multiplicative, 10k pairs each for k=1..4", time.perf_counter() - t0, 30.0)


def test_05_base_family_reproduction():
    t0 = time.perf_counter()
    for k, size in ((1, 17), (2, 49), (3, 161)):
        T = build_family(FamilySpec(k))
        assert len(T) == size == expected_cardinality(FamilySpec(k))
        assert T.duplicates_removed == 0
        assert unique_products(T, T) == []
    small = time.perf_counter() - t0
    report(5, "base sets k=1..3: sizes 17/49/161, zero unique products", small, 10.0)
    t1 = time.perf_counter()
    T4 = build_family(FamilySpec(4))
    assert len(T4) == 577 == expected_cardinality(FamilySpec(4))
    assert T4.duplicates_removed == 0
    assert unique_products(T4, T4) == []
    report(5, "extended: k=4, size 577, zero unique products", time.perf_counter() - t1, 60.0)


def test_06_scaled_family_reproduction():
    t0 = time.perf_counter()
    sizes = {}
    for k, p, q in ((1, 1, 3), (1, 3, 3), (1, 1, 5), (2, 1, 5), (2, 3, 5)):
        spec = FamilySpec(k, p, q)
        T = build_family(spec)
        M = 1 << k
        assert len(T) == (2 * M * M + 5 * M + 2) * q - (M + 1) == expected_cardinality(spec)
        assert unique_products(T, T) == []
        sizes[(k, p, q)] = len(T)
    report(6, "scaled sets: formula sizes, zero unique products", time.perf_counter() - t0, 60.0, str(sizes))


def test_07_degenerate_agreement():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        assert build_family(FamilySpec(k, 1, 1)).elements == build_family(FamilySpec(k)).elements
    report(7, "scaled set at p=q=1 equals the base set elementwise, k=1..3", time.perf_counter() - t0, 10.0)


def test_08_proof_checker_completeness():
    t0 = time.perf_counter()
    details = []
    for spec in (FamilySpec(1), FamilySpec(2), FamilySpec(3), FamilySpec(1, 1, 3), FamilySpec(2, 1, 5)):
        summary = verify_family(spec)
        counts = summary["claims_summary"]
        assert counts["fail"] == 0, [c["source"] for c in summary["claims"] if c["status"] == FAIL]
        assert summary["coverage"] == 1.0, summary["uncovered_sample"]
        assert summary["unique_count"] == 0
        assert summary["soundness_ok"] and summary["consistent"]
        suspects = [c for c in summary["claims"] if c["status"] == TYPO_SUSPECT]
        if spec.scaled:
            # the deviating printed ranges must fail, pass under the
            # pattern-consistent range, and be reported distinctly
            assert suspects, spec
            for c in suspects:
                assert c["params"]["range_used"] == c["params"]["pattern_range"]
        else:
            assert not suspects
        details.append(f"{spec.describe()}: {counts['pass']}p/{counts['typo_suspect']}t")
    report(8, "all claims pass with 100% coverage", time.perf_counter() - t0, 120.0, "; ".join(details))


def test_09_nondegeneracy_controls():
    t0 = time.perf_counter()
    P = GroupParams(1)
    one = identity(P)
    for texts in (("1",), ("1", "a"), ("1", "a", "b")):
        S = make_set(P, [from_string(t, P) for t in texts])
        assert unique_products(S, S), texts
    rng = random.Random(9)
    done = 0
    while done < 100:
        w1 = random_element(rng, P, 8)
        w2 = random_element(rng, P, 8)
        if w1 == w2:
            continue
        S = make_set(P, [w1, w2])
        assert unique_products(S, S)
        done += 1
    report(9, "controls and 100 random 2-element sets yield unique products", time.perf_counter() - t0, 5.0)


def test_10_search_determinism_and_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = SearchConfig(k=1, size=8, seed=77, budget=250, restarts=2)
    r1 = run_search(cfg)
    r2 = run_search(cfg)
    assert r1.as_dict() == r2.as_dict()
    assert r1.score == len(unique_products(r1.best, r1.best))
    # sampled candidates score exactly their unique-product count
    rng = random.Random(10)
    U = candidate_universe(GroupParams(1), 4)
    for _ in range(25):
        S = make_set(GroupParams(1), {U[rng.randrange(len(U))] for _ in range(6)})
        from nup.search import score as search_score

        assert search_score(S) == len(unique_products(S, S))
    # the known solution is a fixed point of success
    r3 = run_search(SearchConfig(k=1, size=17, init="base", seed=0, budget=10))
    assert r3.score == 0 and r3.iterations == 0
    report(10, "identical seeds agree; score equals unique-product count", time.perf_counter() - t0, 30.0)
