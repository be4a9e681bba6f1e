"""Acceptance suite: one test per exit criterion, one printed line each.

Every test prints "[A<i>] PASS ..." or "[A<i>] FAIL ..." before asserting, so
`pytest -s tests/test_acceptance.py` reads as a checklist.  Criterion A3
includes a bound (minimal usable k at large n, against 2.2 * n / log2 n) that
the exact computation shows to be unattainable; that assertion is implemented
as stated and is expected to fail, with the measured ratios printed.  See the
README for the analysis.
"""

import random
import time
from math import comb, log2

import numpy as np
import pytest

from latticeramsey.constructions import (
    LllConfig,
    greedy_pair_code,
    induced_q2_coloring,
    layered_coloring,
    lll_family,
    modp_code,
    code_witness,
    probabilistic_coloring,
    refute_m2,
    weak_parameters,
)
from latticeramsey.embedder import (
    counting_bound,
    embed_with_permutation,
    minimal_k,
    recover_permutation,
    sweep_permutations,
)
from latticeramsey.lattice import (
    Coloring,
    Permutation,
    elements_of,
    layer,
    mask_of,
    sorted_family,
)
from latticeramsey.oracle import (
    CopyKind,
    coloring_is_ramsey,
    exhaustive_ramsey_number,
    find_copy,
)
from latticeramsey.verifier import (
    certify_blue_free,
    certify_red_singleton_bound,
    check_code_statement,
    check_conditions,
    check_min_distance,
    dp_count,
    lll_inequality_report,
    verify_embedding,
)

from naive import naive_dp_count, naive_find_copy


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


def test_a1_embedding_contract_random_colorings():
    t0 = time.time()
    rng = random.Random(20260810)
    runs = failures = 0
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
        ground = n + k
        values = list(range(n + 1, n + k + 1))
        for _ in range(200):
            density = rng.random()
            coloring = Coloring.dense(
                ground, [s for s in range(1 << ground) if rng.random() < density]
            )
            image = values[:]
            rng.shuffle(image)
            perm = Permutation(n, k, tuple(image))
            rec = embed_with_permutation(coloring, n, k, perm)
            res = verify_embedding(rec, coloring)
            assert res.ok, (n, k, res)
            for a in range(1 << n):
                if rec.images[a] is None and len(rec.chains[a]) == k + 1:
                    failures += 1
                    assert recover_permutation(rec.chains[a], n) == list(perm.image)
            runs += 1
    elapsed = time.time() - t0
    report(
        "A1",
        elapsed < 60,
        f"1000 records verified, {failures} failure chains recovered, {elapsed:.1f}s",
    )


def test_a2_failure_endpoint_injectivity():
    t0 = time.time()
    outcomes = []
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (2, 6)):
        ground = n + k
        blue = [(1 << j) - 1 for j in range(ground + 1)]  # one maximal chain
        coloring = Coloring.dense(ground, blue)
        rep = sweep_permutations(coloring, n, k, mode="all")
        assert rep.recover_ok
        # all earlier failures must already have pairwise-distinct endpoints
        endpoints = {(c[0], c[len(c) - 1]) for _, c in rep.failures}
        assert len(endpoints) == len(rep.failures), (n, k)
        if rep.success is None:
            assert rep.injective and not rep.collisions, (n, k)
            outcomes.append(f"({n},{k}):all-{rep.perms_run}-failed-injective")
        else:
            assert verify_embedding(rep.success, coloring).ok
            outcomes.append(
                f"({n},{k}): {len(rep.failures)} failed, then embedded"
            )
    report("A2", True, f"{'; '.join(outcomes)} ({time.time()-t0:.1f}s)")


def test_a3_counting_bound_exact_and_ratio():
    t0 = time.time()
    rep = counting_bound(2, 6.14)
    assert rep.k == 12 and rep.exponent == 28
    assert 479001600 > 268435456
    assert rep.contradiction

    ratios = {}
    for n in (10**4, 10**5, 10**6):
        k = minimal_k(n)
        ratios[n] = k * log2(n) / n
    elapsed = time.time() - t0
    ok_runtime = elapsed < 10
    ok_ratio = all(r <= 2.2 for r in ratios.values())
    detail = (
        f"12! exact check passed; ratios "
        + ", ".join(f"n=1e{len(str(n))-1}: {r:.3f}" for n, r in ratios.items())
        + f" ({elapsed:.1f}s)"
    )
    report("A3", ok_runtime and ok_ratio, detail)


def test_a4_pair_code_at_18():
    t0 = time.time()
    code = greedy_pair_code(18)
    assert len(code.assignments) == 380
    assert code.candidates_per_pair == comb(18, 9) == 48620
    assert code.max_blocked == 31078
    assert code.feasible
    fam = sorted_family(code.masks(), 20, 10)
    assert check_min_distance(fam, 4).ok
    coloring = induced_q2_coloring(18)
    assert certify_blue_free(coloring, 2).ok
    elapsed = time.time() - t0
    report("A4", elapsed < 30, f"380 pairs, 48620 > 31078, distance+certify ok ({elapsed:.1f}s)")


def test_a5_residue_code_at_36():
    t0 = time.time()
    params = weak_parameters(34, 2)
    assert (params.ground, params.k, params.p, params.d) == (36, 17, 37, 37)
    stmt = check_code_statement(36, 2, 17, 37, 37)
    assert stmt.ok and stmt.pairs_checked == 1260 and stmt.hypotheses_ok

    code = modp_code(36, 17, 37, 37)
    rng = random.Random(36)
    for _ in range(100):
        avoid = mask_of(rng.sample(range(1, 37), 2))
        y = rng.choice(elements_of(avoid))
        c = code_witness(36, 2, 17, code, avoid, y)
        assert c.bit_count() == 17 and c & avoid == 0
        assert code.contains(c | (1 << (y - 1)))

    combos = 0
    for ground in range(4, 15):
        for p in range(ground, 2 * (ground - 1)):
            if any(p % f == 0 for f in range(2, p)):
                continue
            for k in range(0, ground):
                for d in range(1, p + 1):
                    assert check_min_distance(modp_code(ground, k, d, p), 4).ok
                    combos += 1
    elapsed = time.time() - t0
    report(
        "A5",
        elapsed < 60,
        f"coverage 1260/1260, 100 witnesses, {combos} distance sweeps ({elapsed:.1f}s)",
    )


def test_a6_resampled_family_constructions():
    t0 = time.time()
    # tuned densities; the defaulted density only suits enormous n, so it is
    # reported here alongside each tuned value
    tuned = {(40, 3): (0.02, 6), (60, 3): (0.03, 1), (40, 4): (0.06, 1)}
    densities = []
    for (n, m), (p, seed) in tuned.items():
        cfg = LllConfig(n, m, p_inclusion=p, seed=seed, max_resamples=10**6)
        fam = lll_family(cfg)  # raises ResampleBudgetExceeded beyond the budget
        assert check_conditions(fam).ok, (n, m)
        coloring = probabilistic_coloring(n, m, fam)
        assert certify_blue_free(coloring, m).ok
        assert certify_red_singleton_bound(coloring, n, m).ok
        densities.append(
            f"({n},{m}): tuned {p} vs default {LllConfig.default_density(n, m):.2e}"
        )

    rng = np.random.default_rng(63)
    trials = 100_000
    for n, m, p in ((8, 3, 0.25), (6, 4, 0.3)):
        rep = lll_inequality_report(n, m, p)
        exp_a = (n + 1) * (1 - p) ** n * p + (1 - p) ** (n + 1)
        exp_b = (m + 1) * p**m * (1 - p) + p ** (m + 1)
        assert rep.p_as == pytest.approx(exp_a, rel=1e-9)
        assert rep.p_bt == pytest.approx(exp_b, rel=1e-9)
        est_a = float(np.mean(rng.binomial(n + 1, p, size=trials) <= 1))
        est_b = float(np.mean(rng.binomial(m + 1, p, size=trials) >= m))
        sig_a = (exp_a * (1 - exp_a) / trials) ** 0.5
        sig_b = (exp_b * (1 - exp_b) / trials) ** 0.5
        assert abs(est_a - exp_a) <= 3 * sig_a
        assert abs(est_b - exp_b) <= 3 * sig_b
    elapsed = time.time() - t0
    report(
        "A6",
        True,
        f"3 tuned resampler runs converged + certificates + Monte-Carlo 3-sigma; "
        f"{'; '.join(densities)} ({elapsed:.1f}s)",
    )


def test_a7_tiny_thresholds_and_layered_bounds():
    t0 = time.time()
    r = exhaustive_ramsey_number(1, 1, CopyKind.INDUCED, 4)
    assert r.value == 2 and r.layered_lower_bound == 2
    r = exhaustive_ramsey_number(1, 1, CopyKind.WEAK, 4)
    assert r.value == 2

    for m in range(1, 5):
        for n in range(1, 5):
            if m + n - 1 > 4:
                continue
            c = layered_coloring(m, n)
            for kind in (CopyKind.INDUCED, CopyKind.WEAK):
                assert coloring_is_ramsey(c, m, n, kind).neither, (m, n, kind)

    # full 2^16-coloring scans of the 4-cube; both values land exactly on the
    # (independently verified) layered lower bound m + n
    r13 = exhaustive_ramsey_number(1, 3, CopyKind.INDUCED, 4)
    assert r13.layered_lower_bound == 4 and r13.value == 4
    r22 = exhaustive_ramsey_number(2, 2, CopyKind.WEAK, 4)
    assert r22.layered_lower_bound == 4 and r22.value == 4
    elapsed = time.time() - t0
    report(
        "A7",
        elapsed < 120,
        f"thresholds 2/2, layered colorings clean, 4-cube scans -> 4 and 4 ({elapsed:.1f}s)",
    )


def test_a8_weight2_refutation():
    t0 = time.time()
    rng = random.Random(88)
    for trial in range(100):
        n = 5 + trial % 6
        ground = n + 2
        members = set()
        for el in range(1, ground + 1):
            others = [x for x in range(1, ground + 1) if x != el]
            for x in rng.sample(others, 2):
                members.add(mask_of([el, x]))
        extra = [m for m in layer(ground, 2) if rng.random() < 0.1]
        fam = sorted_family(members | set(extra), ground, 2)
        ref = refute_m2(fam)
        assert ref.first in fam.members and ref.second in fam.members
        assert ref.first | ref.second == ref.triple
        assert ref.triple.bit_count() == 3
        direct = sum(1 for f in fam.members if f & ~ref.triple == 0)
        assert direct == ref.subsets_in_family >= 2
    elapsed = time.time() - t0
    report("A8", True, f"100 seeded families refuted and re-verified ({elapsed:.1f}s)")


def test_a9_counting_and_search_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(909)
    for _ in range(1000):
        size = rng.randint(0, 16)
        elems = rng.sample(range(1, 40), size)
        k = rng.randint(0, size)
        p = rng.choice([2, 3, 5, 7, 11, 13, 17])
        r = rng.randrange(p)
        assert dp_count(mask_of(elems), k, p, r) == naive_dp_count(elems, k, p, r)
    dp_elapsed = time.time() - t0

    t0 = time.time()
    for bits in range(1 << 16):
        fam = [s for s in range(16) if bits >> s & 1]
        for m in (1, 2):
            for kind in (CopyKind.INDUCED, CopyKind.WEAK):
                got = find_copy(fam, m, kind) is not None
                want = naive_find_copy(fam, m, kind is CopyKind.INDUCED) is not None
                assert got == want, (bits, m, kind)
    search_elapsed = time.time() - t0
    report(
        "A9",
        True,
        f"1000 count draws ({dp_elapsed:.1f}s); all 65536 4-cube families, "
        f"m<=2, both kinds ({search_elapsed:.1f}s)",
    )
