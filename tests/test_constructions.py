"""Tests for the lower-bound constructions."""

import random
from collections import Counter
from math import comb, isqrt

import pytest

from latticeramsey.cli import derive_seed
from latticeramsey.constructions import (
    GreedyStuck,
    LllConfig,
    NoSolutionError,
    PreconditionFailed,
    ResampleBudgetExceeded,
    _is_prime,
    code_witness,
    find_prime,
    greedy_pair_code,
    induced_q2_coloring,
    layered_coloring,
    lll_family,
    modp_code,
    olson_subset_sum,
    probabilistic_coloring,
    refute_m2,
    weak_construction,
    weak_parameters,
)
from latticeramsey.lattice import (
    SCAN_LIMIT,
    WeightedFamily,
    elements_of,
    event_counts,
    event_violations,
    full_mask,
    mask_of,
    sorted_family,
)
from latticeramsey.oracle import CopyKind, coloring_is_ramsey, find_chain
from latticeramsey.verifier import check_conditions, check_min_distance

from naive import (
    naive_check_conditions,
    naive_greedy_pair_code,
    naive_lll_family,
    two_fold_triples_8,
)


def test_layered_defaults_and_oracle():
    c = layered_coloring(1, 1)
    assert c.ground_n == 1 and c.blue_layers == {1}
    assert coloring_is_ramsey(c, 1, 1, CopyKind.WEAK).neither

    c = layered_coloring(2, 2)
    assert c.ground_n == 3 and c.blue_layers == {2, 3}
    assert coloring_is_ramsey(c, 2, 2, CopyKind.WEAK).neither


def test_layered_custom_layers():
    c = layered_coloring(1, 2, blue_layer_indices=[0])
    assert c.is_blue(0)
    assert not c.is_blue(mask_of([1]))
    with pytest.raises(ValueError):
        layered_coloring(2, 2, blue_layer_indices=[0])
    with pytest.raises(ValueError):
        layered_coloring(1, 1, blue_layer_indices=[5])


def test_greedy_pair_code_completes_at_18():
    code = greedy_pair_code(18)
    assert code.k == 9
    assert len(code.assignments) == 380
    assert code.candidates_per_pair == comb(18, 9) == 48620
    assert code.max_blocked == 379 * 82 == 31078
    assert code.feasible
    for y, z, m in code.assignments:
        assert m.bit_count() == 10
        assert m & (1 << (y - 1))
        assert not m & (1 << (z - 1))
    fam = sorted_family(code.masks(), 20, 10)
    assert check_min_distance(fam, 4).ok


def test_greedy_below_threshold_may_stick():
    try:
        code = greedy_pair_code(2)
        fam = sorted_family(code.masks(), 4, 2)
        assert check_min_distance(fam, 4).ok
    except GreedyStuck as exc:
        assert len(exc.pair) == 2


def test_greedy_pair_code_matches_the_rescanning_scan():
    # The per-y cursor only skips candidates already seen blocked, so every
    # assignment, and the pair where a scan sticks, is the rescanning one's.
    stuck = 0
    for n in range(2, 21):
        try:
            want = naive_greedy_pair_code(n)
        except GreedyStuck as exc:
            with pytest.raises(GreedyStuck) as got:
                greedy_pair_code(n)
            assert got.value.pair == exc.pair
            stuck += 1
        else:
            assert greedy_pair_code(n) == want
    assert 0 < stuck < 19


def test_induced_q2_coloring_shape():
    c = induced_q2_coloring(18)
    assert c.ground_n == 20
    assert c.blue_layers == {9, 12}
    assert len(c.blue_extra) == 380
    assert all(s.bit_count() == 10 for s in c.blue_extra)
    assert not c.is_blue(0)


def test_find_prime_examples():
    assert find_prime(20) == 23
    assert find_prime(36) == 37
    assert find_prime(5) == 5
    assert find_prime(4) == 5
    with pytest.raises(ValueError):
        find_prime(3)


def test_modp_code_small_examples():
    fam = modp_code(5, 1, 3, 5)
    members = list(fam.iter_members())
    assert members == [mask_of([1, 2]), mask_of([3, 5])]
    assert (members[0] ^ members[1]).bit_count() == 4

    fam = modp_code(5, 1, 1, 5)
    assert sorted(elements_of(m) for m in fam.iter_members()) == [[1, 5], [2, 4]]


def test_modp_code_validation():
    with pytest.raises(ValueError):
        modp_code(5, 1, 3, 6)  # not prime
    with pytest.raises(ValueError):
        modp_code(5, 1, 3, 11)  # outside the window
    with pytest.raises(ValueError):
        modp_code(5, 5, 3, 5)  # weight too large


def test_is_prime_is_trial_division():
    for p in range(-3, 300):
        assert _is_prime(p) == (p > 1 and all(p % f for f in range(2, p)))


def test_modulus_outside_the_window_is_refused_before_trial_division():
    # 10^18 + 3 is prime, and trial division up to its root would not finish
    huge = 10**18 + 3
    for call in (lambda: modp_code(36, 17, 1, huge), lambda: weak_parameters(34, 2, p=huge)):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == f"modulus {huge} outside [36, 70)"
    with pytest.raises(ValueError) as caught:
        modp_code(36, 17, 1, 39)
    assert str(caught.value) == "39 is not prime"


def test_modp_distance_small_sweep():
    # full acceptance sweep covers every N <= 14; keep a quick spot here
    for ground, p in ((8, 11), (10, 13)):
        for k in range(0, ground):
            for d in (1, p // 2, p):
                fam = modp_code(ground, k, d, p)
                assert check_min_distance(fam, 4).ok


def test_olson_empty_subset_for_zero():
    assert olson_subset_sum(range(1, 8), 7, 0) == []


def test_olson_examples():
    s = olson_subset_sum([1, 2, 3, 4, 5], 7, 6)
    assert sum(s) % 7 == 6 and set(s) <= {1, 2, 3, 4, 5}
    for target in range(7):
        s = olson_subset_sum([1, 2, 3, 4, 5], 7, target)
        assert sum(s) % 7 == target


def test_olson_guarantee_exhaustive_small_primes():
    # below-threshold inputs may fail; at or above sqrt(4p-3) they never do
    from itertools import combinations

    for p in (5, 7, 11, 13):
        thresh = isqrt(4 * p - 4) + 1  # ceil(sqrt(4p-3)) since 4p-3 not a square
        for size in range(thresh, p + 1):
            for subset in combinations(range(1, p + 1), size):
                for target in range(p):
                    got = olson_subset_sum(subset, p, target)
                    assert sum(got) % p == target


def test_olson_guarantee_sampled_larger_primes():
    rng = random.Random(2024)
    for p in (17, 19, 23):
        thresh = isqrt(4 * p - 4) + 1
        for _ in range(300):
            size = rng.randint(thresh, p)
            subset = rng.sample(range(1, p + 1), size)
            target = rng.randrange(p)
            got = olson_subset_sum(subset, p, target)
            assert sum(got) % p == target


def test_olson_no_solution_below_threshold():
    with pytest.raises(NoSolutionError):
        olson_subset_sum([7], 7, 3)


def test_weak_parameters_headline_case():
    p = weak_parameters(34, 2)
    assert (p.ground, p.k, p.p, p.d) == (36, 17, 37, 37)
    assert p.witness_window_ok and not p.strict_window_ok and not p.threshold_ok
    q = weak_parameters(36, 2)
    assert q.ground == 38 and q.k == 17 and q.threshold_ok


def test_weak_parameters_empty_window():
    with pytest.raises(ValueError):
        weak_parameters(10, 2)


def test_weak_parameters_prime_override():
    p = weak_parameters(34, 2, p=41)
    assert p.p == 41 and p.d == 41
    with pytest.raises(ValueError):
        weak_parameters(34, 2, p=40)  # composite
    with pytest.raises(ValueError):
        weak_parameters(34, 2, p=97)  # beyond twice the ground size


def test_weak_construction_shape():
    c = weak_construction(weak_parameters(34, 2))
    assert c.ground_n == 36
    assert c.blue_layers == {17, 20}
    assert c.blue_code is not None and c.blue_code.weight == 18
    assert not c.is_blue(0)
    # build a code member by shifting the top element until the sum fits
    base = list(range(1, 19))  # sums to 171; push the top up to reach 0 mod 37
    base[-1] += (-sum(base)) % 37
    member = mask_of(base)
    assert c.blue_code.contains(member)
    assert c.is_blue(member)

    m3 = weak_construction(weak_parameters(40, 3))
    assert m3.blue_layers == {weak_parameters(40, 3).k} | {
        weak_parameters(40, 3).k + 3,
        weak_parameters(40, 3).k + 4,
    }


def test_code_witness_small_hypothesis_cases():
    rng = random.Random(5)
    for ground, m, k in ((33, 1, 16), (36, 1, 18), (36, 2, 17)):
        p = find_prime(ground)
        code = modp_code(ground, k, p, p)
        for _ in range(20):
            avoid = mask_of(rng.sample(range(1, ground + 1), m))
            y = rng.choice(elements_of(avoid))
            c = code_witness(ground, m, k, code, avoid, y)
            assert c.bit_count() == k
            assert c & avoid == 0
            assert code.contains(c | (1 << (y - 1)))


def test_code_witness_hypothesis_enforced():
    code = modp_code(36, 10, 37, 37)
    with pytest.raises(ValueError):
        code_witness(36, 2, 10, code, mask_of([35, 36]), 35)


def test_lll_config_defaults():
    cfg = LllConfig(40, 3)
    assert 0 < cfg.density < 1
    with pytest.raises(ValueError):
        LllConfig(40, 2)


def test_lll_family_refuses_a_first_sample_past_the_scan_limit():
    # lll_family(LllConfig(40, 5, 0.05, seed=1)) and (30, 6, 0.08, seed=1)
    # return a family in 2.6 and 5.0 s at max_resamples=10^5 (2-core x86 VM)
    assert comb(45, 5) <= comb(36, 6) <= SCAN_LIMIT < comb(37, 6)
    for n, m in ((31, 6), (30, 30)):
        with pytest.raises(ValueError) as caught:
            lll_family(LllConfig(n, m, max_resamples=1))
        assert str(caught.value) == (
            f"layer C({n + m},{m}) too large to enumerate (limit {SCAN_LIMIT})"
        )


def test_lll_family_small_run_reproducible():
    cfg = LllConfig(12, 4, p_inclusion=0.1, seed=1, max_resamples=10**6)
    fam1 = lll_family(cfg)
    fam2 = lll_family(cfg)
    assert fam1 == fam2
    assert check_conditions(fam1).ok


def test_lll_budget_exceeded_carries_partial():
    cfg = LllConfig(12, 4, p_inclusion=0.1, seed=1, max_resamples=3)
    with pytest.raises(ResampleBudgetExceeded) as info:
        lll_family(cfg)
    assert info.value.violations > 0
    assert info.value.family.ground_n == 16


def _resample_outcome(sampler, cfg):
    try:
        return ("ok", sampler(cfg).members)
    except ResampleBudgetExceeded as exc:
        return ("exhausted", exc.family.members, exc.violations, exc.resamples)


def test_lll_family_matches_min_scan_oracle():
    # Small cubes rarely admit a family meeting both conditions, so random
    # configs mostly exhaust their budget; equal partial families, violation
    # counts and resample counts pin the whole repair sequence.  The m = 5 and
    # (12, 4) configs converge within 10^5 resamples.
    rng = random.Random(404)
    configs = []
    for seed in range(240):
        m = rng.randint(3, 5)
        n = rng.randint(m, 12)
        p = rng.uniform(0.05, 0.5)
        budget = rng.choice((1, 4, 30, 300))
        configs.append(LllConfig(n, m, p_inclusion=p, seed=seed, max_resamples=budget))
    for n, p in ((8, 0.3), (9, 0.2), (10, 0.3), (11, 0.1), (12, 0.2)):
        configs += [LllConfig(n, 5, p_inclusion=p, seed=seed) for seed in range(3)]
    configs += [LllConfig(12, 4, p_inclusion=0.1, seed=seed) for seed in (1, 2)]
    # exhausted with both event classes still violated, so one repair queue
    # orders undersupplied and oversubscribed events together to the end
    both_live = [
        LllConfig(10, 3, p_inclusion=0.3, seed=3, max_resamples=50),
        LllConfig(12, 4, p_inclusion=0.2, seed=5, max_resamples=100),
    ]
    outcomes = Counter()
    for cfg in configs + both_live:
        got = _resample_outcome(lll_family, cfg)
        assert got == _resample_outcome(naive_lll_family, cfg), cfg
        outcomes[got[0]] += 1
    assert outcomes["ok"] >= 15 and outcomes["exhausted"] >= 200
    for cfg in both_live:
        with pytest.raises(ResampleBudgetExceeded) as info:
            lll_family(cfg)
        assert all(info.value.family.violations), cfg


PINNED_LLL_RUNS = [
    # the certify benchmark's construct lll runs (CLI seeds 1, 2, 6, 9)
    (16, 4, 0.10, derive_seed(1, 0)),
    (20, 4, 0.08, derive_seed(2, 0)),
    (24, 4, 0.07, derive_seed(6, 0)),
    (24, 4, 0.07, derive_seed(9, 0)),
    # A6's pinned (40, 3) run
    (40, 3, 0.02, 6),
]


@pytest.mark.parametrize(
    "n, m, p, seed, budget",
    [(*run, 10**6) for run in PINNED_LLL_RUNS]
    + [
        # two of them cut short
        (24, 4, 0.07, derive_seed(6, 0), 40),
        (40, 3, 0.02, 6, 500),
    ],
)
def test_lll_family_matches_min_scan_oracle_on_pinned_runs(n, m, p, seed, budget):
    cfg = LllConfig(n, m, p_inclusion=p, seed=seed, max_resamples=budget)
    got = _resample_outcome(lll_family, cfg)
    assert got == _resample_outcome(naive_lll_family, cfg)
    assert got[0] == ("ok" if budget == 10**6 else "exhausted")


@pytest.mark.parametrize("n, m, p, seed", PINNED_LLL_RUNS)
def test_lll_family_seeds_the_violations_a_fresh_count_finds(n, m, p, seed):
    fam = lll_family(LllConfig(n, m, p_inclusion=p, seed=seed))
    # seeded by lll_family itself, so reading it counts nothing
    assert "violations" in vars(fam)
    g = fam.ground_n
    fresh = event_violations(event_counts(fam.members, g), fam.members, g, m)
    assert fam.violations == fresh == ((), ())


@pytest.mark.parametrize(
    "n, m, p, seed, budget",
    [
        (24, 4, 0.07, derive_seed(6, 0), 40),
        (40, 3, 0.02, 6, 500),
        (12, 4, 0.1, 1, 1),
        (12, 4, 0.1, 1, 4),
    ],
)
def test_cut_resampler_reports_the_violations_a_fresh_count_finds(n, m, p, seed, budget):
    # the masks the resampler updates in place never drift from a recount
    cfg = LllConfig(n, m, p_inclusion=p, seed=seed, max_resamples=budget)
    with pytest.raises(ResampleBudgetExceeded) as info:
        lll_family(cfg)
    fam, g = info.value.family, n + m
    assert "violations" not in vars(fam)
    fresh = event_violations(event_counts(fam.members, g), fam.members, g, m)
    assert info.value.violations == sum(map(len, fresh)) > 0
    assert check_conditions(fam).violations == naive_check_conditions(fam)


def test_probabilistic_coloring_toy():
    fam = sorted_family([mask_of(t) for t in two_fold_triples_8()], 8, 3)
    assert check_conditions(fam).ok
    c = probabilistic_coloring(5, 3, fam)
    assert c.blue_layers == {0, 1, 4}
    assert c.is_blue(0)
    assert not c.is_blue(full_mask(8))
    blue = c.blue_family()
    assert find_chain(blue, 4) is not None  # height is exactly m + 1 = 4
    assert find_chain(blue, 5) is None


def test_probabilistic_coloring_rejects_bad_family():
    from latticeramsey.lattice import layer

    fam = sorted_family(list(layer(8, 3)), 8, 3)  # every 4-set holds 4 subsets
    with pytest.raises(ValueError):
        probabilistic_coloring(5, 3, fam)


def test_refute_m2_examples():
    fam = sorted_family(
        [mask_of([1, 2]), mask_of([1, 3]), mask_of([2, 3])], 5, 2
    )
    # element 4 and 5 have no supersets at all
    with pytest.raises(PreconditionFailed) as info:
        refute_m2(fam)
    assert info.value.singleton == 4


def test_refute_m2_always_finds_triple():
    rng = random.Random(31)
    for n in range(5, 11):
        ground = n + 2
        members = set()
        for el in range(1, ground + 1):
            others = [x for x in range(1, ground + 1) if x != el]
            for x in rng.sample(others, 2):
                members.add(mask_of([el, x]))
        fam = sorted_family(members, ground, 2)
        ref = refute_m2(fam)
        assert ref.triple.bit_count() == 3
        assert ref.subsets_in_family >= 2
        assert ref.first | ref.second == ref.triple
        # witness re-verified directly against the family
        direct = sum(1 for f in fam.members if f & ~ref.triple == 0)
        assert direct == ref.subsets_in_family


_CODE = modp_code(36, 17, 37, 37)
_AVOID = mask_of([35, 36])
_WEIGHT3 = sorted_family([mask_of([1, 2, 3])], 7, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: layered_coloring(1, 1, blue_layer_indices=[5]), "blue layer 5 outside [0, 1]"),
        (lambda: modp_code(5, 1, 0, 5), "residue 0 outside [1, 5]"),
        (lambda: modp_code(5, 5, 0, 5), "weight 6 exceeds ground size 5"),
        (lambda: olson_subset_sum([1, 1], 7, 2), "values must be distinct"),
        (lambda: olson_subset_sum([0, 3], 7, 2), "value 0 outside [1, 7]"),
        (lambda: olson_subset_sum([3, 8], 7, 2), "value 8 outside [1, 7]"),
        (
            lambda: code_witness(36, 2, 17, WeightedFamily(36, 18, members=()), _AVOID, 35),
            "code must be a mod-p family",
        ),
        (
            lambda: code_witness(36, 2, 16, _CODE, _AVOID, 35),
            "code parameters do not match (ground, k)",
        ),
        (lambda: code_witness(36, 2, 17, _CODE, mask_of([35]), 35), "avoid must be an m-set over [36]"),
        (lambda: code_witness(36, 2, 17, _CODE, _AVOID, 37), "y = 37 outside [1, 36]"),
        (lambda: code_witness(36, 2, 17, _CODE, _AVOID, 1), "element 1 is not in the avoided set"),
        (
            lambda: code_witness(36, 2, 16, modp_code(36, 16, 37, 37), _AVOID, 35),
            "k = 16 outside the size window [17, 17]",
        ),
        (lambda: LllConfig(40, 2), "need m >= 3 (weight 2 is refutable, see refute_m2)"),
        (lambda: LllConfig(3, 4), "need n >= m"),
        (lambda: LllConfig(40, 3, p_inclusion=1.0), "p_inclusion must lie in (0, 1)"),
        (lambda: LllConfig(40, 3, max_resamples=0), "max_resamples must be >= 1"),
        (lambda: probabilistic_coloring(6, 1, _WEIGHT3), "m must be >= 2"),
        (lambda: probabilistic_coloring(5, 3, _WEIGHT3), "family must have weight 3 over [8]"),
        (
            lambda: probabilistic_coloring(4, 3, WeightedFamily(7, 3, modp_p=7, modp_d=1)),
            "family must be explicit",
        ),
        (lambda: refute_m2(_WEIGHT3), "refutation applies to weight-2 families"),
        (lambda: refute_m2(WeightedFamily(7, 2, modp_p=7, modp_d=1)), "family must be explicit"),
    ],
)
def test_construction_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
