"""Tests for the recursive embedder, permutation recovery, sweeps, and bounds."""

import contextlib
import io
import json
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from latticeramsey.embedder import (
    EMPTY_CHAIN,
    EmbedRecord,
    _sampled_perm_images,
    counting_bound,
    embed_with_permutation,
    minimal_k,
    recover_permutation,
    sweep_permutations,
)
from latticeramsey.cli import main
from latticeramsey.lattice import (
    Chain,
    Coloring,
    Permutation,
    WeightedFamily,
    elements_of,
    json_pieces,
    mask_of,
)
from latticeramsey.oracle import CopyKind, find_copy
from latticeramsey.verifier import verify_embedding

from helpers import dumps, written
from naive import loop_embed


def chain_blue_coloring(ground):
    """Blue = one maximal chain (prefixes of [ground]); contains no Q_2."""
    blue = [(1 << j) - 1 for j in range(ground + 1)]
    return Coloring.dense(ground, blue)


def random_dense(ground, seed, density=0.5):
    rng = random.Random(seed)
    return Coloring.dense(
        ground, [s for s in range(1 << ground) if rng.random() < density]
    )


def test_all_red_embeds_identically():
    c = Coloring.dense(3, [])
    rec = embed_with_permutation(c, 2, 1, Permutation.identity(2, 1))
    assert rec.succeeded
    assert rec.images == (0, 1, 2, 3)
    assert rec.levels == (0, 0, 0, 0)
    assert all(len(ch) == 0 for ch in rec.chains)


def test_all_blue_fails_with_full_chain():
    c = Coloring.dense(2, range(4))
    rec = embed_with_permutation(c, 1, 1, Permutation.identity(1, 1))
    assert rec.images == (None, None)
    assert rec.levels == (2, 2)
    assert rec.chains[0] == Chain((0, mask_of([2])))


def test_single_blue_bottom_shifts_everything():
    c = Coloring.dense(3, [0])
    rec = embed_with_permutation(c, 2, 1, Permutation.identity(2, 1))
    assert rec.levels == (1, 1, 1, 1)
    assert rec.images[0] == mask_of([3])
    assert rec.images[mask_of([1])] == mask_of([1, 3])
    assert rec.images[mask_of([2])] == mask_of([2, 3])
    assert rec.images[mask_of([1, 2])] == mask_of([1, 2, 3])
    assert verify_embedding(rec, c).ok


def test_determinism_bit_identical():
    c = random_dense(5, seed=99)
    perm = Permutation(3, 2, (5, 4))
    a = embed_with_permutation(c, 3, 2, perm)
    b = embed_with_permutation(c, 3, 2, perm)
    assert a == b


def test_records_verify_on_random_colorings():
    rng = random.Random(5)
    for trial in range(50):
        c = random_dense(4, seed=trial, density=rng.random())
        image = list(range(3, 5))
        rng.shuffle(image)
        perm = Permutation(2, 2, tuple(image))
        rec = embed_with_permutation(c, 2, 2, perm)
        res = verify_embedding(rec, c)
        assert res.ok, res


def test_success_image_is_induced_copy():
    # when no failure occurs, the image family hosts an induced copy of Q_n
    rng = random.Random(17)
    found = 0
    for trial in range(60):
        c = random_dense(5, seed=trial + 1000, density=0.25)
        rec = embed_with_permutation(c, 3, 2, Permutation.identity(3, 2))
        if rec.succeeded:
            found += 1
            w = find_copy(list(rec.images), 3, CopyKind.INDUCED)
            assert w is not None
    assert found > 0


def test_recover_permutation_examples():
    assert recover_permutation(Chain((0, mask_of([3]), mask_of([3, 4]))), 2) == [3, 4]
    assert recover_permutation(Chain((0, mask_of([4]), mask_of([3, 4]))), 2) == [4, 3]
    assert recover_permutation(
        Chain((mask_of([1]), mask_of([1, 5]), mask_of([1, 4, 5]))), 3
    ) == [5, 4]


def test_recover_rejects_bad_shape():
    with pytest.raises(ValueError):
        recover_permutation(Chain((0, mask_of([3, 4]))), 2)
    with pytest.raises(ValueError):
        recover_permutation(Chain((mask_of([3]), mask_of([3, 4]))), 2)


def test_recover_rejects_a_step_of_two_top_elements():
    # Unreachable from a Chain: its sets grow strictly, so once set i holds i
    # top elements each step adds exactly one.  A plain sequence of sets can.
    with pytest.raises(ValueError) as caught:
        recover_permutation((0, mask_of([3]), mask_of([4, 5])), 2)
    assert str(caught.value) == "chain step 2 adds 2 top elements, expected 1"


_Q21, _Q4 = Coloring.structured(21), Coloring.structured(4)


@pytest.mark.parametrize(
    "run, message",
    [
        (
            lambda: embed_with_permutation(_Q21, 21, 0, Permutation.identity(21, 0)),
            "base dimension capped at 20",
        ),
        (
            lambda: embed_with_permutation(_Q21, 0, 21, Permutation.identity(0, 21)),
            "width capped at 20",
        ),
        (
            lambda: embed_with_permutation(_Q4, 2, 2, Permutation.identity(1, 3)),
            "permutation dimensions do not match (n, k)",
        ),
        (lambda: sweep_permutations(_Q4, 2, 2, mode="every"), "unknown sweep mode 'every'"),
    ],
)
def test_embedder_arguments_are_refused(run, message):
    with pytest.raises(ValueError) as caught:
        run()
    assert str(caught.value) == message


def test_failure_chain_recovers_its_permutation():
    rng = random.Random(3)
    checked = 0
    for trial in range(80):
        c = random_dense(4, seed=trial + 500, density=0.8)
        image = [3, 4]
        rng.shuffle(image)
        perm = Permutation(2, 2, tuple(image))
        rec = embed_with_permutation(c, 2, 2, perm)
        if not rec.succeeded:
            chain = rec.failure_chain()
            assert len(chain) == 3
            assert recover_permutation(chain, 2) == list(perm.image)
            checked += 1
    assert checked > 10


def test_sweep_chain_blue_small():
    c = chain_blue_coloring(4)
    report = sweep_permutations(c, 2, 2, mode="all")
    assert report.perms_run <= 2
    assert report.success is not None or report.injective


def test_sweep_all_blue_collides():
    # an all-blue coloring contains an induced Q_2, and the sweep shows the
    # endpoint map colliding, matching that implication
    c = Coloring.dense(3, range(8))
    report = sweep_permutations(c, 1, 2, mode="all")
    assert report.success is None
    assert report.perms_run == 2
    assert report.injective is False and report.collisions
    assert find_copy(list(range(8)), 2, CopyKind.INDUCED) is not None
    assert report.recover_ok


def test_sweep_all_red_immediate_success():
    c = Coloring.dense(4, [])
    for kwargs in ({"mode": "all"}, {"mode": "sample", "sample_count": 5, "seed": 2}):
        report = sweep_permutations(c, 2, 2, **kwargs)
        assert report.success is not None
        assert report.perms_run == 1
        assert not report.failures


def test_sweep_all_blue_single_permutation():
    # k = 1 leaves a single permutation: it fails, and the endpoint map on one
    # chain is injective by default
    c = Coloring.dense(2, range(4))
    report = sweep_permutations(c, 1, 1, mode="all")
    assert report.success is None
    assert report.perms_run == 1
    assert report.injective is True
    assert report.recover_ok


def test_sweep_sample_mode_deterministic():
    c = random_dense(5, seed=123, density=0.7)
    a = sweep_permutations(c, 2, 3, mode="sample", sample_count=10, seed=9)
    b = sweep_permutations(c, 2, 3, mode="sample", sample_count=10, seed=9)
    assert a == b


def test_sample_draws_stop_once_every_permutation_is_seen(monkeypatch):
    draws = []
    real_sample = random.Random.sample

    def counting_sample(self, population, k):
        draws.append(tuple(real_sample(self, population, k)))
        return list(draws[-1])

    full = list(_sampled_perm_images(2, 3, 100, seed=4))
    monkeypatch.setattr(random.Random, "sample", counting_sample)
    got = list(_sampled_perm_images(2, 3, 10**6, seed=4))
    assert got == full and len(full) == factorial(3)
    # the last draw is the one that completes the set
    assert len(set(draws[:-1])) == factorial(3) - 1 and draws[-1] not in draws[:-1]


def sweep_text(coloring, n, k, mode, sample_count=0, seed=0):
    """The sweep's report and naive_sweep's object, as certificate text."""
    from naive import naive_sweep

    report = sweep_permutations(coloring, n, k, mode, sample_count, seed)
    got = "".join(json_pieces({"result": report.to_obj()}))
    want = "".join(json_pieces({"result": naive_sweep(coloring, n, k, mode, sample_count, seed)}))
    return report, got, want


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 8),
    k=st.integers(0, 4),
    density=st.sampled_from([0.0, 0.002, 0.02, 0.1, 0.3, 0.5, 0.8, 1.0]) | st.floats(0, 1),
    seed=st.integers(0, 2**16),
    sample=st.none() | st.tuples(st.integers(1, 30), st.integers(0, 99)),
)
def test_sweep_matches_naive_sweep(n, k, density, seed, sample):
    coloring = random_dense(n + k, seed, density)
    mode, count, draw_seed = ("all", 0, 0) if sample is None else ("sample", *sample)
    _, got, want = sweep_text(coloring, n, k, mode, count, draw_seed)
    assert got == want


def test_sweep_succeeds_after_failed_permutations():
    # over the top elements 4, 5, 6, every level of the empty set is blue
    # unless the permutation starts with 6: the lexicographic sweep fails four
    # times at the empty set, then embeds everything at level 1 (the sample
    # from seed 1 draws three permutations before one that starts with 6)
    blue = [mask_of(s) for s in ([], [4], [5], [4, 5], [4, 6], [5, 6], [4, 5, 6])]
    coloring = Coloring.dense(6, blue)
    for mode, count in (("all", 0), ("sample", 20)):
        report, got, want = sweep_text(coloring, 3, 3, mode, count, seed=1)
        assert got == want
        assert report.success is not None and report.success.perm.image[0] == 6
        assert len(report.failures) == report.perms_run - 1 >= 2


def test_sweep_guard():
    c = random_dense(5, seed=1)
    with pytest.raises(ValueError):
        sweep_permutations(c, -4, 9, mode="all")


def test_embed_dimension_mismatch():
    c = Coloring.dense(3, [])
    with pytest.raises(ValueError):
        embed_with_permutation(c, 2, 2, Permutation.identity(2, 2))


def test_record_roundtrip():
    c = random_dense(4, seed=77, density=0.6)
    rec = embed_with_permutation(c, 2, 2, Permutation(2, 2, (4, 3)))
    assert EmbedRecord.from_obj(written(rec.to_obj())) == rec


def test_chains_without_new_blue_sets_are_shared():
    rec = embed_with_permutation(Coloring.dense(4, []), 2, 2, Permutation.identity(2, 2))
    assert len({id(c) for c in rec.chains}) == 1
    coloring = random_dense(9, seed=41, density=0.3)
    rec = embed_with_permutation(coloring, 6, 3, Permutation(6, 3, (8, 9, 7)))
    distinct = {id(c) for c in rec.chains}
    assert len(distinct) < len(rec.chains)
    obj = rec.to_obj()
    assert len({id(c) for c in obj["chains"]}) == len(distinct)
    assert EmbedRecord.from_obj(written(obj)) == rec


def emitted(tmp_path, coloring, *argv) -> dict:
    path = tmp_path / "coloring.json"
    path.write_text(dumps(coloring))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["embed", "--coloring", str(path), *argv])
    return json.loads(out.getvalue())["result"]


def test_emitted_records_round_trip(tmp_path):
    rng = random.Random(88)
    kinds = set()
    for trial in range(24):
        n, k = rng.randint(2, 8), rng.randint(1, 3)
        c = random_dense(n + k, seed=trial, density=rng.choice((0.01, 0.1, 0.4)))
        image = rng.sample(range(n + 1, n + k + 1), k)
        rec = embed_with_permutation(c, n, k, Permutation(n, k, tuple(image)))
        sizes = ["--n", str(n), "--k", str(k)]
        result = emitted(tmp_path, c, *sizes, "--pi", ",".join(map(str, image)))
        assert EmbedRecord.from_obj(result) == rec
        kinds.add("success" if rec.succeeded else "failure")
        report = sweep_permutations(c, n, k, mode="all")
        if report.success is not None:
            result = emitted(tmp_path, c, *sizes, "--all")
            assert EmbedRecord.from_obj(result["success"]) == report.success
            kinds.add("sweep")
    assert kinds == {"success", "failure", "sweep"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("chains", [{"sets": "ab"}]),
        ("chains", [[[1]]]),
        ("chains", {"sets": []}),
        ("images", 5),
        ("images", [[1], "a", None, None]),
        ("levels", [0, 1, True, 0]),
        ("perm", "43"),
        ("n", 2.0),
    ],
)
def test_malformed_record_is_value_error(field, value):
    rec = embed_with_permutation(random_dense(4, seed=5), 2, 2, Permutation(2, 2, (4, 3)))
    obj = written(rec.to_obj())
    obj[field] = value
    with pytest.raises(ValueError):
        EmbedRecord.from_obj(obj)


@pytest.mark.parametrize("obj", [{"sets": "ab"}, {"sets": [1, 2]}, [[1]], "sets"])
def test_malformed_chain_is_value_error(obj):
    with pytest.raises(ValueError):
        Chain.from_obj(obj)


def plain_record(rec: EmbedRecord) -> dict:
    """rec.to_obj() with its images and chain sets spelled out as element lists."""
    obj = rec.to_obj()
    obj["images"] = [None if img is None else elements_of(img) for img in rec.images]
    obj["chains"] = [{"sets": list(map(elements_of, c.sets))} for c in rec.chains]
    return obj


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 6),
    k=st.integers(0, 3),
    density=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_record_text_matches_json_dumps_of_element_lists(n, k, density, seed, data):
    # n < 3 reads levels of less than a byte of blue_bits, n >= 3 whole bytes
    image = tuple(data.draw(st.permutations(range(n + 1, n + k + 1))))
    rec = embed_with_permutation(random_dense(n + k, seed, density), n, k, Permutation(n, k, image))
    text = "".join(json_pieces({"result": rec.to_obj()}))
    assert text == json.dumps({"result": plain_record(rec)}, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 5), k=st.integers(0, 3), data=st.data())
def test_structured_coloring_embeds_like_its_dense_copy(n, k, data):
    ground = n + k
    layers = data.draw(st.sets(st.integers(0, ground)))
    off_layers = [s for s in range(1 << ground) if s.bit_count() not in layers]
    extra = data.draw(st.lists(st.sampled_from(off_layers), max_size=6)) if off_layers else []
    code = None
    free = sorted(set(range(ground + 1)) - layers - {s.bit_count() for s in extra})
    if free and data.draw(st.booleans()):
        p = data.draw(st.integers(2, 7))
        code = WeightedFamily(ground, data.draw(st.sampled_from(free)), modp_p=p, modp_d=p)
    coloring = Coloring.structured(ground, layers, extra, code)
    image = tuple(data.draw(st.permutations(range(n + 1, ground + 1))))
    perm = Permutation(n, k, image)
    dense = Coloring.dense_from_int(ground, coloring.blue_range(0, 1 << ground))
    assert dense.is_dense
    assert embed_with_permutation(coloring, n, k, perm) == embed_with_permutation(dense, n, k, perm)
    # a sweep reads colors through the same blue_range, and stops early on failure
    assert sweep_permutations(coloring, n, k, mode="all") == sweep_permutations(dense, n, k, mode="all")


def shared_groups(chains) -> list[list[int]]:
    """The subsets grouped by the Chain object they hold."""
    groups: dict[int, list[int]] = {}
    for a, chain in enumerate(chains):
        groups.setdefault(id(chain), []).append(a)
    return sorted(groups.values())


@st.composite
def dense_or_structured(draw, ground):
    """A dense coloring of Q_ground at a drawn density, or a structured one
    from blue layers and extras."""
    if draw(st.booleans()):
        densities = [0.0, 0.002, 0.02, 0.1, 0.3, 0.5, 0.9, 1.0]
        density = draw(st.sampled_from(densities) | st.floats(0, 1))
        return random_dense(ground, draw(st.integers(0, 2**16)), density)
    layers = draw(st.sets(st.integers(0, ground)))
    off_layers = [s for s in range(1 << ground) if s.bit_count() not in layers]
    extra = draw(st.lists(st.sampled_from(off_layers), max_size=12)) if off_layers else []
    return Coloring.structured(ground, layers, extra)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 8), k=st.integers(0, 4), data=st.data())
def test_embedding_matches_the_former_loop(n, k, data):
    coloring = data.draw(dense_or_structured(n + k))
    perm = Permutation(n, k, tuple(data.draw(st.permutations(range(n + 1, n + k + 1)))))
    rec = embed_with_permutation(coloring, n, k, perm)
    want = loop_embed(coloring, n, k, perm, False)
    assert rec == want
    assert shared_groups(rec.chains) == shared_groups(want.chains)
    # a sweep passes U_t on between permutations: lexicographic and drawn orders
    sample = data.draw(st.none() | st.tuples(st.integers(1, 30), st.integers(0, 99)))
    mode, count, seed = ("all", 0, 0) if sample is None else ("sample", *sample)
    report = sweep_permutations(coloring, n, k, mode, count, seed)
    for image, chain in report.failures:
        assert chain == loop_embed(coloring, n, k, Permutation(n, k, image), True)
    if report.success is not None:
        want = loop_embed(coloring, n, k, report.success.perm, True)
        assert report.success == want
        assert shared_groups(report.success.chains) == shared_groups(want.chains)


def test_chains_are_built_once_per_distinct_chain(monkeypatch):
    # counts, not timings: a full run builds one Chain per distinct chain of
    # its record (EMPTY_CHAIN is built at import), and a failed sweep
    # permutation at most k+1, not one per subset that adds a blue set
    built = []
    post_init = Chain.__post_init__
    monkeypatch.setattr(Chain, "__post_init__", lambda self: built.append(post_init(self)))
    for seed, density in ((7, 0.02), (9, 0.1), (8, 0.3)):
        coloring = random_dense(13, seed, density)
        built.clear()
        rec = embed_with_permutation(coloring, 10, 3, Permutation(10, 3, (13, 11, 12)))
        assert len(built) == len({id(c) for c in rec.chains} - {id(EMPTY_CHAIN)}) > 10
    coloring = random_dense(14, seed=5, density=0.5)
    built.clear()
    report = sweep_permutations(coloring, 10, 4, mode="all")
    assert report.success is None and report.perms_run == 24
    assert len(built) <= 5 * 24


def test_embed_matches_independent_reimplementation():
    from latticeramsey.lattice import elements_of
    from naive import naive_embed

    rng = random.Random(271)
    successes = ties = 0
    for trial in range(150):
        n = rng.randint(1, 6)
        k = rng.randint(1, 4)
        ground = n + k
        # low densities let runs succeed and put several donors at one level
        density = rng.choice((0.02, 0.08, 0.2, rng.random()))
        coloring = random_dense(ground, seed=9000 + trial, density=density)
        image = list(range(n + 1, n + k + 1))
        rng.shuffle(image)
        rec = embed_with_permutation(coloring, n, k, Permutation(n, k, tuple(image)))
        successes += rec.succeeded

        def is_blue(fs):
            return coloring.is_blue(mask_of(fs))

        images, levels, chains = naive_embed(is_blue, n, k, tuple(image))
        for a in range(1 << n):
            fs = frozenset(elements_of(a))
            want = images[fs]
            got = rec.images[a]
            assert (got is None) == (want is None)
            if got is not None:
                assert frozenset(elements_of(got)) == want
            assert rec.levels[a] == levels[fs]
            assert tuple(frozenset(elements_of(s)) for s in rec.chains[a]) == chains[fs]
            if fs:
                beta = max(levels[s] for s in levels if s < fs)
                donors = {chains[s] for s in levels if s < fs and levels[s] == beta}
                ties += 0 < beta <= k and len(donors) > 1
    assert successes > 10
    assert ties > 10


def test_counting_bound_exact_small():
    r = counting_bound(2, 6.14)
    assert r.k == 12
    assert r.exponent == 28
    assert r.contradiction
    assert factorial(12) == 479001600 > 2**28 == 268435456
    assert counting_bound(4, 6.14).k == 12  # floor(6.14 * 4 / 2)


def test_counting_bound_floor_formula():
    from math import floor, log2

    for n in (2, 5, 17, 100):
        for c in (2.0, 3.7, 6.14):
            assert counting_bound(n, c).k == floor(c * n / log2(n))


def test_counting_bound_no_contradiction_side():
    r = counting_bound(100, 2.0)
    assert not r.contradiction  # 30! is far below 2^260


def test_minimal_k_small_values_exact():
    assert minimal_k(2) == 12
    # independent check by direct big-integer scan
    def brute(n):
        k = 1
        while not factorial(k) > 2 ** (2 * (n + k)):
            k += 1
        return k

    for n in (2, 3, 5, 10, 50):
        assert minimal_k(n) == brute(n)


def test_minimal_k_matches_original_scan():
    from naive import naive_minimal_k

    for n in list(range(2, 3001)) + [10**4, 10**5, 10**6]:
        assert minimal_k(n) == naive_minimal_k(n)


@pytest.mark.parametrize("n", [10**9, 10**11])
def test_minimal_k_crosses_exactly_at_large_n(n):
    # past the linear scan's reach: k is the first k with k! > 2^(2(n+k))
    from latticeramsey.embedder import _factorial_exceeds_power

    k = minimal_k(n)
    assert _factorial_exceeds_power(k, 2 * (n + k))[0]
    assert not _factorial_exceeds_power(k - 1, 2 * (n + k - 1))[0]


def test_factorial_exceeds_power_decides_thin_margins_exactly():
    # log2 959! exceeds 8122 by 1.6e-4 and log2 548! falls 3.2e-4 short of
    # 4201, inside the float tolerance, so factorial() decides both
    from latticeramsey.embedder import _factorial_exceeds_power

    assert _factorial_exceeds_power(959, 8122) == (True, "exact")
    assert _factorial_exceeds_power(548, 4201) == (False, "exact")
    assert factorial(959) > 2**8122 and factorial(548) < 2**4201


def test_stirling_remark_fields_reported_not_asserted():
    r = counting_bound(2, 6.14)
    # the 0.8797-coefficient shortcut genuinely fails at k = 12
    assert r.stirling_coeff_ok is False
    assert r.stirling_lower_bits < r.log2_factorial
