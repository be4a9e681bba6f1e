"""Tests for the complete copy/chain searchers and the exhaustive tiny scan."""

import dataclasses
import random

import pytest

from latticeramsey.lattice import Coloring, WeightedFamily, mask_of, layer
from latticeramsey.oracle import (
    DEFAULT_NODE_BUDGET,
    CopyKind,
    SearchExhausted,
    coloring_is_ramsey,
    exhaustive_ramsey_number,
    find_chain,
    find_copy,
)
from latticeramsey import constructions, oracle
from latticeramsey.constructions import layered_coloring

from helpers import low_block_q9
from naive import (
    forward_checking_find_copy,
    listing_ramsey_scan,
    naive_find_copy,
    pair_logic_has_copy,
    pairwise_coloring_is_ramsey,
    pairwise_find_chain,
    pairwise_find_copy,
    pairwise_ramsey_scan,
)

INDUCED = CopyKind.INDUCED
WEAK = CopyKind.WEAK


def test_full_q2_has_itself():
    w = find_copy(list(range(4)), 2, INDUCED)
    assert w is not None and w.check()


def test_antichain_has_no_two_chain():
    assert find_copy(list(layer(4, 2)), 1, INDUCED) is None


def test_asymmetric_family_witness_top():
    fam = [0, mask_of([1]), mask_of([2]), mask_of([1, 2, 3])]
    w = find_copy(fam, 2, INDUCED)
    assert w is not None and w.check()
    assert w.images[3] == mask_of([1, 2, 3])
    # cross-checked against the exhaustive injection enumerator
    assert naive_find_copy(fam, 2, induced=True) is not None


def test_check_rejects_tampered_witnesses():
    # check is the trusted re-validator of every witness the search returns
    w = find_copy(range(1 << 3), 2, INDUCED)
    assert w is not None and w.check()
    images = w.images
    tampered = [
        images[:3],  # an image dropped
        (images[0], images[1], images[1], images[3]),  # an image repeated
        (images[3], images[1], images[2], images[0]),  # bottom and top swapped
    ]
    for bad in tampered:
        assert not dataclasses.replace(w, images=bad).check(), bad
    # a chain keeps every containment of Q_2 but adds {1} < {1, 2}
    chain = (0, mask_of([1]), mask_of([1, 2]), mask_of([1, 2, 3]))
    assert oracle.CopyWitness(WEAK, 2, chain).check()
    assert not oracle.CopyWitness(INDUCED, 2, chain).check()


def test_witness_soundness_random_families():
    rng = random.Random(7)
    for _ in range(200):
        fam = [s for s in range(16) if rng.random() < 0.5]
        for kind in (INDUCED, WEAK):
            w = find_copy(fam, 2, kind)
            if w is not None:
                assert w.check()
                assert set(w.images) <= set(fam)


def test_monotone_under_family_growth():
    rng = random.Random(11)
    for _ in range(100):
        fam = [s for s in range(16) if rng.random() < 0.4]
        extra = [s for s in range(16) if s not in fam]
        for kind in (INDUCED, WEAK):
            if find_copy(fam, 2, kind) is not None:
                assert find_copy(fam + extra, 2, kind) is not None


def test_induced_witness_downgrades_to_weak():
    rng = random.Random(13)
    for _ in range(100):
        fam = [s for s in range(16) if rng.random() < 0.5]
        if find_copy(fam, 2, INDUCED) is not None:
            assert find_copy(fam, 2, WEAK) is not None


def test_completeness_vs_naive_all_q3_families():
    # every family inside the 8-element lattice, both kinds, m = 1 and 2
    for bits in range(256):
        fam = [s for s in range(8) if bits >> s & 1]
        for m in (1, 2):
            for kind in (INDUCED, WEAK):
                got = find_copy(fam, m, kind) is not None
                want = naive_find_copy(fam, m, kind is INDUCED) is not None
                assert got == want, (bits, m, kind)


def test_completeness_vs_naive_sampled_q4_families():
    rng = random.Random(42)
    for _ in range(150):
        fam = [s for s in range(16) if rng.random() < rng.choice((0.3, 0.6))]
        for m in (1, 2):
            for kind in (INDUCED, WEAK):
                got = find_copy(fam, m, kind) is not None
                want = naive_find_copy(fam, m, kind is INDUCED) is not None
                assert got == want
                assert pair_logic_has_copy(fam, m, kind is INDUCED) == got


def test_find_chain_examples():
    assert find_chain([0, mask_of([1]), mask_of([1, 2])], 3) is not None
    assert find_chain(list(layer(4, 2)), 2) is None
    ch = find_chain(list(range(8)), 4)
    assert ch is not None and len(ch) == 4


def test_exhausted_is_loud():
    with pytest.raises(SearchExhausted):
        find_copy(list(range(32)), 3, INDUCED, node_budget=5)


def test_coloring_is_ramsey_examples():
    layered = Coloring.structured(2, blue_layers={0})
    assert coloring_is_ramsey(layered, 1, 2, WEAK).neither

    all_blue = Coloring.dense(2, range(4))
    out = coloring_is_ramsey(all_blue, 2, 1, INDUCED)
    assert out.blue_witness is not None

    all_red = Coloring.dense(3, [])
    out = coloring_is_ramsey(all_red, 1, 3, INDUCED)
    assert out.red_witness is not None and out.red_witness.dim == 3


def test_exhaustive_scan_two_chains():
    r = exhaustive_ramsey_number(1, 1, INDUCED, 4)
    assert r.value == 2
    assert r.layered_lower_bound == 2
    assert 1 in r.counterexamples
    r = exhaustive_ramsey_number(1, 1, WEAK, 4)
    assert r.value == 2


def test_exhaustive_scan_one_vs_two():
    r = exhaustive_ramsey_number(1, 2, INDUCED, 4)
    assert r.value == 3
    assert r.value >= 1 + 2  # layered lower bound


@pytest.mark.parametrize("max_n", [0, -3, 6])
def test_exhaustive_scan_guard(max_n):
    # an empty range would report "threshold above the range" having scanned nothing
    with pytest.raises(ValueError):
        exhaustive_ramsey_number(1, 1, INDUCED, max_n)


def test_layered_colorings_avoid_both_small():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            if m + n - 1 > 4:
                continue
            c = layered_coloring(m, n)
            for kind in (INDUCED, WEAK):
                assert coloring_is_ramsey(c, m, n, kind).neither, (m, n, kind)


# -- order tables against the pairwise oracle they replaced -------------------


def _both(search, *args):
    """A search's witness images, None, or the node count it gave up at."""
    try:
        w = search(*args)
    except SearchExhausted as exc:
        return ("exhausted", exc.nodes)
    return None if w is None else (w.kind, w.dim, w.images)


def _random_families(rng, count):
    for _ in range(count):
        ground = rng.randint(1, 6)
        density = rng.choice((0.3, 0.5, 0.7, 0.9))
        yield [s for s in range(1 << ground) if rng.random() < density]


def _sparse_q40_families(rng, count):
    """Families in Q_40 with containment: a fixed base plus subsets of a small
    element pool, with a few unrelated sets mixed in."""
    for _ in range(count):
        pool = rng.sample(range(40), 6)
        base = sum(1 << e for e in rng.sample(range(40), 8) if e not in pool)
        fam = [
            base | sum(1 << e for e in pool if rng.random() < 0.5)
            for _ in range(rng.randint(8, 40))
        ]
        fam += [rng.getrandbits(40) for _ in range(rng.randint(0, 5))]
        yield fam


def test_find_copy_matches_pairwise_oracle():
    rng = random.Random(2024)
    families = list(_random_families(rng, 400)) + list(_sparse_q40_families(rng, 80))
    for fam in families:
        for m in range(4):
            for kind in (INDUCED, WEAK):
                assert _both(find_copy, fam, m, kind) == _both(
                    pairwise_find_copy, fam, m, kind
                ), (fam, m, kind)


def test_find_copy_budget_points_match_pairwise_oracle():
    rng = random.Random(77)
    families = list(_random_families(rng, 150)) + list(_sparse_q40_families(rng, 30))
    for fam in families:
        for m in (2, 3):
            for kind in (INDUCED, WEAK):
                for budget in (1, 5, 50):
                    assert _both(find_copy, fam, m, kind, budget) == _both(
                        forward_checking_find_copy, fam, m, kind, budget
                    ), (fam, m, kind, budget)


def test_find_chain_matches_pairwise_oracle():
    rng = random.Random(5)
    families = list(_random_families(rng, 200)) + list(_sparse_q40_families(rng, 40))
    for fam in families + [[]]:
        for length in [*range(1, 8), len(set(fam)), len(set(fam)) + 1, 10**9]:
            if length >= 1:
                assert find_chain(fam, length) == pairwise_find_chain(fam, length)


def _ramsey_pair(coloring, m, n, kind, node_budget=DEFAULT_NODE_BUDGET):
    out = coloring_is_ramsey(coloring, m, n, kind, node_budget)
    return out.blue_witness, out.red_witness


def test_coloring_is_ramsey_matches_pairwise_oracle():
    rng = random.Random(31)
    colorings = [Coloring.dense_from_int(3, bits) for bits in range(256)]
    colorings += [Coloring.dense_from_int(4, rng.getrandbits(16)) for _ in range(40)]
    colorings += [Coloring.dense_from_int(5, rng.getrandbits(32)) for _ in range(15)]
    colorings += [layered_coloring(2, 3), Coloring.structured(4, blue_layers={1, 3})]
    for c in colorings:
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for kind in (INDUCED, WEAK):
                    assert _ramsey_pair(c, m, n, kind) == pairwise_coloring_is_ramsey(
                        c, m, n, kind
                    ), (c, m, n, kind)


# The benchmark's fixed scan list (certbench's scan_set): every (m, n) in
# 1..3, both kinds, up to N = 4 except the three scans that would list all
# 2^16 colorings of Q_4.
SCAN_LIST = [
    (m, n, kind, 3 if (m, n) in {(1, 3), (2, 2), (3, 1)} else 4)
    for kind in (WEAK, INDUCED)
    for m in (1, 2, 3)
    for n in (1, 2, 3)
]


@pytest.mark.parametrize("m,n,kind,max_n", SCAN_LIST)
def test_exhaustive_scan_matches_pairwise_oracle(m, n, kind, max_n):
    got = exhaustive_ramsey_number(m, n, kind, max_n).to_obj()
    assert got == pairwise_ramsey_scan(m, n, kind, max_n)


@pytest.mark.parametrize("kind", [WEAK, INDUCED])
def test_exhaustive_scan_matches_listing_at_q4(kind):
    # Every (m, n) in 1..3 at max_N = 4, the six scans that decide all 2^16
    # colorings of Q_4 included: the depth-first scan must stop where the
    # integer-order listing stops.
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            got = exhaustive_ramsey_number(m, n, kind, 4).to_obj()
            assert got == listing_ramsey_scan(m, n, kind, 4), (m, n, kind)


def test_scan_budget_counts_per_partial_search():
    # The budget bounds each search of a partial color class.  Those stay
    # within 5 nodes here, though searching whole colorings of Q_4 does not.
    r = exhaustive_ramsey_number(3, 2, WEAK, 4, node_budget=5)
    assert r.status == "complete"
    assert r.counterexamples[4] == 6015
    assert r.to_obj() == exhaustive_ramsey_number(3, 2, WEAK, 4).to_obj()


def test_layered_check_needs_no_search_node():
    # The layered witness has no blue chain of m+1 sets and no red chain of
    # n+1 sets, so the height peel settles both of its searches before their
    # first node: a budget of 0 still certifies m + n at every admitted ground.
    for ground in range(1, oracle.MAX_LAYERED_GROUND + 1):
        for m in range(1, ground + 1):
            for kind in (WEAK, INDUCED):
                r = exhaustive_ramsey_number(m, ground + 1 - m, kind, 1, node_budget=0)
                assert r.layered_lower_bound == ground + 1


def _pair_or_budget(search, *args):
    """(blue, red) witnesses, or the node count the search gave up at."""
    try:
        return search(*args)
    except SearchExhausted as exc:
        return ("exhausted", exc.nodes)


def test_coloring_is_ramsey_budget_points_match_pairwise_oracle():
    rng = random.Random(41)
    colorings = [
        Coloring.dense_from_int(ground, rng.getrandbits(1 << ground))
        for ground in range(1, 6)
        for _ in range(12)
    ]
    exhausted = 0
    for c in colorings:
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for kind in (INDUCED, WEAK):
                    for budget in (1, 5, 50):
                        got = _pair_or_budget(_ramsey_pair, c, m, n, kind, budget)
                        want = _pair_or_budget(
                            pairwise_coloring_is_ramsey,
                            c, m, n, kind, budget, forward_checking_find_copy,
                        )
                        assert got == want, (c, m, n, kind, budget)
                        exhausted += got[0] == "exhausted"
    assert exhausted == 877  # the budget points are really reached


def test_whole_cube_witnesses_match_pairwise_oracle():
    # Forward checking and rising singletons cut only branches that hold no
    # copy or a later one, so the whole-cube search (shift peels, with masks
    # cached up to N = 5 and built per call at N = 6 and 7) finds the
    # pairwise oracle's witness.
    rng = random.Random(53)
    for ground in range(3, 8):
        for fam in _seeded_families(ground, 12, rng):
            c = Coloring.dense_from_int(ground, fam)
            for m in range(5):
                for kind in (INDUCED, WEAK):
                    assert _ramsey_pair(c, m, m, kind) == pairwise_coloring_is_ramsey(
                        c, m, m, kind
                    ), (ground, fam, m, kind)


def _seeded_families(ground, count, rng):
    for _ in range(count):
        density = rng.choice((0.2, 0.5, 0.8))
        yield sum(1 << s for s in range(1 << ground) if rng.random() < density)


@pytest.mark.parametrize("ground,p,m,n", [(7, 7, 2, 5), (10, 11, 3, 7)])
@pytest.mark.parametrize("kind", [WEAK, INDUCED])
def test_modp_colorings_are_refuted_within_budget(ground, p, m, n, kind):
    # The paper's modp colorings (spread layers around k = 2, the residue
    # code on layer 3) ran past 10^6 nodes, 1-7 s, before forward checking.
    c = Coloring.structured(
        ground,
        blue_layers=constructions.spread_layers(2, m),
        blue_code=WeightedFamily(ground, 3, modp_p=p, modp_d=1),
    )
    assert coloring_is_ramsey(c, m, n, kind, node_budget=10**6).neither


@pytest.mark.parametrize("kind", [WEAK, INDUCED])
def test_low_block_q9_red_q6_found_within_budget(kind):
    # The weak search ran past 10^6 nodes here (and verify --ramsey 3,6 past
    # 100 s at the default budget) before forward checking.
    c = low_block_q9()
    out = coloring_is_ramsey(c, 3, 6, kind, node_budget=10**6)
    assert out.blue_witness is None
    red = out.red_witness
    assert red is not None and red.check()
    assert not any(c.is_blue(s) for s in red.images)
    assert red.images[:4] == (3, 7, 11, 31 if kind is WEAK else 271)


def test_shift_peel_matches_heights():
    # _search reaches the peel only with a nonempty class
    rng = random.Random(19)
    for ground in range(11):
        _, up, down, _ = oracle._order(range(1 << ground))
        lacking = oracle._whole_cube(ground)[3]
        for density in (0.1, 0.5, 0.9):
            for _ in range(30 if ground <= 8 else 3):
                fam = sum(1 << s for s in range(1 << ground) if rng.random() < density)
                if not fam:
                    continue
                for depth in range(5):
                    below = oracle._heights(fam, down, depth)
                    above = oracle._heights(fam, up, depth)
                    want = (below, above) if all(below + above) else None
                    assert oracle._shift_peel(fam, lacking, depth) == want, (ground, fam, depth)


def test_whole_cube_masks_match_order_tables():
    for ground in range(9):
        words = range(1 << ground)
        want = oracle._order(words)[1:3]
        _, up, down, _ = oracle._whole_cube(ground)
        assert [up[a] for a in words] == list(want[0]), ground
        assert [down[a] for a in words] == list(want[1]), ground
        if ground <= oracle.MAX_SCAN_GROUND:
            assert oracle._cube(ground)[1:3] == want, ground


def test_negative_members_are_refused():
    # -1 once passed as a superset of every set: find_copy([-1, 2], 1, WEAK)
    # gave images (2, -1).
    for family in ([-1, 2], [3, -4, 5]):
        with pytest.raises(ValueError, match="negative"):
            find_copy(family, 1, WEAK)
        with pytest.raises(ValueError, match="negative"):
            find_chain(family, 2)


@pytest.mark.parametrize(
    "search, message",
    [
        (lambda: find_copy([0, 1], -1, WEAK), "pattern dimension must be >= 0"),
        (lambda: find_chain([0, 1], 0), "chain length must be >= 1"),
        (lambda: coloring_is_ramsey(Coloring.dense(2, []), -1, 1, WEAK), "pattern dimension must be >= 0"),
        (lambda: coloring_is_ramsey(Coloring.dense(2, []), 1, -1, INDUCED), "pattern dimension must be >= 0"),
    ],
)
def test_negative_sizes_are_refused(search, message):
    with pytest.raises(ValueError) as caught:
        search()
    assert str(caught.value) == message


def test_find_copy_of_q10_in_q10_needs_no_recursion():
    # the search once recursed once per pattern, 2^10 + 1 frames deep here
    w = find_copy(range(1 << 10), 10, WEAK)
    assert w is not None and w.check()
    assert sorted(w.images) == list(range(1 << 10))


def test_neither_is_invariant_under_the_symmetries_of_the_cube():
    # Relabelling the ground elements, complementing every set, and swapping
    # the colors together with (m, n) each map copies to copies.
    rng = random.Random(23)
    for ground in range(2, 6):
        top, every = (1 << ground) - 1, (1 << (1 << ground)) - 1
        for fam in _seeded_families(ground, 30, rng):
            blue = [s for s in range(top + 1) if fam >> s & 1]
            perm = rng.sample(range(ground), ground)
            c = Coloring.dense_from_int(ground, fam)
            relabelled = Coloring.dense(
                ground, [sum(1 << perm[e] for e in range(ground) if s >> e & 1) for s in blue]
            )
            complemented = Coloring.dense(ground, [top ^ s for s in blue])
            swapped = Coloring.dense_from_int(ground, every ^ fam)
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    for kind in (INDUCED, WEAK):
                        neither = coloring_is_ramsey(c, m, n, kind).neither
                        for image, mi, ni in (
                            (relabelled, m, n),
                            (complemented, m, n),
                            (swapped, n, m),
                        ):
                            assert coloring_is_ramsey(image, mi, ni, kind).neither == neither


def _orders(rng):
    """Every (m, n, kind, budget) of the order test, shuffled, and the same
    sorted by descending budget (the budget-point test above only ascends)."""
    calls = [
        (m, n, kind, budget)
        for m in range(4)
        for n in range(4)
        for kind in (INDUCED, WEAK)
        for budget in (50, 5, 1, DEFAULT_NODE_BUDGET)
    ]
    shuffled = rng.sample(calls, len(calls))
    return shuffled, sorted(calls, key=lambda call: -call[3])


def test_call_order_cannot_change_an_answer():
    rng = random.Random(53)
    colorings = [
        Coloring.dense_from_int(ground, rng.getrandbits(1 << ground))
        for ground in range(1, 7)
        for _ in range(2)
    ]
    colorings += [layered_coloring(2, 3), Coloring.structured(4, blue_layers={1, 3})]
    exhausted = 0
    for c in colorings:
        for order in _orders(rng):
            shared = dataclasses.replace(c)  # asked every call of the order in turn
            for m, n, kind, budget in order:
                got = _pair_or_budget(_ramsey_pair, shared, m, n, kind, budget)
                fresh = _pair_or_budget(_ramsey_pair, dataclasses.replace(c), m, n, kind, budget)
                assert got == fresh, (c, m, n, kind, budget)
                exhausted += got[0] == "exhausted"
    assert exhausted  # exhausted calls, and their node counts, are compared too


def test_a_coloring_searches_each_side_once(monkeypatch):
    searched = []
    search = oracle._search

    def counted(order, fam, dim, *rest):
        searched.append((fam, dim))
        return search(order, fam, dim, *rest)

    monkeypatch.setattr(oracle, "_search", counted)
    c = Coloring.dense_from_int(5, random.Random(8).getrandbits(32))
    pairs = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    first = [coloring_is_ramsey(c, m, n, WEAK) for m, n in pairs]
    assert searched and len(searched) == len(set(searched))
    searched.clear()
    assert [coloring_is_ramsey(c, m, n, WEAK) for m, n in pairs] == first
    assert searched == []
    # an exhausted search keeps nothing, so the same call searches again
    full = Coloring.dense_from_int(4, (1 << 16) - 1)
    for _ in range(2):
        searched.clear()
        with pytest.raises(SearchExhausted):
            coloring_is_ramsey(full, 2, 2, WEAK, 1)
        assert len(searched) == 1


def test_answers_stay_with_their_coloring():
    import weakref

    from latticeramsey.lattice import json_pieces

    def seen(col):
        return col, repr(col), hash(col), "".join(json_pieces(col.to_obj())).encode()

    dense = Coloring.dense_from_int(5, random.Random(9).getrandbits(32))
    for c in (dense, layered_coloring(2, 3)):
        before = seen(dataclasses.replace(c))
        for m in range(4):
            for n in range(4):
                for kind in (INDUCED, WEAK):
                    coloring_is_ramsey(c, m, n, kind)
        assert seen(c) == before
    ref = weakref.ref(dense)
    del dense, c
    assert ref() is None


def _module_sizes(module):
    """The size of every container and lru_cache a module holds, and its name count."""
    sizes = {"names": len(vars(module))}
    for name, value in vars(module).items():
        if hasattr(value, "cache_info"):
            sizes[name] = value.cache_info().currsize
        elif isinstance(value, (dict, list, set, tuple, frozenset)):
            sizes[name] = len(value)
    return sizes


def test_the_oracle_module_keeps_no_answers():
    def ask(colorings):
        for c in colorings:
            for m in (1, 2, 3):
                for n in (1, 2, 3):
                    for kind in (INDUCED, WEAK):
                        coloring_is_ramsey(c, m, n, kind)

    # all-blue and all-red cubes build every per-ground and per-dimension table
    ask(Coloring.dense_from_int(g, bits) for g in range(1, 7) for bits in (0, (1 << (1 << g)) - 1))
    before = _module_sizes(oracle)
    rng = random.Random(10)
    ask(Coloring.dense_from_int(g, rng.getrandbits(1 << g)) for g in range(1, 7) for _ in range(20))
    assert _module_sizes(oracle) == before
