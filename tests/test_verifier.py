"""Tests for the structural verifiers and the embedding re-checker."""

import random
from collections import Counter
from dataclasses import replace
from math import comb, e

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticeramsey.constructions import (
    LllConfig,
    induced_q2_coloring,
    lll_family,
    modp_code,
    probabilistic_coloring,
)
from latticeramsey.embedder import EmbedRecord, embed_with_permutation
from latticeramsey.lattice import (
    Chain,
    Coloring,
    Permutation,
    WeightedFamily,
    layer,
    mask_of,
    sorted_family,
)
from latticeramsey.oracle import CopyKind, find_copy
from latticeramsey.verifier import (
    CODE_STATEMENT_WORK,
    CheckResult,
    DpTable,
    UnknownShape,
    build_dp_table,
    certify_blue_free,
    certify_red_singleton_bound,
    check_code_statement,
    check_conditions,
    check_min_distance,
    dp_count,
    lll_inequality_report,
    verify_embedding,
)

from helpers import low_block_q9, written
from naive import (
    naive_certify_red_singleton_bound,
    naive_check_code_statement,
    naive_check_code_statement_divided,
    naive_check_code_statement_stacked,
    naive_check_conditions,
    naive_dp_count,
    naive_lll_sides,
    naive_low_block_blue_free,
    naive_verify_embedding,
    scan_verify_embedding,
    two_fold_triples_7,
    two_fold_triples_8,
)


def test_min_distance_examples():
    ok = sorted_family([mask_of([1, 2]), mask_of([3, 5])], 5, 2)
    assert check_min_distance(ok, 4).ok
    bad = sorted_family([mask_of([1, 2]), mask_of([1, 3])], 5, 2)
    res = check_min_distance(bad, 4)
    assert not res.ok and res.witness == (mask_of([1, 2]), mask_of([1, 3]))


def test_dp_count_examples():
    assert dp_count(mask_of([1, 2, 3, 4]), 2, 5, 3) == 1
    assert dp_count(0, 0, 5, 0) == 1
    total = sum(dp_count(mask_of(range(1, 9)), 3, 7, r) for r in range(7))
    assert total == comb(8, 3)


def test_dp_table_base_cell():
    t = build_dp_table(mask_of([2, 5, 6]), 2, 5)
    assert t.count(0, 0) == 1
    assert sum(t.count(2, r) for r in range(5)) == comb(3, 2)


def test_dp_count_matches_brute_force():
    rng = random.Random(99)
    for _ in range(300):
        ground_size = rng.randint(0, 16)
        elems = rng.sample(range(1, 30), ground_size)
        k = rng.randint(0, ground_size)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        r = rng.randrange(p)
        assert dp_count(mask_of(elems), k, p, r) == naive_dp_count(elems, k, p, r)


@given(
    ground=st.integers(min_value=0, max_value=(1 << 12) - 1),
    k=st.integers(min_value=0, max_value=12),
    p=st.sampled_from([2, 3, 5, 7, 11]),
)
def test_dp_count_partition_identity(ground, k, p):
    k = min(k, ground.bit_count())
    total = sum(dp_count(ground, k, p, r) for r in range(p))
    assert total == comb(ground.bit_count(), k)


def test_dp_table_without_matches_fresh_build():
    rng = random.Random(2024)
    for _ in range(300):
        elems = rng.sample(range(1, 40), rng.randint(1, 16))
        removed = rng.sample(elems, rng.randint(1, min(3, len(elems))))
        rest = [e for e in elems if e not in removed]
        k = rng.randint(0, len(rest))
        p = rng.randint(1, 13)
        table = build_dp_table(mask_of(elems), k, p)
        for el in removed:
            table = table.without(el)
        assert table == build_dp_table(mask_of(rest), k, p)
        r = rng.randrange(p)
        assert table.count(k, r) == naive_dp_count(rest, k, p, r)


def test_dp_table_cell_without_matches_the_divided_table():
    rng = random.Random(34)
    seen = Counter()
    for _ in range(300):
        elems = rng.sample(range(1, 40), rng.randint(1, 14))
        el = rng.choice(elems)
        k = rng.randint(0, len(elems) - 1)
        p = rng.choice([1, 2, 3, 4, 6, 7, 9, 10, 13, 31])
        table = build_dp_table(mask_of(elems), k, p)
        divided = table.without(el)
        for size in range(k + 1):
            for r in range(-p, 2 * p):
                assert table.count_without(el, size, r) == divided.count(size, r)
        seen["p=1"] += p == 1
        seen["el>=p"] += el >= p
    assert seen["p=1"] and seen["el>=p"]
    table = build_dp_table(mask_of([2, 5, 6]), 2, 5)
    assert table.count_without(5, 0, 0) == 1 and table.count_without(5, 0, 3) == 0
    assert table.count_without(6, 2, 7) == 1 and table.count_without(6, 2, 3) == 0  # {2, 5}


@pytest.mark.parametrize("ground, k, el", [([1, 2, 3], 3, 2), ([1, 2, 3], 1, 4), ([1, 2], 1, 0)])
def test_dp_table_cell_without_refuses_what_without_refuses(ground, k, el):
    table = build_dp_table(mask_of(ground), k, 5)
    with pytest.raises(ValueError) as divided:
        table.without(el)
    with pytest.raises(ValueError) as cell:
        table.count_without(el, 0, 0)
    assert str(cell.value) == str(divided.value)


def _honest_record():
    coloring = Coloring.structured(4, blue_layers={1})
    return embed_with_permutation(coloring, 2, 2, Permutation.identity(2, 2)), coloring


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: build_dp_table(mask_of([1, 2]), 3, 5), "size cap exceeds the number of allowed elements"),
        (
            lambda: certify_red_singleton_bound(low_block_q9(), 5, 3),
            "coloring ground 9 != n + m = 8",
        ),
        (
            lambda: verify_embedding(_honest_record()[0], Coloring.structured(5)),
            "record and coloring dimensions do not match",
        ),
    ],
)
def test_verifier_arguments_are_refused(check, message):
    with pytest.raises(ValueError) as caught:
        check()
    assert str(caught.value) == message


def test_embedding_tables_of_another_size_are_rejected():
    rec, coloring = _honest_record()
    assert verify_embedding(rec, coloring).ok
    for field in ("images", "levels", "chains"):
        short = replace(rec, **{field: getattr(rec, field)[:-1]})
        assert verify_embedding(short, coloring) == CheckResult(
            False, None, "table sizes do not match 2^n"
        )


def test_dp_table_rejects_bad_parameters():
    with pytest.raises(ValueError, match="size cap exceeds"):
        build_dp_table(mask_of([1, 2, 3]), 3, 5).without(2)
    with pytest.raises(ValueError, match="not in"):
        build_dp_table(mask_of([1, 2, 3]), 1, 5).without(4)
    for k, p in ((1, 0), (-1, 5)):
        with pytest.raises(ValueError):
            build_dp_table(mask_of([1, 2, 3]), k, p)
    for args in ((10, 2, 3, 0, 5), (10, 2, -1, 11, 5), (10, 11, 0, 11, 5), (10, -1, 3, 11, 5)):
        with pytest.raises(ValueError):
            check_code_statement(*args)


def test_code_statement_refuses_runs_past_its_table_work():
    # C(N, m)(k+1)p table steps: p = 29 is the least modulus past the limit
    # at (34, 4, 14), refused before any table is built
    assert comb(34, 4) * 15 * 28 <= CODE_STATEMENT_WORK < comb(34, 4) * 15 * 29
    with pytest.raises(ValueError, match="table steps"):
        check_code_statement(34, 4, 14, 29, 1)


def test_code_statement_matches_per_set_tables():
    rng = random.Random(5)
    verdicts = Counter()
    for ground in range(1, 15):
        for m in range(min(3, ground) + 1):
            p = rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 11, 13])
            for k in range(ground - m + 1):
                for d in range(p):
                    res = check_code_statement(ground, m, k, p, d)
                    assert res == naive_check_code_statement(ground, m, k, p, d)
                    verdicts[res.ok] += 1
    assert verdicts[True] and verdicts[False]


def test_code_statement_matches_per_set_division():
    # the stack of shared top-part tables against dividing every Y anew
    rng = random.Random(14)
    verdicts = Counter()
    for _ in range(100):
        m = rng.randint(2, 4)
        ground = rng.randint(m + 1, 16)
        k = rng.randint(0, ground - m)
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23])
        d = rng.randint(1, p)
        res = check_code_statement(ground, m, k, p, d)
        assert res == naive_check_code_statement_divided(ground, m, k, p, d)
        verdicts[res.ok] += 1
    assert verdicts[True] and verdicts[False]


def test_code_statement_matches_the_stacked_tables():
    # the least element divided out cell by cell against a table per element
    rng = random.Random(34)
    seen = Counter()
    for _ in range(2000):
        m = rng.randint(0, 4)
        ground = rng.randint(max(m, 1), 14)
        k = rng.randint(0, ground - m)
        p = rng.randint(1, 30)
        d = rng.randint(-10, 40)
        res = check_code_statement(ground, m, k, p, d)
        assert res == naive_check_code_statement_stacked(ground, m, k, p, d)
        seen[res.ok] += 1
        seen[f"m={m}"] += 1
        seen["p=1"] += p == 1
        seen["composite p"] += any(p % q == 0 for q in range(2, p))
        seen["d outside [0, p)"] += not 0 <= d < p
    assert seen[True] and seen[False]
    assert all(seen[f"m={m}"] for m in range(5))
    assert seen["p=1"] and seen["composite p"] and seen["d outside [0, p)"]
    headline = (36, 2, 17, 37, 37)
    assert check_code_statement(*headline) == naive_check_code_statement_stacked(*headline)


def test_code_statement_divides_one_table_per_top_element(monkeypatch):
    # C(36, 2) = 630 sets Y share 35 top parts {2}, ..., {36}; a table per
    # element of each Y took 665 divisions
    calls = Counter()
    without = DpTable.without

    def counted(table, el):
        calls[el] += 1
        return without(table, el)

    monkeypatch.setattr(DpTable, "without", counted)
    assert check_code_statement(36, 2, 17, 37, 37).ok
    assert calls == Counter(range(2, 37))


def test_code_statement_tiny_pair():
    # the (avoid={2,3,4,5}, y=2) cell: 1-subsets of {1} with sum = 1 mod 5
    assert dp_count(mask_of([1]), 1, 5, 1) == 1
    res = check_code_statement(5, 4, 1, 5, 3)
    assert res.pairs_checked >= 1
    assert not res.hypotheses_ok  # exploratory parameters, still evaluated


def test_code_statement_headline_instance():
    res = check_code_statement(36, 2, 17, 37, 37)
    assert res.ok
    assert res.pairs_checked == comb(36, 2) * 2 == 1260
    assert res.hypotheses_ok


def test_code_statement_finds_gaps():
    # weight-2 code over a tiny ground set cannot cover everything
    res = check_code_statement(5, 1, 1, 5, 3)
    assert not res.ok
    assert res.witness is not None


def test_conditions_full_layer_oversubscribed():
    fam = sorted_family(list(layer(7, 3)), 7, 3)
    res = check_conditions(fam)
    assert not res.ok
    kinds = {v[0] for v in res.violations}
    assert kinds == {"oversubscribed"}


def test_conditions_empty_family_undersupplied():
    fam = WeightedFamily(6, 3, members=())
    res = check_conditions(fam)
    assert not res.ok
    assert all(v[0] == "undersupplied" for v in res.violations)
    assert len(res.violations) == comb(6, 2)


def test_conditions_two_fold_cover_ok():
    fam = sorted_family([mask_of(t) for t in two_fold_triples_7()], 7, 3)
    assert check_conditions(fam).ok


def test_certify_pair_code_coloring():
    c = induced_q2_coloring(18)
    assert certify_blue_free(c, 2).ok
    with pytest.raises(ValueError):
        certify_blue_free(c, 3)


def test_certify_rejects_dense():
    with pytest.raises(UnknownShape):
        certify_blue_free(Coloring.dense(3, [0]), 2)


def test_certify_spread_shape_agrees_with_oracle_small():
    # small same-shape colorings, valid and distance-violating variants
    ground, k = 9, 3
    good = modp_code(9, 3, 5, 11)
    col = Coloring.structured(ground, blue_layers={k, k + 3}, blue_code=good)
    res = certify_blue_free(col, 2)
    assert res.ok
    blue = col.blue_family()
    assert find_copy(blue, 2, CopyKind.WEAK) is None

    bad_members = [mask_of([1, 2, 3, 4]), mask_of([1, 2, 3, 5])]
    col_bad = Coloring.structured(ground, blue_layers={k, k + 3}, blue_extra=bad_members)
    res = certify_blue_free(col_bad, 2)
    assert not res.ok
    # for the two-middle shape a distance violation is a genuine copy
    assert find_copy(col_bad.blue_family(), 2, CopyKind.WEAK) is not None
    assert find_copy(col_bad.blue_family(), 2, CopyKind.INDUCED) is not None


def test_certify_spread_random_extras_sound():
    rng = random.Random(8)
    ground, k = 10, 3
    for _ in range(30):
        members = {
            m for m in layer(ground, k + 1) if rng.random() < 0.05
        }
        if not members:
            continue
        col = Coloring.structured(
            ground, blue_layers={k, k + 3}, blue_extra=members
        )
        res = certify_blue_free(col, 2)
        found = find_copy(col.blue_family(), 2, CopyKind.WEAK) is not None
        assert res.ok == (not found)


def test_certify_low_block_agrees_with_oracle():
    fam7 = sorted_family([mask_of(t) for t in two_fold_triples_7()], 7, 3)
    col = probabilistic_coloring(4, 3, fam7)
    assert certify_blue_free(col, 3).ok
    assert find_copy(col.blue_family(), 3, CopyKind.WEAK) is None

    # inject a third triple into one 4-set: both paths must flip
    spoiled = set(fam7.members) | {mask_of([1, 2, 3])}
    col_bad = Coloring.structured(7, blue_layers={0, 1, 4}, blue_extra=spoiled)
    res = certify_blue_free(col_bad, 3)
    assert not res.ok
    assert find_copy(col_bad.blue_family(), 3, CopyKind.WEAK) is not None


def test_certify_red_singleton_bound_toy():
    fam8 = sorted_family([mask_of(t) for t in two_fold_triples_8()], 8, 3)
    col = probabilistic_coloring(5, 3, fam8)
    assert certify_red_singleton_bound(col, 5, 3).ok
    # removing the star of one pair breaks it
    pair = mask_of([1, 2])
    pruned = [f for f in fam8.members if not (f & pair) == pair]
    col_bad = Coloring.structured(8, blue_layers={0, 1, 4}, blue_extra=pruned)
    res = certify_red_singleton_bound(col_bad, 5, 3)
    assert not res.ok and res.witness == (pair,)


def test_conditions_match_brute_force_scan():
    rng = random.Random(77)
    both = 0
    for _ in range(60):
        m = rng.choice((3, 4))
        ground = rng.randint(m + 2, 9)
        density = rng.uniform(0.1, 0.7)
        members = [f for f in layer(ground, m) if rng.random() < density]
        fam = sorted_family(members, ground, m)
        got = check_conditions(fam).violations
        assert got == naive_check_conditions(fam)
        both += {v[0] for v in got} == {"undersupplied", "oversubscribed"}
    assert both >= 20


def test_conditions_match_brute_force_scan_at_the_edges():
    # weight 1 has the one (m-1)-set {}, ground m has no (m+1)-set, and the
    # empty family and the full layer are the extreme densities
    rng = random.Random(2025)
    for m in range(1, 6):
        for ground in range(m, 13):
            for density in (0.0, 1.0, rng.uniform(0.05, 0.95)):
                members = [f for f in layer(ground, m) if rng.random() < density]
                fam = sorted_family(members, ground, m)
                assert check_conditions(fam).violations == naive_check_conditions(fam)


def test_low_block_certifiers_match_color_lookups():
    rng = random.Random(91)
    colorings = []
    for _ in range(80):
        m = rng.choice((3, 4))
        n = rng.randint(m, 7)
        density = rng.uniform(0.05, 0.6)
        extras = [f for f in layer(n + m, m) if rng.random() < density]
        if extras:
            colorings.append((n, m, sorted_family(extras, n + m, m)))
    for n, p in ((8, 0.3), (12, 0.2)):
        colorings.append((n, 5, lll_family(LllConfig(n, 5, p_inclusion=p, seed=3))))
    verdicts = Counter()
    for n, m, fam in colorings:
        col = Coloring.structured(
            n + m, blue_layers=set(range(m - 1)) | {m + 1}, blue_extra=fam.members
        )
        blue = certify_blue_free(col, m)
        red = certify_red_singleton_bound(col, n, m)
        assert blue == naive_low_block_blue_free(col, m)
        assert red == naive_certify_red_singleton_bound(col, n, m)
        verdicts[blue.ok, red.ok] += 1
    assert len(verdicts) == 4, verdicts


def test_low_block_certifiers_read_a_blue_code():
    # a weight-3 code mod 2 puts three of its members under some 4-set, so
    # the blue side holds a Q_3; the code's sets are the partial layer
    col = Coloring.structured(
        7, blue_layers={0, 1, 4}, blue_code=WeightedFamily(7, 3, modp_p=2, modp_d=1)
    )
    res = certify_blue_free(col, 3)
    assert not res.ok
    assert find_copy(col.blue_family(), 3, CopyKind.WEAK) is not None
    red = certify_red_singleton_bound(col, 4, 3)
    assert red == naive_certify_red_singleton_bound(col, 4, 3)


def test_certifiers_share_the_family_counts_and_leave_them_unchanged():
    # the family caches its violated events, (set, count) pairs decided once;
    # a sparse family leaves (m-1)-sets without supersets, counted as 0
    rng = random.Random(3)
    extras = [f for f in layer(9, 3) if rng.random() < 0.1]
    col = Coloring.structured(9, blue_layers={0, 1, 4}, blue_extra=extras)
    fam = col.partial_layer
    assert col.partial_layer is fam
    cached = fam.violations
    before = repr(cached)
    under, over = cached
    assert under and not over and min(cnt for _, cnt in under) == 0
    conditions = check_conditions(fam)
    assert not conditions.ok and conditions.violations[0][2] == 0
    blue = certify_blue_free(col, 3)
    red = certify_red_singleton_bound(col, 6, 3)
    assert blue.ok and red.witness == (min(under)[0],)
    assert fam.violations is cached and repr(cached) == before


def test_red_bound_cross_checked_by_oracle_weak_q4():
    fam7 = sorted_family([mask_of(t) for t in two_fold_triples_7()], 7, 3)
    col = probabilistic_coloring(4, 3, fam7)
    assert certify_red_singleton_bound(col, 4, 3).ok
    red = [s for s in range(1 << 7) if not col.is_blue(s)]
    assert find_copy(red, 4, CopyKind.WEAK) is None


def test_lll_report_closed_forms():
    n, m, p = 8, 3, 0.2
    rep = lll_inequality_report(n, m, p)
    assert rep.p_as == pytest.approx(
        (n + 1) * (1 - p) ** n * p + (1 - p) ** (n + 1), rel=1e-12
    )
    assert rep.p_bt == pytest.approx(
        (m + 1) * p**m * (1 - p) + p ** (m + 1), rel=1e-12
    )
    y, z = rep.x_y, rep.x_z
    assert y == pytest.approx(1 / (4 * (m - 1) * (n + 1)), rel=1e-12)
    assert z == pytest.approx(1 / (4 * (n - 1) * (n + 1)), rel=1e-12)
    assert rep.deps_as == ((m - 1) * (n + 1), (n + 1) * n // 2)
    assert rep.deps_bt == ((m + 1) * m // 2, (n - 1) * (m + 1))
    assert rep.rhs_as == pytest.approx(
        y * (1 - z) ** rep.deps_as[1] * (1 - y) ** rep.deps_as[0], rel=1e-12
    )
    assert rep.rhs_bt == pytest.approx(
        z * (1 - y) ** rep.deps_bt[0] * (1 - z) ** rep.deps_bt[1], rel=1e-12
    )


def test_lll_report_default_density_formula():
    n, m = 10, 4
    rep = lll_inequality_report(n, m)
    assert rep.p_inclusion == pytest.approx(
        (4 * (m + 1) * (n * n - 1) * e) ** (-1 / m), rel=1e-12
    )


def test_lll_report_large_n_computes():
    rep = lll_inequality_report(10**6, 3)
    assert isinstance(rep.satisfied_as, bool)
    assert isinstance(rep.satisfied_bt, bool)
    # the oversubscription side is comfortably satisfied at the default density
    assert rep.satisfied_bt


def test_lll_report_matches_exact_rationals():
    rng = random.Random(11)
    verdicts = Counter()
    for _ in range(150):
        n, m = rng.randint(2, 60), rng.randint(2, 6)
        p_incl = rng.choice([rng.random(), 10 ** -rng.uniform(1, 4)])
        rep = lll_inequality_report(n, m, p_incl)
        p_as, p_bt, sat_as, sat_bt = naive_lll_sides(n, m, p_incl)
        assert (rep.p_as, rep.p_bt) == (float(p_as), float(p_bt))
        assert (rep.satisfied_as, rep.satisfied_bt) == (sat_as, sat_bt)
        verdicts[sat_as, sat_bt] += 1
    # both verdicts occur on each side, so the comparison has teeth
    assert {a for a, _ in verdicts} == {b for _, b in verdicts} == {True, False}


def test_lll_report_monte_carlo_agreement():
    rng = np.random.default_rng(12345)
    trials = 100_000
    for n, m in ((8, 3), (6, 4)):
        rep = lll_inequality_report(n, m, 0.25)
        draws_a = rng.binomial(n + 1, 0.25, size=trials)
        est_a = float(np.mean(draws_a <= 1))
        sigma_a = (rep.p_as * (1 - rep.p_as) / trials) ** 0.5
        assert abs(est_a - rep.p_as) <= 3 * sigma_a
        draws_b = rng.binomial(m + 1, 0.25, size=trials)
        est_b = float(np.mean(draws_b >= m))
        sigma_b = (rep.p_bt * (1 - rep.p_bt) / trials) ** 0.5
        assert abs(est_b - rep.p_bt) <= 3 * sigma_b


def test_lll_report_domain():
    with pytest.raises(ValueError):
        lll_inequality_report(10, 1)


def _embed_sample():
    coloring = Coloring.dense(4, [0, 3, 9, 12])
    rec = embed_with_permutation(coloring, 2, 2, Permutation(2, 2, (4, 3)))
    return coloring, rec


def test_verify_embedding_ok_and_forgeries():
    coloring, rec = _embed_sample()
    assert verify_embedding(rec, coloring).ok

    # image no longer extends its pattern set
    images = list(rec.images)
    for a, img in enumerate(images):
        if a and img is not None:
            images[a] = img & ~a
            break
    forged = type(rec)(rec.n, rec.k, rec.perm, tuple(images), rec.levels, rec.chains)
    assert not verify_embedding(forged, coloring).ok

    # a blue image must be caught by the red-membership check
    blue_set = next(s for s in range(16) if coloring.is_blue(s))
    images = list(rec.images)
    levels = list(rec.levels)
    target = blue_set & 3
    images[target] = blue_set
    levels[target] = (blue_set & ~3).bit_count()
    forged = type(rec)(
        rec.n, rec.k, rec.perm, tuple(images), tuple(levels), rec.chains
    )
    assert not verify_embedding(forged, coloring).ok


def test_verify_embedding_catches_level_tampering():
    coloring, rec = _embed_sample()
    levels = list(rec.levels)
    levels[-1] = 0 if levels[-1] else 1
    forged = type(rec)(
        rec.n, rec.k, rec.perm, rec.images, tuple(levels), rec.chains
    )
    assert not verify_embedding(forged, coloring).ok


def test_verify_embedding_refuses_a_permutation_of_other_dimensions():
    coloring, rec = _embed_sample()
    assert verify_embedding(rec, coloring).ok
    rewrapped = EmbedRecord(2, 2, Permutation(1, 3, (2, 3, 4)), rec.images, rec.levels, rec.chains)
    assert verify_embedding(rewrapped, coloring) == CheckResult(
        False, None, "permutation dimensions do not match (n, k)"
    )


def _tampered_records(rec, coloring, rng):
    """The honest record, then level-, image- and chain-tampered copies."""
    n, k = rec.n, rec.k
    prefixes = [rec.perm.prefix_mask(i) for i in range(k + 1)]
    a = rng.randrange(1 << n)
    out = [rec]

    levels = list(rec.levels)
    levels[a] = rng.randrange(k + 2)
    out.append(replace(rec, levels=tuple(levels)))

    # a new red level with a matching image passes the image checks and
    # reaches the monotonicity check
    red = [i for i in range(k + 1) if not coloring.is_blue(a | prefixes[i])]
    if red:
        levels, images = list(rec.levels), list(rec.images)
        levels[a] = rng.choice(red)
        images[a] = a | prefixes[levels[a]]
        out.append(replace(rec, images=tuple(images), levels=tuple(levels)))

    images = list(rec.images)
    images[a] = rng.choice((None, rng.randrange(1 << (n + k))))
    out.append(replace(rec, images=tuple(images)))

    chains = list(rec.chains)
    chains[a] = rec.chains[rng.randrange(1 << n)]
    out.append(replace(rec, chains=tuple(chains)))
    return out


def test_verify_embedding_matches_all_pairs_oracle():
    rng = random.Random(4242)
    details = set()
    for trial in range(150):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        density = rng.choice((0.05, 0.2, rng.random()))
        coloring = Coloring.dense(
            n + k, [s for s in range(1 << (n + k)) if rng.random() < density]
        )
        image = list(range(n + 1, n + k + 1))
        rng.shuffle(image)
        rec = embed_with_permutation(coloring, n, k, Permutation(n, k, tuple(image)))
        for forged in _tampered_records(rec, coloring, rng):
            got = verify_embedding(forged, coloring)
            assert got == naive_verify_embedding(forged, coloring)
            details.add(got.detail)
    assert "all embedding properties verified" in details
    assert "level not monotone under inclusion" in details


def _verdict(check, rec, coloring):
    """check's CheckResult, or the text of the ValueError it raised."""
    try:
        return check(rec, coloring)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 6),
    k=st.integers(0, 4),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]) | st.floats(0, 1),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_verify_embedding_matches_naive_on_tampered_records(n, k, density, seed, data):
    rng = random.Random(seed)
    coloring = Coloring.dense(n + k, [s for s in range(1 << (n + k)) if rng.random() < density])
    image = tuple(data.draw(st.permutations(range(n + 1, n + k + 1))))
    rec = embed_with_permutation(coloring, n, k, Permutation(n, k, image))
    records = _tampered_records(rec, coloring, rng)
    # The last set of a chain gains one element: a base element keeps it on
    # its level's range, a top element moves it off (read on its own), and
    # element n + k + 1 takes it out of the cube (a ValueError from both).
    a = data.draw(st.integers(0, (1 << n) - 1))
    chain = rec.chains[a]
    bit = 1 << data.draw(st.integers(0, n + k))
    if len(chain) and not chain[-1] & bit:
        chains = list(rec.chains)
        chains[a] = Chain(chain.sets[:-1] + (chain[-1] | bit,))
        records.append(replace(rec, chains=tuple(chains)))
    for forged in records:
        want = _verdict(naive_verify_embedding, forged, coloring)
        assert _verdict(verify_embedding, forged, coloring) == want


def _same_verdicts(records, coloring, naive=True):
    """verify_embedding agrees with the subset-by-subset scan, and with the
    all-pairs oracle when naive, on every record; returns the details."""
    details = []
    for rec in records:
        got = _verdict(verify_embedding, rec, coloring)
        assert got == _verdict(scan_verify_embedding, rec, coloring)
        if naive:
            assert got == _verdict(naive_verify_embedding, rec, coloring)
        details.append(got if isinstance(got, str) else got.detail)
    return details


def _seeded_record(rng, n, k, density):
    coloring = Coloring.dense(n + k, [s for s in range(1 << (n + k)) if rng.random() < density])
    image = tuple(rng.sample(range(n + 1, n + k + 1), k))
    return coloring, embed_with_permutation(coloring, n, k, Permutation(n, k, image))


def test_verify_embedding_matches_the_scan_on_decoded_records():
    # a decoded record holds one Chain object per subset, none shared
    rng = random.Random(29)
    details = Counter()
    for trial in range(60):
        n, k = rng.randint(0, 9), rng.randint(0, 4)
        coloring, rec = _seeded_record(rng, n, k, rng.choice((0.01, 0.05, 0.3)))
        decoded = EmbedRecord.from_obj(written(rec.to_obj()))
        assert len({id(c) for c in decoded.chains}) == 1 << n
        records = [decoded] + _tampered_records(decoded, coloring, rng)
        details.update(_same_verdicts(records, coloring, naive=n <= 6))
    assert details["all embedding properties verified"] and len(details) >= 5


def test_verify_embedding_with_a_chain_shared_across_levels():
    # one Chain object at subsets of different levels: right for some, wrong
    # for the others, so the least subset it is wrong for must be found
    rng = random.Random(7)
    seen = set()
    for trial in range(80):
        n, k = rng.randint(2, 7), rng.randint(1, 4)
        coloring, rec = _seeded_record(rng, n, k, rng.choice((0.05, 0.2)))
        a, b = rng.sample(range(1 << n), 2)
        chains = list(rec.chains)
        chains[b] = chains[a]
        moved = replace(rec, chains=tuple(chains))
        # the chain of a, with its last set grown, at every subset holding it
        old = rec.chains[a]
        grown = [moved]
        if len(old):
            new = Chain(old.sets[:-1] + (old[-1] | 1 << rng.randrange(n + k),))
            if new != old:
                grown.append(replace(rec, chains=tuple(new if c is old else c for c in rec.chains)))
        details = _same_verdicts(grown, coloring)
        seen.add(details[0])
    assert {"all embedding properties verified", "chain length differs from level"} <= seen


@pytest.mark.parametrize("level", [-1, -256, 5, 6, 255, 256, 10**9])
def test_verify_embedding_levels_outside_the_byte_range(level):
    # k = 3, so 5 and up are past the failure level 4, and -1 or 256 and up
    # fit no byte; an earlier failure still comes first
    rng = random.Random(level % 1000)
    for trial in range(20):
        coloring, rec = _seeded_record(rng, rng.randint(1, 6), 3, 0.1)
        a = rng.randrange(1 << rec.n)
        levels = list(rec.levels)
        levels[a] = level
        forged = replace(rec, levels=tuple(levels))
        images = list(rec.images)
        images[0] = None if images[0] is not None else 0
        earlier = replace(forged, images=tuple(images))
        details = _same_verdicts([forged, earlier], coloring)
        assert details[0] == "level out of range"
        if a:
            assert details[1] != "level out of range"


def test_verify_embedding_reports_the_least_of_several_faults():
    # a red-image fault at one subset and an image-form fault at another:
    # whichever subset is less is reported, whatever its kind
    rng = random.Random(11)
    kinds = Counter()
    for trial in range(200):
        n, k = rng.randint(2, 7), rng.randint(1, 4)
        coloring, rec = _seeded_record(rng, n, k, 0.3)
        prefixes = rec.perm.prefixes
        cells = [(a, t) for a in range(1 << n) for t in range(k + 1)]
        blue = [(a, t) for a, t in cells if coloring.is_blue(a | prefixes[t])]
        if not blue:
            continue
        red_at, t = rng.choice(blue)
        form_at = rng.choice([a for a in range(1 << n) if a != red_at])
        levels, images = list(rec.levels), list(rec.images)
        levels[red_at], images[red_at] = t, red_at | prefixes[t]
        levels[form_at] = lvl = rng.randrange(k + 1)
        images[form_at] = (form_at | prefixes[lvl]) ^ 1 << rng.randrange(n + k)
        forged = replace(rec, levels=tuple(levels), images=tuple(images))
        got = _same_verdicts([forged], coloring)[0]
        least = min(red_at, form_at)
        assert verify_embedding(forged, coloring).witness == (least,)
        want = "image is not red" if least == red_at else "image is not A + permuted prefix"
        assert got == want
        kinds[got] += 1
    assert len(kinds) == 2
