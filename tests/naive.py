"""Independent brute-force oracles used only by the test suite.

These deliberately share no machinery with the package: copies are found by
enumerating injections (or by direct pair logic for the tiny patterns), and
counts are taken by materializing subsets.  Agreement between these and the
package's searchers is what the equivalence tests assert.  Four references
are the package's own former code instead: loop_embed, the embedding loop
that a faster embedder must match record for record, scan_verify_embedding,
the subset-by-subset re-check that the whole-cube one must match verdict for
verdict, naive_check_code_statement_stacked, the code-statement loop that
divides every element of Y out of a stack of whole tables, and the pairwise
oracle at the end, the searcher that a faster one must match witness for
witness.
forward_checking_find_copy adds the copy search's present pruning to that
oracle, as the reference for its node counts.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, lgamma
from typing import Optional

from latticeramsey.constructions import (
    GreedyStuck,
    PairCode,
    ResampleBudgetExceeded,
    layered_coloring,
    size_window,
)
from latticeramsey.embedder import EMPTY_CHAIN, EmbedRecord
from latticeramsey.lattice import (
    Chain,
    Coloring,
    Permutation,
    SetWord,
    check_enumerable,
    elements_of,
    full_mask,
    is_proper_subset,
    is_subset,
    layer,
    sorted_family,
    subsets_by_rank,
)
from latticeramsey.oracle import (
    DEFAULT_NODE_BUDGET,
    CopyKind,
    CopyWitness,
    SearchExhausted,
    coloring_is_ramsey,
)
from latticeramsey.verifier import (
    CODE_STATEMENT_WORK,
    CheckResult,
    CodeStatementResult,
    build_dp_table,
)


def _pattern_pairs(m):
    """All ordered pattern pairs (q, r) of Q_m with q proper subset of r."""
    out = []
    for q in range(1 << m):
        for r in range(1 << m):
            if q != r and q & ~r == 0:
                out.append((q, r))
    return out


def naive_find_copy(family, m, induced):
    """Exhaustive injection enumeration; returns an images tuple or None."""
    fam = sorted(set(family))
    size = 1 << m
    if len(fam) < size:
        return None
    subset_pairs = _pattern_pairs(m)
    for images in permutations(fam, size):
        ok = True
        for q, r in subset_pairs:
            if not is_proper_subset(images[q], images[r]):
                ok = False
                break
        if ok and induced:
            for q in range(size):
                for r in range(size):
                    if q != r and q & ~r and r & ~q:
                        if is_subset(images[q], images[r]):
                            ok = False
                            break
                if not ok:
                    break
        if ok:
            return images
    return None


def pair_logic_has_copy(family, m, induced):
    """Independent detector for m <= 2 via comparability bitmasks.

    A copy of Q_1 is a comparable distinct pair; a copy of Q_2 is a pair of
    distinct sets (incomparable ones, in the induced case) with a common
    strict lower bound and a common strict upper bound in the family.
    """
    fam = sorted(set(family))
    nf = len(fam)
    if m == 0:
        return nf >= 1
    below = [0] * nf
    above = [0] * nf
    for i in range(nf):
        for j in range(nf):
            if i != j and fam[j] & ~fam[i] == 0:
                below[i] |= 1 << j
                above[j] |= 1 << i
    if m == 1:
        return any(b for b in below)
    if m != 2:
        raise ValueError("pair logic covers m <= 2 only")
    for i in range(nf):
        for j in range(i + 1, nf):
            if induced and (below[i] >> j & 1 or below[j] >> i & 1):
                continue
            if below[i] & below[j] and above[i] & above[j]:
                return True
    return False


def naive_dp_count(elements, k, p, r):
    """Count k-subsets of the element list with sum congruent to r mod p."""
    return sum(1 for c in combinations(elements, k) if sum(c) % p == r % p)


def naive_check_code_statement(ground, m, k, p, d):
    """check_code_statement with a freshly built residue table per avoided Y.

    The package's original loop: every m-set Y in colex order gets the table
    of [ground] - Y, which is then asked about each y in Y.
    """
    n = ground - m
    window = 8 * ground - 15
    hypotheses_ok = (
        n >= 1
        and k * k >= window
        and k <= n
        and (n - k) * (n - k) >= window
    )
    pairs = 0
    univ = full_mask(ground)
    for avoid in layer(ground, m):
        table = build_dp_table(univ & ~avoid, k, p)
        for y in elements_of(avoid):
            pairs += 1
            if table.count(k, (d - y) % p) < 1:
                return CodeStatementResult(False, (avoid, y), pairs, hypotheses_ok)
    return CodeStatementResult(True, None, pairs, hypotheses_ok)


def naive_check_code_statement_divided(ground, m, k, p, d):
    """check_code_statement dividing every Y out of the full-ground table anew.

    The package's loop before it kept the tables of shared top parts: each
    m-set Y, in colex order, divides its elements out of the full table,
    smallest first.
    """
    n = ground - m
    window = 8 * ground - 15
    hypotheses_ok = (
        n >= 1
        and k * k >= window
        and k <= n
        and (n - k) * (n - k) >= window
    )
    pairs = 0
    full = build_dp_table(full_mask(ground), k, p)
    for avoid in layer(ground, m):
        table = full
        for y in elements_of(avoid):
            table = table.without(y)
        for y in elements_of(avoid):
            pairs += 1
            if table.count(k, (d - y) % p) < 1:
                return CodeStatementResult(False, (avoid, y), pairs, hypotheses_ok)
    return CodeStatementResult(True, None, pairs, hypotheses_ok)


def naive_check_code_statement_stacked(
    ground: int, m: int, k: int, p: int, d: int
) -> CodeStatementResult:
    """check_code_statement keeping a whole table per element of Y.

    The package's loop before the least element of Y was divided out cell by
    cell: every element of each Y, largest first, is divided out of a stack of
    shared top-part tables with DpTable.without, one new table per avoided set.
    """
    k_min, k_max = size_window(ground, m)
    hypotheses_ok = ground > m and k_min <= k <= k_max
    check_enumerable(ground, m)
    if 0 <= m <= ground and comb(ground, m) * (k + 1) * p > CODE_STATEMENT_WORK:
        raise ValueError(f"C({ground},{m})(k+1)p table steps exceed {CODE_STATEMENT_WORK:.0e}")
    pairs = 0
    tops: list[int] = []  # the previous Y's elements, largest first
    tables = [build_dp_table(full_mask(ground), k, p)]  # tables[j]: tops[:j] out
    for avoid in layer(ground, m):
        down = elements_of(avoid)[::-1]
        shared = 0
        while shared < len(tops) and tops[shared] == down[shared]:
            shared += 1
        del tables[shared + 1:]
        for y in down[shared:]:
            tables.append(tables[-1].without(y))
        tops, table = down, tables[-1]
        for y in reversed(down):
            pairs += 1
            if table.count(k, (d - y) % p) < 1:
                return CodeStatementResult(False, (avoid, y), pairs, hypotheses_ok)
    return CodeStatementResult(True, None, pairs, hypotheses_ok)


def naive_greedy_pair_code(n):
    """The package's original greedy_pair_code: every ordered pair rescans the
    colex k-subsets of its allowed elements from the start, rebuilding each
    candidate bit by bit."""
    if n < 2:
        raise ValueError("n must be >= 2")
    k = n // 2
    ground = n + 2
    candidates = comb(n, k)
    max_blocked = ((n + 2) * (n + 1) - 1) * (1 + k * (n - k))

    blocked = set()
    assignments = []
    ground_bits = full_mask(ground)

    for y in range(1, ground + 1):
        ybit = 1 << (y - 1)
        for z in range(1, ground + 1):
            if z == y:
                continue
            allowed = [x for x in range(1, ground + 1) if x != y and x != z]
            chosen = None
            # colex over k-subsets of the allowed elements = colex over C
            for idx_mask in layer(n, k):
                cand = ybit
                rest = idx_mask
                while rest:
                    low = rest & -rest
                    cand |= 1 << (allowed[low.bit_length() - 1] - 1)
                    rest ^= low
                if cand not in blocked:
                    chosen = cand
                    break
            if chosen is None:
                raise GreedyStuck((y, z))
            assignments.append((y, z, chosen))
            blocked.add(chosen)
            inside = elements_of(chosen)
            outside = elements_of(ground_bits & ~chosen)
            for x in inside:
                for w in outside:
                    blocked.add((chosen & ~(1 << (x - 1))) | (1 << (w - 1)))

    return PairCode(n, k, tuple(assignments), candidates, max_blocked)


def naive_minimal_k(n):
    """The package's original minimal_k: a float scan to near the crossing,
    a back-up of two steps, then exact big-integer comparisons going forward."""
    k = 1
    while lgamma(k + 1) / 0.6931471805599453 - 2 * (n + k) <= -1.0:
        k += 1
    k = max(1, k - 2)
    f = factorial(k)
    while True:
        e = 2 * (n + k)
        bl = f.bit_length()
        if bl > e + 1 or (bl == e + 1 and f != 1 << e):
            return k
        k += 1
        f *= k


def naive_lll_sides(n, m, p_incl):
    """Exact rational P_AS, P_BT and both satisfaction verdicts at density
    p_incl, with the default event weights 1/(4(m-1)(n+1)) and
    1/(4(n-1)(n+1)) and the dependency counts of lll_inequality_report."""
    p = Fraction(p_incl)
    q = 1 - p
    y = Fraction(1, 4 * (m - 1) * (n + 1))
    z = Fraction(1, 4 * (n - 1) * (n + 1))
    p_as = (n + 1) * q**n * p + q ** (n + 1)
    p_bt = (m + 1) * p**m * q + p ** (m + 1)
    rhs_as = y * (1 - z) ** ((n + 1) * n // 2) * (1 - y) ** ((m - 1) * (n + 1))
    rhs_bt = z * (1 - y) ** ((m + 1) * m // 2) * (1 - z) ** ((n - 1) * (m + 1))
    return p_as, p_bt, p_as <= rhs_as, p_bt <= rhs_bt


def _colex_key(sets):
    return tuple(sorted(sets, reverse=True))


def naive_embed(is_blue, n, k, perm_image):
    """Straight-from-the-definition re-run of the embedding recursion.

    Works on frozensets of 1-based elements; is_blue takes a frozenset.
    Returns (images, levels, chains) keyed by frozenset, with images None on
    failure and chains as tuples of frozensets.  Tie-breaks (failure
    propagation and chain-prefix donor) take the colex-first proper subset,
    the same rule the production embedder commits to.
    """
    base = list(range(1, n + 1))
    subsets = []
    for r in range(n + 1):
        subsets.extend(
            sorted((frozenset(c) for c in combinations(base, r)), key=_colex_key)
        )
    prefix = [frozenset(perm_image[:i]) for i in range(k + 1)]

    images, levels, chains = {}, {}, {}
    for a in subsets:
        proper = sorted(
            (s for s in subsets if s < a), key=_colex_key
        )
        donor = None
        for s in proper:
            if images[s] is None:
                donor = s
                break
        if donor is not None:
            images[a], levels[a], chains[a] = None, k + 1, chains[donor]
            continue
        beta = max((levels[s] for s in proper), default=0)
        level = k + 1
        for i in range(beta, k + 1):
            if not is_blue(a | prefix[i]):
                level = i
                break
        levels[a] = level
        images[a] = a | prefix[level] if level <= k else None
        head = ()
        if proper and beta > 0:
            head = chains[next(s for s in proper if levels[s] == beta)]
        levels_hit = range(beta, min(level, k + 1))
        chains[a] = head + tuple(a | prefix[i] for i in levels_hit)
    return images, levels, chains


# The package's former embedding loop, one subset at a time, kept verbatim.
def loop_embed(
    coloring: Coloring, n: int, k: int, perm: Permutation, stop_at_failure: bool
) -> EmbedRecord | Chain:
    """The embedding loop: the full record, or with stop_at_failure the
    blocking chain of the first failed subset in rank order.

    Every subset A is read through the table of its immediate subsets only,
    so any order that puts subsets first gives the same tables.  A full run
    takes ascending numeric order, the cheapest to generate.  With
    stop_at_failure the loop takes rank order (cardinality, then colex) and
    returns at the first failure it meets: that subset fails on its own scan,
    since an inherited failure needs an earlier one, and it is the rank-first
    failed subset.  The colors of level i, the sets A | prefix_i, are one
    contiguous range of SetWords, read once with Coloring.blue_range.
    """
    size = 1 << n
    full = size - 1
    prefixes = [perm.prefix_mask(i) for i in range(k + 1)]
    level_blue: list[Optional[int]] = [None] * (k + 1)

    chains: list[Optional[Chain]] = [None] * size
    # best[A] is the max over all submasks s of A, A included, filled from
    # the n immediate subsets A - {x} (every proper submask lies below one).
    # A non-failed s counts as level(s) * 2^n + (2^n - 1 - s), so the max is
    # the highest level, then the least (colex-first) s attaining it.  A
    # failed s counts as (k+1) * 2^n + (2^n - 1 - s), above every non-failed
    # one: once a subset fails every superset fails, from the least failed s.
    # Either way the winner is s = full ^ (best & full), at level best >> n.
    # A's own level is at least that of each subset, so best[A] >> n is the
    # level of A (k+1 on failure): the record's levels and images are read
    # off best after the loop.
    best = [0] * size

    for a in subsets_by_rank(n) if stop_at_failure else range(size):
        top = 0
        rest = a
        while rest:
            low = rest & -rest
            rest ^= low
            v = best[a ^ low]
            if v > top:
                top = v
        beta = top >> n
        if beta > k:  # failure propagates from the least failed proper subset
            best[a] = top
            chains[a] = chains[full ^ (top & full)]
            continue

        level = k + 1
        for i in range(beta, k + 1):
            blue = level_blue[i]
            if blue is None:
                blue = level_blue[i] = coloring.blue_range(prefixes[i], size)
            if not blue >> a & 1:
                level = i
                break
        # The donor is the colex-first proper subset attaining the maximum
        # level.  A subset that adds no blue set shares the donor's Chain.
        donor = chains[full ^ (top & full)] if beta > 0 else EMPTY_CHAIN
        if level == beta:
            chains[a] = donor
        else:
            new_blue = tuple(a | prefixes[i] for i in range(beta, min(level, k + 1)))
            chains[a] = Chain(donor.sets + new_blue)  # type: ignore[union-attr]

        if level <= k:
            own = (level << n) | (full ^ a)
            best[a] = own if own > top else top
        elif stop_at_failure:
            return chains[a]  # type: ignore[return-value]
        else:
            best[a] = ((k + 1) << n) | (full ^ a)

    levels = tuple(b >> n for b in best)
    return EmbedRecord(
        n,
        k,
        perm,
        tuple(None if lv > k else a | prefixes[lv] for a, lv in enumerate(levels)),
        levels,
        tuple(chains),  # type: ignore[arg-type]
    )


def naive_sweep(coloring, n, k, mode, sample_count=0, seed=0):
    """sweep_permutations from the definitions, as the JSON object of its
    report.  Each permutation runs naive_embed in full; a failed one is named
    by the chain of its failed subset first in cardinality-then-colex order,
    and the first permutation with no failed subset ends the sweep."""
    top = list(range(n + 1, n + k + 1))
    if mode == "all":
        images = list(permutations(top))
        desc = "all"
    else:
        rng = random.Random(seed)
        images = []
        for _ in range(sample_count):
            img = tuple(rng.sample(top, k))
            if img not in images:
                images.append(img)
            if len(images) == factorial(k):
                break
        desc = f"sample({sample_count}, seed={seed})"

    def mask(fs):
        return sum(1 << (x - 1) for x in fs)

    def is_blue(fs):
        return coloring.is_blue(mask(fs))

    subsets = [frozenset(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
    by_rank = sorted(subsets, key=lambda a: (len(a), _colex_key(a)))
    by_mask = sorted(subsets, key=mask)

    def chain_obj(chain):
        return {"sets": [sorted(s) for s in chain]}

    base = frozenset(range(1, n + 1))

    def recovers(img, chain):
        """Set i of the chain holds i top elements, the i-th being img[i-1]."""
        tops = [s - base for s in chain]
        return len(chain) == k + 1 and all(
            len(t) == i and (i == 0 or t - tops[i - 1] == {img[i - 1]})
            for i, t in enumerate(tops)
        )

    def report(run, success, failures, collisions, injective):
        recover_ok = all(recovers(img, chain) for img, chain in failures)
        return {
            "n": n,
            "k": k,
            "mode": desc,
            "perms_run": run,
            "success": success,
            "failures": [{"perm": list(img), "chain": chain_obj(c)} for img, c in failures],
            "collisions": [[list(p), list(q)] for p, q in collisions],
            "injective": injective,
            "recover_ok": recover_ok,
        }

    failures = []
    for run, img in enumerate(images, 1):
        imgs, levels, chains = naive_embed(is_blue, n, k, img)
        first = next((a for a in by_rank if imgs[a] is None), None)
        if first is None:
            success = {
                "n": n,
                "k": k,
                "perm": list(img),
                "images": [sorted(imgs[a]) for a in by_mask],
                "levels": [levels[a] for a in by_mask],
                "chains": [chain_obj(chains[a]) for a in by_mask],
            }
            return report(run, success, failures, [], None)
        failures.append((img, chains[first]))
    # each later permutation pairs with the first whose chain has its endpoints
    collisions = []
    for j, (q, cq) in enumerate(failures):
        owner = next((p for p, cp in failures[:j] if (cp[0], cp[-1]) == (cq[0], cq[-1])), None)
        if owner is not None:
            collisions.append((owner, q))
    return report(len(images), None, failures, collisions, not collisions)


def naive_verify_embedding(rec, coloring):
    """The embedding re-check with nothing skipped.

    Runs the checks of verifier.verify_embedding in the same order with the
    same witnesses, but walks every submask for monotonicity and every pair of
    images for strict containment, which the package derives instead.
    """
    n, k = rec.n, rec.k
    size = 1 << n
    if not (len(rec.images) == len(rec.levels) == len(rec.chains) == size):
        return CheckResult(False, None, "table sizes do not match 2^n")
    prefixes = [sum(1 << (v - 1) for v in rec.perm.image[:i]) for i in range(k + 1)]

    for a in range(size):
        lvl, img = rec.levels[a], rec.images[a]
        if not 0 <= lvl <= k + 1:
            return CheckResult(False, (a,), "level out of range")
        if lvl == k + 1:
            if img is not None:
                return CheckResult(False, (a,), "failed level but image assigned")
        else:
            if img is None:
                return CheckResult(False, (a,), "image missing at non-failure level")
            if img != a | prefixes[lvl]:
                return CheckResult(False, (a,), "image is not A + permuted prefix")
            if img & (size - 1) != a:
                return CheckResult(False, (a,), "image meets [n] beyond A")
            if coloring.is_blue(img):
                return CheckResult(False, (a,), "image is not red")

    for a in range(size):
        for b in range(a):
            if is_subset(b, a) and rec.levels[b] > rec.levels[a]:
                return CheckResult(False, (b, a), "level not monotone under inclusion")

    for a in range(size):
        if rec.images[a] is None:
            continue
        for b in range(size):
            if b == a or rec.images[b] is None:
                continue
            want = is_proper_subset(b, a)
            got = is_proper_subset(rec.images[b], rec.images[a])
            if want != got:
                return CheckResult(
                    False, (b, a), "strict containment not preserved exactly"
                )

    for a in range(size):
        chain = rec.chains[a]
        if len(chain) != min(rec.levels[a], k + 1):
            return CheckResult(False, (a,), "chain length differs from level")
        for i, s in enumerate(chain):
            if not coloring.is_blue(s):
                return CheckResult(False, (a,), "chain contains a red set")
            if s & ~(size - 1) != prefixes[i]:
                return CheckResult(False, (a,), "chain step has wrong top part")
        if 1 <= rec.levels[a] <= k:
            if not is_subset(chain[rec.levels[a] - 1], rec.images[a]):
                return CheckResult(False, (a,), "chain top not below the image")

    return CheckResult(True, detail="all embedding properties verified")


def scan_verify_embedding(rec, coloring):
    """verify_embedding as a scan subset by subset, in ascending order: the
    image checks, then monotonicity on the covering pairs (A - {x}, A), then
    the chains, each set read with is_blue."""
    n, k = rec.n, rec.k
    if coloring.ground_n != n + k:
        raise ValueError("record and coloring dimensions do not match")
    if (rec.perm.base, rec.perm.width) != (n, k):
        return CheckResult(False, None, "permutation dimensions do not match (n, k)")
    size = 1 << n
    if not (len(rec.images) == len(rec.levels) == len(rec.chains) == size):
        return CheckResult(False, None, "table sizes do not match 2^n")
    prefixes = rec.perm.prefixes
    for a in range(size):
        lvl, img = rec.levels[a], rec.images[a]
        if not 0 <= lvl <= k + 1:
            return CheckResult(False, (a,), "level out of range")
        if lvl == k + 1:
            if img is not None:
                return CheckResult(False, (a,), "failed level but image assigned")
        elif img is None:
            return CheckResult(False, (a,), "image missing at non-failure level")
        elif img != a | prefixes[lvl]:
            return CheckResult(False, (a,), "image is not A + permuted prefix")
        elif coloring.is_blue(img):
            return CheckResult(False, (a,), "image is not red")
    for a in range(size):
        lvl = rec.levels[a]
        if any(a >> j & 1 and rec.levels[a ^ 1 << j] > lvl for j in range(n)):
            b = next(s for s in range(a + 1) if is_subset(s, a) and rec.levels[s] > lvl)
            return CheckResult(False, (b, a), "level not monotone under inclusion")
    for a in range(size):
        chain, lvl = rec.chains[a], rec.levels[a]
        if len(chain) != min(lvl, k + 1):
            return CheckResult(False, (a,), "chain length differs from level")
        for i, s in enumerate(chain):
            if not coloring.is_blue(s):
                return CheckResult(False, (a,), "chain contains a red set")
            if s & ~(size - 1) != prefixes[i]:
                return CheckResult(False, (a,), "chain step has wrong top part")
        if 1 <= lvl <= k and not is_subset(chain[lvl - 1], rec.images[a]):
            return CheckResult(False, (a,), "chain top not below the image")
    return CheckResult(True, detail="all embedding properties verified")


def naive_check_conditions(fam):
    """The family conditions by brute force over every (m-1)- and (m+1)-set.

    Sets are enumerated as sorted tuples in lexicographic order and counted by
    subset tests against every member; returns the violation triples in the
    order check_conditions promises.
    """
    ground, m = fam.ground_n, fam.weight
    members = [frozenset(elements_of(f)) for f in fam.members]
    out = []
    for kind, size in (("undersupplied", m - 1), ("oversubscribed", m + 1)):
        for combo in combinations(range(1, ground + 1), size):
            box = frozenset(combo)
            if kind == "undersupplied":
                cnt = sum(1 for f in members if box <= f)
                bad = cnt < 2
            else:
                cnt = sum(1 for f in members if f <= box)
                bad = cnt >= m
            if bad:
                out.append((kind, sum(1 << (x - 1) for x in combo), cnt))
    return tuple(out)


def naive_low_block_blue_free(coloring, m):
    """certify_blue_free's verdict on a low-block coloring with explicit extras.

    The first oversubscribed (m+1)-set of the brute-force condition scan is
    the witness, as in the package's original certifier.
    """
    fam = sorted_family(coloring.blue_extra, coloring.ground_n, m)
    over = [v for v in naive_check_conditions(fam) if v[0] == "oversubscribed"]
    if over:
        return CheckResult(False, (over[0][1],), "a top hosts m family members")
    return CheckResult(True, detail="forced sizes + subset cap on the partial layer")


def naive_certify_red_singleton_bound(coloring, n, m):
    """certify_red_singleton_bound's verdict from a color lookup per superset.

    The package's original counting loop, without the shape detection: every
    (m-1)-set S in colex order, and every element outside it, asks the
    coloring for the color of S plus that element.
    """
    ground = coloring.ground_n
    for s in layer(ground, m - 1):
        red = 0
        for el in range(1, ground + 1):
            bit = 1 << (el - 1)
            if s & bit:
                continue
            if not coloring.is_blue(s | bit):
                red += 1
        if red > n - 1:
            return CheckResult(False, (s,), f"{red} red supersets > {n - 1}")
    return CheckResult(True, detail="every bottom has <= n-1 red supersets")


def _lex_key(mask):
    return tuple(elements_of(mask))


def naive_lll_family(cfg):
    """The event resampler with a linear min scan over the violated events.

    The package's original lll_family, kept as the reference: every resample
    takes the lexicographically least violated event by comparing sorted
    element tuples, and every toggle rewrites the violation sets of all the
    neighbouring events.  lll_family must draw, repair and raise identically.
    """
    n, m = cfg.n, cfg.m
    ground = n + m
    p = cfg.density
    rng = random.Random(cfg.seed)

    fam: set[SetWord] = set()
    for f in layer(ground, m):
        if rng.random() < p:
            fam.add(f)

    # Membership counters for both event classes, maintained incrementally.
    sup_count: dict[SetWord, int] = {s: 0 for s in layer(ground, m - 1)}
    sub_count: dict[SetWord, int] = {}
    for f in fam:
        for el in elements_of(f):
            sup_count[f & ~(1 << (el - 1))] += 1
        rest = full_mask(ground) & ~f
        while rest:
            low = rest & -rest
            t = f | low
            sub_count[t] = sub_count.get(t, 0) + 1
            rest ^= low

    viol_a = {s for s, cnt in sup_count.items() if cnt <= 1}
    viol_b = {t for t, cnt in sub_count.items() if cnt >= m}

    def toggle(f: SetWord) -> None:
        adding = f not in fam
        delta = 1 if adding else -1
        if adding:
            fam.add(f)
        else:
            fam.remove(f)
        for el in elements_of(f):
            s = f & ~(1 << (el - 1))
            cnt = sup_count[s] + delta
            sup_count[s] = cnt
            if cnt <= 1:
                viol_a.add(s)
            else:
                viol_a.discard(s)
        rest = full_mask(ground) & ~f
        while rest:
            low = rest & -rest
            t = f | low
            cnt = sub_count.get(t, 0) + delta
            sub_count[t] = cnt
            if cnt >= m:
                viol_b.add(t)
            else:
                viol_b.discard(t)
            rest ^= low

    resamples = 0
    while viol_a or viol_b:
        if resamples >= cfg.max_resamples:
            raise ResampleBudgetExceeded(
                sorted_family(fam, ground, m),
                len(viol_a) + len(viol_b),
                resamples,
            )
        if viol_a:
            s = min(viol_a, key=_lex_key)
            indicators = [
                s | (1 << (el - 1))
                for el in range(1, ground + 1)
                if not s & (1 << (el - 1))
            ]
        else:
            t = min(viol_b, key=_lex_key)
            indicators = [t & ~(1 << (el - 1)) for el in elements_of(t)]
        resamples += 1
        for f in indicators:
            want = rng.random() < p
            if want != (f in fam):
                toggle(f)

    return sorted_family(fam, ground, m)


FANO_LINES = [
    frozenset(t)
    for t in ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))
]

# Mirror image x -> 8-x shares no line with the original, so the union covers
# every pair of [7] exactly twice while no 4-set contains three triples.
FANO_MIRROR = [frozenset(8 - x for x in t) for t in FANO_LINES]


def two_fold_triples_7():
    """21 pairs of [7], each covered exactly twice; no oversubscribed 4-set."""
    return [set(t) for t in FANO_LINES + FANO_MIRROR]


def two_fold_triples_8():
    """Extension to [8]: a triangle-free 2-regular star through the new point."""
    star = [{8, i, i % 7 + 1} for i in range(1, 8)]
    return two_fold_triples_7() + star

# -- the pairwise oracle, kept verbatim as the reference for the order tables --
# find_copy and find_chain as they stood before the oracle read containment
# from bit-sliced order tables: O(|F|^2) pair tests rebuilt per family.


def pairwise_find_copy(
    family,
    m: int,
    kind: CopyKind,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[CopyWitness]:
    """Search a family for a weak or induced copy of Q_m.

    The search is complete: None means no copy exists.  Patterns are assigned
    rank by rank, pruning candidates by their subset/superset counts and by
    their chain height inside the family (when the family height equals the
    height of Q_m, the level of every image is forced).  Raises
    SearchExhausted when more than node_budget candidate assignments are
    tried.
    """
    if m < 0:
        raise ValueError("pattern dimension must be >= 0")
    fam = sorted(set(family))
    size = 1 << m
    if len(fam) < size:
        return None
    nf = len(fam)

    # Pairwise containment structure, as bitmasks over family indices.
    subs = [0] * nf  # subs[i]: indices j with fam[j] subset of fam[i]
    sups = [0] * nf
    for i, a in enumerate(fam):
        for j, b in enumerate(fam):
            if a & ~b == 0:
                sups[i] |= 1 << j
                subs[j] |= 1 << i
    all_bits = (1 << nf) - 1
    self_bits = [1 << i for i in range(nf)]
    strict_subs = [subs[i] & ~self_bits[i] for i in range(nf)]
    strict_sups = [sups[i] & ~self_bits[i] for i in range(nf)]
    incomp = [all_bits & ~subs[i] & ~sups[i] for i in range(nf)]

    # Longest chain ending at / starting from each element (family sorted by
    # mask value, which refines the containment order).
    down = [1] * nf
    for i in range(nf):
        mask = strict_subs[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            if down[j] + 1 > down[i]:
                down[i] = down[j] + 1
            mask ^= low
    up = [1] * nf
    for i in range(nf - 1, -1, -1):
        mask = strict_sups[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            if up[j] + 1 > up[i]:
                up[i] = up[j] + 1
            mask ^= low

    # Candidate prefilter per pattern rank: enough strict subsets/supersets in
    # the family, and room for a chain of length m+1 through the image.
    rank_candidates = []
    for r in range(m + 1):
        need_below = (1 << r) - 1
        need_above = (1 << (m - r)) - 1
        bits = 0
        for i in range(nf):
            if (
                strict_subs[i].bit_count() >= need_below
                and strict_sups[i].bit_count() >= need_above
                and down[i] >= r + 1
                and up[i] >= m - r + 1
            ):
                bits |= 1 << i
        rank_candidates.append(bits)

    patterns = list(subsets_by_rank(m))
    induced = kind is CopyKind.INDUCED
    # For each pattern position, precompute the earlier positions that are
    # strict sub-patterns / incomparable patterns.
    earlier_subs: list[list[int]] = []
    earlier_incomp: list[list[int]] = []
    for idx, q in enumerate(patterns):
        es, ei = [], []
        for jdx in range(idx):
            p = patterns[jdx]
            if p & ~q == 0:
                es.append(jdx)
            elif q & ~p:  # p not subset of q; q not subset of p is automatic
                ei.append(jdx)
        earlier_subs.append(es)
        earlier_incomp.append(ei)

    assigned = [0] * size
    used = 0
    nodes = 0

    def backtrack(idx: int) -> bool:
        nonlocal used, nodes
        if idx == size:
            return True
        q = patterns[idx]
        cand = rank_candidates[q.bit_count()] & ~used
        for jdx in earlier_subs[idx]:
            cand &= strict_sups[assigned[jdx]]
        if induced:
            for jdx in earlier_incomp[idx]:
                cand &= incomp[assigned[jdx]]
        while cand:
            low = cand & -cand
            i = low.bit_length() - 1
            cand ^= low
            nodes += 1
            if nodes > node_budget:
                raise SearchExhausted(nodes)
            assigned[idx] = i
            used |= 1 << i
            if backtrack(idx + 1):
                return True
            used &= ~(1 << i)
        return False

    if not backtrack(0):
        return None
    images = [0] * size
    for idx, q in enumerate(patterns):
        images[q] = fam[assigned[idx]]
    return CopyWitness(kind, m, tuple(images))


def pairwise_find_chain(family, length: int) -> Optional[Chain]:
    """A chain of exactly `length` sets from the family, or None.

    Longest-path dynamic programming over the containment order; complete.
    """
    if length < 1:
        raise ValueError("chain length must be >= 1")
    fam = sorted(set(family))
    nf = len(fam)
    best = [1] * nf
    pred: list[Optional[int]] = [None] * nf
    for i in range(nf):
        for j in range(i):
            if fam[j] != fam[i] and fam[j] & ~fam[i] == 0 and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
                pred[i] = j
    for i in range(nf):
        if best[i] >= length:
            out = []
            j: Optional[int] = i
            while j is not None and len(out) < length:
                out.append(fam[j])
                j = pred[j]
            return Chain(tuple(reversed(out)))
    return None


def forward_checking_find_copy(
    family,
    m: int,
    kind: CopyKind,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[CopyWitness]:
    """The node-count reference for the package's copy search: the pairwise
    search above without its count prefilter, plus forward checking and
    rising singletons.  Its witnesses are pairwise_find_copy's.

    Every pattern starts with the members that have room for a chain of m+1
    members through them at its rank.  When pattern idx takes member i (one
    node), each later super-pattern keeps the untaken strict supersets of i
    and, in an induced copy, each later incomparable pattern the untaken
    members incomparable to i; an empty domain closes the branch.  A weak
    copy's incomparable domains lose the taken members when their turn comes,
    and singletons 2..m only take members after the singleton before them.
    """
    if m < 0:
        raise ValueError("pattern dimension must be >= 0")
    fam = sorted(set(family))
    nf, size = len(fam), 1 << m
    if nf < size:
        return None
    # sups[i] / subs[i]: members containing / inside member i, i included.
    sups = [sum(1 << j for j in range(nf) if fam[i] & ~fam[j] == 0) for i in range(nf)]
    subs = [sum(1 << j for j in range(nf) if fam[j] & ~fam[i] == 0) for i in range(nf)]
    # Longest chains ending at / starting from each member; subsets sort first.
    ending, starting = [1] * nf, [1] * nf
    for i in range(nf):
        for j in range(i):
            if subs[i] >> j & 1:
                ending[i] = max(ending[i], ending[j] + 1)
    for i in reversed(range(nf)):
        for j in range(i + 1, nf):
            if sups[i] >> j & 1:
                starting[i] = max(starting[i], starting[j] + 1)
    patterns = list(subsets_by_rank(m))
    domains = [
        sum(
            1 << i
            for i in range(nf)
            if ending[i] > q.bit_count() and starting[i] > m - q.bit_count()
        )
        for q in patterns
    ]
    if not all(domains):
        return None
    induced = kind is CopyKind.INDUCED
    assigned = [0] * size
    nodes = 0

    def place(idx: int, domains: list, free: int) -> bool:
        nonlocal nodes
        cand = domains[idx] & free
        if 2 <= idx <= m:
            cand &= ~((2 << assigned[idx - 1]) - 1)
        for i in range(nf):
            if not cand >> i & 1:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchExhausted(nodes)
            assigned[idx] = i
            if idx == size - 1:
                return True
            rest = free & ~(1 << i)
            narrowed = list(domains)
            for j in range(idx + 1, size):
                if patterns[idx] & ~patterns[j] == 0:
                    narrowed[j] &= sups[i] & rest
                elif induced:
                    narrowed[j] &= rest & ~(sups[i] | subs[i])
                if not narrowed[j]:
                    break
            else:
                if place(idx + 1, narrowed, rest):
                    return True
        return False

    if not place(0, domains, (1 << nf) - 1):
        return None
    images = [0] * size
    for idx, q in enumerate(patterns):
        images[q] = fam[assigned[idx]]
    return CopyWitness(kind, m, tuple(images))


def pairwise_coloring_is_ramsey(
    coloring, m, n, kind, node_budget=DEFAULT_NODE_BUDGET, search=pairwise_find_copy
):
    """(blue witness, red witness) the pairwise oracle, or another family
    search, finds; red only without blue."""
    w = search(coloring.blue_family(), m, kind, node_budget)
    if w is not None:
        return w, None
    red = [s for s in range(1 << coloring.ground_n) if not coloring.is_blue(s)]
    return None, search(red, n, kind, node_budget)


def _listing_scan(m, n, kind, max_n, neither):
    """The threshold scan's result object, every coloring of Q_N listed in
    integer order until neither(coloring, m, n, kind) holds."""
    out = {
        "m": m, "n": n, "kind": kind.value, "max_N": max_n, "value": None,
        "counterexamples": {}, "colorings_checked": 0, "status": "complete",
        "layered_lower_bound": m + n if neither(layered_coloring(m, n), m, n, kind) else 0,
    }
    for ground in range(1, max_n + 1):
        for idx in range(1 << (1 << ground)):
            out["colorings_checked"] += 1
            c = Coloring.dense_from_int(ground, idx)
            if neither(c, m, n, kind):
                out["counterexamples"][str(ground)] = idx
                break
        else:
            out["value"] = ground
            break
    return out


def pairwise_ramsey_scan(m, n, kind, max_n):
    """The threshold scan's result object, every coloring searched pairwise."""
    return _listing_scan(
        m, n, kind, max_n, lambda *a: pairwise_coloring_is_ramsey(*a) == (None, None)
    )


def listing_ramsey_scan(m, n, kind, max_n):
    """The threshold scan's result object, every coloring searched whole by the
    package's coloring_is_ramsey, which the depth-first scan must agree with."""
    return _listing_scan(m, n, kind, max_n, lambda *a: coloring_is_ramsey(*a).neither)
