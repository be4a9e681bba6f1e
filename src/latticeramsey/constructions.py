"""Lower-bound colorings of the Boolean lattice.

Four families of constructions live here:

* layered colorings (whole layers blue / red);
* a greedy constant-weight pair code: one set C(y, z) per ordered pair of
  ground elements, with y in, z out, pairwise symmetric difference >= 4,
  yielding a coloring of Q_{n+2} whose blue side has no copy of Q_2;
* a residue-coded constant-weight family ("mod-p code") and its coloring of
  Q_{n+m}, with a constructive witness routine backed by a subset-sum solver
  over a prime modulus;
* a random family of m-sets realized by event resampling: every (m-1)-set
  must gain at least two supersets while every (m+1)-set keeps at most m-1
  subsets, which is exactly what the blue/red freeness arguments consume.

A refuter shows the two resampling conditions are jointly unsatisfiable at
weight 2.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from heapq import heappop, heappush
from math import comb, e, isqrt
from typing import Iterable, Optional

from .lattice import (
    SCAN_LIMIT,
    Coloring,
    SetWord,
    WeightedFamily,
    _check_ground,
    check_enumerable,
    elements_of,
    event_counts,
    event_violations,
    full_mask,
    layer,
    lex_key,
    mask_of,
    sorted_family,
)


def spread_layers(k: int, m: int) -> set[int]:
    """Blue layers of the spread shape around a code on layer k+1: k and
    k+3 .. k+m+1 (for m = 2 the upper block is the single layer k+3)."""
    return {k} | set(range(k + 3, k + m + 2))


def low_block_layers(m: int) -> set[int]:
    """Blue layers of the low-block shape around a family on layer m: 0 .. m-2
    and m+1."""
    return set(range(0, m - 1)) | {m + 1}


def layered_coloring(
    m: int, n: int, blue_layer_indices: Optional[Iterable[int]] = None
) -> Coloring:
    """Coloring of Q_{m+n-1} with m blue layers and n red layers.

    Defaults to the top m layers blue.  Such a coloring has no blue chain of
    m+1 sets and no red chain of n+1 sets, hence neither a blue Q_m nor a red
    Q_n, even as weak copies.
    """
    if m < 1 or n < 1:
        raise ValueError("layer counts must be >= 1")
    ground = m + n - 1
    if blue_layer_indices is None:
        blue = set(range(n, ground + 1))
    else:
        blue = set(blue_layer_indices)
        if len(blue) != m:
            raise ValueError(f"expected exactly {m} blue layer indices, got {len(blue)}")
    return Coloring.structured(ground, blue_layers=blue)


class GreedyStuck(ValueError):
    """The greedy pair-code scan ran out of candidates for some ordered pair."""

    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"no candidate left for ordered pair {pair}")
        self.pair = pair


@dataclass(frozen=True)
class PairCode:
    """One (k+1)-set per ordered pair (y, z) of [n+2], pairwise distance >= 4.

    assignments is in lexicographic order of the ordered pairs.  The
    feasibility fields record the counting argument that guarantees the greedy
    scan completes: candidates per pair versus the sets blocked by previously
    accepted ones.
    """

    n: int
    k: int
    assignments: tuple[tuple[int, int, SetWord], ...]
    candidates_per_pair: int
    max_blocked: int

    @property
    def feasible(self) -> bool:
        return self.candidates_per_pair > self.max_blocked

    def masks(self) -> list[SetWord]:
        return [m for _, _, m in self.assignments]


def greedy_pair_code(n: int) -> PairCode:
    """Greedily assign C(y, z) for every ordered pair over [n+2].

    Pairs are visited in lexicographic order; for each, candidates of size
    k+1 containing y but not z are scanned in colex order and the first one at
    symmetric difference >= 4 from everything already accepted is taken.
    Distance-2 neighbors of accepted sets are tracked in a blocked set, so the
    scan is first-fit over unblocked candidates.  Raises GreedyStuck if a pair
    has no candidate left (cannot happen once C(n, k) out-counts the blocked
    sets, which holds from n = 18 up).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    k = n // 2
    ground = n + 2
    _check_ground(ground)  # the coloring would refuse it only after the scan
    candidates = comb(n, k)
    max_blocked = ((n + 2) * (n + 1) - 1) * (1 + k * (n - k))

    blocked: set[SetWord] = set()
    assignments: list[tuple[int, int, SetWord]] = []
    ground_bits = full_mask(ground)
    top = 1 << (ground - 1)

    for y in range(1, ground + 1):
        ybit = 1 << (y - 1)
        # The candidates holding y, ascending, are the k-subsets i of the other
        # ground - 1 elements with a y bit spliced in; those of pair (y, z) are
        # the ones without z.  Every candidate before `cursor` was seen
        # blocked, and blocked only grows, so starting each scan there skips
        # no unblocked candidate: the first fit, hence every assignment, is
        # that of a scan from the start.
        cursor = (1 << k) - 1
        for z in range(1, ground + 1):
            if z == y:
                continue
            zbit = 1 << (z - 1)
            i = cursor
            while i < top:
                cand = (i & (ybit - 1)) | ((i >> (y - 1)) << y) | ybit
                free = cand not in blocked
                if free and not cand & zbit:
                    break
                # Gosper's hack: next i with the same popcount
                low = i & -i
                lift = i + low
                after = lift | (((i ^ lift) >> 2) // low)
                if not free and i == cursor:
                    cursor = after
                i = after
            else:
                raise GreedyStuck((y, z))
            chosen = cand
            assignments.append((y, z, chosen))
            blocked.add(chosen)
            inside = elements_of(chosen)
            outside = elements_of(ground_bits & ~chosen)
            for x in inside:
                for w in outside:
                    blocked.add((chosen & ~(1 << (x - 1))) | (1 << (w - 1)))

    return PairCode(n, k, tuple(assignments), candidates, max_blocked)


def pair_code_coloring(code: PairCode) -> Coloring:
    """Coloring of Q_{n+2}: layers k and k+3 blue plus the pair code's sets.

    Any blue copy of Q_2 would need two size-(k+1) blue sets at symmetric
    difference 2, which the pair code rules out.
    """
    return Coloring.structured(
        code.n + 2, blue_layers=spread_layers(code.k, 2), blue_extra=code.masks()
    )


def induced_q2_coloring(n: int) -> Coloring:
    """pair_code_coloring of the greedy pair code over [n+2]."""
    return pair_code_coloring(greedy_pair_code(n))


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % f for f in range(2, isqrt(p) + 1))


def prime_window(ground: int) -> range:
    """The moduli a residue code over [ground] admits: ground <= p < 2*(ground-1)."""
    return range(ground, 2 * (ground - 1))


def _check_prime(p: int, ground: int) -> None:
    window = prime_window(ground)
    if p not in window:  # before trial division, which a huge p would not finish
        raise ValueError(f"modulus {p} outside [{window.start}, {window.stop})")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def find_prime(ground: int) -> int:
    """Smallest prime in prime_window(ground).

    Such a prime exists for every ground > 3 (Bertrand's postulate).
    """
    if ground <= 3:
        raise ValueError("ground size must exceed 3")
    return next(p for p in prime_window(ground) if _is_prime(p))


def modp_code(ground: int, k: int, d: int, p: int) -> WeightedFamily:
    """Residue-coded family of (k+1)-subsets of [ground] with sum = d (mod p).

    Requires a prime p in prime_window(ground) and 1 <= d <= p.  Two distinct
    members can never be one element-swap apart: a swap x -> y changes the sum
    by a nonzero residue since 1 <= x, y <= ground <= p; hence all pairwise
    symmetric differences are at least 4.
    """
    _check_prime(p, ground)
    if k + 1 > ground:
        raise ValueError(f"weight {k + 1} exceeds ground size {ground}")
    return WeightedFamily(ground, k + 1, modp_p=p, modp_d=d)


class NoSolutionError(Exception):
    """No subset of the given residues attains the target sum."""


def olson_subset_sum(values: Iterable[int], p: int, target: int) -> list[int]:
    """A subset of the given distinct residues summing to target mod p.

    Dynamic programming over reachable residues with parent pointers; elements
    are processed in sorted order and the first subset reaching a residue is
    kept, so the result is deterministic (and the empty subset is returned for
    target 0).  Whenever len(values) >= sqrt(4p - 3), every residue is
    attainable; below that threshold NoSolutionError is possible.
    """
    vals = sorted(values)
    if len(set(vals)) != len(vals):
        raise ValueError("values must be distinct")
    for v in vals:
        if not 1 <= v <= p:
            raise ValueError(f"value {v} outside [1, {p}]")
    target %= p
    parent: dict[int, Optional[tuple[int, int]]] = {0: None}
    for v in vals:
        snapshot = list(parent.keys())
        for r in snapshot:
            nr = (r + v) % p
            if nr not in parent:
                parent[nr] = (r, v)
    if target not in parent:
        raise NoSolutionError(
            f"no subset of {vals} sums to {target} mod {p}"
        )
    out: list[int] = []
    r = target
    while parent[r] is not None:
        r_prev, v = parent[r]  # type: ignore[misc]
        out.append(v)
        r = r_prev
    return sorted(out)


def size_window(ground: int, m: int) -> tuple[int, int]:
    """(k_min, k_max) of the size window sqrt(8N-15) <= k <= n - sqrt(8N-15)
    over [N] = [ground], n = ground - m: k_min = ceil(sqrt(8N-15)) and
    k_max = n - k_min, so for k >= 0 the window is k_min <= k <= k_max."""
    window = 8 * ground - 15
    k_min = isqrt(window - 1) + 1 if window > 0 else 0
    return k_min, ground - m - k_min


def code_witness(
    ground: int,
    m: int,
    k: int,
    code: WeightedFamily,
    avoid: SetWord,
    y: int,
) -> SetWord:
    """A k-set C avoiding the m-set `avoid` with C + {y} in the code.

    Constructive: with l = ceil(sqrt(8*ground - 15)), pair the l smallest and
    l largest elements outside `avoid`, fill with the colex-first k-l middle
    elements, and choose which pairs contribute their large element by solving
    a subset-sum over the pairwise differences mod p.  Requires k in
    size_window(ground, m), which guarantees the subset-sum instance is
    solvable.
    """
    if code.modp_p is None:
        raise ValueError("code must be a mod-p family")
    if code.ground_n != ground or code.weight != k + 1:
        raise ValueError("code parameters do not match (ground, k)")
    if avoid.bit_count() != m or avoid >> ground:
        raise ValueError(f"avoid must be an m-set over [{ground}]")
    if not 1 <= y <= ground:
        raise ValueError(f"y = {y} outside [1, {ground}]")
    if not avoid & (1 << (y - 1)):
        raise ValueError(f"element {y} is not in the avoided set")
    n = ground - m
    l, k_max = size_window(ground, m)
    if not l <= k <= k_max:
        raise ValueError(f"k = {k} outside the size window [{l}, {k_max}]")

    p, d = code.modp_p, code.modp_d
    xs = elements_of(full_mask(ground) & ~avoid)
    lows = xs[:l]
    highs = xs[n - l:]
    middle = xs[l: n - l]
    fill = middle[: k - l]

    diffs = [highs[l - 1 - i] - lows[i] for i in range(l)]  # b_i - a_i, i = 1..l
    target = (d - y - sum(fill) - sum(lows)) % p
    chosen = set(olson_subset_sum(diffs, p, target))

    picks = []
    for i in range(l):
        b_i = highs[l - 1 - i]
        a_i = lows[i]
        picks.append(b_i if (b_i - a_i) in chosen else a_i)
    c_mask = mask_of(fill + picks)

    # re-verify the postcondition on every call
    if c_mask.bit_count() != k or c_mask & avoid:
        raise AssertionError("witness construction broke its size/disjointness contract")
    if not code.contains(c_mask | (1 << (y - 1))):
        raise AssertionError("witness construction missed the code")
    return c_mask


@dataclass(frozen=True)
class WeakParams:
    """Derived parameters and hypothesis flags for the mod-p code coloring."""

    n: int
    m: int
    ground: int
    k: int
    p: int
    d: int
    k_min: int
    k_max: int
    witness_window_ok: bool  # k_min <= k <= k_max (size_window)
    strict_window_ok: bool  # k_min <= k < k_max: n-1 in place of n
    threshold_ok: bool  # n >= sqrt(32m + 260) + 18

    def to_obj(self) -> dict:
        obj = asdict(self)
        obj["N"] = obj.pop("ground")
        return obj


def weak_parameters(
    n: int,
    m: int,
    k: Optional[int] = None,
    d: Optional[int] = None,
    p: Optional[int] = None,
) -> WeakParams:
    """Resolve (k, p, d) for weak_construction and report hypothesis checks.

    The valid k window is sqrt(8N-15) <= k <= n - sqrt(8N-15) (the window the
    witness statement needs); k defaults to its smallest integer.  p defaults
    to the smallest prime at or above the ground size (denser codes) but may
    be overridden by any prime in the admissible window.  The tighter k window
    with n-1 in place of n and the threshold on n are reported, not enforced,
    so exploratory parameters are allowed.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if n < m:
        raise ValueError("need n >= m")
    ground = n + m
    k_min, k_max = size_window(ground, m)
    if k is None:
        if k_min > k_max:
            raise ValueError(f"empty k window [{k_min}, {k_max}]")
        k = k_min
    if p is None:
        p = find_prime(ground)
    else:
        _check_prime(p, ground)
    if d is None:
        d = p
    threshold_ok = n >= 18 and (n - 18) * (n - 18) >= 32 * m + 260
    return WeakParams(
        n, m, ground, k, p, d, k_min, k_max,
        k_min <= k <= k_max, k_min <= k < k_max, threshold_ok,
    )


def weak_construction(params: WeakParams) -> Coloring:
    """Coloring of Q_{n+m} for resolved weak_parameters: the spread_layers
    k and k+3 .. k+m+1 blue plus a mod-p code.

    The code sits on layer k+1 and is kept implicit (its layer is far too
    large to materialize at interesting sizes).
    """
    code = modp_code(params.ground, params.k, params.d, params.p)
    return Coloring.structured(
        params.ground, blue_layers=spread_layers(params.k, params.m), blue_code=code
    )


@dataclass(frozen=True)
class LllConfig:
    """Parameters for the resampled random family of m-sets over [n+m].

    p_inclusion defaults to (4(m+1)(n^2-1)e)^(-1/m), the density at which the
    local-lemma bound closes; that only happens at very large n, so callers
    typically override it.
    """

    n: int
    m: int
    p_inclusion: Optional[float] = None
    seed: int = 0
    max_resamples: int = 10**6

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("need m >= 3 (weight 2 is refutable, see refute_m2)")
        if self.n < self.m:
            raise ValueError("need n >= m")
        if self.p_inclusion is not None and not 0 < self.p_inclusion < 1:
            raise ValueError("p_inclusion must lie in (0, 1)")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be >= 1")

    @property
    def density(self) -> float:
        if self.p_inclusion is not None:
            return self.p_inclusion
        return self.default_density(self.n, self.m)

    @staticmethod
    def default_density(n: int, m: int) -> float:
        return (4 * (m + 1) * (n * n - 1) * e) ** (-1.0 / m)


class ResampleBudgetExceeded(Exception):
    """The resampler hit max_resamples; carries the best-effort family.
    fields is what an exhausted certificate's result gains."""

    def __init__(self, family: WeightedFamily, violations: int, resamples: int):
        super().__init__(
            f"{violations} events still violated after {resamples} resamples"
        )
        self.family = family
        self.violations = violations
        self.resamples = resamples
        self.fields = {"resamples": resamples, "violations": violations}


def lll_family(cfg: LllConfig) -> WeightedFamily:
    """Sample and repair a family of m-sets over [n+m] by event resampling.

    Start from an independent Bernoulli(p) sample of the m-sets.  While some
    (m-1)-set has at most one superset in the family, or some (m+1)-set has at
    least m subsets, pick the first such event (undersupplied sets first, each
    class in lexicographic order) and redraw exactly the membership indicators
    it depends on.  Deterministic given the seed.  On success the family
    satisfies both conditions by construction; on budget exhaustion
    ResampleBudgetExceeded carries the partial family.  A layer of m-sets past
    SCAN_LIMIT is refused before the sample.
    """
    n, m = cfg.n, cfg.m
    ground = n + m
    check_enumerable(ground, m, SCAN_LIMIT)
    bits = [1 << i for i in range(ground)]
    full = full_mask(ground)
    p = cfg.density
    rng = random.Random(cfg.seed)

    fam = {f for f in layer(ground, m) if rng.random() < p}

    # The masks ups are maintained incrementally.  Each violated event sits in
    # `violated` and has at least one (class, lex_key, mask) entry in the heap,
    # class 0 for an undersupplied (m-1)-set and 1 for an oversubscribed
    # (m+1)-set; the sizes differ, so one set holds both classes.  An entry
    # whose event has since healed is dropped when it reaches the top.
    ups = event_counts(fam, ground)
    under, over = event_violations(ups, fam, ground, m)
    # each class in lexicographic order, so the list is already a heap
    heap = [(0, lex_key(s, ground), s) for s, _ in under]
    heap += [(1, lex_key(t, ground), t) for t, _ in over]
    violated = {s for _, _, s in heap}

    def toggle(f: SetWord) -> None:
        # An event changes class only when its count crosses the threshold:
        # sup 2 -> 1 or sub m-1 -> m enters violation, the reverse leaves it.
        adding = f not in fam
        if adding:
            fam.add(f)
        else:
            fam.remove(f)
        one = two = rest = f
        while rest:
            x = rest & -rest
            rest ^= x
            s = f ^ x
            u = ups[s] ^ x
            ups[s] = u
            cnt = u.bit_count()
            if cnt == 2 and adding:
                violated.discard(s)
            elif cnt == 1 and not adding:
                violated.add(s)
                heappush(heap, (0, lex_key(s, ground), s))
            two |= one & ~u
            one |= ~u
        # f | b holds m - 1 members besides f exactly when b is missing from
        # one of the masks of f's (m-1)-subsets, so its count crosses m.
        cross = one & ~two & full
        while cross:
            b = cross & -cross
            cross ^= b
            t = f | b
            if adding:
                violated.add(t)
                heappush(heap, (1, lex_key(t, ground), t))
            else:
                violated.discard(t)

    resamples = 0
    while violated:
        if resamples >= cfg.max_resamples:
            raise ResampleBudgetExceeded(sorted_family(fam, ground, m), len(violated), resamples)
        while heap[0][2] not in violated:
            heappop(heap)
        kind, _, e = heap[0]
        # each indicator is (f, f absent from the family): a draw in the
        # family toggles f exactly when f is absent, and one out when present
        if kind:  # an oversubscribed (m+1)-set
            indicators = [(e ^ b, e ^ b not in fam) for b in bits if e & b]
        else:
            u = ups[e]  # toggling E | b flips only bit b of it, so u stays valid
            indicators = [(e | b, not u & b) for b in bits if not e & b]
        resamples += 1
        for f, absent in indicators:
            if (rng.random() < p) is absent:
                toggle(f)

    out = sorted_family(fam, ground, m)
    # The loop ends only with no event violated, so the conditions hold:
    # seed the cached violations instead of counting the family again.
    out.__dict__["violations"] = ((), ())
    return out


def probabilistic_coloring(n: int, m: int, fam: WeightedFamily) -> Coloring:
    """Coloring of Q_{n+m}: layers 0..m-2 and m+1 blue plus the family on layer m.

    The family must satisfy the two resampling conditions (every (m-1)-set has
    at least two supersets in it, every (m+1)-set at most m-1 subsets); those
    are exactly what the freeness arguments for both colors use.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    ground = n + m
    if fam.ground_n != ground or fam.weight != m:
        raise ValueError(f"family must have weight {m} over [{ground}]")
    if not fam.is_explicit:
        raise ValueError("family must be explicit")
    under, over = fam.violations
    if under or over:
        s, count = (under or over)[0]
        raise ValueError(
            f"family violates the superset/subset conditions ({len(under) + len(over)} "
            f"events); first: {elements_of(s)} with count {count}"
        )
    return Coloring.structured(
        ground, blue_layers=low_block_layers(m), blue_extra=fam.members
    )


class PreconditionFailed(Exception):
    """A singleton with fewer than two supersets, named by the exception."""

    def __init__(self, singleton: int):
        super().__init__(f"element {singleton} has fewer than 2 supersets")
        self.singleton = singleton


@dataclass(frozen=True)
class Refutation:
    """Witness that weight-2 families cannot satisfy both conditions.

    Two family members through a common element force a 3-set containing
    m = 2 members, violating the at-most-m-1-subsets condition.
    """

    singleton: SetWord
    first: SetWord
    second: SetWord
    triple: SetWord
    subsets_in_family: int


def refute_m2(fam: WeightedFamily) -> Refutation:
    """Exhibit the conflict between the two conditions at weight 2.

    Requires the superset condition to hold (every singleton of the ground set
    has at least two supersets in the family); raises PreconditionFailed
    naming the first deficient element otherwise.
    """
    if fam.weight != 2:
        raise ValueError("refutation applies to weight-2 families")
    if not fam.is_explicit:
        raise ValueError("family must be explicit")
    under, _ = fam.violations
    if under:
        raise PreconditionFailed(under[0][0].bit_length())
    members = fam.members
    bit = 1
    first, second = [f for f in members if f & bit][:2]
    triple = first | second
    count = sum(1 for f in members if f & ~triple == 0)
    return Refutation(bit, first, second, triple, count)
