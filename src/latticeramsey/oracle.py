"""Complete searches for copies of small Boolean lattices inside set families.

This is the ground-truth side of the package: a backtracking searcher for weak
and induced copies of Q_m, a longest-chain finder, and a threshold scan that
decides every coloring of tiny ground sets.  Everything here is decided by
explicit search; the structural certifiers elsewhere are cross-checked against
these results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from . import constructions
from .lattice import Chain, Coloring, SetWord, cube_bitsets, elements_of, is_subset, subsets_by_rank

DEFAULT_NODE_BUDGET = 10**8
MAX_SCAN_GROUND = 5
# coloring_is_ramsey reads the order of Q_N as masks of 2^N bits, each built
# when the search first takes its position and kept for the call: a search
# that takes every position holds 2^(2N)/4 bytes of them, 268 MB at N = 15.
MAX_LAYERED_GROUND = 15
MAX_PATTERN_DIM = 13  # _pattern_plan(m) holds O(4^m) ints, about 1.2 GiB at m = 13


class CopyKind(Enum):
    INDUCED = "induced"
    WEAK = "weak"


class SearchExhausted(Exception):
    """The node budget ran out before the search completed.

    Distinct from a completed search returning no witness: an exhausted search
    says nothing about existence.  fields is what an exhausted certificate's
    result gains.
    """

    def __init__(self, nodes: int):
        super().__init__(f"search exhausted after {nodes} nodes")
        self.nodes = nodes
        self.fields = {"error": str(self)}


@dataclass(frozen=True)
class CopyWitness:
    """An embedding of the pattern lattice Q_dim into a family.

    images[q] is the SetWord assigned to the pattern subset with bitmask q,
    for q in [0, 2^dim).
    """

    kind: CopyKind
    dim: int
    images: tuple[SetWord, ...]

    def check(self) -> bool:
        """Re-validate the witness using subset tests alone."""
        size = 1 << self.dim
        if len(self.images) != size:
            return False
        if len(set(self.images)) != size:
            return False
        for q in range(size):
            for r in range(size):
                if q == r:
                    continue
                holds = is_subset(self.images[q], self.images[r])
                if q & ~r == 0:  # q subset of r as patterns
                    if not holds:
                        return False
                elif self.kind is CopyKind.INDUCED:
                    if r & ~q == 0:
                        continue  # covered with roles swapped
                    if holds:
                        return False
        return True

    def to_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "dim": self.dim,
            "images": [elements_of(s) for s in self.images],
        }


def _containment(w: int, has, every: int) -> tuple[int, int]:
    """(up, down) of the word w, as bitmasks over the positions in `every`:
    the words containing w and the words inside it, w included.  With has[e]
    the positions whose word holds element e+1, up is the AND of has[e] over
    the elements of w and down the complement of the OR over those it lacks."""
    up, outside = every, 0
    for e, h in enumerate(has):
        if w >> e & 1:
            up &= h
        else:
            outside |= h
    return up, every ^ outside


def _order(family) -> tuple:
    """The order of a family as `_search` takes it: its distinct members
    ascending, their up and down masks (`_containment`) and no lacking masks;
    ValueError on a negative member.  has is built by bit slicing, so the
    order costs O(|words| * N) big-int operations."""
    words = sorted(set(family))
    if words and words[0] < 0:
        raise ValueError(f"family member {words[0]} is negative, not a set bitmask")
    has = [0] * max(words, default=0).bit_length()
    for i, w in enumerate(words):
        bit = 1 << i
        for e in range(w.bit_length()):
            if w >> e & 1:
                has[e] |= bit
    every = (1 << len(words)) - 1
    masks = [_containment(w, has, every) for w in words]
    return words, tuple(u for u, _ in masks), tuple(d for _, d in masks), None


class _Masks(dict):
    """up[a] (side 0) or down[a] (side 1) of Q_n, built on first read by
    `_containment` from has[e], the subsets holding element e+1."""

    def __init__(self, has, every: int, side: int):
        self.has, self.every, self.side = has, every, side

    def __missing__(self, a: int) -> int:
        return self.setdefault(a, _containment(a, self.has, self.every)[self.side])


def _whole_cube(n: int) -> tuple:
    """The order of all of Q_n as `_search` takes it, with the lacking masks."""
    lacking = cube_bitsets(n)[0]
    every = (1 << (1 << n)) - 1
    has = [every ^ lack for lack in lacking]
    return range(1 << n), _Masks(has, every, 0), _Masks(has, every, 1), lacking


@lru_cache(maxsize=None)
def _cube(n: int) -> tuple:
    """`_whole_cube` with its masks built into tuples, cached for the scan grounds."""
    words, up, down, lacking = _whole_cube(n)
    return words, tuple(up[a] for a in words), tuple(down[a] for a in words), lacking


@lru_cache(maxsize=None)
def _pattern_plan(m: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple, tuple]:
    """Patterns of Q_m rank by rank, their ranks last first, and per position
    the later strict super-patterns and later incomparable patterns, nearest
    first, as indices into a list of domains that holds the patterns last
    first (a later pattern never lies below an earlier one)."""
    patterns = tuple(subsets_by_rank(m))
    size = len(patterns)
    later_sups, later_incomp = [], []
    for idx, p in enumerate(patterns):
        later = range(idx + 1, size)
        later_sups.append(tuple(size - 1 - j for j in later if p & ~patterns[j] == 0))
        later_incomp.append(tuple(size - 1 - j for j in later if p & ~patterns[j]))
    ranks = tuple(q.bit_count() for q in reversed(patterns))
    return patterns, ranks, tuple(later_sups), tuple(later_incomp)


def _heights(fam: int, rel, depth: int) -> list[int]:
    """levels[h]: members of fam with a chain of h+1 members ending there.

    rel is the `down` table for chains from below, `up` for chains from above;
    each level drops the minimal members of the one before, up to h = depth.
    """
    levels = [fam]
    cur = fam
    while len(levels) <= depth:
        nxt, rest = 0, cur
        while rest:
            low = rest & -rest
            rest ^= low
            if rel[low.bit_length() - 1] & cur != low:
                nxt |= low
        levels.append(nxt)
        cur = nxt
    return levels


def _shift_peel(fam: int, lacking, depth: int) -> Optional[tuple[list, list]]:
    """`_heights` of a nonempty family of a whole cube from below and from
    above, by shifts of its lacking masks; None at the first empty level.  A
    sweep over the masks gathers in s the strict supersets of the level's
    members: before element j's mask, s holds those that add only elements
    below j, so the level and s are closed under adding those elements, and
    one shift by 2^j adds the supersets whose highest added element is j.
    The members in s are the next level; from above, the same by right shifts."""
    below, above = [fam], [fam]
    lo = hi = fam
    for _ in range(depth):
        s = t = 0
        h = 1  # 2^j for the mask of element j
        for lack in lacking:
            s |= ((lo | s) & lack) << h
            t |= (hi | t) >> h & lack
            h += h
        lo, hi = lo & s, hi & t
        if not (lo and hi):
            return None
        below.append(lo)
        above.append(hi)
    return below, above


def _narrow(domains: list, targets, keep: int) -> bool:
    """AND the domains at `targets` with keep; False once one is empty."""
    for k in targets:
        d = domains[k] & keep
        if not d:
            return False
        domains[k] = d
    return True


def _search(order: tuple, fam: int, m: int, kind: CopyKind, node_budget: int):
    """Search the words at the positions in `fam` for a copy of Q_m.

    order is (words, up, down, lacking): ascending words, their up and down
    masks, and the lacking masks of a whole cube (`_whole_cube`) for
    `_shift_peel`, or None for `_heights`.  Before the patterns are planned,
    a class with no chain of m+1 members is refused, and a taller one past
    MAX_PATTERN_DIM is a ValueError.  Patterns are assigned rank by rank from
    domains of positions with room for a chain of m+1 members, narrowed by
    forward checking: a position taken leaves each later super-pattern its
    untaken strict supersets and, in an induced copy, each later incomparable
    pattern the untaken positions incomparable to it (a weak copy drops taken
    positions on arrival, sparing a pass over every later domain per node);
    an empty domain closes the branch.  Candidates are tried lowest position
    first, so the witness and the node count depend only on the words in
    fam.  The backtrack is one loop over a stack of domain lists, so no
    recursion limit bounds m.
    """
    words, up, down, lacking = order
    size = 1 << m
    if fam.bit_count() < size:
        return None
    if lacking is None:
        peeled = _heights(fam, down, m), _heights(fam, up, m)
    else:
        peeled = _shift_peel(fam, lacking, m)
    if peeled is None:
        return None
    if m > MAX_PATTERN_DIM:
        raise ValueError(f"copy search needs a pattern dimension of at most {MAX_PATTERN_DIM}")
    below, above = peeled
    patterns, ranks, later_sups, later_incomp = _pattern_plan(m)
    # level holds the domains of patterns size-1 down to idx, given the
    # positions of those before idx, and its last entry idx's untried
    # candidates; stack holds the levels before it.
    level = [below[r] & above[m - r] for r in ranks]
    if not all(level):
        return None
    induced = kind is CopyKind.INDUCED
    stack = []
    assigned = [0] * size
    free = fam  # the untaken positions
    nodes = idx = 0
    while True:
        cand = level[-1]
        if not cand:
            if not idx:
                return None
            level = stack.pop()
            idx -= 1
            free |= 1 << assigned[idx]
            continue
        low = cand & -cand
        level[-1] = cand ^ low
        nodes += 1
        if nodes > node_budget:
            raise SearchExhausted(nodes)
        a = low.bit_length() - 1
        assigned[idx] = a
        if idx == size - 1:
            break
        free ^= low
        nxt = level[:-1]
        if _narrow(nxt, later_sups[idx], up[a] & free) and (
            not induced or _narrow(nxt, later_incomp[idx], free & ~(up[a] | down[a]))
        ):
            cand = nxt[-1] & free
            if idx and idx < m:
                # The singletons (positions 1..m) take rising positions.
                # Sorting the singletons of a copy is an automorphism of Q_m
                # and gives a copy no later in the order candidates are tried,
                # so the first copy keeps its singletons rising.
                cand &= -(low << 1)
            nxt[-1] = cand
            stack.append(level)
            level = nxt
            idx += 1
        else:
            free |= low
    images = [0] * size
    for idx, q in enumerate(patterns):
        images[q] = words[assigned[idx]]
    return CopyWitness(kind, m, tuple(images))


def find_copy(
    family,
    m: int,
    kind: CopyKind,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[CopyWitness]:
    """Search a family for a weak or induced copy of Q_m.

    The search is complete: None means no copy exists.  Patterns are assigned
    rank by rank, from candidates with room for a chain of m+1 members through
    them (when the family height equals the height of Q_m, the level of every
    image is forced), narrowed by forward checking as patterns take positions.
    Raises SearchExhausted when more than node_budget candidate assignments
    are tried, and ValueError on a negative member or past MAX_PATTERN_DIM.
    """
    if m < 0:
        raise ValueError("pattern dimension must be >= 0")
    order = _order(family)
    return _search(order, (1 << len(order[0])) - 1, m, kind, node_budget)


def find_chain(family, length: int) -> Optional[Chain]:
    """A chain of exactly `length` sets from the family, or None.

    Complete: the chain ends at the lowest set topping a chain of `length`
    sets, and each step down takes the lowest strict subset one level lower.
    """
    if length < 1:
        raise ValueError("chain length must be >= 1")
    fam, _, down, _ = _order(family)
    if length > len(fam):
        return None
    levels = _heights((1 << len(fam)) - 1, down, length - 1)
    # levels[h]: positions of height >= h+1.  Subsets come first in position
    # order, so the lowest of height >= length has height exactly length, and
    # a strict subset of a height-t set has height >= t-1 iff it is t-1.
    top = levels[-1]
    if not top:
        return None
    i = (top & -top).bit_length() - 1
    out = [fam[i]]
    for level in reversed(levels[:-1]):
        below = down[i] & level & ~(1 << i)
        i = (below & -below).bit_length() - 1
        out.append(fam[i])
    return Chain(tuple(reversed(out)))


@dataclass(frozen=True)
class RamseyOutcome:
    """Result of searching one coloring for a blue Q_m or a red Q_n."""

    blue_witness: Optional[CopyWitness] = None
    red_witness: Optional[CopyWitness] = None

    @property
    def neither(self) -> bool:
        return self.blue_witness is None and self.red_witness is None

    ok = neither  # as for every verify check: True when no witness was found

    def to_obj(self) -> dict:
        blue, red = self.blue_witness, self.red_witness
        return {
            "neither": self.neither,
            "blue_witness": None if blue is None else blue.to_obj(),
            "red_witness": None if red is None else red.to_obj(),
        }


_INDUCED = CopyKind.INDUCED  # a module name reads faster than the enum's class attribute
_NEITHER = RamseyOutcome()  # frozen, so every neither answer can be this one


def coloring_is_ramsey(
    coloring: Coloring,
    m: int,
    n: int,
    kind: CopyKind,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RamseyOutcome:
    """Search the blue side for Q_m, then the red side for Q_n.

    The coloring keeps the answer of each side's completed search, keyed by
    the side, the dimension, the kind and the node budget, and a later call
    with the same key reads it instead of searching again; a search that
    exhausts its budget keeps nothing.  This is exact: a coloring is frozen,
    and `_search`'s answer depends only on the class, dimension, kind and
    budget.  The answers live in the coloring's instance __dict__, so they
    are dropped with it.
    """
    if m < 0 or n < 0:
        raise ValueError("pattern dimension must be >= 0")
    ground = coloring.ground_n
    if ground > MAX_LAYERED_GROUND:  # before the colors are read
        raise ValueError(f"Ramsey search needs a ground of at most {MAX_LAYERED_GROUND}")
    # In the instance __dict__, as a cached_property would store it, but without
    # the descriptor's first read, which costs more than the rest of the store.
    searches = vars(coloring).setdefault("searches", {})
    induced = kind is _INDUCED
    # A blue answer is its outcome, or False when the class holds no Q_m.
    key = ("blue", m, induced, node_budget)
    out = searches.get(key)
    blue = None
    if out is None:
        order = _cube(ground) if ground <= MAX_SCAN_GROUND else _whole_cube(ground)
        blue = coloring.blue_range(0, 1 << ground)
        w = _search(order, blue, m, kind, node_budget)
        out = searches[key] = w is not None and RamseyOutcome(blue_witness=w)
    if out:
        return out
    key = ("red", n, induced, node_budget)
    out = searches.get(key)
    if out is None:
        if blue is None:
            order = _cube(ground) if ground <= MAX_SCAN_GROUND else _whole_cube(ground)
            blue = coloring.blue_range(0, 1 << ground)
        red = ((1 << (1 << ground)) - 1) ^ blue
        w = _search(order, red, n, kind, node_budget)
        out = searches[key] = _NEITHER if w is None else RamseyOutcome(red_witness=w)
    return out


@dataclass(frozen=True)
class RamseyScanResult:
    """Outcome of the exhaustive tiny-scale threshold scan.

    value is the least N <= max_n at which every coloring of Q_N contains a
    blue copy of Q_m or a red copy of Q_n, or None when the threshold exceeds
    max_n ("unknown").  counterexamples maps each ruled-out N to the first
    dense coloring index (in integer order) avoiding both copies.
    colorings_checked counts the colorings decided: for each N scanned, the
    colorings up to and including that index, or all 2^(2^N).  The layered
    lower bound m+n is verified separately and recorded.
    """

    m: int
    n: int
    kind: CopyKind
    max_n: int
    value: Optional[int]
    counterexamples: dict
    colorings_checked: int
    layered_lower_bound: int
    status: str = "complete"  # or "exhausted"

    def to_obj(self) -> dict:
        obj = asdict(self)
        obj["max_N"] = obj.pop("max_n")
        obj["kind"] = self.kind.value
        obj["counterexamples"] = {str(k): v for k, v in self.counterexamples.items()}
        return obj


def _scan_ground(
    ground: int, m: int, n: int, kind: CopyKind, node_budget: int
) -> tuple[Optional[int], int]:
    """First coloring index of Q_ground with neither copy, and count decided.

    Depth-first over the sets from 2^ground - 1 down to 0, red (bit 0) before
    blue, so leaves come in increasing integer order.  A branch closes once
    the class its last set joined holds a copy (red Q_n, blue Q_m): that
    class held none before, so the copy uses the new set and every completion
    keeps it.  Hence the first leaf reached is the first survivor a listing
    in integer order would find.  Recursion depth <= 2^ground.
    """
    order = _cube(ground)

    def first(s: int, blue: int, red: int) -> Optional[int]:
        if s < 0:
            return blue
        bit = 1 << s
        if _search(order, red | bit, n, kind, node_budget) is None:
            found = first(s - 1, blue, red | bit)
            if found is not None:
                return found
        if _search(order, blue | bit, m, kind, node_budget) is None:
            return first(s - 1, blue | bit, red)
        return None

    idx = first((1 << ground) - 1, 0, 0)
    return (None, 1 << (1 << ground)) if idx is None else (idx, idx + 1)


def exhaustive_ramsey_number(
    m: int,
    n: int,
    kind: CopyKind,
    max_n: int = 4,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RamseyScanResult:
    """Exhaustively determine the tiny-scale threshold, scanning N = 1..max_n.

    The colorings of each Q_N are decided in integer order of their dense bit
    vectors by a depth-first search that closes every branch whose partial
    coloring already holds a copy (_scan_ground), stopping at the first
    coloring avoiding both.  Guarded at 1 <= max_n <= MAX_SCAN_GROUND and
    m + n - 1 <= MAX_LAYERED_GROUND.
    """
    if m < 1 or n < 1:
        raise ValueError("pattern dimensions must be >= 1")
    if not 1 <= max_n <= MAX_SCAN_GROUND:
        raise ValueError(f"exhaustive scan needs 1 <= max_N <= {MAX_SCAN_GROUND}")
    if m + n - 1 > MAX_LAYERED_GROUND:
        raise ValueError(f"layered witness needs m + n - 1 <= {MAX_LAYERED_GROUND}")

    # Layered witness: top m layers of Q_{m+n-1} blue; certifies value >= m+n.
    # Its blue side has no chain of m+1 sets and its red side none of n+1, so
    # both searches end at the height peel, before their first node.
    witness = constructions.layered_coloring(m, n)
    lower = m + n if coloring_is_ramsey(witness, m, n, kind, node_budget).neither else 0

    checked = 0
    counterexamples: dict = {}
    value, status = None, "complete"
    try:
        for ground in range(1, max_n + 1):
            idx, scanned = _scan_ground(ground, m, n, kind, node_budget)
            checked += scanned
            if idx is None:
                value = ground
                break
            counterexamples[ground] = idx
    except SearchExhausted:
        status = "exhausted"
    return RamseyScanResult(
        m, n, kind, max_n, value, counterexamples, checked, lower, status
    )
