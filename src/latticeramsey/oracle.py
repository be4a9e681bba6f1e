"""Complete searches for copies of small Boolean lattices inside set families.

This is the ground-truth side of the package: a backtracking searcher for weak
and induced copies of Q_m, a longest-chain finder, and an exhaustive scan of
all 2^(2^N) colorings of tiny ground sets.  Everything here is decided by
explicit search; the structural certifiers elsewhere are cross-checked against
these results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .lattice import Chain, Coloring, SetWord, elements_of, is_subset, subsets_by_rank

DEFAULT_NODE_BUDGET = 10**8


class CopyKind(Enum):
    INDUCED = "induced"
    WEAK = "weak"


class SearchExhausted(Exception):
    """The node budget ran out before the search completed.

    Distinct from a completed search returning no witness: an exhausted search
    says nothing about existence.
    """

    def __init__(self, nodes: int):
        super().__init__(f"search exhausted after {nodes} nodes")
        self.nodes = nodes


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


def find_copy(
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


def find_chain(family, length: int) -> Optional[Chain]:
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


@dataclass(frozen=True)
class RamseyOutcome:
    """Result of searching one coloring for a blue Q_m or a red Q_n."""

    blue_witness: Optional[CopyWitness] = None
    red_witness: Optional[CopyWitness] = None

    @property
    def neither(self) -> bool:
        return self.blue_witness is None and self.red_witness is None


def coloring_is_ramsey(
    coloring: Coloring,
    m: int,
    n: int,
    kind: CopyKind,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RamseyOutcome:
    """Search the blue side for Q_m, then the red side for Q_n."""
    blue = coloring.blue_family()
    w = find_copy(blue, m, kind, node_budget)
    if w is not None:
        return RamseyOutcome(blue_witness=w)
    red = coloring.red_family()
    w = find_copy(red, n, kind, node_budget)
    if w is not None:
        return RamseyOutcome(red_witness=w)
    return RamseyOutcome()


@dataclass(frozen=True)
class RamseyScanResult:
    """Outcome of the exhaustive tiny-scale threshold scan.

    value is the least N <= max_n at which every coloring of Q_N contains a
    blue copy of Q_m or a red copy of Q_n, or None when the threshold exceeds
    max_n ("unknown").  counterexamples maps each ruled-out N to the first
    dense coloring index (in integer order) avoiding both copies.  The layered
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
        return {
            "m": self.m,
            "n": self.n,
            "kind": self.kind.value,
            "max_N": self.max_n,
            "value": self.value,
            "counterexamples": {str(k): v for k, v in self.counterexamples.items()},
            "colorings_checked": self.colorings_checked,
            "layered_lower_bound": self.layered_lower_bound,
            "status": self.status,
        }


def _scan_chunk(args) -> Optional[int]:
    ground, m, n, kind_value, start, stop, node_budget = args
    kind = CopyKind(kind_value)
    for idx in range(start, stop):
        c = Coloring.dense_from_int(ground, idx)
        if coloring_is_ramsey(c, m, n, kind, node_budget).neither:
            return idx
    return None


def _scan_ground(
    ground: int, m: int, n: int, kind: CopyKind, node_budget: int, workers: int = 1
) -> tuple[Optional[int], int]:
    """First coloring index of Q_ground with neither copy, and count scanned.

    With workers > 1 the index range is split into ordered chunks processed by
    a process pool of at most os.cpu_count() workers; results are consumed in
    chunk order, so the reported counterexample is the smallest one regardless
    of scheduling.
    """
    total = 1 << (1 << ground)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or total < 8192:
        idx = _scan_chunk((ground, m, n, kind.value, 0, total, node_budget))
        return (idx, idx + 1) if idx is not None else (None, total)
    import multiprocessing

    chunk = 2048
    tasks = [
        (ground, m, n, kind.value, s, min(s + chunk, total), node_budget)
        for s in range(0, total, chunk)
    ]
    with multiprocessing.Pool(workers) as pool:
        for res in pool.imap(_scan_chunk, tasks):
            if res is not None:
                pool.terminate()
                return res, res + 1
    return None, total


def exhaustive_ramsey_number(
    m: int,
    n: int,
    kind: CopyKind,
    max_n: int = 4,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> RamseyScanResult:
    """Exhaustively determine the tiny-scale threshold, scanning N = 1..max_n.

    Colorings of each Q_N are enumerated in integer order of their dense bit
    vectors, with early exit on the first coloring avoiding both copies.
    Guarded at max_n <= 5.
    """
    if m < 1 or n < 1:
        raise ValueError("pattern dimensions must be >= 1")
    if max_n > 5:
        raise ValueError("exhaustive scan guarded at max_N <= 5")

    # Layered witness: top m layers of Q_{m+n-1} blue; certifies value >= m+n.
    from .constructions import layered_coloring

    witness = layered_coloring(m, n)
    lower = 0
    try:
        if coloring_is_ramsey(witness, m, n, kind, node_budget).neither:
            lower = m + n
    except SearchExhausted:
        lower = 0

    checked = 0
    counterexamples: dict = {}
    value, status = None, "complete"
    try:
        for ground in range(1, max_n + 1):
            idx, scanned = _scan_ground(ground, m, n, kind, node_budget, workers)
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
