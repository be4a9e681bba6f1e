"""Recursive embedding of Q_n into the red side of a colored Q_{n+k}.

Given a permutation of the top block [n+1, n+k], the embedder processes the
subsets A of [n], each after all of its subsets, and tries to map each one to
the red set A + {first few permuted top elements}, extending past any blue
sets it hits.  Per subset it records the image (or a failure marker), the
number of top elements consumed (the "level"), and the chain of blue sets
swallowed along the way (the "blocking chain").  A failed run yields a
blocking chain of length k+1 from which the permutation can be read back off,
which is what makes the all-permutation sweep and the factorial counting
bound work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from math import e, factorial, floor, inf, isfinite, lgamma, log2
from typing import Iterator, Optional

from .lattice import (
    Chain,
    Coloring,
    Permutation,
    SetList,
    SetWord,
    _json_field,
    _json_ints,
    elements_of,
    full_mask,
    mask_of,
    subsets_by_rank,
)

MAX_BASE_DIM = 20
MAX_WIDTH = 20
MAX_SWEEP_WIDTH = 8

EMPTY_CHAIN = Chain(())


@dataclass(frozen=True)
class EmbedRecord:
    """Per-subset tables produced by one embedding run.

    All three tables are indexed by the bitmask of A over [n].  images[A] is
    the assigned red set, or None on failure; levels[A] counts the top-block
    elements included in the image (k+1 marks failure); chains[A] is the
    blocking chain of blue sets encountered for A and its subsets.  A subset
    that adds no blue set holds the same Chain object as its donor.
    """

    n: int
    k: int
    perm: Permutation
    images: tuple[Optional[SetWord], ...]
    levels: tuple[int, ...]
    chains: tuple[Chain, ...]

    @property
    def succeeded(self) -> bool:
        return all(img is not None for img in self.images)

    def first_failure(self) -> Optional[SetWord]:
        """The failed subset first in cardinality-then-colex order, or None:
        the subset at which a sweep stops, whose chain failure_chain returns."""
        for a in subsets_by_rank(self.n):
            if self.images[a] is None:
                return a
        return None

    def failure_chain(self) -> Optional[Chain]:
        a = self.first_failure()
        return None if a is None else self.chains[a]

    def to_obj(self) -> dict:
        """The record as JSON-able values for json_pieces: images stay masks,
        in a SetList that json_pieces writes as element arrays."""
        # Subsets that add no blue set share their donor's Chain object, so
        # each distinct object is converted once and its dict is shared too.
        objs = {key: c.to_obj() for key, c in {id(c): c for c in self.chains}.items()}
        return {
            "n": self.n,
            "k": self.k,
            "perm": list(self.perm.image),
            "images": SetList(self.images),
            "levels": list(self.levels),
            "chains": [objs[id(c)] for c in self.chains],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "EmbedRecord":
        """Decode `to_obj` output; a field of the wrong JSON type is a ValueError."""
        obj = _json_field(obj, dict, "embedding record")
        n, k = (_json_field(obj[key], int, key) for key in ("n", "k"))
        images = _json_field(obj["images"], list, "images")
        return cls(
            n,
            k,
            Permutation(n, k, tuple(_json_ints(obj["perm"], "perm"))),
            tuple(
                None if img is None else mask_of(_json_ints(img, "image"))
                for img in images
            ),
            tuple(_json_ints(obj["levels"], "levels")),
            tuple(map(Chain.from_obj, _json_field(obj["chains"], list, "chains"))),
        )


def _check_sizes(coloring: Coloring, n: int, k: int) -> None:
    """Refuse an (n, k) that does not match the coloring or exceeds a cap."""
    if coloring.ground_n != n + k:
        raise ValueError(
            f"coloring is over [{coloring.ground_n}], expected [{n + k}]"
        )
    if n > MAX_BASE_DIM:
        raise ValueError(f"base dimension capped at {MAX_BASE_DIM}")
    if k > MAX_WIDTH:
        raise ValueError(f"width capped at {MAX_WIDTH}")


def embed_with_permutation(
    coloring: Coloring, n: int, k: int, perm: Permutation
) -> EmbedRecord:
    """Run the recursive embedding for one permutation of the top block.

    Ties are broken deterministically: failure propagates from the colex-first
    failed proper subset, and the blocking-chain prefix is copied from the
    colex-first proper subset attaining the maximum level.  Both are read
    from per-subset tables, so a run does O(n * 2^n) work, not O(3^n).
    """
    _check_sizes(coloring, n, k)
    if perm.base != n or perm.width != k:
        raise ValueError("permutation dimensions do not match (n, k)")
    rec = _embed(coloring, n, k, perm, stop_at_failure=False)
    assert isinstance(rec, EmbedRecord)
    return rec


def _embed(
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
    level_blue: list[Optional[bytes]] = [None] * (k + 1)

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
            if not blue[a >> 3] >> (a & 7) & 1:
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


def recover_permutation(chain: Chain, n: int) -> list[int]:
    """Read the permutation back off a blocking chain.

    The chain must have the blocking shape: chain[i] minus [n] has exactly i
    elements and consecutive sets differ by one top-block element.  Returns
    [pi(n+1), ..., pi(n+len-1)].
    """
    base = full_mask(n)
    out: list[int] = []
    for i, s in enumerate(chain):
        top = s & ~base
        if top.bit_count() != i:
            raise ValueError(
                f"chain set {elements_of(s)} has {top.bit_count()} top elements, "
                f"expected {i}"
            )
        if i == 0:
            continue
        diff = (s & ~chain[i - 1]) & ~base
        if diff.bit_count() != 1:
            raise ValueError(
                f"chain step {i} adds {diff.bit_count()} top elements, expected 1"
            )
        out.append(diff.bit_length())
    return out


@dataclass(frozen=True)
class SweepReport:
    """Outcome of running the embedder over many permutations.

    If any permutation produced a full embedding, success holds the first one
    (in permutation rank order) and the failure data covers only earlier
    permutations.  Otherwise failures holds one blocking chain per permutation
    and the report records whether the map perm -> (chain bottom, chain top)
    was injective, listing any colliding permutation pairs.
    """

    n: int
    k: int
    mode: str
    perms_run: int
    success: Optional[EmbedRecord]
    failures: tuple[tuple[tuple[int, ...], Chain], ...]
    collisions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    injective: Optional[bool]
    recover_ok: bool

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "mode": self.mode,
            "perms_run": self.perms_run,
            "success": None if self.success is None else self.success.to_obj(),
            "failures": [
                {"perm": list(p), "chain": c.to_obj()} for p, c in self.failures
            ],
            "collisions": [[list(p), list(q)] for p, q in self.collisions],
            "injective": self.injective,
            "recover_ok": self.recover_ok,
        }


def _sampled_perm_images(
    n: int, k: int, count: int, seed: int
) -> Iterator[tuple[int, ...]]:
    """Draw count permutations, yielding each new one as it is drawn."""
    rng = random.Random(seed)
    values = list(range(n + 1, n + k + 1))
    total = factorial(k)
    seen = set()
    for _ in range(count):
        img = tuple(rng.sample(values, k))
        if img not in seen:
            seen.add(img)
            yield img
            if len(seen) == total:  # every later draw would be a duplicate
                return


def sweep_permutations(
    coloring: Coloring,
    n: int,
    k: int,
    mode: str = "all",
    sample_count: int = 0,
    seed: int = 0,
) -> SweepReport:
    """Run the embedder per permutation and summarize.

    mode="all" iterates all k! permutations in lexicographic rank order
    (guarded at k <= 8); mode="sample" draws sample_count permutations from
    the given seed, deduplicated in draw order and stopping once all k! have
    been drawn.
    """
    if mode == "all":
        if k > MAX_SWEEP_WIDTH:
            raise ValueError(f"all-permutations sweep guarded at k <= {MAX_SWEEP_WIDTH}")
        perm_images: Iterator[tuple[int, ...]] = itertools.permutations(
            range(n + 1, n + k + 1)
        )
        mode_desc = "all"
    elif mode == "sample":
        if sample_count < 1:
            raise ValueError("sample mode needs sample_count >= 1")
        perm_images = _sampled_perm_images(n, k, sample_count, seed)
        mode_desc = f"sample({sample_count}, seed={seed})"
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")
    _check_sizes(coloring, n, k)  # before the first draw

    failures: list[tuple[tuple[int, ...], Chain]] = []
    recover_ok = True
    run = 0
    for img in perm_images:
        # a failed permutation stops at its rank-first failed subset (_embed)
        out = _embed(coloring, n, k, Permutation(n, k, img), stop_at_failure=True)
        run += 1
        if isinstance(out, EmbedRecord):
            return SweepReport(
                n, k, mode_desc, run, out, tuple(failures), (), None, recover_ok
            )
        if tuple(recover_permutation(out, n)) != img:
            recover_ok = False
        failures.append((img, out))

    endpoint_owner: dict[tuple[SetWord, SetWord], tuple[int, ...]] = {}
    collisions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for img, chain in failures:
        key = (chain[0], chain[len(chain) - 1])
        if key in endpoint_owner:
            collisions.append((endpoint_owner[key], img))
        else:
            endpoint_owner[key] = img
    return SweepReport(
        n,
        k,
        mode_desc,
        run,
        None,
        tuple(failures),
        tuple(collisions),
        not collisions,
        recover_ok,
    )


LOG2_E = log2(e)


@dataclass(frozen=True)
class BoundReport:
    """Exact comparison of k! against 2^(2(n+k)) for k = floor(c*n/log2 n).

    contradiction is decided exactly (big integers when the log-domain margin
    is thin).  The report also carries the classical lower estimate
    k*(log2 k - log2 e) on log2 k!, and whether the 0.8797-coefficient
    shortcut relating it to k*log2 k holds at this k; neither is asserted
    anywhere, they are informational.
    """

    n: int
    c: float
    k: int
    exponent: int
    log2_factorial: float
    contradiction: bool
    method: str
    stirling_lower_bits: float
    stirling_coeff_ok: bool

    def to_obj(self) -> dict:
        return asdict(self)


def _log2_factorial(k: int) -> float:
    return lgamma(k + 1) / 0.6931471805599453


def _factorial_exceeds_power(k: int, exponent: int) -> tuple[bool, str]:
    """Exactly decide k! > 2^exponent, with a float fast path."""
    approx = _log2_factorial(k)
    if approx - exponent > 1e-3:
        return True, "log-domain"
    if approx - exponent < -1e-3:
        return False, "log-domain"
    return factorial(k) > 1 << exponent, "exact"


def counting_bound(n: int, c: float) -> BoundReport:
    """Decide whether k = floor(c*n/log2 n) permutations out-count chain pairs."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ratio = c * n / log2(n)
    if not isfinite(ratio):
        raise ValueError(f"c * n / log2(n) is not finite for c = {c}")
    k = floor(ratio)
    if k < 0:
        raise ValueError(f"c = {c} gives k = floor(c * n / log2(n)) = {k} < 0")
    try:
        log2_fact = _log2_factorial(k)
    except OverflowError:  # in lgamma; a smaller k can still overflow the / ln 2
        log2_fact = inf
    if not isfinite(log2_fact):
        raise ValueError(f"c = {c} gives a k whose log2(k!) overflows a float")
    exponent = 2 * (n + k)
    contradiction, method = _factorial_exceeds_power(k, exponent)
    if k >= 1:
        stirling = k * (log2(k) - LOG2_E)
        coeff_ok = 0.8797 * k * log2(k) <= stirling
    else:
        stirling = 0.0
        coeff_ok = False
    return BoundReport(
        n,
        c,
        k,
        exponent,
        log2_fact,
        contradiction,
        method,
        stirling,
        coeff_ok,
    )


def minimal_k(n: int) -> int:
    """Least k with k! > 2^(2(n+k)), decided exactly at each probe.

    The predicate is false for k <= 4 (k! <= 24) and, from k = 4 on, its
    log-margin log2 k! - 2(n+k) grows by log2(k+1) - 2 > 0 per step, so it is
    false and then true for every larger k.  Doubling brackets the crossing
    and bisection finds it, in O(log n) probes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    def exceeds(k: int) -> bool:
        return _factorial_exceeds_power(k, 2 * (n + k))[0]

    lo, hi = 4, 8  # exceeds(lo) is false
    while not exceeds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # exceeds(lo) is false and exceeds(hi) true
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid
    return hi
