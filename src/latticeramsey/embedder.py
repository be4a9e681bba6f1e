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
from typing import Callable, Iterator, Optional

from .lattice import (
    Chain,
    Coloring,
    Permutation,
    SetList,
    SetWord,
    _json_field,
    _json_ints,
    cube_bitsets,
    elements_of,
    full_mask,
    mask_of,
    subsets_by_rank,
)

MAX_BASE_DIM = 20
MAX_WIDTH = 20
MAX_SWEEP_WIDTH = 8
EXACT_FACTORIAL_MAX = 10**5  # factorial(10**5) takes 0.3 s, 10**6 9 s (2-core x86 VM)

EMPTY_CHAIN = Chain(())


@dataclass(frozen=True)
class EmbedRecord:
    """Per-subset tables produced by one embedding run.

    All three tables are indexed by the bitmask of A over [n].  images[A] is
    the assigned red set, or None on failure; levels[A] counts the top-block
    elements included in the image (k+1 marks failure); chains[A] is the
    blocking chain of blue sets encountered for A and its subsets.  A subset
    that adds no blue set holds the same Chain object as its donor, so the
    record of a run holds one Chain per subset that adds blue sets, besides
    EMPTY_CHAIN, and a writer renders each once.
    """

    n: int
    k: int
    perm: Permutation
    images: tuple[Optional[SetWord], ...]
    levels: tuple[int, ...]
    chains: tuple[Chain, ...]

    @property
    def succeeded(self) -> bool:
        return None not in self.images

    def failure_chain(self) -> Optional[Chain]:
        """The chain of the failed subset first in cardinality-then-colex
        order, where a sweep stops, or None."""
        for a in subsets_by_rank(self.n):
            if self.images[a] is None:
                return self.chains[a]
        return None

    def to_obj(self) -> dict:
        """The record as values for json_pieces: images stay masks, in a
        SetList, and chains stay Chain objects, which json_pieces writes once
        per distinct object (subsets that add no blue set share their donor's)."""
        return {
            "n": self.n,
            "k": self.k,
            "perm": list(self.perm.image),
            "images": SetList(self.images),
            "levels": self.levels,
            "chains": self.chains,
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
    colex-first proper subset attaining the maximum level.  The levels take
    O(k * n) operations on 2^n-bit ints (_reach), and only the subsets whose
    level differs from that of a subset one element smaller look for their
    chain (_record).
    """
    _check_sizes(coloring, n, k)
    if perm.base != n or perm.width != k:
        raise ValueError("permutation dimensions do not match (n, k)")
    return _record(perm, _reach(coloring, perm, []))


def _reach(coloring: Coloring, perm: Permutation, reach: list[int]) -> list[int]:
    """[U_0, U_1, ...] for perm's n, k and prefixes, up to U_{k+1} or the first
    empty U_t, continuing `reach`, which may hold the first few already.

    U_t is the bitset of the subsets at level >= t, so U_0 is every subset;
    B_t is that of the a with a | prefix_t blue, one blue_range read.  Then
    U_{t+1} is the up-closure of U_t & B_t, taken in n shift-and-or steps.
    An a in U_t & B_t is at a level >= t whose set is blue, so it is past t,
    and levels grow upwards.  Conversely, an a past t holds a minimal such s,
    whose proper subsets are at levels <= t: s's scan starts at or below t
    and passes t, so s | prefix_t is blue.  U_{k+1} is the failed set.  The
    first empty U_t ends the run, so level t is read only when some subset
    reaches it, as a scan subset by subset reads it.  U_{t+1} depends on the
    first t images alone, so a sweep passes on those of the permutation before.
    """
    n, k = perm.base, perm.width
    lacking = cube_bitsets(n)[0]
    reach = reach or [(1 << (1 << n)) - 1]
    while reach[-1] and len(reach) <= k + 1:
        x = reach[-1] & coloring.blue_range(perm.prefixes[len(reach) - 1], 1 << n)
        for j, lack in enumerate(lacking):
            x |= (x & lack) << (1 << j)
        reach.append(x)
    return reach


def _record(perm: Permutation, reach: list[int]) -> EmbedRecord:
    """The full record of a run from its U_t (_reach) and perm's n, k and prefixes.

    Chains by the highest-bit rule.  A subset that adds no blue set copies
    the chain of the colex-first proper subset at its level L, failed or
    not, which is r(a), the least submask of a at level L; so chains[a] is
    the chain of r(a).  Let b be the highest bit of a with a ^ b at level L.
    For each higher bit c, a ^ c is below L, so every submask of a at level
    L holds all of a's bits above b; one that also held b would exceed
    r(a ^ b), which lacks it.  So r(a) lies in a ^ b and r(a) = r(a ^ b).
    With no such b, every proper subset is below L, and a adds blue sets
    (_adder) unless L = 0, where its chain is EMPTY_CHAIN.
    """
    n, k, prefixes = perm.base, perm.width, perm.prefixes
    # levels[a] counts the U_t, t >= 1, holding a: the binary digits of each
    # U_t, bit 0 first, become one byte per subset, and these are summed as
    # ints with no carry
    digits = bytes.maketrans(b"01", b"\0\1")
    spreads = (bin(u)[:1:-1].encode().translate(digits) for u in reach[1:])
    levels = sum(int.from_bytes(b, "little") for b in spreads).to_bytes(1 << n, "little")
    chains = [Chain(tuple(prefixes[: levels[0]])) if levels[0] else EMPTY_CHAIN]
    for j in range(n):
        h = 1 << j
        # a + h takes the chain of a, unless element j+1 moved its level
        chains *= 2
        moved = int.from_bytes(levels[h : 2 * h], "big") ^ int.from_bytes(levels[:h], "big")
        for a in itertools.compress(range(h, 2 * h), moved.to_bytes(h, "big")):
            level, rest = levels[a], a ^ h
            while rest:
                b = 1 << rest.bit_length() - 1
                if levels[a ^ b] == level:
                    chains[a] = chains[a ^ b]
                    break
                rest ^= b
            else:
                donor, beta = _adder(a, levels.__getitem__)
                new_blue = tuple(a | p for p in prefixes[beta:level])
                chains[a] = Chain(chains[donor].sets + new_blue)
    images = tuple(None if lv > k else a | prefixes[lv] for a, lv in enumerate(levels))
    return EmbedRecord(n, k, perm, images, tuple(levels), tuple(chains))


def _failure_chain(perm: Permutation, reach: list[int]) -> Chain:
    """The blocking chain of the first failed subset in rank order, from perm's
    n, k and prefixes and the U_t of a failed run (_reach), with no per-subset table.

    That subset is the least bit of the first nonempty layer of U_{k+1}.  Its
    proper subsets lie in earlier layers and so do not fail: it adds blue
    sets, and its chain is built by _adder from donor to donor, the levels
    read as bit tests on the nested U_t.
    """

    def level_of(s: SetWord) -> int:
        return sum(1 for _ in itertools.takewhile(lambda u: u >> s & 1, reach[1:]))

    n, k, prefixes = perm.base, perm.width, perm.prefixes
    first = next(filter(None, (reach[k + 1] & c for c in cube_bitsets(n)[1])))
    a, level, sets = (first & -first).bit_length() - 1, k + 1, ()
    while level:  # each donor adds the blue sets below its adder's
        donor, beta = _adder(a, level_of)
        sets = tuple(a | p for p in prefixes[beta:level]) + sets
        a, level = donor, beta
    return Chain(sets)


def _adder(a: SetWord, level_of: Callable[[SetWord], int]) -> tuple[SetWord, int]:
    """(donor, beta) for a subset a whose proper subsets all sit below its level.

    Such an a adds the blue sets a | prefix_i for i from beta, the highest
    level among its immediate subsets (each proper subset lies below one),
    up to its own level.  Its chain continues that of the donor, the
    colex-first proper subset at level beta, so the donor is also the least
    submask of a at level >= beta: a qualifies but exceeds every proper one.
    Those submasks form an up-set within a, so bits are dropped highest
    first while the level stays >= beta: the least member lacks a bit iff
    some member agreeing with the bits decided so far lacks it, iff the
    largest such set does.  For beta = 0 the donor is the empty set, whose
    chain is EMPTY_CHAIN.
    """
    bits = [1 << j for j in range(a.bit_length()) if a >> j & 1]
    beta = max((level_of(a ^ b) for b in bits), default=0)
    donor = a
    for b in reversed(bits):
        if level_of(donor ^ b) >= beta:
            donor ^= b
    return donor, beta


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
                {"perm": list(p), "chain": c} for p, c in self.failures
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
    owners: dict[tuple[SetWord, SetWord], tuple[int, ...]] = {}  # by chain endpoints
    collisions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    recover_ok = True
    success: Optional[EmbedRecord] = None
    reach: list[int] = []
    prev: tuple[int, ...] = ()
    for img in perm_images:
        perm = Permutation(n, k, img)
        same = 0  # U_{t+1} depends on the first t images alone (_reach)
        while same < len(prev) and img[same] == prev[same]:
            same += 1
        reach, prev = _reach(coloring, perm, reach[: same + 2]), img
        if not reach[-1]:  # no subset failed
            success = _record(perm, reach)
            break
        chain = _failure_chain(perm, reach)
        if tuple(recover_permutation(chain, n)) != img:
            recover_ok = False
        failures.append((img, chain))
        owner = owners.setdefault((chain[0], chain[-1]), img)
        if owner != img:
            collisions.append((owner, img))
    done = success is not None  # then no collisions are reported
    return SweepReport(
        n,
        k,
        mode_desc,
        len(failures) + done,
        success,
        tuple(failures),
        () if done else tuple(collisions),
        None if done else not collisions,
        recover_ok,
    )


LOG2_E = log2(e)


@dataclass(frozen=True)
class BoundReport:
    """Exact comparison of k! against 2^(2(n+k)) for k = floor(c*n/log2 n).

    contradiction is decided in floats, or with big integers when the
    log-domain margin is thin.  The report also carries the classical lower estimate
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
    """Decide k! > 2^exponent in floats, or exactly when the margin is thin."""
    approx = _log2_factorial(k)
    if approx - exponent > 1e-3:
        return True, "log-domain"
    if approx - exponent < -1e-3:
        return False, "log-domain"
    if k > EXACT_FACTORIAL_MAX:
        raise ValueError(
            f"{k}! > 2^{exponent} needs an exact check, capped at k = {EXACT_FACTORIAL_MAX}"
        )
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
    """Least k with k! > 2^(2(n+k)), each probe decided by _factorial_exceeds_power.

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
