"""Independent structural certification of colorings, codes, and embeddings.

Embeddings are re-verified from color lookups and subset tests alone, code
coverage is counted by an independent dynamic program, and
monochromatic-freeness of the package's colorings is certified by the
layer-forcing arguments their shapes support (cross-checked against the
exhaustive oracle wherever both can run).  The family conditions are read off
lattice.event_violations, the routine the resampler also starts from, decided
once per family (WeightedFamily.violations) and shared by the certifiers; the
test suite checks them against a brute-force scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from functools import lru_cache
from itertools import repeat
from math import comb
from operator import eq, is_, or_
from typing import Optional

from .constructions import low_block_layers, size_window, spread_layers
from .embedder import EmbedRecord
from .lattice import (
    Coloring,
    SetWord,
    WeightedFamily,
    check_enumerable,
    elements_of,
    full_mask,
    iter_submasks,
    layer,
)

LLL_DIGITS = 60  # decimal precision of the local-lemma report
# check_code_statement's steps: C(N,m)·m(k+1) lookups plus (k+1)p per table,
# at most C(N,m-1) tables.  On a 2-core x86 VM the largest admitted runs at
# m <= 4 take 0.7-0.8 s ((34,4,14,46,1), (36,4,13,37,1)); at m = 5 the
# per-set loop costs about twice as much a step ((29,5,10,1,0) 1.4 s).
CODE_STATEMENT_WORK = 7 * 10**6


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a structural check: ok, or a witness of failure (SetWords)."""

    ok: bool
    witness: Optional[tuple[SetWord, ...]] = None
    detail: str = ""

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "witness": None if self.witness is None else list(map(elements_of, self.witness)),
            "detail": self.detail,
        }


def check_min_distance(fam: WeightedFamily, bound: int) -> CheckResult:
    """All distinct members at pairwise symmetric difference >= bound.

    Implicit families are materialized (guarded by lattice.ENUMERATION_LIMIT).
    On failure the witness is the colex-first violating pair.
    """
    members = fam.enumerated_members()
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if (a ^ b).bit_count() < bound:
                return CheckResult(False, (a, b), "pair below distance bound")
    return CheckResult(True, detail=f"{len(members)} members checked")


@dataclass(frozen=True)
class DpTable:
    """Counts of s-subsets of a ground set by element-sum residue.

    counts[s][r] is the number of s-subsets of the allowed elements whose
    element sum is congruent to r mod the modulus; counts[0][0] == 1.  Rows
    are lists of exact ints, never mutated once the table is built.
    """

    ground: SetWord
    size_cap: int
    modulus: int
    counts: tuple[list[int], ...]

    def count(self, size: int, residue: int) -> int:
        return self.counts[size][residue % self.modulus]

    def _rest(self, el: int) -> SetWord:
        """ground - {el}, refused unless el is in the ground and the size cap fits."""
        if not (el >= 1 and self.ground >> (el - 1) & 1):
            raise ValueError(f"element {el} is not in the table's ground set")
        rest = self.ground & ~(1 << (el - 1))
        if self.size_cap > rest.bit_count():
            raise ValueError("size cap exceeds the number of allowed elements")
        return rest

    def without(self, el: int) -> DpTable:
        """The table of ground - {el}, by inverting the add-one-element step:
        G[s][r] = F[s][r] - G[s-1][(r - el) mod p], for s from 1 up."""
        rest = self._rest(el)
        shift = el % self.modulus
        rows = [self.counts[0]]
        for row in self.counts[1:]:
            below = rows[-1]
            rows.append([a - b for a, b in zip(row, below[-shift:] + below[:-shift])])
        return DpTable(rest, self.size_cap, self.modulus, tuple(rows))

    def count_without(self, el: int, size: int, residue: int) -> int:
        """without(el).count(size, residue) in size+1 lookups, not a new table:
        unrolling without's recurrence gives the alternating sum
        G[s][r] = sum over j of (-1)^j F[s-j][(r - j el) mod p]."""
        self._rest(el)
        p = self.modulus
        cells = [row[(residue - j * el) % p] for j, row in enumerate(self.counts[size::-1])]
        return sum(cells[::2]) - sum(cells[1::2])


def build_dp_table(ground: SetWord, size_cap: int, modulus: int) -> DpTable:
    """Exact size-and-residue subset counts over the elements of `ground`:
    adding element el adds row s-1, rotated by el places, to each row s."""
    if modulus < 1 or size_cap < 0:
        raise ValueError("need modulus >= 1 and size cap >= 0")
    if size_cap > ground.bit_count():
        raise ValueError("size cap exceeds the number of allowed elements")
    rows = [[1] + [0] * (modulus - 1)] + [[0] * modulus for _ in range(size_cap)]
    for el in elements_of(ground):
        shift = el % modulus
        for s in range(size_cap, 0, -1):
            below = rows[s - 1]
            rows[s] = [a + b for a, b in zip(rows[s], below[-shift:] + below[:-shift])]
    return DpTable(ground, size_cap, modulus, tuple(rows))


def dp_count(ground: SetWord, k: int, p: int, r: int) -> int:
    """Number of k-subsets of `ground` with element sum = r (mod p)."""
    return build_dp_table(ground, k, p).count(k, r)


@dataclass(frozen=True)
class CodeStatementResult:
    """Coverage check of a residue code: every (avoid-set, element) pair is hit."""

    ok: bool
    witness: Optional[tuple[SetWord, int]]
    pairs_checked: int
    hypotheses_ok: bool

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "witness": None
            if self.witness is None
            else {"Y": elements_of(self.witness[0]), "y": self.witness[1]},
            "pairs_checked": self.pairs_checked,
            "hypotheses_ok": self.hypotheses_ok,
        }


def check_code_statement(
    ground: int, m: int, k: int, p: int, d: int
) -> CodeStatementResult:
    """For every m-set Y and y in Y: some k-subset of [ground] - Y completes
    with y to a code member (element sum d mod p).

    Decided by exact counting: one residue table of the whole ground set,
    from which each Y's elements but its least are divided out, largest
    first; the m counts for Y are then cells of that table with the least
    element divided out too (DpTable.count_without, k+1 lookups each).
    layer() is colex, so consecutive sets Y share their largest elements, and
    the tables of those shared top parts are kept on a stack (at most m - 1
    beyond the full one): DpTable.without runs once per distinct top part.
    The size-window hypotheses under which this is guaranteed are evaluated
    and reported, but parameters outside them are still checked (exploratory
    use).  Refused past ENUMERATION_LIMIT sets Y, or past CODE_STATEMENT_WORK
    steps: C(N, m) m (k+1) lookups plus (k+1)p steps for each table, the
    whole ground's and one per distinct top part, at most C(N, m-1) in all.
    """
    if ground < 0:  # full_mask would fail on a negative shift count
        raise ValueError(f"ground size {ground} is negative")
    k_min, k_max = size_window(ground, m)
    hypotheses_ok = ground > m and k_min <= k <= k_max
    check_enumerable(ground, m)
    if 0 <= m <= ground:
        top = max(m - 1, 0)
        work = (comb(ground, m) * m + comb(ground, top) * p) * (k + 1)
        if work > CODE_STATEMENT_WORK:
            raise ValueError(
                f"{work} table steps, C({ground},{m})m(k+1) + C({ground},{top})(k+1)p,"
                f" exceed {CODE_STATEMENT_WORK:.0e}"
            )
    tables = [build_dp_table(full_mask(ground), k, p)]  # tables[j]: tops[:j] out
    if m == 0:  # the one empty Y has no pairs
        return CodeStatementResult(True, None, 0, hypotheses_ok)
    pairs = 0
    tops: list[int] = []  # the previous Y's top part (all but its least), largest first
    for avoid in layer(ground, m):
        *top, least = elements_of(avoid)[::-1]
        shared = 0
        while shared < len(tops) and tops[shared] == top[shared]:
            shared += 1
        del tables[shared + 1:]
        for y in top[shared:]:
            tables.append(tables[-1].without(y))
        tops, table = top, tables[-1]
        for y in (least, *reversed(top)):
            pairs += 1
            if table.count_without(least, k, (d - y) % p) < 1:
                return CodeStatementResult(False, (avoid, y), pairs, hypotheses_ok)
    return CodeStatementResult(True, None, pairs, hypotheses_ok)


@dataclass(frozen=True)
class ConditionsResult:
    """Scan of the two family conditions used by the resampled construction.

    Violations are (kind, set, count) triples: kind "undersupplied" for an
    (m-1)-set with fewer than 2 supersets, "oversubscribed" for an (m+1)-set
    with at least m subsets, each class in lexicographic order.
    """

    ok: bool
    violations: tuple[tuple[str, SetWord, int], ...]

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": kind, "set": elements_of(s), "count": cnt}
                for kind, s, cnt in self.violations
            ],
        }


def check_conditions(fam: WeightedFamily) -> ConditionsResult:
    """Every (m-1)-set has >= 2 supersets in fam; every (m+1)-set <= m-1 subsets."""
    under, over = fam.violations
    violations = tuple(
        [("undersupplied", s, cnt) for s, cnt in under]
        + [("oversubscribed", t, cnt) for t, cnt in over]
    )
    return ConditionsResult(not violations, violations)


class UnknownShape(ValueError):
    """The coloring does not match any construction this verifier certifies."""


def _detect_shape(coloring: Coloring) -> tuple[str, int, int, WeightedFamily]:
    """Classify a structured coloring; returns (shape, k-or-0, m, partial layer).

    "spread": constructions.spread_layers(k, m), m >= 2, with a partial layer
    of size k+1 (the pair-code and mod-p colorings).  "low-block":
    constructions.low_block_layers(m) with a partial layer of size m (the
    resampled coloring).
    """
    if coloring.is_dense:
        raise UnknownShape("dense coloring carries no construction shape")
    try:
        fam = coloring.partial_layer
    except ValueError as exc:
        raise UnknownShape(str(exc)) from None
    layers, w = coloring.blue_layers, fam.weight
    # spread_layers(k, m) holds m layers, so m = len(layers)
    if len(layers) >= 2 and layers == spread_layers(w - 1, len(layers)):
        return "spread", w - 1, len(layers), fam
    if layers == low_block_layers(w):
        return "low-block", 0, w, fam
    raise UnknownShape(f"layers {sorted(layers)} with extras at {w} match no known shape")


def certify_blue_free(coloring: Coloring, m: int) -> CheckResult:
    """Certify that the blue side contains no copy of Q_m (weak, hence induced).

    Shape-aware: the blue layers force the size of every image level, so the
    only freedom a copy would have sits on the partial layer, where it is
    killed by the pairwise-distance or subset-count property.  Certificates
    cover weak copies, which subsume induced ones.
    """
    shape, k, shape_m, fam = _detect_shape(coloring)
    if m != shape_m:
        raise ValueError(f"coloring shape certifies m = {shape_m}, asked for {m}")
    if shape == "spread":
        # Singleton images are forced onto the code layer and pairwise share a
        # forced bottom, so any copy needs two code sets at distance 2.
        if not fam.is_explicit and fam.modp_p >= coloring.ground_n:
            # One element-swap changes the residue sum by a nonzero amount
            # mod p, so distance-2 pairs cannot exist; nothing to scan.
            return CheckResult(
                True,
                detail=f"residue code mod {fam.modp_p} >= N forbids distance-2 pairs",
            )
        res = check_min_distance(fam, 4)
        if not res.ok:
            return res
        return CheckResult(True, detail=f"forced sizes + distance >= 4 on layer {k + 1}")

    # low-block: the m level-(m-1) images are forced into the partial layer
    # and under a common top of size m+1, so the subset-count condition kills
    # every copy.  The witness is the lex-first top, as in check_conditions.
    _, over = fam.violations
    if over:
        return CheckResult(False, (over[0][0],), "a top hosts m family members")
    return CheckResult(True, detail="forced sizes + subset cap on the partial layer")


def certify_red_singleton_bound(coloring: Coloring, n: int, m: int) -> CheckResult:
    """Red side of the resampled coloring cannot host Q_n: every candidate
    bottom on layer m-1 has at most n-1 red supersets on layer m.

    Layer m is not a blue layer, so S has (N - m + 1) - ups[S].bit_count()
    red supersets there, ups[S] being S's element mask (event_counts) in the
    partial layer's blue family.  At N = n + m that is more than n - 1 exactly
    when S is undersupplied, so the witness is the colex-first undersupplied set.
    """
    shape, _, shape_m, fam = _detect_shape(coloring)
    if shape != "low-block" or shape_m != m:
        raise UnknownShape("red-side certificate applies to the resampled shape")
    ground = coloring.ground_n
    if ground != n + m:
        raise ValueError(f"coloring ground {ground} != n + m = {n + m}")
    under, _ = fam.violations
    if under:
        s, cnt = min(under)  # colex order is ascending mask order
        return CheckResult(False, (s,), f"{n + 1 - cnt} red supersets > {n - 1}")
    return CheckResult(True, detail="every bottom has <= n-1 red supersets")


@dataclass(frozen=True)
class LllReport:
    """Both sides of the asymmetric local-lemma inequality, at high precision.

    P_AS / P_BT are the exact closed-form probabilities that an (m-1)-set is
    undersupplied / an (m+1)-set oversubscribed under independent
    Bernoulli(p) membership; rhs_* are the corresponding event-weight bounds
    with the dependency counts deps_* (pairs: A-events, B-events).
    """

    n: int
    m: int
    p_inclusion: float
    x_y: float
    x_z: float
    p_as: float
    p_bt: float
    rhs_as: float
    rhs_bt: float
    satisfied_as: bool
    satisfied_bt: bool
    deps_as: tuple[int, int]
    deps_bt: tuple[int, int]


def lll_inequality_report(n: int, m: int, p_incl: Optional[float] = None) -> LllReport:
    """Evaluate the local-lemma inequality for both event classes.

    An undersupplied event depends on n(n+1)/2 oversubscription events and
    (m-1)(n+1) other undersupply events; an oversubscription event depends on
    m(m+1)/2 undersupply events and (n-1)(m+1) other oversubscriptions.
    Computed in LLL_DIGITS-digit decimal arithmetic over the widest
    exponent range, so boundary parameters are not misclassified and tiny
    probabilities do not flush to zero; no satisfaction value is asserted
    here (at moderate n the undersupply side genuinely fails).
    """
    if m < 2 or n < 2:
        raise ValueError("need n, m >= 2")
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = LLL_DIGITS, MIN_EMIN, MAX_EMAX
        if p_incl is None:
            p = (4 * (m + 1) * (Decimal(n) ** 2 - 1) * Decimal(1).exp()) ** (Decimal(-1) / m)
        else:
            p = Decimal(p_incl)
        y = 1 / Decimal(4 * (m - 1) * (n + 1))
        z = 1 / Decimal(4 * (n - 1) * (n + 1))

        q = 1 - p
        p_as = (n + 1) * q**n * p + q ** (n + 1)
        p_bt = (m + 1) * p**m * q + p ** (m + 1)

        deps_as = ((m - 1) * (n + 1), (n + 1) * n // 2)
        deps_bt = ((m + 1) * m // 2, (n - 1) * (m + 1))
        rhs_as = y * (1 - z) ** deps_as[1] * (1 - y) ** deps_as[0]
        rhs_bt = z * (1 - y) ** deps_bt[0] * (1 - z) ** deps_bt[1]

        floats = map(float, (p, y, z, p_as, p_bt, rhs_as, rhs_bt))
        return LllReport(n, m, *floats, p_as <= rhs_as, p_bt <= rhs_bt, deps_as, deps_bt)


def _bitset(table: bytes, value: int) -> int:
    """The int whose bit a is set iff table[a] == value."""
    return int(table.translate(b"0" * value + b"1" + b"0" * (255 - value))[::-1], 2)


def verify_embedding(rec: EmbedRecord, coloring: Coloring) -> CheckResult:
    """Re-check an embedding record against its coloring from scratch.

    Uses only color lookups and subset tests: image form and level count,
    redness of every assigned image, level monotonicity under inclusion,
    blocking-chain shape and blueness, and chain-below-image.  Returns the
    first violated property, in O(n * 2^n) work: each is tested on bitsets of
    the whole cube, and only the least subset that breaks it is checked on its
    own, for the witness and detail that a scan subset by subset would give.
    Strict containment between patterns and images holds exactly once the
    image form and monotonicity do (images are A plus a nested prefix of the
    permuted top block), so it needs no all-pairs loop.
    """
    n, k = rec.n, rec.k
    if coloring.ground_n != n + k:
        raise ValueError("record and coloring dimensions do not match")
    if (rec.perm.base, rec.perm.width) != (n, k):
        return CheckResult(False, None, "permutation dimensions do not match (n, k)")
    size = 1 << n
    full, cube = size - 1, (1 << size) - 1
    if not (len(rec.images) == len(rec.levels) == len(rec.chains) == size):
        return CheckResult(False, None, "table sizes do not match 2^n")
    prefixes = rec.perm.prefixes  # in the top block, so image form keeps img & full == a
    # The sets A | prefix_i of level i are one contiguous range of SetWords,
    # so each level's colors are read once, on first use, as the embedder does.
    blue_of = lru_cache(maxsize=None)(lambda i: coloring.blue_range(prefixes[i], size))
    try:  # at[t] holds the subsets at level t; a level outside 0 .. 255 reads as 255
        raw = bytes(rec.levels)
    except ValueError:
        raw = bytes(lvl if 0 <= lvl <= k + 1 else 255 for lvl in rec.levels)
    at = [_bitset(raw, t) for t in range(k + 2)]
    placed = sum(at[:-1])  # the subsets at levels 0 .. k; the at[t] are disjoint

    # The image checks: a subset fails them iff it is in one of these bitsets.
    pads = prefixes + (0,) * (255 - k)  # each byte level's prefix, 0 past k
    expected = map(or_, range(size), map(pads.__getitem__, raw))
    same = _bitset(bytes(map(eq, rec.images, expected)), 1)
    unset = _bitset(bytes(map(is_, rec.images, repeat(None))), 1)
    bad = cube & ~(placed | at[k + 1]) | at[k + 1] & ~unset | placed & ~same
    for t in range(k + 1):
        if at[t]:
            bad |= at[t] & blue_of(t)
    if bad:
        a = (bad & -bad).bit_length() - 1
        lvl, img = rec.levels[a], rec.images[a]
        return CheckResult(False, (a,), "level out of range" if not 0 <= lvl <= k + 1
                           else "failed level but image assigned" if lvl == k + 1
                           else "image missing at non-failure level" if img is None
                           else "image is not A + permuted prefix" if img != a | prefixes[lvl]
                           else "image is not red")

    # Levels are monotone under inclusion iff each U_t, the subsets at level
    # >= t, is an up-set.  A breaks that iff some A - {x} is in a U_t that A
    # is not in, so the least such A is the first that a scan of covering
    # pairs in ascending order meets; only there are its submasks walked for
    # the least violating B, as a full submask scan would find.
    lacking: list[int] = []  # bit a of lacking[j] is set iff a lacks element j+1
    for j in range(n):
        lacking = [m | m << (1 << j) for m in lacking] + [(1 << (1 << j)) - 1]
    up = 0
    for t in range(k + 1, 0, -1):
        up |= at[t]
        for j, lack in enumerate(lacking):
            bad |= (up & lack) << (1 << j) & ~up
    if bad:
        a = (bad & -bad).bit_length() - 1
        lvl = rec.levels[a]
        b = next(s for s in iter_submasks(a) if rec.levels[s] > lvl)
        return CheckResult(False, (b, a), "level not monotone under inclusion")

    # Strict containment between patterns and images needs no scan: it holds
    # exactly once the checks above pass.  Each image is A | prefix[l_A] with
    # the prefix outside [n], and the prefixes are nested.  If B is a proper
    # subset of A, then l_B <= l_A, so image_B lies inside image_A and differs
    # from it in [n].  If image_B is a proper subset of image_A, then
    # B = image_B & [n] lies inside A = image_A & [n], and B != A.

    # Each distinct chain's sets are checked once; it is entered at its length
    # if they pass, else at 255, which no level is.  A subset fails iff its
    # chain's entry is not its level, or that chain's top set meets [n] outside A.
    ids = list(map(id, rec.chains))
    lengths, lows = {}, {}
    for key, chain in dict(zip(ids, rec.chains)).items():
        ok = len(chain) <= k + 1 and all(
            s & ~full == prefixes[i] and coloring.is_blue(s)
            for i, s in enumerate(chain)
        )
        lengths[key] = len(chain) if ok else 255
        lows[key] = chain[-1] & full if ok and len(chain) else 0
    wrong = int.from_bytes(bytes(map(lengths.__getitem__, ids)), "little")
    wrong ^= int.from_bytes(raw, "little")
    below = map(eq, map(or_, map(lows.__getitem__, ids), range(size)), range(size))
    bad = placed & ~_bitset(bytes(below), 1)
    if wrong:  # byte a of wrong is nonzero iff a's chain entry is not its level
        bad |= 1 << ((wrong & -wrong).bit_length() - 1 >> 3)
    if bad:
        a = (bad & -bad).bit_length() - 1
        chain = rec.chains[a]
        if len(chain) != rec.levels[a]:
            return CheckResult(False, (a,), "chain length differs from level")
        for i, s in enumerate(chain):
            if not coloring.is_blue(s):
                return CheckResult(False, (a,), "chain contains a red set")
            if s & ~full != prefixes[i]:
                return CheckResult(False, (a,), "chain step has wrong top part")
        return CheckResult(False, (a,), "chain top not below the image")

    return CheckResult(True, detail="all embedding properties verified")
