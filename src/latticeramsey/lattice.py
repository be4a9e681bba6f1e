"""Subsets of [N] as machine-word bitmasks, and colorings of the Boolean lattice.

Conventions used throughout the package:

* The ground set is [N] = {1, ..., N} with N <= 64.  A subset ("SetWord") is a
  plain int: bit i-1 is set iff element i is present.
* For a fixed cardinality, increasing numeric order of the masks is exactly
  colex order on the sets.  Every enumeration in the package uses it, so runs
  are reproducible bit for bit.
* JSON encodes a set as a sorted 1-based integer array, and a dense coloring
  as a little-endian hex string: byte j of the decoded string holds the colors
  of the SetWords 8j .. 8j+7, bit s%8 being the color of SetWord s.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import comb
from typing import Iterable, Iterator, Optional

SetWord = int
Events = tuple[tuple[SetWord, int], ...]  # (set, count) pairs of violated events

MAX_GROUND = 64
MAX_DENSE_GROUND = 28
ENUMERATION_LIMIT = 10**6  # most sets any family or check materializes
# most sets of one layer that event_violations walks or the resampler's first
# sample draws from: the C(45, 5) and C(36, 6) m-sets of LllConfig(40, 5, 0.05)
# and (30, 6, 0.08) pass, runs that finish in 2.6 and 5.0 s (2-core x86 VM)
SCAN_LIMIT = 2 * 10**6


def mask_of(elements: Iterable[int]) -> SetWord:
    """Bitmask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        if e < 1 or e > MAX_GROUND:
            raise ValueError(f"element {e} outside [1, {MAX_GROUND}]")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: SetWord) -> list[int]:
    """Sorted 1-based elements of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def full_mask(n: int) -> SetWord:
    return (1 << n) - 1


def is_subset(a: SetWord, b: SetWord) -> bool:
    """a is a subset of b (both over the same ground set)."""
    return a & ~b == 0


def is_proper_subset(a: SetWord, b: SetWord) -> bool:
    return a != b and a & ~b == 0


def _check_ground(n: int) -> None:
    if not 0 <= n <= MAX_GROUND:
        raise ValueError(f"ground size {n} outside [0, {MAX_GROUND}]")


def _check_member(mask: SetWord, n: int) -> None:
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} has elements outside [1, {n}]")


def _dense_size(n: int) -> int:
    """Bytes of a dense bit vector over the subsets of [n], n <= MAX_DENSE_GROUND."""
    _check_ground(n)
    if n > MAX_DENSE_GROUND:
        raise ValueError(f"dense colorings capped at N <= {MAX_DENSE_GROUND}; use structured")
    return ((1 << n) + 7) // 8


def check_enumerable(n: int, s: int, limit: int = ENUMERATION_LIMIT) -> None:
    """Refuse layer(n, s) when it holds more than `limit` sets; a layer index
    outside [0, n] is left for layer() to report."""
    if 0 <= s <= n and comb(n, s) > limit:
        raise ValueError(f"layer C({n},{s}) too large to enumerate (limit {limit})")


def layer(n: int, s: int) -> Iterator[SetWord]:
    """All subsets of [n] of size s, in colex (= ascending numeric) order."""
    _check_ground(n)
    if not 0 <= s <= n:
        raise ValueError(f"layer index {s} outside [0, {n}]")
    if s == 0:
        yield 0
        return
    m = (1 << s) - 1
    top = 1 << n
    while m < top:
        yield m
        # Gosper's hack: next mask with the same popcount.
        low = m & -m
        lift = m + low
        m = lift | (((m ^ lift) >> 2) // low)


def lex_key(mask: SetWord, ground: int) -> int:
    """Int key putting equal-size subsets of [ground] in lexicographic order.

    The key is the negated bit reversal of the mask over `ground` bits, so
    element i sits at bit ground - i and small elements weigh most.  For
    equal-size sets A != B, A comes first in the lexicographic order of sorted
    elements iff the least element x of the symmetric difference lies in A:
    both sorted lists agree below x, and at the first position they differ A
    holds x while B holds something larger.  In the reversal x is the highest
    differing bit, so rev(A) > rev(B), and -rev(A) is the smaller key.
    """
    return -int(f"{mask:0{ground}b}"[::-1], 2)


def event_counts(members: Iterable[SetWord], ground: int) -> defaultdict[SetWord, int]:
    """Element masks of a fixed-weight family over [ground], one per (m-1)-set.

    For a family of m-sets, ups[S] holds bit x exactly when S | x is a member,
    so ups[S].bit_count() members cover the (m-1)-set S.  Only the (m-1)-sets
    under some member are keys; each member is visited through its m bits.
    """
    ups: defaultdict[SetWord, int] = defaultdict(int)
    for f in members:
        rest = f
        while rest:
            x = rest & -rest
            rest ^= x
            ups[f ^ x] |= x
    return ups


def event_violations(
    ups: dict[SetWord, int], members: Iterable[SetWord], ground: int, weight: int
) -> tuple[Events, Events]:
    """The violated events of the two family conditions, read off event_counts.

    For a family of m-sets (m = weight), an (m-1)-set is undersupplied when
    fewer than 2 members cover it, and an (m+1)-set oversubscribed when at
    least m members lie inside it.  Returns (undersupplied, oversubscribed),
    each a tuple of (set, count) pairs in lexicographic order.  The (m+1)-set
    f | b (f a member) holds f and (f ^ x) | b for each x in f whose mask
    ups[f ^ x] holds b; `one` / `two` gather the b missing from at least one /
    two of those masks.  Masks are read with .get, so a defaultdict gains none.
    A layer of (m-1)-sets past SCAN_LIMIT is refused before it is walked.
    """
    check_enumerable(ground, weight - 1, SCAN_LIMIT)

    def lex(entry: tuple[SetWord, int]) -> int:
        return lex_key(entry[0], ground)

    full = full_mask(ground)
    under = [(s, c) for s in layer(ground, weight - 1) if (c := ups.get(s, 0).bit_count()) < 2]
    over: dict[SetWord, int] = {}
    for f in members:
        one = two = rest = f
        while rest:
            x = rest & -rest
            rest ^= x
            lack = ~ups.get(f ^ x, 0)
            two |= one & lack
            one |= lack
        rest = full & ~two
        while rest:
            b = rest & -rest
            rest ^= b
            over[f | b] = weight if one & b else weight + 1
    return tuple(sorted(under, key=lex)), tuple(sorted(over.items(), key=lex))


def iter_submasks(mask: SetWord) -> Iterator[SetWord]:
    """All submasks of mask, including 0 and mask itself, ascending (colex)."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def subsets_by_rank(n: int) -> Iterator[SetWord]:
    """All subsets of [n], cardinality-ascending, colex within a cardinality."""
    for s in range(n + 1):
        yield from layer(n, s)


@lru_cache(maxsize=None)
def cube_bitsets(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the subsets of [n], bit a standing for subset a:
    lacking[j] holds the subsets without element j+1, layers[c] those of size c."""
    lacking, layers = [], [1]
    for j in range(n):  # from [j] to [j+1]: the subsets with j+1 come above
        h = 1 << j
        lacking = [m | m << h for m in lacking] + [(1 << h) - 1]
        layers = [lo | hi << h for lo, hi in zip(layers + [0], [0] + layers)]
    return tuple(lacking), tuple(layers)


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _json_field(value, kind: type, name: str):
    """value if json.loads gave it the Python type `kind`, else ValueError."""
    if type(value) is not kind:  # type(True) is bool, so no bool passes as int
        raise ValueError(f"{name} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _json_ints(value, name: str) -> list[int]:
    """value if it is a JSON array of integers, else ValueError."""
    if type(value) is not list or not {type(x) for x in value} <= {int}:
        raise ValueError(f"{name} must be a JSON array of integers")
    return value


def _json_int_arrays(value, name: str) -> list[list[int]]:
    """value if it is a JSON array of integer arrays, else ValueError."""
    if type(value) is not list or not (
        {type(a) for a in value} <= {list} and {type(x) for a in value for x in a} <= {int}
    ):
        raise ValueError(f"{name} must be a JSON array of integer arrays")
    return value


def _json_set(elements: list[int], name: str) -> SetWord:
    """The set of a JSON integer array, if its elements strictly increase.

    One pass, like mask_of's: a separate check beside mask_of read a family
    of 3,042 sets 2.7 times slower.
    """
    mask = last = 0
    for e in elements:
        if not last < e <= MAX_GROUND:
            if e < 1 or e > MAX_GROUND:
                raise ValueError(f"element {e} outside [1, {MAX_GROUND}]")
            raise ValueError(f"{name} array not strictly increasing: {e} after {last}")
        mask |= 1 << (e - 1)
        last = e
    return mask


@dataclass(frozen=True)
class Chain:
    """A strictly increasing sequence of sets; doubles as a failure certificate."""

    sets: tuple[SetWord, ...]

    def __post_init__(self):
        for a, b in zip(self.sets, self.sets[1:]):
            if not is_proper_subset(a, b):
                raise ValueError(
                    f"chain not strictly increasing at {elements_of(a)} -> {elements_of(b)}"
                )

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, i: int) -> SetWord:
        return self.sets[i]

    def __iter__(self):
        return iter(self.sets)

    def to_obj(self) -> dict:
        return {"sets": SetList(self.sets)}

    @classmethod
    def from_obj(cls, obj: dict) -> "Chain":
        """Decode `to_obj` output; a field of the wrong JSON type is a ValueError."""
        sets = _json_int_arrays(_json_field(obj, dict, "chain")["sets"], "chain sets")
        return cls(tuple(_json_set(a, "chain sets") for a in sets))


@dataclass(frozen=True)
class Permutation:
    """A permutation of the top block [n+1, n+k] of the ground set.

    image[i-1] is where slot n+i is sent; image must be a bijection of
    {n+1, ..., n+k}.
    """

    base: int
    width: int
    image: tuple[int, ...]

    def __post_init__(self):
        n, k = self.base, self.width
        if n < 0 or k < 0 or n + k > MAX_GROUND:
            raise ValueError(f"invalid dimensions n={n}, k={k}")
        if sorted(self.image) != list(range(n + 1, n + k + 1)):
            raise ValueError(
                f"image {self.image} is not a bijection of [{n + 1}, {n + k}]"
            )

    @classmethod
    def identity(cls, n: int, k: int) -> "Permutation":
        return cls(n, k, tuple(range(n + 1, n + k + 1)))

    @cached_property
    def prefixes(self) -> tuple[SetWord, ...]:
        """prefixes[i] masks the first i images, 0 <= i <= width: a level-i top part."""
        return tuple(accumulate((1 << x - 1 for x in self.image), int.__or__, initial=0))

    def prefix_mask(self, i: int) -> SetWord:
        """Bitmask of the first i image values, 0 <= i <= width."""
        return self.prefixes[i]


@dataclass(frozen=True)
class WeightedFamily:
    """A family of fixed-weight subsets of [ground_n].

    Either an explicit sorted tuple of members, or the implicit residue-coded
    family {S of size weight : sum(S) = d (mod p)} over the full layer.
    """

    ground_n: int
    weight: int
    members: Optional[tuple[SetWord, ...]] = None
    modp_p: Optional[int] = None
    modp_d: Optional[int] = None

    def __post_init__(self):
        _check_ground(self.ground_n)
        if not 0 <= self.weight <= self.ground_n:
            raise ValueError(f"weight {self.weight} outside [0, {self.ground_n}]")
        if (self.members is None) == (self.modp_p is None):
            raise ValueError("exactly one of members / mod-p parameters required")
        if self.members is not None:
            prev = -1
            for m in self.members:
                _check_member(m, self.ground_n)
                if m.bit_count() != self.weight:
                    raise ValueError(
                        f"member {elements_of(m)} has size {m.bit_count()}, "
                        f"expected {self.weight}"
                    )
                if m <= prev:
                    raise ValueError("members must be strictly ascending")
                prev = m
        else:
            p, d = self.modp_p, self.modp_d
            if p is None or d is None:
                raise ValueError("mod-p family needs both p and d")
            if p < 2:
                raise ValueError(f"modulus {p} < 2")
            if not 1 <= d <= p:
                raise ValueError(f"residue {d} outside [1, {p}]")

    @property
    def is_explicit(self) -> bool:
        return self.members is not None

    def contains(self, mask: SetWord) -> bool:
        if mask.bit_count() != self.weight:
            return False
        if self.members is not None:
            return mask in self._member_set
        return sum(elements_of(mask)) % self.modp_p == self.modp_d % self.modp_p

    # cached_property stores into the instance __dict__, so it works on a frozen dataclass
    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def violations(self) -> tuple[Events, Events]:
        """event_violations of the members, decided on first use and shared by
        every caller after it.  The conditions speak of (m-1)-sets, so a
        family of weight 0 is a ValueError."""
        if self.weight < 1:
            raise ValueError(
                f"family conditions need a weight >= 1; this family has weight {self.weight}"
            )
        members = self.enumerated_members()
        ups = event_counts(members, self.ground_n)
        return event_violations(ups, members, self.ground_n, self.weight)

    def iter_members(self) -> Iterator[SetWord]:
        if self.members is not None:
            yield from self.members
        else:
            yield from filter(self.contains, layer(self.ground_n, self.weight))

    def enumerated_members(self) -> list[SetWord]:
        """Materialize the family; refuses when the ambient layer holds more
        than ENUMERATION_LIMIT sets."""
        if self.members is not None:
            return list(self.members)
        check_enumerable(self.ground_n, self.weight)
        return list(self.iter_members())


def sorted_family(masks: Iterable[SetWord], ground_n: int, weight: int) -> WeightedFamily:
    """Explicit WeightedFamily from an unordered collection of masks."""
    return WeightedFamily(ground_n, weight, members=tuple(sorted(set(masks))))


@dataclass(frozen=True)
class Coloring:
    """A total blue/red assignment on the subsets of [ground_n].

    Dense form: blue_bits byte j, bit s%8 is the color of SetWord s (1 = blue);
    capped at ground_n <= 28.  Structured form: blue iff the size is a blue
    layer, or the set is listed in blue_extra, or it belongs to the mod-p
    family blue_code; everything else is red.
    """

    ground_n: int
    blue_bits: Optional[bytes] = None
    blue_layers: frozenset = frozenset()
    blue_extra: frozenset = frozenset()
    blue_code: Optional[WeightedFamily] = None

    def __post_init__(self):
        n = self.ground_n
        _check_ground(n)
        if self.blue_bits is not None:
            want = _dense_size(n)
            if self.blue_layers or self.blue_extra or self.blue_code:
                raise ValueError("coloring must be dense or structured, not both")
            if len(self.blue_bits) != want:
                raise ValueError(
                    f"dense bit vector has {len(self.blue_bits)} bytes, expected {want}"
                )
            spare = 8 * want - (1 << n)
            if spare and self.blue_bits[-1] >> (8 - spare):
                raise ValueError("dense bit vector has bits beyond 2^N")
        else:
            for s in self.blue_layers:
                if not 0 <= s <= n:
                    raise ValueError(f"blue layer {s} outside [0, {n}]")
            for m in self.blue_extra:
                _check_member(m, n)
                if m.bit_count() in self.blue_layers:
                    raise ValueError(
                        f"extra blue set {elements_of(m)} lies on a blue layer"
                    )
            if self.blue_code is not None:
                if self.blue_code.is_explicit:
                    raise ValueError("blue_code must be a mod-p family")
                if self.blue_code.ground_n != n:
                    raise ValueError("blue_code ground size mismatch")
                if self.blue_code.weight in self.blue_layers:
                    raise ValueError("blue_code weight lies on a blue layer")
                if any(m.bit_count() == self.blue_code.weight for m in self.blue_extra):
                    raise ValueError("blue_extra overlaps the blue_code layer")

    @property
    def is_dense(self) -> bool:
        return self.blue_bits is not None

    @classmethod
    def dense(cls, n: int, blue: Iterable[SetWord]) -> "Coloring":
        """Dense coloring from the collection of blue SetWords."""
        buf = bytearray(_dense_size(n))
        for s in blue:
            _check_member(s, n)
            buf[s >> 3] |= 1 << (s & 7)
        return cls(n, blue_bits=bytes(buf))

    @classmethod
    def dense_from_int(cls, n: int, bits: int) -> "Coloring":
        """Dense coloring from an integer bit vector (bit s = SetWord s blue)."""
        size = _dense_size(n)
        if bits < 0 or bits >> (1 << n):
            raise ValueError("bit vector has bits beyond 2^N")
        return cls(n, blue_bits=bits.to_bytes(size, "little"))

    @classmethod
    def structured(
        cls,
        n: int,
        blue_layers: Iterable[int] = (),
        blue_extra: Iterable[SetWord] = (),
        blue_code: Optional[WeightedFamily] = None,
    ) -> "Coloring":
        return cls(
            n,
            blue_layers=frozenset(blue_layers),
            blue_extra=frozenset(blue_extra),
            blue_code=blue_code,
        )

    def is_blue(self, s: SetWord) -> bool:
        """The color of SetWord s: True for blue, False for red."""
        _check_member(s, self.ground_n)
        if self.blue_bits is not None:
            return (self.blue_bits[s >> 3] >> (s & 7)) & 1 == 1
        if s.bit_count() in self.blue_layers or s in self.blue_extra:
            return True
        return self.blue_code is not None and self.blue_code.contains(s)

    def blue_range(self, start: SetWord, count: int) -> int:
        """is_blue of the SetWords start .. start+count-1 as one int bitset:
        bit i is is_blue(start + i), and no bit lies at or past count.

        A dense coloring shifts one slice of blue_bits; a structured one is
        read set by set.  A range reaching outside [0, 2^N) is a ValueError,
        as is_blue is per set.
        """
        if count < 0:
            raise ValueError(f"negative range length {count}")
        if not count:
            return 0
        end = start + count
        _check_member(start, self.ground_n)
        _check_member(end - 1, self.ground_n)
        if self.blue_bits is not None:
            window = int.from_bytes(self.blue_bits[start >> 3 : (end + 7) >> 3], "little")
            return window >> (start & 7) & (1 << count) - 1
        return int("".join("01"[self.is_blue(s)] for s in range(end - 1, start - 1, -1)), 2)

    def blue_family(self) -> list[SetWord]:
        """All blue SetWords; requires an enumerable ground set."""
        if self.ground_n > MAX_DENSE_GROUND:
            raise ValueError("ground set too large to enumerate")
        return [s for s in range(1 << self.ground_n) if self.is_blue(s)]

    @cached_property
    def partial_layer(self) -> WeightedFamily:
        """The blue sets off the blue layers, as one family of a single weight:
        blue_code when there are no extras, else the extras as an explicit
        family.  A code plus extras, or extras of several sizes or of none, is
        a ValueError.  The family is built once, so its cached event counts
        serve every certifier that reads it."""
        if self.blue_code is not None and not self.blue_extra:
            return self.blue_code
        sizes = {s.bit_count() for s in self.blue_extra}
        if self.blue_code is not None or len(sizes) != 1:
            raise ValueError("coloring extras do not form a single-weight family")
        members = tuple(sorted(self.blue_extra))
        return WeightedFamily(self.ground_n, sizes.pop(), members=members)

    def to_obj(self) -> dict:
        if self.blue_bits is not None:
            return {
                "n": self.ground_n,
                "repr": "dense",
                "blue_hex": self.blue_bits.hex(),
            }
        obj: dict = {
            "n": self.ground_n,
            "repr": "structured",
            "blue_layers": sorted(self.blue_layers),
            "blue_extra": [elements_of(m) for m in sorted(self.blue_extra)],
        }
        if self.blue_code is not None:
            obj["blue_modp"] = {
                "weight": self.blue_code.weight,
                "p": self.blue_code.modp_p,
                "d": self.blue_code.modp_d,
            }
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "Coloring":
        """Decode `to_obj` output; a field of the wrong JSON type is a ValueError."""
        obj = _json_field(obj, dict, "coloring")
        n = _json_field(obj["n"], int, "n")
        if obj["repr"] == "dense":
            hex_text = _json_field(obj["blue_hex"], str, "blue_hex")
            return cls(n, blue_bits=bytes.fromhex(hex_text))
        if obj["repr"] != "structured":
            raise ValueError(f"unknown coloring repr {obj['repr']!r}")
        code = None
        if "blue_modp" in obj:
            mp = _json_field(obj["blue_modp"], dict, "blue_modp")
            # keyed by full field names, so a missing one's KeyError names it
            fields = {f"blue_modp.{key}": value for key, value in mp.items()}
            weight, p, d = (
                _json_field(fields[name], int, name)
                for name in ("blue_modp.weight", "blue_modp.p", "blue_modp.d")
            )
            code = WeightedFamily(n, weight, modp_p=p, modp_d=d)
        return cls.structured(
            n,
            blue_layers=_json_ints(obj.get("blue_layers", []), "blue_layers"),
            blue_extra=[
                _json_set(a, "blue_extra")
                for a in _json_int_arrays(obj.get("blue_extra", []), "blue_extra")
            ],
            blue_code=code,
        )


class SetList(tuple):
    """A tuple of SetWords or None that json_pieces writes from the masks.

    Its JSON is that of [None if s is None else elements_of(s) for s in it]:
    null, or the set's sorted 1-based elements.  json_pieces renders each set
    from per-byte text tables instead of building the element lists, so a
    large table of sets (an embedding record's images) costs one string per
    set.  json.dumps knows nothing of this and would write the masks as ints.
    """

    __slots__ = ()


def json_pieces(obj) -> list[str]:
    """The text of json.dumps(obj, sort_keys=True, indent=2), as a list of pieces.

    Joined, the pieces are that text exactly, but no string of its whole size
    is built.  Each distinct object in a list is rendered once, to one
    string that every repeat in that list appends, so a repeated item costs
    a reference per repeat.  Lists of plain ints are rendered in one join,
    from a table of texts when every int fits in a byte.  A SetList is
    written as its element arrays, one piece per set, and a Chain as its
    to_obj(), {"sets": [...]}, in one string built from its sets.  Like
    json.dumps, this recurses once per nesting level; obj must not contain
    itself.
    """
    tails: dict = {}
    text = _json_text(obj, 0, tails)
    if text is not None:
        return [text]
    out: list[str] = []
    _write_json(obj, 0, out, tails)
    return out


def _json_text(o, depth: int, tails: dict) -> Optional[str]:
    """The JSON text of o at nesting depth `depth`, or None if o is a
    non-empty list, tuple or dict other than a list of plain ints."""
    kind = type(o)
    if kind is int:  # by type, not ==: True == 1
        return int.__repr__(o)
    if o is None or kind is bool:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, (list, tuple)) and o:
        if isinstance(o, SetList) or set(map(type, o)) != {int}:
            return None
        pad = "\n" + "  " * (depth + 1)
        try:
            texts = map(_BYTE_TEXTS.__getitem__, bytes(o))
        except ValueError:  # an int outside [0, 256)
            texts = map(int.__repr__, o)
        return "[" + pad + ("," + pad).join(texts) + pad[:-2] + "]"
    if isinstance(o, Chain):
        return _chain_text(o, depth, tails)
    if isinstance(o, dict) and o:
        return None
    return json.dumps(o)  # str, float (NaN, Infinity), empty containers


_BYTE_TEXTS = [str(b) for b in range(256)]


def _json_key(key) -> str:
    """The text of a dict key, as json.dumps(..., sort_keys=True) writes it.

    A float key is rendered each time: -0.0 == 0.0 with one hash, so a cache
    would write one's text for the other.
    """
    if isinstance(key, float):
        return '"' + json.dumps(key) + '"'
    return _cached_key(key)


@lru_cache(maxsize=1024, typed=True)  # typed: True == 1, but its text is "true"
def _cached_key(key) -> str:
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, int):
        return '"' + json.dumps(key) + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _chain_text(chain: Chain, depth: int, tails: dict) -> str:
    """The JSON text of chain.to_obj(), {"sets": [...]}, at nesting depth `depth`."""
    pad = "\n" + "  " * depth
    if not chain.sets:
        return "{" + pad + '  "sets": []' + pad + "}"
    sets = "".join(_set_texts(chain.sets, depth + 2, tails))
    return "{" + pad + '  "sets": [' + sets[1:] + pad + "  ]" + pad + "}"


def _write_json(o, depth: int, out: list[str], tails: dict) -> None:
    """Append the pieces of o, a container at nesting depth `depth`, to out.

    A list renders each distinct item (by id) once, behind its separator,
    then appends those strings in the list's order in one pass.  tails is
    _set_texts' table of element texts for the whole json_pieces call.
    """
    start = len(out)
    pad = "\n" + "  " * (depth + 1)
    comma, brackets = "," + pad, "[]"
    if isinstance(o, SetList):
        out.extend(_set_texts(o, depth + 1, tails))  # each behind a comma
    elif isinstance(o, dict):
        brackets = "{}"
        for key, value in sorted(o.items()):
            label = comma + _json_key(key) + ": "
            if (text := _json_text(value, depth + 1, tails)) is None:
                out.append(label)
                _write_json(value, depth + 1, out, tails)
            else:
                out.append(label + text)
    else:
        ids = list(map(id, o))
        texts = {}
        for key, item in dict(zip(ids, o)).items():
            if (text := _json_text(item, depth + 1, tails)) is None:
                pieces = [comma]
                _write_json(item, depth + 1, pieces, tails)
                text = "".join(pieces)
            else:
                text = comma + text
            texts[key] = text
        out.extend(map(texts.__getitem__, ids))
    out[start] = brackets[0] + out[start][1:]
    out.append(pad[:-2] + brackets[1])


@lru_cache(maxsize=8)
def _opened_sets(depth: int) -> tuple[str, ...]:
    """The opening of a set item at depth `depth` for each byte value v: the
    item's "," and newline pad, "[", and the elements of v among 1 .. 8,
    built by doubling.  An element e is written ",{pad}e", pad being an
    element's, with the first element's comma dropped."""
    item = ",\n" + "  " * depth
    pad = item[1:] + "  "
    low = [""]
    for e in range(1, 9):
        low += [text + f",{pad}{e}" for text in low]
    return tuple(item + "[" + text[1:] for text in low)


def _set_texts(sets: Iterable[Optional[SetWord]], depth: int, tails: dict) -> Iterator[str]:
    """The JSON text of each item of sets (a SetList or a Chain's sets), the
    items sitting at depth `depth`, each behind the "," and newline pad that
    precede an item there.

    A set's text is its low byte's text from _opened_sets, then the text of
    its elements past 8 with the closing bracket.  That tail is built once
    per depth and distinct s >> 8 and kept in tails[depth], since the pad
    differs by depth.
    """
    opened = _opened_sets(depth)
    item = ",\n" + "  " * depth
    pad = item[1:] + "  "
    null, empty, closer = item + "null", item + "[]", item[1:] + "]"
    rests = tails.setdefault(depth, {})
    for s in sets:
        if s is None:
            yield null
        elif s:
            rest = rests.get(s >> 8)
            if rest is None:
                above = elements_of(s >> 8 << 8)
                rest = rests[s >> 8] = "".join(f",{pad}{e}" for e in above) + closer
            yield opened[s & 255] + rest if s & 255 else item + "[" + rest[1:]
        else:
            yield empty
