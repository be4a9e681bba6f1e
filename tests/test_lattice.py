"""Tests for the bitmask lattice core and JSON round-trips."""

import gc
import json
import random
from collections import defaultdict
from enum import IntEnum
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, strategies as st

from latticeramsey.embedder import EmbedRecord, embed_with_permutation
from latticeramsey.lattice import (
    SCAN_LIMIT,
    Chain,
    Coloring,
    Permutation,
    SetList,
    WeightedFamily,
    elements_of,
    is_subset,
    iter_submasks,
    json_pieces,
    layer,
    lex_key,
    mask_of,
)

from helpers import assert_same_text, dumps, written

masks6 = st.integers(min_value=0, max_value=63)


def test_subset_examples():
    assert is_subset(mask_of([1, 2]), mask_of([1, 2, 3]))
    assert not is_subset(mask_of([1, 3]), mask_of([1, 2]))
    assert is_subset(0, 0)


@given(masks6, masks6)
def test_subset_antisymmetry(a, b):
    if is_subset(a, b) and is_subset(b, a):
        assert a == b


@given(masks6, masks6, masks6)
def test_subset_transitivity(a, b, c):
    if is_subset(a, b) and is_subset(b, c):
        assert is_subset(a, c)


@pytest.mark.parametrize("n", range(0, 13))
def test_layer_counts_and_order(n):
    for s in range(n + 1):
        sets = list(layer(n, s))
        assert len(sets) == comb(n, s)
        assert len(set(sets)) == len(sets)
        assert all(m.bit_count() == s for m in sets)
        assert sets == sorted(sets)  # ascending numeric = colex


def test_layer_examples():
    assert len(list(layer(4, 2))) == 6
    assert list(layer(3, 0)) == [0]
    assert list(layer(5, 5)) == [mask_of([1, 2, 3, 4, 5])]
    # colex order spelled out
    assert [elements_of(m) for m in layer(4, 2)] == [
        [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4]
    ]


def test_layer_range_errors():
    with pytest.raises(ValueError):
        list(layer(4, 5))
    with pytest.raises(ValueError):
        list(layer(4, -1))


def test_submask_enumeration_is_colex_ascending():
    a = mask_of([1, 3, 4])
    subs = list(iter_submasks(a))
    assert subs == sorted(subs)
    assert len(subs) == 8 and subs[0] == 0 and subs[-1] == a


def test_structured_color_of():
    c = Coloring.structured(3, blue_layers={0})
    assert c.is_blue(0)
    assert not c.is_blue(mask_of([1]))
    d = Coloring.dense(2, range(4))
    assert all(d.is_blue(s) for s in range(4))


@pytest.mark.parametrize("n", [1, 4, 7, 10, 12])
def test_dense_structured_agreement(n):
    import random

    rng = random.Random(n)
    layers = {s for s in range(n + 1) if rng.random() < 0.3}
    extra = [
        s
        for s in range(1 << n)
        if s.bit_count() not in layers and rng.random() < 0.1
    ]
    structured = Coloring.structured(n, blue_layers=layers, blue_extra=extra)
    dense = Coloring.dense_from_int(n, structured.blue_range(0, 1 << n))
    for s in range(1 << n):
        assert structured.is_blue(s) is dense.is_blue(s)


def test_chain_roundtrip_and_validation():
    ch = Chain((0, mask_of([3])))
    assert written(ch.to_obj()) == {"sets": [[], [3]]}
    assert Chain.from_obj(written(ch.to_obj())) == ch
    with pytest.raises(ValueError):
        Chain.from_obj(json.loads('{"sets": [[3], []]}'))
    with pytest.raises(ValueError):
        Chain((mask_of([1]), mask_of([1])))


def test_coloring_roundtrips():
    c = Coloring.structured(5, blue_layers={2})
    assert Coloring.from_obj(json.loads(dumps(c))) == c
    d = Coloring.dense(3, [0, 5, 7])
    back = Coloring.from_obj(json.loads(dumps(d)))
    assert back == d
    obj = json.loads(dumps(d))
    assert obj["repr"] == "dense" and obj["blue_hex"] == obj["blue_hex"].lower()


def test_coloring_with_implicit_code_roundtrip():
    code = WeightedFamily(10, 4, modp_p=11, modp_d=3)
    c = Coloring.structured(10, blue_layers={3, 6}, blue_code=code)
    back = Coloring.from_obj(json.loads(dumps(c)))
    assert back == c
    member = next(code.iter_members())
    assert back.is_blue(member)


def test_partial_layer_is_the_code_or_the_extras():
    code = WeightedFamily(10, 4, modp_p=11, modp_d=3)
    assert Coloring.structured(10, blue_layers={3, 6}, blue_code=code).partial_layer == code
    extras = [mask_of([1, 2]), mask_of([1, 3])]
    fam = Coloring.structured(5, blue_layers={0}, blue_extra=extras).partial_layer
    assert fam == WeightedFamily(5, 2, members=tuple(extras))
    for bad in (
        Coloring.structured(5, blue_layers={0}, blue_extra=extras + [mask_of([1, 2, 3])]),
        Coloring.structured(5, blue_layers={0}),
        Coloring.structured(10, blue_extra=extras, blue_code=code),
        Coloring.dense(2, [0]),
    ):
        with pytest.raises(ValueError, match="single-weight"):
            bad.partial_layer


def test_explicit_blue_code_rejected():
    code = WeightedFamily(5, 2, members=(mask_of([1, 2]),))
    with pytest.raises(ValueError, match="mod-p"):
        Coloring.structured(5, blue_layers={0}, blue_code=code)


def test_dense_guard():
    with pytest.raises(ValueError):
        Coloring.dense(29, [])


def test_structured_double_listing_rejected():
    with pytest.raises(ValueError):
        Coloring.structured(4, blue_layers={2}, blue_extra=[mask_of([1, 2])])


def test_family_roundtrip_and_membership():
    # families travel inside colorings: explicit ones as blue_extra, mod-p
    # ones as blue_modp
    def roundtrip(coloring):
        return Coloring.from_obj(json.loads(dumps(coloring)))

    fam = WeightedFamily(5, 2, members=(mask_of([1, 2]), mask_of([3, 5])))
    assert roundtrip(Coloring.structured(5, blue_extra=fam.members)).partial_layer == fam
    assert fam.contains(mask_of([1, 2])) and not fam.contains(mask_of([1, 3]))
    imp = WeightedFamily(5, 2, modp_p=5, modp_d=3)
    assert roundtrip(Coloring.structured(5, blue_code=imp)).blue_code == imp
    assert imp.contains(mask_of([3, 5]))
    assert not imp.contains(mask_of([1, 3]))


def test_family_validation():
    with pytest.raises(ValueError):
        WeightedFamily(5, 2, members=(mask_of([1, 2, 3]),))
    with pytest.raises(ValueError):
        WeightedFamily(5, 2)
    with pytest.raises(ValueError):
        WeightedFamily(5, 2, members=(1,), modp_p=5, modp_d=1)


@given(st.data())
def test_permutation_prefixes_mask_the_image_prefixes(data):
    n, k = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 5))
    image = tuple(data.draw(st.permutations(range(n + 1, n + k + 1))))
    p = Permutation(n, k, image)
    assert len(p.prefixes) == k + 1
    for i in range(k + 1):
        assert p.prefixes[i] == mask_of(image[:i]) == p.prefix_mask(i)


def test_permutation_validation_and_roundtrip():
    p = Permutation(2, 2, (4, 3))
    assert p.prefix_mask(1) == mask_of([4])
    # a permutation travels as the perm field of an embedding record
    rec = embed_with_permutation(Coloring.dense(4, []), 2, 2, p)
    assert EmbedRecord.from_obj(json.loads("".join(json_pieces(rec.to_obj())))).perm == p
    with pytest.raises(ValueError):
        Permutation(2, 2, (3, 3))
    with pytest.raises(ValueError):
        Permutation(2, 2, (2, 3))


def _structured(**fields) -> dict:
    return {"n": 5, "repr": "structured", **fields}


def _record(**fields) -> dict:
    return {"n": 2, "k": 2, "perm": [4, 3], "images": [], "levels": [], "chains": [], **fields}


# Families and permutations are read only inside colorings (blue_extra,
# blue_modp) and embedding records (perm), so their type checks are driven
# through those decoders.
@pytest.mark.parametrize(
    "decode, obj",
    [
        (Coloring.from_obj, _structured(blue_modp={"weight": "2", "p": 5, "d": 3})),
        (Coloring.from_obj, _structured(blue_extra=5)),
        (Coloring.from_obj, _structured(blue_extra=["ab"])),
        (Coloring.from_obj, _structured(blue_modp=[5, 3])),
        (Coloring.from_obj, _structured(blue_modp={"weight": 2, "p": 5, "d": "3"})),
        (Coloring.from_obj, _structured(blue_modp={"weight": 2, "p": True, "d": 3})),
        (EmbedRecord.from_obj, _record(perm=5)),
        (EmbedRecord.from_obj, _record(k=True)),
        (EmbedRecord.from_obj, _record(perm=[4.0, 3])),
        (EmbedRecord.from_obj, "2,2"),
    ],
)
def test_malformed_family_and_permutation_objects_raise_value_error(decode, obj):
    with pytest.raises(ValueError, match="must be a JSON"):
        decode(obj)


@pytest.mark.parametrize(
    "decode, obj, message",
    [
        (Coloring.from_obj, _structured(blue_extra=[[1, 1]]), "blue_extra array not strictly increasing: 1 after 1"),
        (Coloring.from_obj, _structured(blue_extra=[[1], [3, 2]]), "blue_extra array not strictly increasing: 2 after 3"),
        (Chain.from_obj, {"sets": [[], [2, 2]]}, "chain sets array not strictly increasing: 2 after 2"),
        (Chain.from_obj, {"sets": [[2], [3, 1, 2]]}, "chain sets array not strictly increasing: 1 after 3"),
    ],
)
def test_set_arrays_that_do_not_strictly_increase_are_refused(decode, obj, message):
    # [1, 1] would OR to {1}: two files, two digests, one set
    with pytest.raises(ValueError) as caught:
        decode(obj)
    assert str(caught.value) == message


_MODP = {"weight": 2, "p": 5, "d": 3}


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 3, "repr": "dense", "blue_hex": "ff00"}, "dense bit vector has 2 bytes, expected 1"),
        ({"n": 2, "repr": "dense", "blue_hex": "1f"}, "dense bit vector has bits beyond 2^N"),
        (_structured(blue_layers=[6]), "blue layer 6 outside [0, 5]"),
        (_structured(blue_layers=[-1]), "blue layer -1 outside [0, 5]"),
        (_structured(blue_modp={**_MODP, "p": 1, "d": 1}), "modulus 1 < 2"),
        (_structured(blue_modp={**_MODP, "d": 0}), "residue 0 outside [1, 5]"),
        (_structured(blue_modp={**_MODP, "d": 6}), "residue 6 outside [1, 5]"),
        (_structured(blue_layers=[2], blue_extra=[[1, 2]]), "extra blue set [1, 2] lies on a blue layer"),
        (_structured(blue_layers=[2], blue_modp=_MODP), "blue_code weight lies on a blue layer"),
        (_structured(blue_extra=[[1, 2]], blue_modp=_MODP), "blue_extra overlaps the blue_code layer"),
    ],
)
def test_malformed_coloring_objects_are_refused(obj, message):
    with pytest.raises(ValueError) as caught:
        Coloring.from_obj(obj)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Coloring(3, blue_bits=b"\x01", blue_layers=frozenset({1})),
            "coloring must be dense or structured, not both",
        ),
        (
            lambda: Coloring.structured(3, blue_code=WeightedFamily(4, 2, modp_p=5, modp_d=3)),
            "blue_code ground size mismatch",
        ),
        (lambda: WeightedFamily(3, 1, members=(2, 1)), "members must be strictly ascending"),
        (lambda: WeightedFamily(3, 1, members=(1, 1)), "members must be strictly ascending"),
        (lambda: WeightedFamily(3, 1, modp_p=5), "mod-p family needs both p and d"),
        (lambda: Coloring.dense_from_int(2, 1 << 4), "bit vector has bits beyond 2^N"),
        (lambda: Coloring.dense_from_int(2, -1), "bit vector has bits beyond 2^N"),
        (lambda: mask_of([3, 0]), "element 0 outside [1, 64]"),
        (lambda: mask_of([65]), "element 65 outside [1, 64]"),
        (lambda: WeightedFamily(3, 4, members=()), "weight 4 outside [0, 3]"),
        (lambda: WeightedFamily(3, -1, modp_p=5, modp_d=1), "weight -1 outside [0, 3]"),
    ],
    ids=[
        "dense-and-structured",
        "code-over-another-ground",
        "members-descending",
        "members-repeated",
        "modp-without-d",
        "bits-past-2^N",
        "negative-bits",
        "element-0",
        "element-65",
        "weight-past-ground",
        "negative-weight",
    ],
)
def test_malformed_colorings_and_families_are_refused(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("ground, weight", [(64, 32), (38, 7)])
def test_family_conditions_refuse_a_layer_past_the_scan_limit(ground, weight):
    # one member, so only the walk over the C(ground, weight - 1) smaller sets
    # is large: C(64, 31) is about 1.8e18, C(38, 6) is 2,760,681
    fam = WeightedFamily(ground, weight, members=((1 << weight) - 1,))
    assert comb(ground, weight - 1) > SCAN_LIMIT
    with pytest.raises(ValueError) as caught:
        fam.violations
    assert str(caught.value) == (
        f"layer C({ground},{weight - 1}) too large to enumerate (limit {SCAN_LIMIT})"
    )


def indent2(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


json_leaves = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2603 \U0001f600", "\ud800"]),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=5),
        # one key type per dict, since json.dumps sorts keys by value
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.floats(allow_nan=True, allow_infinity=True), children, max_size=5),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=40,
)


@given(json_trees)
def test_json_pieces_match_json_dumps(obj):
    assert_same_text("".join(json_pieces(obj)), indent2(obj))


def test_json_pieces_shared_and_subclassed_containers():
    shared = [1, [2, 3], {"x": None}]
    row = {"sets": [[1], [1, 2]]}
    cases = [
        {"a": shared, "b": [shared, {"c": shared}], "d": shared},  # two depths
        [row, row, {"inner": row}, row],  # repeated at one depth
        [[1, 2], [1, 2], {"x": [1]}, {"x": [1]}],  # equal but distinct
        defaultdict(list, {"b": [True, 1, 0.5], "a": defaultdict(int)}),
        [{True: 1, False: 2}, {None: []}, {2.5: {}, -3: (), 0: [-1]}],
        # equal keys of other types, or other signs, keep their own key texts
        [{True: 1}, {1.0: 2}],
        [{False: 0}, {0: 1}, {0.0: 2}],
        [{0.0: 1}, {-0.0: 2}, {0.0: 3}],
        [{True: 1}, {IntEnum("Bit", "ONE").ONE: 2}],  # equal to True, hashed alike
    ]
    for obj in cases:
        assert_same_text("".join(json_pieces(obj)), indent2(obj))


@pytest.mark.parametrize(
    "ints",
    [[0, 255], [255, 256], [-1, 3], [True, 1, 0], [256, 0], (7,), tuple(i % 5 for i in range(1 << 16))],
    ids=["0,255", "255,256", "-1,3", "True,1,0", "256,0", "7", "levels-65536"],
)
def test_json_pieces_write_int_lists_at_the_byte_table_edges(ints):
    # byte-sized ints come from a text table; the others, and bools, must not
    for obj in (ints, {"levels": ints}, [[ints, 1], ints]):
        assert_same_text("".join(json_pieces(obj)), indent2(obj))


def test_json_pieces_share_pieces_and_leave_no_cycle():
    # a row is rendered once, behind its separator, and every repeat appends
    # that one string; only the first copy is rebuilt behind the opening bracket
    for row in ({"sets": [[1], [1, 2]]}, [1, 2]):  # the second takes the byte-array pass
        pieces = json_pieces([row] * 1000)
        assert len(pieces) == 1001 and {id(p) for p in pieces[1:-1]} == {id(pieces[1])}
        assert pieces[0] == "[" + pieces[1][1:]
        assert_same_text("".join(pieces), indent2([row] * 1000))
    row = {"sets": [[1], [1, 2]]}
    chain = Chain((1, 3))
    pieces = json_pieces({"chains": [chain] * 1000})
    assert len(pieces) == 1003 and {id(p) for p in pieces[2:-2]} == {id(pieces[2])}
    assert pieces[1] == "[" + pieces[2][1:]
    assert_same_text("".join(pieces), indent2({"chains": [{"sets": [[1], [1, 2]]}] * 1000}))
    gc.collect()
    gc.disable()
    try:
        json_pieces({"rows": [row] * 3})
        assert gc.collect() == 0
    finally:
        gc.enable()


byte_arrays = st.lists(st.integers(0, 255), min_size=1, max_size=6)


@given(
    arrays=st.lists(byte_arrays, min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), max_size=8),
    depth=st.integers(0, 3),
)
def test_json_pieces_write_lists_of_byte_arrays(arrays, picks, depth):
    # distinct, repeated and equal-but-distinct element arrays, the list of
    # them nested as a list item and as a dict value
    obj = arrays + [arrays[i % len(arrays)] for i in picks] + [list(a) for a in arrays]
    for _ in range(depth):
        obj = {"a": obj, "x": [obj, 1, obj]}
    assert_same_text("".join(json_pieces(obj)), indent2(obj))


@pytest.mark.parametrize(
    "item",
    [[], [True], [IntEnum("Bit", "ONE").ONE], [256], [-1], (1, 2), 1],
    ids=["empty", "bool", "IntEnum", "256", "-1", "tuple", "int"],
)
def test_json_pieces_write_other_items_beside_byte_arrays(item):
    # one item that no byte-array pass may render sends the whole list back
    # to the item-by-item path, wherever it sits, at depths 0 to 3
    for obj in ([[1], item, [2, 3]], [item, [1]], [[1, 2], [1, 2], item]):
        for _ in range(4):
            assert_same_text("".join(json_pieces(obj)), indent2(obj))
            obj = {"a": obj, "x": [obj, 1, obj]}


def test_lex_key_is_the_negated_bit_reversal():
    def reference(mask, ground):
        return -int(f"{mask:0{ground}b}"[::-1], 2)

    for ground in range(13):
        for mask in range(1 << ground):
            assert lex_key(mask, ground) == reference(mask, ground)
    rng = random.Random(36)
    for ground in range(13, 65):
        masks = [0, (1 << ground) - 1] + [rng.getrandbits(ground) for _ in range(3000)]
        assert [lex_key(m, ground) for m in masks] == [reference(m, ground) for m in masks]


@st.composite
def small_colorings(draw) -> Coloring:
    """A coloring of Q_n, n <= 6: dense, or structured by layers and extras."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return Coloring.dense_from_int(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    layers = draw(st.sets(st.integers(0, n)))
    extra = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))
    return Coloring.structured(n, layers, {s for s in extra if s.bit_count() not in layers})


@given(coloring=small_colorings(), data=st.data())
def test_blue_range_agrees_with_is_blue(coloring, data):
    size = 1 << coloring.ground_n
    # aligned (multiples of 8) and unaligned ranges, on dense and structured colorings
    start = data.draw(st.integers(-9, size + 9) | st.integers(0, size >> 3).map(lambda j: 8 * j))
    count = data.draw(st.integers(-2, size + 9) | st.integers(0, size >> 3).map(lambda j: 8 * j))
    members = range(start, start + count)
    if count < 0 or not all(0 <= s < size for s in members):
        with pytest.raises(ValueError):
            coloring.blue_range(start, count)
        for s in members:
            if not 0 <= s < size:
                with pytest.raises(ValueError):
                    coloring.is_blue(s)
        return
    bits = coloring.blue_range(start, count)
    assert bits >> count == 0
    assert [bits >> i & 1 == 1 for i in range(count)] == [coloring.is_blue(s) for s in members]


set_lists = st.lists(st.none() | st.integers(0, 2**64 - 1) | st.integers(0, 300), max_size=6)


@given(sets=set_lists, depth=st.integers(0, 3))
def test_json_pieces_write_set_lists_as_element_arrays(sets, depth):
    obj, plain = SetList(sets), [None if s is None else elements_of(s) for s in sets]
    for _ in range(depth):  # nest, and repeat, so shared renderings are met too
        obj, plain = {"x": [obj, 1, obj]}, {"x": [plain, 1, plain]}
    assert_same_text("".join(json_pieces(obj)), indent2(plain))


overlapping_sets = st.lists(st.none() | st.integers(0, 2**10 - 1), max_size=8)


@given(xs=overlapping_sets, ys=overlapping_sets)
def test_json_pieces_keep_set_tails_apart_by_depth(xs, ys):
    # masks past 2^8 share their text past element 8 across items at depths 2, 3 and 4
    def plain(sets):
        return [None if s is None else elements_of(s) for s in sets]

    obj = {"a": [{"sets": SetList(xs)}], "b": SetList(ys), "c": [SetList(xs + ys)]}
    want = {"a": [{"sets": plain(xs)}], "b": plain(ys), "c": [plain(xs + ys)]}
    assert_same_text("".join(json_pieces(obj)), indent2(want))


chain_sets = st.lists(st.integers(0, 2**12 - 1), max_size=4).map(
    # each set grows by its predecessor's least missing element, so they rise
    lambda masks: tuple(accumulate(masks, lambda a, b: a | b | (a + 1 & ~a)))
)


@given(
    chains=st.lists(chain_sets, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 4), max_size=10),
    depth=st.integers(0, 3),
)
def test_json_pieces_write_chains_as_their_sets(chains, picks, depth):
    # shared Chains, equal but distinct ones and the empty one, in lists and
    # as dict values, are written as {"sets": [element lists]}
    def plain(chain):
        return {"sets": list(map(elements_of, chain))}

    objs = [Chain(sets) for sets in chains] + [Chain(())]
    obj = [objs[i % len(objs)] for i in picks] + [Chain(c.sets) for c in objs]
    want = list(map(plain, obj))
    for _ in range(depth):
        obj, want = {"c": objs[0], "x": [obj, 1, obj]}, {"c": plain(objs[0]), "x": [want, 1, want]}
    assert_same_text("".join(json_pieces(obj)), indent2(want))
    # a Chain as the whole object, and as a dict value at this depth
    for chain in (objs[0], objs[-1]):
        wrapped, plain_wrapped = chain, plain(chain)
        for _ in range(depth):
            wrapped, plain_wrapped = {"c": wrapped, "e": objs[-1]}, {"c": plain_wrapped, "e": plain(objs[-1])}
        assert_same_text("".join(json_pieces(wrapped)), indent2(plain_wrapped))
