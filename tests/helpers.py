"""Small helpers shared by the test modules."""

import json
import os
import random

from latticeramsey.constructions import low_block_layers
from latticeramsey.lattice import Coloring, json_pieces


def dumps(obj) -> str:
    """Compact, key-sorted JSON text of a package object's to_obj()."""
    return json.dumps(obj.to_obj(), sort_keys=True)


def assert_same_text(got: str, want: str) -> None:
    """Assert got == want, reporting a mismatch by the two lengths and about
    40 characters of each text around the first index where they differ.

    pytest's assertion message for two multi-kB strings is a full diff, which
    can take minutes to build; this one takes a prefix scan.
    """
    if got != want:
        i = len(os.path.commonprefix((got, want)))
        start = max(i - 20, 0)
        raise AssertionError(
            f"texts of lengths {len(got)} and {len(want)} differ from index {i}: "
            f"{got[start:i + 20]!r} != {want[start:i + 20]!r}"
        )


def written(obj):
    """obj as it reads back from the certificate writer's text."""
    return json.loads("".join(json_pieces(obj)))


def low_block_q9() -> Coloring:
    """Q_9 blue on layers 0, 1 and 4 and on the 3-sets s, in ascending
    order, with random.Random(3).random() < 0.1: a search-bound coloring for
    `verify --ramsey 3,6`."""
    rng = random.Random(3)
    extra = [s for s in range(1 << 9) if s.bit_count() == 3 and rng.random() < 0.1]
    return Coloring.structured(9, blue_layers=low_block_layers(3), blue_extra=extra)
