"""Small helpers shared by the test modules."""

import json

from latticeramsey.lattice import json_pieces


def dumps(obj) -> str:
    """Compact, key-sorted JSON text of a package object's to_obj()."""
    return json.dumps(obj.to_obj(), sort_keys=True)


def written(obj):
    """obj as it reads back from the certificate writer's text."""
    return json.loads("".join(json_pieces(obj)))
