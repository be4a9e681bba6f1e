"""Small helpers shared by the test modules."""

import json


def dumps(obj) -> str:
    """Compact, key-sorted JSON text of a package object's to_obj()."""
    return json.dumps(obj.to_obj(), sort_keys=True)
