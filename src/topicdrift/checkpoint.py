"""Streamed JSON checkpoint writer shared by the three models.

``write_checkpoint`` writes exactly the bytes of ``json.dump(payload, f,
sort_keys=True)`` with numpy arrays given as nested lists, but without
the pure-Python encoder ``json.dump`` uses and without a string of the
whole payload: a dict or list that holds containers is written item by
item, an array row by row, and every other value, such as one array row
or one flat dict, through one C-encoded ``json.dumps`` call.
"""

import json

import numpy as np


def _streamed(value):
    """True for an array with rows, or for a list or dict that holds containers."""
    if isinstance(value, np.ndarray):
        return value.ndim > 1
    if isinstance(value, (dict, list)):
        items = value.values() if isinstance(value, dict) else value
        return any(isinstance(item, (dict, list, np.ndarray)) for item in items)
    return False


def _write(value, f):
    if not _streamed(value):
        f.write(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value, sort_keys=True))
    elif isinstance(value, dict):
        f.write("{")
        for i, key in enumerate(sorted(value)):
            f.write((", " if i else "") + json.dumps(key) + ": ")
            _write(value[key], f)
        f.write("}")
    else:
        f.write("[")
        for i, item in enumerate(value):
            if i:
                f.write(", ")
            _write(item, f)
        f.write("]")


def write_checkpoint(payload, path):
    """Write the dict ``payload``, whose keys are strings, to ``path`` as sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as f:
        _write(payload, f)
