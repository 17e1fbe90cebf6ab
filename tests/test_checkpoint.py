"""Streamed checkpoint writer: the bytes of json.dump(payload, f, sort_keys=True)."""

import json

import numpy as np

from topicdrift.checkpoint import write_checkpoint


def as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: as_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [as_lists(v) for v in value]
    return value


def test_bytes_equal_json_dump_with_sorted_keys(tmp_path):
    rng = np.random.default_rng(0)
    payload = {
        "zeta": rng.normal(size=(3, 2, 4)),
        "alpha": {"b": [1, 2.5, None], "a": {"y": "ünï", "x": float("nan")}},
        "rows": rng.normal(size=(2, 3)) * 1e300,
        "vector": np.array([0.1, -0.0, np.inf]),
        "empty": np.zeros((2, 0)),
        "topics": [None, {"word_mean": {"3": 0.5, "10": -1e-17}, "index": 1}, []],
        "mixed": [1.0, np.arange(3.0), {"k": np.ones((1, 2))}],
        "count": 7,
        "flag": True,
        "nothing": None,
    }
    path = tmp_path / "out.json"
    write_checkpoint(payload, path)
    expected = tmp_path / "expected.json"
    with open(expected, "w", encoding="utf-8") as f:
        json.dump(as_lists(payload), f, sort_keys=True)
    assert path.read_bytes() == expected.read_bytes()
