"""Format-2 checkpoints: the layout, the typed reader, and damaged files that must be refused."""

import base64
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import payload_array, set_payload_array
from topicdrift import drifting_topics, fixed_k_dtm, online_hdp
from topicdrift.checkpoint import CHUNK_BYTES, read_checkpoint, write_checkpoint
from topicdrift.cli import main
from topicdrift.corpus import write_canonical
from topicdrift.errors import ParameterError
from topicdrift.kalman import DriftConfig
from topicdrift.synthetic import three_topic_corpus

# deterministic runs; a timeline call on a refused file takes milliseconds
DAMAGE = settings(derandomize=True, deadline=None, max_examples=60)


def layout_bytes(kind, header, arrays):
    """json.dump(..., sort_keys=True) of the documented layout, built in one piece."""
    payload = {
        "format_version": 2,
        "kind": kind,
        "header": header,
        "arrays": {
            name: {"dtype": dtype, "shape": list(array.shape),
                   "data": base64.b64encode(np.ascontiguousarray(array, dtype).tobytes()).decode()}
            for name, (array, dtype) in arrays.items()
        },
    }
    return json.dumps(payload, sort_keys=True).encode()


def demo_arrays():
    rng = np.random.default_rng(0)
    return {
        "zeta": (rng.normal(size=(3, 2, 4)), "<f8"),
        "long": (rng.normal(size=CHUNK_BYTES // 8 + 5), "<f8"),  # spans two write chunks
        "empty": (np.zeros((2, 0)), "<f8"),
        "index": (np.array([0, 5, 2**40, -3]), "<i8"),
        "mask": (np.array([True, False, True]), "|b1"),
    }


def test_bytes_equal_json_dump_with_sorted_keys(tmp_path):
    header = {"b": [1, 2.5, None], "a": {"y": "ünï", "x": 1e300}, "count": 7}
    arrays = demo_arrays()
    path = tmp_path / "out.json"
    write_checkpoint("demo", header, {name: a for name, (a, _) in arrays.items()}, path)
    assert path.read_bytes() == layout_bytes("demo", header, arrays)


def test_arrays_read_back_at_their_dtype(tmp_path):
    arrays = demo_arrays()
    path = tmp_path / "out.json"
    write_checkpoint("demo", {"n": 1}, {name: a for name, (a, _) in arrays.items()}, path)
    spec = {name: (dtype, a.ndim) for name, (a, dtype) in arrays.items()}
    kind, header, loaded = read_checkpoint(path, {"other": {}, "demo": spec})
    assert (kind, header) == ("demo", {"n": 1})
    for name, (array, dtype) in arrays.items():
        assert loaded[name].dtype == np.dtype(dtype) and loaded[name].flags.writeable
        np.testing.assert_array_equal(loaded[name], array)


@pytest.mark.parametrize("content", [b"PK\x03\x04\x14\x00\x00\x00\x08\x00\xff\xfe", b"", b"[1, 2]", b"null"])
def test_a_file_that_is_not_a_checkpoint_is_refused(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(ParameterError):
        read_checkpoint(path, {"ohdp": online_hdp.ARRAYS})


def test_only_the_declared_dtype_and_ndim_are_read(tmp_path):
    path = tmp_path / "out.json"
    write_checkpoint("demo", {}, {"x": np.zeros((2, 3))}, path)
    for spec in ({"x": ("<i8", 2)}, {"x": ("<f8", 1)}, {"y": ("<f8", 2)}):
        with pytest.raises(ParameterError):
            read_checkpoint(path, {"demo": spec})
    with pytest.raises(ParameterError, match="unsupported checkpoint kind 'demo'"):
        read_checkpoint(path, {"ohdp": online_hdp.ARRAYS})


def test_a_bool_array_holds_only_bytes_0_and_1(tmp_path):
    path = tmp_path / "out.json"
    write_checkpoint("demo", {}, {"mask": np.array([True, False])}, path)
    payload = json.loads(path.read_text())
    payload["arrays"]["mask"]["data"] = base64.b64encode(b"\x01\x02").decode()
    path.write_text(json.dumps(payload))
    with pytest.raises(ParameterError, match="not a bool"):
        read_checkpoint(path, {"demo": {"mask": ("|b1", 1)}})


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Pristine checkpoint bytes of each kind, a corpus for timeline and a scratch directory."""
    root = tmp_path_factory.mktemp("checkpoints")
    docs, _ = three_topic_corpus(n_docs=40, vocab_size=30, seed=5)
    write_canonical(docs, root / "corpus.jsonl")
    hyper = online_hdp.HdpHyper(K_corpus=6, T_doc=3)
    ohdp = online_hdp.OnlineHdp(hyper, 30, len(docs), seed=1)
    online_hdp.prequential_run(ohdp, docs, batch_size=10)
    online_hdp.save_checkpoint(ohdp, root / "ohdp.json")
    cidtm = drifting_topics.DriftingTopicModel(drifting_topics.CidtmConfig(hyper=hyper), 30, len(docs), seed=1)
    drifting_topics.prequential_run(cidtm, docs, batch_size=10)
    assert cidtm.tracked.sum() > 10
    drifting_topics.save_checkpoint(cidtm, root / "cidtm.json")
    cdtm = fixed_k_dtm.train_cdtm(docs[:20], 3, DriftConfig(1e-8), 2, np.random.default_rng(2), vocab_size=30)
    fixed_k_dtm.save_checkpoint(cdtm, root / "cdtm.json")
    pristine = {kind: (root / f"{kind}.json").read_bytes() for kind in ("ohdp", "cidtm", "cdtm")}
    return root, pristine


def timeline_exit(root, content):
    """(exit code, stderr) of timeline on a checkpoint holding ``content``."""
    (root / "damaged.json").write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["timeline", "--checkpoint", str(root / "damaged.json"), "--corpus",
                     str(root / "corpus.jsonl"), "--topic", "0", "--out-assign", str(root / "assign.tsv")])
    return code, err.getvalue()


def json_type(value):
    if value is None:
        return "null"
    for name, types in (("bool", bool), ("number", (int, float)), ("string", str), ("array", list)):
        if isinstance(value, types):
            return name
    return "object"


def walk(value, path=()):
    """(path, value) of every node below the root of a parsed payload."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from walk(child, path + (key,))


def edit(payload, path, change):
    """``change(container, key)`` at ``path``; returns the payload as JSON bytes."""
    node = payload
    for key in path[:-1]:
        node = node[key]
    change(node, path[-1])
    return json.dumps(payload).encode()


@st.composite
def truncated(draw, raw):
    return raw[: draw(st.integers(0, len(raw) - 1))]


@st.composite
def key_deleted(draw, raw):
    payload = json.loads(raw)
    paths = [path for path, _ in walk(payload) if isinstance(path[-1], str)]
    return edit(payload, draw(st.sampled_from(paths)), lambda node, key: node.pop(key))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def leaf_retyped(draw, raw):
    payload = json.loads(raw)
    path, old = draw(st.sampled_from([
        (path, value) for path, value in walk(payload) if not isinstance(value, (dict, list))
    ]))
    # an unfitted drifting model's clock is null, so null is a clock's own type
    own = {json_type(old)} | ({"null"} if path == ("header", "clock") else set())
    new = draw(JSON_VALUES.filter(lambda value: json_type(value) not in own))
    return edit(payload, path, lambda node, key: node.__setitem__(key, new))


BASE64_NOISE = "!*-_ .\né="


@st.composite
def array_misencoded(draw, raw):
    payload = json.loads(raw)
    name = draw(st.sampled_from(sorted(payload["arrays"])))
    entry = payload["arrays"][name]
    fault = draw(st.sampled_from(["dtype", "shape", "inserted", "deleted"]))
    if fault == "dtype":
        entry["dtype"] = draw(st.sampled_from(["<f4", ">f8", "<i4", "<i8", "<f8", "|b1", "|u1", "float64", ""])
                              .filter(lambda dtype: dtype != entry["dtype"]))
    elif fault == "shape":
        entry["shape"] = draw(st.lists(st.integers(0, 2**40), max_size=4).filter(lambda s: s != entry["shape"]))
    elif fault == "inserted":
        at = draw(st.integers(0, len(entry["data"])))
        entry["data"] = entry["data"][:at] + draw(st.sampled_from(BASE64_NOISE)) + entry["data"][at:]
    else:
        at = draw(st.integers(0, len(entry["data"]) - 1))
        entry["data"] = entry["data"][:at] + entry["data"][at + draw(st.integers(1, 8)):]
    return json.dumps(payload).encode()


@st.composite
def tracked_index_broken(draw, raw):
    payload = json.loads(raw)
    tracked = payload_array(payload, "tracked").copy()
    size = payload["header"]["config"]["hyper"]["K_corpus"] * payload["header"]["vocab_size"]
    fault = draw(st.sampled_from(["above", "below", "duplicated", "unsorted"]))
    i = draw(st.integers(0, tracked.size - 2))
    if fault == "above":
        tracked[-1] = size + draw(st.integers(0, 10**6))
    elif fault == "below":
        tracked[0] = -1 - draw(st.integers(0, 10**6))
    elif fault == "duplicated":
        tracked[i + 1] = tracked[i]
    else:
        tracked[i], tracked[i + 1] = tracked[i + 1], tracked[i]
    set_payload_array(payload, "tracked", tracked)
    return json.dumps(payload).encode()


DAMAGES = [truncated, key_deleted, leaf_retyped, array_misencoded]
ONLINE_CASES = [(kind, damage) for kind in ("ohdp", "cidtm") for damage in DAMAGES]
ONLINE_CASES.append(("cidtm", tracked_index_broken))


@pytest.mark.parametrize("kind, damage", ONLINE_CASES, ids=[f"{k}-{d.__name__}" for k, d in ONLINE_CASES])
@DAMAGE
@given(data=st.data())
def test_timeline_exits_2_on_a_damaged_checkpoint(trained, kind, damage, data):
    root, pristine = trained
    code, err = timeline_exit(root, data.draw(damage(pristine[kind])))
    assert code == 2 and err.startswith("error: "), err


@pytest.mark.parametrize("damage", DAMAGES, ids=lambda d: d.__name__)
@DAMAGE
@given(data=st.data())
def test_a_damaged_cdtm_checkpoint_raises_parameter_error(trained, damage, data):
    root, pristine = trained
    (root / "damaged_cdtm.json").write_bytes(data.draw(damage(pristine["cdtm"])))
    with pytest.raises(ParameterError):
        fixed_k_dtm.load_checkpoint(root / "damaged_cdtm.json")


def test_the_pristine_checkpoints_load(trained):
    root, pristine = trained
    for kind in ("ohdp", "cidtm"):
        assert timeline_exit(root, pristine[kind]) == (0, "")
    (root / "cdtm_copy.json").write_bytes(pristine["cdtm"])
    assert fixed_k_dtm.load_checkpoint(root / "cdtm_copy.json").trained
