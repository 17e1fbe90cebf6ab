"""Format-3 checkpoints: the layout, the typed reader, the packed masks, and damaged files that must be refused."""

import base64
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import payload_array, set_payload_array
from topicdrift import drifting_topics, fixed_k_dtm, online_hdp
from topicdrift.checkpoint import CHUNK_BYTES, pack_mask, read_checkpoint, unpack_mask, write_checkpoint
from topicdrift.cli import main
from topicdrift.corpus import write_canonical
from topicdrift.errors import ParameterError
from topicdrift.synthetic import three_topic_corpus

# deterministic runs; a timeline call on a refused file takes milliseconds
DAMAGE = settings(derandomize=True, deadline=None, max_examples=60)


def layout_bytes(kind, header, arrays):
    """json.dump(..., sort_keys=True) of the documented layout, built in one piece."""
    payload = {
        "format_version": 3,
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
        "packed": (np.array([0, 7, 128, 255], dtype=np.uint8), "|u1"),
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


def test_base64_padding_past_the_last_byte_is_refused(tmp_path):
    path = tmp_path / "out.json"
    write_checkpoint("demo", {}, {"x": np.arange(3.0)}, path)
    payload = json.loads(path.read_text())
    payload["arrays"]["x"]["data"] += "="
    path.write_text(json.dumps(payload))
    with pytest.raises(ParameterError, match="bad base64"):
        read_checkpoint(path, {"demo": {"x": ("<f8", 1)}})


@pytest.mark.parametrize("shape", [(0,), (1,), (8,), (3, 7), (2, 8), (5, 13)])
def test_a_mask_unpacks_to_the_packed_one(shape):
    mask = np.random.default_rng(sum(shape)).random(shape) < 0.5
    packed = pack_mask(mask)
    assert packed.dtype == np.uint8 and packed.size == math.ceil(mask.size / 8)
    np.testing.assert_array_equal(unpack_mask("m", packed, shape), mask)
    # the first entry is the high bit of the first byte
    if mask.size:
        assert packed[0] >> 7 == mask.flat[0]


def test_a_mask_of_the_wrong_size_or_with_a_pad_bit_set_is_refused():
    packed = pack_mask(np.ones((3, 7), dtype=bool))  # 21 entries: 3 bytes, 3 pad bits
    for wrong in (packed[:-1], np.append(packed, 0)):
        with pytest.raises(ParameterError, match="holds .* bytes, not the bits of"):
            unpack_mask("m", wrong, (3, 7))
    with pytest.raises(ParameterError, match="sets a pad bit"):
        unpack_mask("m", packed | np.array([0, 0, 1], dtype=np.uint8), (3, 7))
    with pytest.raises(ParameterError):
        unpack_mask("m", packed, (-3, -7))


def online_state(model):
    """Every array and scalar of an online model's state, by name."""
    state = {"lam": model.g.lam, "stick_u": model.g.stick_u, "stick_v": model.g.stick_v,
             "update_count": model.g.update_count, "vocab_size": model.vocab_size}
    for name in ("mean", "var", "tracked", "born", "active", "deadline", "clock"):
        if hasattr(model, name):
            state[name] = getattr(model, name)
    return state


def online_model(kind, lam_case):
    """A trained K = 3, V = 7 model (K·V = 21, not a multiple of 8) whose lam has no, every or some eta entries."""
    docs, _ = three_topic_corpus(n_docs=30, vocab_size=7, seed=4)
    hyper = online_hdp.HdpHyper(K_corpus=3, T_doc=2)
    if kind == "ohdp":
        model = online_hdp.OnlineHdp(hyper, 7, len(docs), seed=1)
    else:
        model = drifting_topics.DriftingTopicModel(drifting_topics.CidtmConfig(hyper=hyper), 7, len(docs), seed=1)
    online_hdp.prequential_run(model, docs, batch_size=10)
    if lam_case == "every entry eta":
        model.g.lam[:] = hyper.eta
    elif lam_case == "no entry eta":
        model.g.lam[:] = hyper.eta + np.random.default_rng(0).random(model.g.lam.shape) + 1e-3
    else:
        model.g.lam[:, ::2] = hyper.eta
    return model


@pytest.mark.parametrize("lam_case", ["every entry eta", "no entry eta", "some entries eta"])
@pytest.mark.parametrize("kind", ["ohdp", "cidtm"])
def test_an_online_model_round_trips_array_for_array(tmp_path, kind, lam_case):
    module = online_hdp if kind == "ohdp" else drifting_topics
    model = online_model(kind, lam_case)
    if kind == "cidtm":
        assert 0 < model.tracked.sum() < model.tracked.size
    module.save_checkpoint(model, tmp_path / "model.json")
    payload = json.loads((tmp_path / "model.json").read_text())
    assert payload["format_version"] == 3 and "lam" not in payload["arrays"]
    saved, loaded = online_state(model), online_state(module.load_checkpoint(tmp_path / "model.json"))
    assert saved.keys() == loaded.keys()
    for name, value in saved.items():
        assert np.asarray(loaded[name]).dtype == np.asarray(value).dtype, name
        np.testing.assert_array_equal(loaded[name], value, err_msg=name)


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
    online_hdp.prequential_run(cidtm, docs, batch_size=10)
    assert cidtm.tracked.sum() > 10
    drifting_topics.save_checkpoint(cidtm, root / "cidtm.json")
    cdtm = fixed_k_dtm.train_cdtm(docs[:20], fixed_k_dtm.CdtmConfig(K=3, drift_v=8.64e-4, sweeps=2),
                                  np.random.default_rng(2), vocab_size=30)
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


def index_broken(draw, payload, name, size):
    """The payload with its flat index array ``name`` into ``size`` cells out of range, duplicated or unsorted."""
    index = payload_array(payload, name).copy()
    fault = draw(st.sampled_from(["above", "below", "duplicated", "unsorted"]))
    i = draw(st.integers(0, index.size - 2))
    if fault == "above":
        index[-1] = size + draw(st.integers(0, 10**6))
    elif fault == "below":
        index[0] = -1 - draw(st.integers(0, 10**6))
    elif fault == "duplicated":
        index[i + 1] = index[i]
    else:
        index[i], index[i + 1] = index[i + 1], index[i]
    set_payload_array(payload, name, index)
    return json.dumps(payload).encode()


def packed_set_broken(draw, payload, mask, values):
    """The payload with the packed ``mask`` one byte short or long or with a pad bit set, or with one
    array of ``values`` (one value per set or unset bit) holding one value fewer or more.

    The trained models have K·V = 6 · 30 = 180 entries, so each mask ends in 4 pad bits.
    """
    fault = draw(st.sampled_from(["short", "long", "pad bit", "value missing", "value added"]))
    name = mask if fault in ("short", "long", "pad bit") else draw(st.sampled_from(values))
    array = payload_array(payload, name).copy()
    if fault == "short":
        array = array[:-1]
    elif fault == "long":
        array = np.append(array, np.uint8(draw(st.integers(0, 255))))
    elif fault == "pad bit":
        array[-1] |= 1 << draw(st.integers(0, 3))
    elif fault == "value missing":
        array = np.delete(array, draw(st.integers(0, array.size - 1)))
    else:
        array = np.insert(array, draw(st.integers(0, array.size)), draw(st.floats(allow_nan=False)))
    set_payload_array(payload, name, array)
    return json.dumps(payload).encode()


@st.composite
def lam_mask_broken(draw, raw):
    return packed_set_broken(draw, json.loads(raw), "lam_is_eta", ["lam_off_eta"])


@st.composite
def tracked_index_broken(draw, raw):
    """cidtm's tracked set, its packed (K, V) mask or its mean and var, broken."""
    return packed_set_broken(draw, json.loads(raw), "tracked", ["mean", "var"])


@st.composite
def pairs_broken(draw, raw):
    payload = json.loads(raw)
    size = payload_array(payload, "knots").size * payload["header"]["vocab_size"]
    return index_broken(draw, payload, "pairs", size)


DAMAGES = [truncated, key_deleted, leaf_retyped, array_misencoded]
ONLINE_CASES = [(kind, damage) for kind in ("ohdp", "cidtm") for damage in DAMAGES + [lam_mask_broken]]
ONLINE_CASES.append(("cidtm", tracked_index_broken))


@pytest.mark.parametrize("kind, damage", ONLINE_CASES, ids=[f"{k}-{d.__name__}" for k, d in ONLINE_CASES])
@DAMAGE
@given(data=st.data())
def test_timeline_exits_2_on_a_damaged_checkpoint(trained, kind, damage, data):
    root, pristine = trained
    code, err = timeline_exit(root, data.draw(damage(pristine[kind])))
    assert code == 2 and err.startswith("error: "), err


@pytest.mark.parametrize("damage", DAMAGES + [pairs_broken], ids=lambda d: d.__name__)
@DAMAGE
@given(data=st.data())
def test_a_damaged_cdtm_checkpoint_raises_parameter_error(trained, damage, data):
    root, pristine = trained
    (root / "damaged_cdtm.json").write_bytes(data.draw(damage(pristine["cdtm"])))
    with pytest.raises(ParameterError):
        fixed_k_dtm.load_checkpoint(root / "damaged_cdtm.json")


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_a_cdtm_checkpoint_with_an_alpha_training_rejects_raises_parameter_error(trained, alpha):
    root, pristine = trained
    payload = json.loads(pristine["cdtm"])
    payload["header"]["config"]["alpha"] = alpha
    (root / "alpha_cdtm.json").write_text(json.dumps(payload))
    with pytest.raises(ParameterError, match="alpha and obs_var must be finite and > 0"):
        fixed_k_dtm.load_checkpoint(root / "alpha_cdtm.json")


ONLINE = ("ohdp", "cidtm")
# (kind, "header" or "arrays", name, value): one value set in a pristine checkpoint that its load refuses;
# the values that must be > 0 fail at 0 or below, and every value fails at nan or +-inf
OUT_OF_RANGE = (
    [(kind, "arrays", "lam_off_eta", value) for kind in ONLINE for value in (-1.0, 0.0, math.nan, math.inf)]
    + [(kind, "arrays", name, value) for kind in ONLINE for name in ("stick_u", "stick_v")
       for value in (-2.0, math.nan)]
    + [(kind, "header", "corpus_scale", value) for kind in ONLINE for value in (-5.0, 0.0, math.nan, math.inf)]
    + [(kind, "header", "update_count", -3) for kind in ONLINE]
    + [("cidtm", "header", "clock", value) for value in (math.nan, math.inf, -math.inf)]
    + [("cidtm", "arrays", "mean", value) for value in (math.nan, math.inf)]
    + [("cidtm", "arrays", "var", value) for value in (-1.0, 0.0, math.nan, math.inf)]
    + [("cidtm", "arrays", "deadline", value) for value in (math.nan, -math.inf)]
    + [("cdtm", "arrays", name, value) for name in ("knots", "means", "objective_trace")
       for value in (math.nan, math.inf)]
)


@pytest.mark.parametrize("kind, where, name, value", OUT_OF_RANGE, ids=[f"{k}-{n}-{v}" for k, _, n, v in OUT_OF_RANGE])
def test_a_value_out_of_range_raises_parameter_error_on_load(trained, kind, where, name, value):
    """A nan knot is refused although it passes the ascending check; the online kinds' timeline exits 2."""
    root, pristine = trained
    payload = json.loads(pristine[kind])
    if where == "header":
        payload["header"][name] = value
    else:
        array = payload_array(payload, name).copy()
        array.flat[array.size // 2] = value
        set_payload_array(payload, name, array)
    content = json.dumps(payload).encode()
    (root / "range.json").write_bytes(content)
    module = {"ohdp": online_hdp, "cidtm": drifting_topics, "cdtm": fixed_k_dtm}[kind]
    with pytest.raises(ParameterError, match=f"'{name}' must be"):
        module.load_checkpoint(root / "range.json")
    if kind in ONLINE:
        code, err = timeline_exit(root, content)
        assert code == 2 and err.startswith("error: ") and f"'{name}' must be" in err, err


@pytest.mark.parametrize("kind", ["ohdp", "cidtm", "cdtm"])
def test_a_format_2_checkpoint_asks_to_retrain(trained, kind):
    root, pristine = trained
    payload = json.loads(pristine[kind])
    payload["format_version"] = 2
    if kind == "cdtm":
        (root / "v2_cdtm.json").write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="format-2 checkpoint, no longer read; re-train the model"):
            fixed_k_dtm.load_checkpoint(root / "v2_cdtm.json")
    else:
        code, err = timeline_exit(root, json.dumps(payload).encode())
        assert code == 2 and "format-2 checkpoint, no longer read; re-train the model" in err, err


def test_the_pristine_checkpoints_load(trained):
    root, pristine = trained
    for kind in ("ohdp", "cidtm"):
        assert timeline_exit(root, pristine[kind]) == (0, "")
    (root / "cdtm_copy.json").write_bytes(pristine["cdtm"])
    assert fixed_k_dtm.load_checkpoint(root / "cdtm_copy.json").means.shape[0] == 3
