"""Acceptance suite: one test per exit criterion, with stated tolerances.

Each criterion prints a PASS/FAIL line (visible with ``pytest -s`` or in
captured output).  Run via ``pytest tests/test_acceptance.py``.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    dense_kalman_filter,
    documents_equal,
    exact_crp_shape_distribution,
    rts_smoother,
)
from topicdrift.corpus import (
    build_vocabulary,
    parse_bbc,
    parse_reuters,
    parse_timestamp,
    read_canonical,
    to_documents,
    tokenize_corpus,
    write_canonical,
)

from topicdrift.dp_sim import crp_partition, tdpm_decayed_counts
from topicdrift.drifting_topics import (
    ACTIVE,
    CidtmConfig,
    DriftingTopicModel,
    IrrelevantDoc,
    RelevantDoc,
    TopicBorn,
    lifecycle_step,
)
from topicdrift.errors import LifecycleProtocolError
from topicdrift.evaluation import ConfusionMatrix, confusion_metrics, runtime_benchmark
from topicdrift.information import DiscreteDist, entropy, joint_conditional_entropy, kl_divergence, mutual_information
from topicdrift.kalman import DriftConfig, ObservationTrack, kalman_backward, kalman_forward
from topicdrift.meanfield import GaussianGammaPrior, gaussian_meanfield_fit
from topicdrift.online_hdp import (
    GlobalVariational,
    HdpHyper,
    HdpSnapshot,
    OnlineHdp,
    expected_corpus_weights,
    prequential_run as drift_run,
    prequential_run as hdp_run,
)
from topicdrift.synthetic import drifting_stream, three_topic_corpus, uniform_stream

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def reported(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL - {label}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS - {label}")


def test_01_kalman_matches_dense_oracles():
    with reported(1, "filter/smoother match dense oracles within 1e-10"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            steps = int(rng.integers(2, 11))
            ts = np.cumsum(rng.uniform(0.05, 5.0, size=steps))
            v = float(rng.uniform(1e-3, 1.0))
            v_hat = float(rng.uniform(1e-3, 10.0))
            values = rng.normal(0.0, 2.0, size=steps)
            present = rng.random(steps) < 0.8
            present[int(rng.integers(steps))] = True
            m0, v0 = float(rng.normal()), float(rng.uniform(0.1, 3.0))
            cfg = DriftConfig(v, prior_mean=m0, prior_variance=v0)
            track = ObservationTrack(ts, values, v_hat, present)

            means, variances = kalman_forward(track, cfg)
            o_means, o_vars = dense_kalman_filter(ts, values, v_hat, present, v, m0, v0)
            np.testing.assert_allclose(means, o_means, atol=1e-10)
            np.testing.assert_allclose(variances, o_vars, atol=1e-10)

            sm, sv = kalman_backward(track, (means, variances), cfg)
            o_sm, o_sv = rts_smoother(ts, means, variances, v)
            np.testing.assert_allclose(sm, o_sm, atol=1e-10)
            np.testing.assert_allclose(sv, o_sv, atol=1e-10)
        assert time.perf_counter() - start < 5.0


def test_02_meanfield_recovers_gaussian():
    with reported(2, "mean-field fit recovers mean 2, precision 4"):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        data = rng.normal(2.0, 0.5, size=10_000)
        prior = GaussianGammaPrior(mu0=0.0, lambda0=1e-6, a0=1e-3, b0=1e-3)
        post = gaussian_meanfield_fit(data, prior)
        assert abs(post.muN - 2.0) < 0.05
        assert abs(post.aN / post.bN - 4.0) < 0.2
        assert post.aN == prior.a0 + len(data) / 2
        trace = np.array(post.elbo_trace)
        assert np.all(np.diff(trace) >= -1e-9)
        assert time.perf_counter() - start < 1.0


def test_03_crp_law():
    with reported(3, "CRP table counts and partition-shape law"):
        start = time.perf_counter()
        rng = np.random.default_rng(103)
        mean_tables = np.mean([crp_partition(100, 1.0, rng).num_tables for _ in range(10_000)])
        harmonic = sum(1.0 / i for i in range(1, 101))
        assert abs(mean_tables - harmonic) / harmonic < 0.02

        for n in (5, 8):
            exact = exact_crp_shape_distribution(n, 1.0)
            runs = 30_000
            rng_n = np.random.default_rng(1000 + n)
            freq = {}
            for _ in range(runs):
                shape = tuple(sorted(crp_partition(n, 1.0, rng_n).table_sizes))
                freq[shape] = freq.get(shape, 0) + 1
            for shape, p in exact.items():
                observed = freq.get(shape, 0) / runs
                se = math.sqrt(p * (1.0 - p) / runs)
                assert abs(observed - p) <= 3.0 * se + 1e-12
        assert time.perf_counter() - start < 30.0


def test_04_tdpm_decayed_counts():
    with reported(4, "time-decayed counts: zero width, huge decay, hand value"):
        history = np.array([[2.0], [4.0]])
        np.testing.assert_array_equal(tdpm_decayed_counts(history, 0, 1.0), [0.0])
        big = np.array([[3.0, 1.0], [2.0, 5.0], [4.0, 0.0]])
        np.testing.assert_allclose(tdpm_decayed_counts(big, 3, 1e9), big.sum(axis=0), rtol=1e-8)
        hand = 4.0 * math.exp(-1.0) + 2.0 * math.exp(-2.0)
        assert tdpm_decayed_counts(history, 2, 1.0)[0] == pytest.approx(hand, abs=1e-9)


def test_05_stick_breaking_weights():
    with reported(5, "stick weights match product oracle within 1e-12"):
        rng = np.random.default_rng(105)
        for _ in range(1000):
            k = int(rng.integers(2, 40))
            u = rng.uniform(0.05, 20.0, size=k - 1)
            v = rng.uniform(0.05, 20.0, size=k - 1)
            g = GlobalVariational(np.ones((k, 1)), u, v)
            weights = expected_corpus_weights(g)
            frac = u / (u + v)
            expected, remaining = [], 1.0
            for j in range(k - 1):
                expected.append(frac[j] * remaining)
                remaining *= 1.0 - frac[j]
            expected.append(remaining)
            np.testing.assert_allclose(weights, expected, atol=1e-12)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_06_hdp_learning_signal():
    with reported(6, "online HDP beats the uniform baseline by 0.3 nats"):
        start = time.perf_counter()
        docs, _ = three_topic_corpus(n_docs=500, vocab_size=50, seed=206)
        hyper = HdpHyper(K_corpus=12, T_doc=6)
        model = OnlineHdp(hyper, 50, corpus_scale=len(docs), seed=6)

        # per-document bound is non-decreasing in the sweep budget
        snap = HdpSnapshot.of(model.g)
        from topicdrift.online_hdp import _fit_block

        bounds = [
            _fit_block(docs[:1], snap.elog_beta, snap.elog_sticks, hyper, s, 0.0)[0][1]
            for s in range(1, 9)
        ]
        assert all(b - a >= -1e-8 for a, b in zip(bounds, bounds[1:]))

        records = hdp_run(model, docs, batch_size=10)
        tail = records[-100:]
        pwll = sum(r[2] for r in tail) / sum(r[3] for r in tail)
        assert pwll >= math.log(1.0 / 50.0) + 0.3
        assert time.perf_counter() - start < 120.0


def _paired_dormancy_run(seed):
    docs, post_a = drifting_stream(seed=seed)
    vocab = 1 + max(int(d.words[-1]) for d in docs)
    hyper = HdpHyper(K_corpus=10, T_doc=5)
    cfg = CidtmConfig(hyper=hyper, drift_v=0.005, obs_var=0.1)
    drifting = DriftingTopicModel(cfg, vocab, len(docs), seed=seed)
    plain = OnlineHdp(hyper, vocab, len(docs), seed=seed)
    rc = drift_run(drifting, docs, 16)
    rh = hdp_run(plain, docs, 16)
    wanted = set(post_a)

    def pwll(records):
        rows = [(r[2], r[3]) for r in records if r[0] in wanted]
        return sum(a for a, _ in rows) / sum(b for _, b in rows)

    return pwll(rc), pwll(rh)


def test_07_drifting_model_beats_hdp_after_dormancy():
    with reported(7, "drifting topics beat plain HDP after a 90-day gap (>= 16/20)"):
        start = time.perf_counter()
        wins = 0
        for seed in range(20):
            drifting, plain = _paired_dormancy_run(seed)
            wins += drifting > plain
        assert wins >= 16, f"only {wins}/20 paired wins"
        assert time.perf_counter() - start < 900.0


def test_08_reduction_to_plain_hdp():
    with reported(8, "inert drift layer reproduces the HDP trajectory within 1e-6"):
        docs, _ = three_topic_corpus(n_docs=100, vocab_size=40, seed=208)
        hyper = HdpHyper(K_corpus=10, T_doc=5)
        cfg = CidtmConfig(hyper=hyper, drift_v=0.0, obs_var=1e12)
        drifting = DriftingTopicModel(cfg, 40, 100, seed=8)
        plain = OnlineHdp(hyper, 40, 100, seed=8)
        rc = drift_run(drifting, docs, 10)
        rh = hdp_run(plain, docs, 10)
        assert len(rc) == len(rh) == 100
        for (ida, _, lla, _), (idb, _, llb, _) in zip(rc, rh):
            assert ida == idb
            assert abs(lla - llb) <= 1e-6


def test_09_confusion_tables():
    with reported(9, "confusion metrics reproduce both timeline tables"):
        accuracy, recall, precision = confusion_metrics(ConfusionMatrix(51, 10, 0, 13))
        assert (round(accuracy, 3), round(recall, 3), round(precision, 3)) == (0.865, 0.836, 1.0)
        accuracy, recall, precision = confusion_metrics(ConfusionMatrix(57, 4, 0, 13))
        assert (round(accuracy, 3), round(recall, 3), round(precision, 3)) == (0.946, 0.934, 1.0)


# literal encoding of the state diagram: (state, event[, timer expired?])
_TRANSITIONS = {
    ("unborn", "born"): "active+reset",
    ("unborn", "relevant"): "error",
    ("unborn", "irrelevant"): "error",
    ("active", "born"): "error",
    ("active", "relevant"): "active+reset",
    ("active", "irrelevant", "expired"): "dead",
    ("active", "irrelevant", "alive"): "active",
    ("dead", "born"): "error",
    ("dead", "relevant"): "active+reset",
    ("dead", "irrelevant", "expired"): "dead",
    ("dead", "irrelevant", "alive"): "dead",
}


def _oracle_run(kinds, times, timer):
    state, deadline = "unborn", None
    for kind, ts in zip(kinds, times):
        if kind == "irrelevant" and state != "unborn":
            key = (state, kind, "expired" if ts > deadline else "alive")
        else:
            key = (state, kind)
        outcome = _TRANSITIONS[key]
        if outcome == "error":
            return "error", None
        if outcome == "active+reset":
            state, deadline = "active", ts + timer
        else:
            state = outcome
    return state, deadline


def test_10_lifecycle_exhaustive():
    with reported(10, "lifecycle agrees with the transition oracle on all short runs"):
        from itertools import product

        timer = 100.0
        kinds = ("born", "relevant", "irrelevant")
        event_of = {
            "born": TopicBorn,
            "relevant": RelevantDoc,
            "irrelevant": IrrelevantDoc,
        }
        checked = 0
        for length in range(1, 6):
            for combo in product(kinds, repeat=length):
                # timestamps spaced so the timer sometimes expires
                times = [i * 60.0 for i in range(length)]
                expected_state, expected_deadline = _oracle_run(combo, times, timer)
                lc = None
                try:
                    for kind, ts in zip(combo, times):
                        lc = lifecycle_step(lc, event_of[kind](ts), timer)
                except LifecycleProtocolError:
                    assert expected_state == "error", (combo, "unexpected protocol error")
                else:
                    assert expected_state != "error", (combo, "missed protocol error")
                    got = lc.state if lc else "unborn"
                    assert got == expected_state, combo
                    if expected_state == ACTIVE:
                        assert lc.timer_deadline == expected_deadline, combo
                checked += 1
        assert checked == 3 + 9 + 27 + 81 + 243


def test_11_scaling_shape():
    with reported(11, "online models scale near-linearly from 1k to 2k documents"):
        start = time.perf_counter()
        docs = uniform_stream(2000, 60, seed=211)
        config = {
            "vocab_size": 60,
            "batch_size": 16,
            "seed": 11,
            "hyper": HdpHyper(K_corpus=15, T_doc=5),
        }
        ratios = {}
        for kind in ("ohdp", "cidtm"):
            results = runtime_benchmark(kind, docs, [1000, 2000], config)
            ratios[kind] = results[1][1] / results[0][1]
            assert ratios[kind] <= 2.6, f"{kind} ratio {ratios[kind]:.2f}"
        offline_cfg = {"vocab_size": 60, "seed": 11, "K": 10, "sweeps": 2, "drift_v": 1e-6}
        offline = runtime_benchmark("cdtm", docs, [1000, 2000], offline_cfg)
        offline_ratio = offline[1][1] / offline[0][1]
        print(f"  scaling ratios: ohdp {ratios['ohdp']:.2f}, cidtm {ratios['cidtm']:.2f}, "
              f"cdtm {offline_ratio:.2f} (offline, reported only)")
        assert time.perf_counter() - start < 1200.0


def test_12_parsers_round_trip(tmp_path):
    with reported(12, "newswire fixtures round-trip and timestamps match the oracle"):
        assert parse_timestamp("26-FEB-1987 15:01:01.79", "reuters") == 541350061.79
        assert parse_timestamp("2010/08/09 15:51:53", "bbc") == 1281369113.0

        parsed = parse_reuters((FIXTURES / "sample_reuters.sgm").read_bytes())
        tokenized = tokenize_corpus(parsed.documents)
        vocab = build_vocabulary(tokenized, min_doc_freq=1)
        docs = to_documents(tokenized, vocab, format_hint="reuters")
        path = tmp_path / "reuters.jsonl"
        write_canonical(docs, path)
        assert documents_equal(read_canonical(path), docs)
        second = tmp_path / "reuters2.jsonl"
        write_canonical(read_canonical(path), second)
        assert path.read_bytes() == second.read_bytes()

        with open(FIXTURES / "sample_bbc.txt", encoding="utf-8") as f:
            parsed_bbc = parse_bbc(f)
        tokenized_bbc = tokenize_corpus(parsed_bbc.documents)
        vocab_bbc = build_vocabulary(tokenized_bbc, min_doc_freq=1)
        docs_bbc = to_documents(tokenized_bbc, vocab_bbc, format_hint="bbc")
        path_bbc = tmp_path / "bbc.jsonl"
        write_canonical(docs_bbc, path_bbc)
        assert documents_equal(read_canonical(path_bbc), docs_bbc)


def test_13_information_theory_properties():
    with reported(13, "entropy/KL/MI property suite over 10^4 random distributions"):
        rng = np.random.default_rng(113)
        for _ in range(10_000):
            k = int(rng.integers(2, 6))
            p = DiscreteDist(rng.dirichlet(np.ones(k)))
            q = DiscreteDist(rng.dirichlet(np.ones(k)))
            assert entropy(p) >= -1e-9
            assert entropy(p) <= math.log2(k) + 1e-9
            assert kl_divergence(p, q) >= -1e-9
            assert kl_divergence(p, p) <= 1e-9

            joint = rng.random((k, k))
            joint /= joint.sum()
            h_joint, h_cond = joint_conditional_entropy(joint)
            h_x = entropy(DiscreteDist(joint.sum(axis=1)))
            assert abs(h_joint - (h_x + h_cond)) <= 1e-9
            mi = mutual_information(joint)
            assert mi >= -1e-9
            assert abs(mi - mutual_information(joint.T)) <= 1e-9
