"""Drifting-topic model: lifecycle, evolution, batches, HDP reduction."""

import copy
import dataclasses
import importlib.util
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    dense_kalman_stage,
    inline_layout_kalman_stage,
    reference_adjusted_matrices,
    reference_drifting_expectations,
    reference_log_ratio,
)
from topicdrift import cli, drifting_topics
from topicdrift.checkpoint import read_checkpoint
from topicdrift.corpus import Document, read_canonical, read_vocabulary
from topicdrift.drifting_topics import (
    ACTIVE,
    DEAD,
    CidtmConfig,
    DriftingTopicModel,
    IrrelevantDoc,
    RelevantDoc,
    TopicBorn,
    TopicLifecycle,
    evolve_topics,
    lifecycle_step,
    load_checkpoint,
    process_batch,
    save_checkpoint,
)
from topicdrift.errors import LifecycleProtocolError, ParameterError, TimeOrderError
from topicdrift.online_hdp import (
    BatchResult,
    BatchStats,
    HdpHyper,
    HdpSnapshot,
    OnlineHdp,
    prequential_run,
    score_batch,
)
from topicdrift.synthetic import drifting_stream, three_topic_corpus

DAY = 86400.0
ARCHIVE = Path(__file__).resolve().parents[1] / "benchmarks" / "archive.py"
STATE = ("mean", "var", "tracked", "born", "active", "deadline")


def small_config(**kwargs):
    hyper = kwargs.pop("hyper", HdpHyper(K_corpus=8, T_doc=4))
    return CidtmConfig(hyper=hyper, **kwargs)


def state_of(model):
    return {name: getattr(model, name).copy() for name in STATE}


def assert_same_state(got, want):
    for name in STATE:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def dormancy_run(docs, batch_size=12):
    """The model and per-batch results of a stream where a topic dies, revives and dies again."""
    cfg = CidtmConfig(hyper=HdpHyper(K_corpus=8, T_doc=4), drift_v=0.02, obs_var=0.1,
                      active_timer_len=20 * DAY, relevance_threshold=0.2)
    model = DriftingTopicModel(cfg, _vocab(docs), len(docs), seed=2)
    for start in range(0, len(docs), batch_size):
        yield model, model.process_batch(docs[start : start + batch_size])


class TestLifecycle:
    def test_birth_starts_timer(self):
        lc = lifecycle_step(None, TopicBorn(0.0), 100.0)
        assert lc == TopicLifecycle(ACTIVE, 100.0)

    def test_relevant_resets_deadline(self):
        lc = lifecycle_step(None, TopicBorn(0.0), 100.0)
        lc = lifecycle_step(lc, RelevantDoc(10.0), 100.0)
        assert lc == TopicLifecycle(ACTIVE, 110.0)

    def test_expiry_kills(self):
        lc = lifecycle_step(None, TopicBorn(0.0), 100.0)
        lc = lifecycle_step(lc, IrrelevantDoc(150.0), 100.0)
        assert lc.state == DEAD

    def test_relevant_revives_from_dead(self):
        lc = lifecycle_step(None, TopicBorn(0.0), 100.0)
        lc = lifecycle_step(lc, IrrelevantDoc(150.0), 100.0)
        lc = lifecycle_step(lc, RelevantDoc(200.0), 100.0)
        assert lc == TopicLifecycle(ACTIVE, 300.0)

    def test_irrelevant_before_deadline_keeps_active(self):
        lc = lifecycle_step(None, TopicBorn(0.0), 100.0)
        lc = lifecycle_step(lc, IrrelevantDoc(99.0), 100.0)
        assert lc == TopicLifecycle(ACTIVE, 100.0)

    def test_dead_stays_dead_on_irrelevant(self):
        lc = TopicLifecycle(DEAD, 50.0)
        assert lifecycle_step(lc, IrrelevantDoc(500.0), 100.0).state == DEAD

    def test_protocol_errors(self):
        with pytest.raises(LifecycleProtocolError):
            lifecycle_step(None, RelevantDoc(0.0), 100.0)
        with pytest.raises(LifecycleProtocolError):
            lifecycle_step(TopicLifecycle(ACTIVE, 10.0), TopicBorn(0.0), 100.0)


class TestLifecycleStage:
    """The K-wide lifecycle stage against ``lifecycle_step`` replayed per topic."""

    @staticmethod
    def replay(lcs, batch, mixtures, timer, threshold, seen):
        """Apply each document's events to the per-topic lifecycles ``lcs``; count edge cases."""
        born, died = set(), set()
        for doc, theta in zip(batch, mixtures):
            seen["tie"] += bool((theta == threshold).any())
            seen["birth beside a born topic"] += any(
                lc is None and theta[k] >= threshold for k, lc in enumerate(lcs)
            ) and any(lc is not None for lc in lcs)
            for k, lc in enumerate(lcs):
                relevant = theta[k] >= threshold
                if lc is None:
                    if relevant:
                        lcs[k] = lifecycle_step(None, TopicBorn(doc.timestamp), timer)
                        born.add(k)
                    continue
                event = RelevantDoc(doc.timestamp) if relevant else IrrelevantDoc(doc.timestamp)
                seen["irrelevant at the deadline"] += (
                    not relevant and lc.state == ACTIVE and doc.timestamp == lc.timer_deadline
                )
                lcs[k] = lifecycle_step(lc, event, timer)
                if lc.state != lcs[k].state:
                    seen["death" if lcs[k].state == DEAD else "revival"] += 1
                    if lcs[k].state == DEAD:
                        died.add(k)
        return born, died

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lifecycle_step_per_topic(self, seed):
        rng = np.random.default_rng(seed)
        n_topics, timer, threshold = 12, 10.0, 0.25
        model = DriftingTopicModel(small_config(hyper=HdpHyper(K_corpus=n_topics, T_doc=4),
                                                active_timer_len=timer, relevance_threshold=threshold),
                                   5, 100, seed=0)
        lcs = [None] * n_topics
        ts, seen = 0.0, Counter()
        for _ in range(8):
            n_docs = int(rng.integers(1, 20))
            # repeated timestamps, and steps that land exactly on a deadline
            ts_list = ts + np.cumsum(rng.choice([0.0, 0.0, 1.0, 5.0, 10.0], size=n_docs))
            ts = float(ts_list[-1])
            batch = [Document.from_counts(f"d{i}", float(t), {0: 1}) for i, t in enumerate(ts_list)]
            # relevance exactly at the threshold counts; rare relevance lets topics expire
            mixtures = [rng.choice([0.0, 0.1, threshold, 0.9], p=[0.55, 0.2, 0.1, 0.15], size=n_topics)
                        for _ in batch]
            want_born, want_died = self.replay(lcs, batch, mixtures, timer, threshold, seen)
            got_born, got_died = drifting_topics._lifecycle_stage(model, batch, mixtures)

            assert got_born == want_born and got_died == want_died
            np.testing.assert_array_equal(model.born, [lc is not None for lc in lcs])
            np.testing.assert_array_equal(model.active, [lc is not None and lc.state == ACTIVE for lc in lcs])
            np.testing.assert_array_equal(
                model.deadline[model.born], [lc.timer_deadline for lc in lcs if lc is not None]
            )
        cases = ("tie", "birth beside a born topic", "irrelevant at the deadline", "death", "revival")
        assert all(seen[case] for case in cases), seen

    def test_birth_records_the_birth_timestamp(self):
        model = DriftingTopicModel(small_config(relevance_threshold=0.5), 5, 100, seed=0)
        batch = [Document.from_counts("a", 3.0, {0: 1}), Document.from_counts("b", 7.0, {0: 1})]
        mixtures = [np.eye(8)[1], np.eye(8)[[1, 4]].sum(axis=0)]
        born, died = drifting_topics._lifecycle_stage(model, batch, mixtures)
        assert born == {1, 4} and died == set()
        assert model.deadline[4] == 7.0 + model.config.active_timer_len


class TestStateInvariants:
    def test_untracked_entries_stay_at_the_prior(self):
        docs, _ = drifting_stream(seed=8, pre_docs=120, gap_docs=24, post_docs=60)
        previous = None
        deaths = []
        for model, result in dormancy_run(docs):
            deaths.extend(result.topics_died)
            untracked = ~model.tracked
            prior = np.float64(drifting_topics.PRIOR_VARIANCE)
            assert (bits(model.mean[untracked]) == bits(0.0)).all()
            assert (bits(model.var[untracked]) == bits(prior)).all()
            unborn = ~model.born
            assert not model.tracked[unborn].any() and not model.active[unborn].any()
            assert (model.deadline[unborn] == 0.0).all()
            if previous is not None:
                assert not (previous & untracked).any(), "a tracked pair was dropped"
            previous = model.tracked.copy()
        assert len(deaths) > len(set(deaths)), "stream must revive and re-kill a topic"


class TestEvolve:
    def make_model(self):
        model = DriftingTopicModel(small_config(drift_v=0.01 * DAY), 10, 100, seed=0)
        model.born[2] = model.active[2] = True
        model.deadline[2] = 1e12
        model.mean[2, 1], model.var[2, 1], model.tracked[2, 1] = 0.4, 0.5, True
        model.clock = 100.0
        return model

    def test_zero_elapsed_changes_nothing(self):
        model = self.make_model()
        before = state_of(model)
        evolve_topics(model, 100.0)
        assert_same_state(state_of(model), before)

    def test_variance_grows_linearly(self):
        model = self.make_model()  # drift 0.01 per second
        before = state_of(model)
        evolve_topics(model, 110.0)
        assert model.var[2, 1] == pytest.approx(0.5 + 0.1, rel=1e-12)
        assert model.mean[2, 1] == 0.4
        assert model.clock == 110.0
        # untracked words and unborn topics do not move
        before["var"][2, 1] = model.var[2, 1]
        assert_same_state(state_of(model), before)

    def test_time_regression_rejected(self):
        model = self.make_model()
        with pytest.raises(TimeOrderError):
            evolve_topics(model, 99.0)

    def test_first_evolve_only_sets_the_clock(self):
        model = self.make_model()
        model.clock = None
        before = state_of(model)
        evolve_topics(model, 500.0)
        assert model.clock == 500.0
        assert_same_state(state_of(model), before)


def run_pair(docs, batch_size, seed, drift_v, obs_var, hyper=None, threshold=0.05):
    hyper = hyper or HdpHyper(K_corpus=10, T_doc=5)
    cfg = CidtmConfig(hyper=hyper, drift_v=drift_v, obs_var=obs_var,
                      relevance_threshold=threshold)
    drifting = DriftingTopicModel(cfg, _vocab(docs), len(docs), seed=seed)
    plain = OnlineHdp(hyper, _vocab(docs), len(docs), seed=seed)
    return prequential_run(drifting, docs, batch_size), prequential_run(plain, docs, batch_size)


def _vocab(docs):
    return 1 + max(int(d.words[-1]) for d in docs)


class TestProcessBatch:
    def test_empty_batch_is_noop(self):
        model = DriftingTopicModel(small_config(), 10, 100, seed=0)
        result = model.process_batch([])
        assert result == BatchResult([], set(), set())

    def test_unordered_batch_rejected(self):
        model = DriftingTopicModel(small_config(), 10, 100, seed=0)
        docs = [Document.from_counts("a", 10.0, {0: 1}), Document.from_counts("b", 5.0, {0: 1})]
        with pytest.raises(TimeOrderError):
            model.process_batch(docs)

    def test_batch_before_clock_rejected(self):
        model = DriftingTopicModel(small_config(), 10, 100, seed=0)
        model.clock = 50.0
        with pytest.raises(TimeOrderError):
            model.process_batch([Document.from_counts("a", 10.0, {0: 1})])

    def test_equal_timestamps_single_step_anchoring(self):
        docs, _ = three_topic_corpus(n_docs=12, vocab_size=20, seed=1)
        same_ts = [dataclasses.replace(d, timestamp=1000.0) for d in docs]
        model = DriftingTopicModel(small_config(), 20, 12, seed=0)
        model.process_batch(same_ts[:6])
        result = model.process_batch(same_ts[6:])
        assert len(result.per_doc) == 6
        assert model.clock == 1000.0

    def test_scores_reproduced_with_learning_disabled(self):
        docs, _ = three_topic_corpus(n_docs=30, vocab_size=20, seed=2)
        model = DriftingTopicModel(small_config(), 20, 30, seed=0)
        model.process_batch(docs[:10])
        frozen = copy.deepcopy(model)
        learned = model.process_batch(docs[10:20])
        replayed, _, _ = score_batch(frozen, docs[10:20])
        assert learned.per_doc == replayed

    def test_deterministic_across_runs(self):
        docs, _ = three_topic_corpus(n_docs=40, vocab_size=25, seed=3)
        results = []
        for _ in range(2):
            model = DriftingTopicModel(small_config(), 25, 40, seed=7)
            results.append([process_batch(model, b) for b in
                            (docs[:20], docs[20:])])
        for x, y in zip(results[0], results[1]):
            assert x.per_doc == y.per_doc
            assert x.topics_born == y.topics_born
            assert x.topics_died == y.topics_died

    def test_born_and_died_are_disjoint_subsets(self):
        docs, _ = three_topic_corpus(n_docs=60, vocab_size=25, seed=4)
        model = DriftingTopicModel(small_config(), 25, 60, seed=1)
        for start in range(0, 60, 15):
            result = model.process_batch(docs[start : start + 15])
            indices = set(range(model.config.hyper.K_corpus))
            assert result.topics_born <= indices
            assert result.topics_died <= indices
            assert not (result.topics_born & result.topics_died)


class TestReduction:
    def test_inert_drift_layer_reduces_to_plain_hdp(self):
        docs, _ = three_topic_corpus(n_docs=100, vocab_size=30, seed=5)
        drifting, plain = run_pair(docs, batch_size=10, seed=11,
                                   drift_v=0.0, obs_var=1e12)
        assert len(drifting) == len(plain) == 100
        for (ida, _, lla, _), (idb, _, llb, _) in zip(drifting, plain):
            assert ida == idb
            assert abs(lla - llb) < 1e-6

    def test_active_drift_layer_changes_the_trajectory(self):
        docs, _ = drifting_stream(seed=6, pre_docs=80, gap_docs=10, post_docs=40)
        drifting, plain = run_pair(docs, batch_size=16, seed=11,
                                   drift_v=0.02, obs_var=0.1)
        diffs = [abs(a[2] - b[2]) for a, b in zip(drifting, plain)]
        assert max(diffs) > 1e-3


class TestDormancyLifecycle:
    def test_dormant_topic_dies_and_revives(self):
        docs, _ = drifting_stream(seed=8, pre_docs=120, gap_docs=24, post_docs=60)
        died_events, born_events = [], []
        for model, result in dormancy_run(docs):
            died_events.append(result.topics_died)
            born_events.append(result.topics_born)
        all_died = set().union(*died_events)
        assert all_died, "no topic died across the dormancy gap"
        # revival shows up as a later second death or an Active end state
        died_twice = {
            k for k in all_died
            if sum(k in batch for batch in died_events) >= 2
        }
        ended_active = {k for k in all_died if model.active[k]}
        assert died_twice | ended_active, "no dead topic was revived by later documents"
        later_born = set().union(*born_events[1:])
        assert not (all_died & later_born), "revival must not be reported as birth"


class TestSparseKalmanStage:
    """The sparse terminal stage against the former dense filter and smoother."""

    @staticmethod
    def run(docs, monkeypatch, stage=None):
        with monkeypatch.context() as m:
            if stage is not None:
                m.setattr(drifting_topics, "_kalman_stage", stage)
            runs = list(dormancy_run(docs))
        return runs[-1][0], [result for _, result in runs]

    def test_matches_dense_stage_through_dormancy_death_and_revival(self, monkeypatch):
        docs, _ = drifting_stream(seed=8, pre_docs=120, gap_docs=24, post_docs=60)
        sparse, sparse_results = self.run(docs, monkeypatch)
        dense, dense_results = self.run(docs, monkeypatch, stage=dense_kalman_stage)

        deaths = [k for r in dense_results for k in r.topics_died]
        assert len(deaths) > len(set(deaths)), "stream must revive and re-kill a topic"
        for got, want in zip(sparse_results, dense_results):
            assert got.topics_born == want.topics_born
            assert got.topics_died == want.topics_died
            assert [r[:2] + r[3:] for r in got.per_doc] == [r[:2] + r[3:] for r in want.per_doc]
            np.testing.assert_allclose(
                [r[2] for r in got.per_doc], [r[2] for r in want.per_doc], rtol=1e-10, atol=0
            )
        assert sparse.clock == dense.clock
        for name in ("tracked", "born", "active", "deadline"):
            np.testing.assert_array_equal(getattr(sparse, name), getattr(dense, name), err_msg=name)
        for name in ("mean", "var"):
            np.testing.assert_allclose(getattr(sparse, name), getattr(dense, name), rtol=1e-10, atol=0)

    def test_pair_layout_matches_the_inline_builder_on_the_hourly_archive(self, tmp_path, monkeypatch):
        """Bit for bit, batch by batch, on the seed-3 hourly benchmark archive with its workload's topic counts.

        Batches are 32 documents, not the workload's 128, so that seven of
        the eight run the Kalman stage on tracks that earlier batches
        filtered; topics die in several batches, and some die again after
        a revival.
        """
        spec = importlib.util.spec_from_file_location("bench_archive", ARCHIVE)
        archive = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(archive)
        archive.write_sgml(tmp_path / "hourly.sgm", 3, 256)
        corpus, vocab = tmp_path / "corpus.jsonl", tmp_path / "vocab.txt"
        assert cli.main(["ingest", "--format", "reuters", "--input", str(tmp_path / "hourly.sgm"),
                         "--out-corpus", str(corpus), "--out-vocab", str(vocab)]) == 0
        docs, vocab_size = read_canonical(corpus), read_vocabulary(vocab).size
        config = CidtmConfig(hyper=HdpHyper(K_corpus=100, T_doc=20, alpha0=0.2))

        def batches(stage):
            """(result, clock, state bytes) after each batch, with ``stage`` as the Kalman stage."""
            out = []
            with monkeypatch.context() as m:
                m.setattr(drifting_topics, "_kalman_stage", stage)
                model = DriftingTopicModel(config, vocab_size, len(docs), seed=42)
                for start in range(0, len(docs), 32):
                    result = model.process_batch(docs[start : start + 32])
                    out.append((result, model.clock, [getattr(model, name).tobytes() for name in STATE]))
            return out

        deaths = Counter()
        got_batches, want_batches = batches(drifting_topics._kalman_stage), batches(inline_layout_kalman_stage)
        assert len(got_batches) == len(want_batches) == 8
        for (got, clock, state), (want, want_clock, want_state) in zip(got_batches, want_batches):
            assert got.per_doc == want.per_doc
            assert (got.topics_born, got.topics_died, clock) == (want.topics_born, want.topics_died, want_clock)
            assert state == want_state
            deaths.update(want.topics_died)
        assert len(deaths) > 20 and sum(n > 1 for n in deaths.values()) > 10  # deaths, and deaths after revival

    def test_memory_is_linear_in_tracks_not_steps(self):
        rng = np.random.default_rng(12)
        n_topics, vocab, n_steps = 16, 300, 128
        cfg = small_config(hyper=HdpHyper(K_corpus=n_topics, T_doc=4), drift_v=0.02)
        start = 1_600_000_000.0
        batch = [
            Document.from_counts(f"d{i}", start + 3600.0 * i,
                                 {int(w): 1 for w in rng.choice(vocab, size=25, replace=False)})
            for i in range(n_steps)
        ]
        n_words = len({w for doc in batch for w in doc.words.tolist()})
        stats = BatchStats.zeros(n_topics, vocab)

        def peak_bytes(stage):
            model = DriftingTopicModel(cfg, vocab, 1000, seed=0)
            model.born[:] = model.active[:] = True
            model.deadline[:] = start + 90 * DAY
            model.clock = start
            tracemalloc.start()
            try:
                stage(model, batch, stats)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one (born, batch words) float array; the dense stage holds 4 * steps of them
        track_array = n_topics * n_words * 8
        assert peak_bytes(drifting_topics._kalman_stage) < 64 * track_array
        assert peak_bytes(dense_kalman_stage) > 4 * n_steps * track_array


class TestExpectations:
    """The per-batch (K, V) arrays built in place against the former expressions."""

    @staticmethod
    def trained_model(vocab=60):
        docs, _ = drifting_stream(seed=19, pre_docs=60, gap_docs=10, post_docs=20)
        model = DriftingTopicModel(small_config(drift_v=0.02), vocab, len(docs), seed=3)
        prequential_run(model, docs, batch_size=30)
        assert model.tracked.any() and not model.tracked.all()
        return model

    def test_adjusted_matrices_match_the_logsumexp_form(self):
        """Within 1e-12 relative, on rows whose tracks sit at 0 and rows shifted by up to 600 nats."""
        model = self.trained_model()
        rng = np.random.default_rng(20)
        mean = model.mean
        mean[0] = 0.0  # an untracked row
        mean[1] = rng.normal(0.0, 30.0, mean.shape[1])  # large |mean| throughout
        mean[2] = 600.0  # a constant shift leaves the row's probabilities as they are
        mean[3] = -600.0
        mean[4] = 0.0
        mean[4, 5] = 400.0  # one word takes nearly all the mass
        snap = HdpSnapshot.of(model.g)
        want_elog, want_probs = reference_adjusted_matrices(snap.elog_beta, snap.word_probs, mean)
        elog, probs = model.adjusted_matrices(snap)
        assert elog is snap.elog_beta and probs is snap.word_probs  # built in the snapshot's buffers
        np.testing.assert_allclose(elog, want_elog, rtol=1e-12, atol=0)
        np.testing.assert_allclose(probs, want_probs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
        got = model.expectations()
        for a, b in zip(got, reference_drifting_expectations(model)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    def test_log_ratio_matches_the_former_expression_bit_for_bit(self):
        model = self.trained_model(vocab=61)
        rng = np.random.default_rng(21)
        stats = BatchStats(rng.gamma(0.2, 3.0, model.g.lam.shape), np.ones(8), 9)
        born = np.array([0, 2, 3, 6])
        words = np.sort(rng.choice(61, 23, replace=False))
        lam = model.g.lam.copy()
        got = drifting_topics._log_ratio(model, stats, born, words, 9)
        want = reference_log_ratio(model, stats, born, words, 9)
        assert got.tobytes() == want.tobytes()
        assert model.g.lam.tobytes() == lam.tobytes()

    def test_expectations_memory_is_two_arrays(self):
        """Measured tracemalloc peaks at K=40, V=5000, in (K, V) arrays: 2.00
        in place, 8.13 for the former expressions with ``logsumexp``."""
        model = DriftingTopicModel(small_config(hyper=HdpHyper(K_corpus=40, T_doc=4)), 5000, 1000, seed=0)
        model.mean[:] = np.random.default_rng(22).normal(0.0, 0.5, model.mean.shape)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1] / model.mean.nbytes
            finally:
                tracemalloc.stop()

        assert peak(model.expectations) < 3.0 < peak(lambda: reference_drifting_expectations(model))


class TestCheckpoint:
    @staticmethod
    def dormant_model():
        """A model, its vocabulary size and a stream where topics die and some are never born."""
        docs, _ = drifting_stream(seed=8, pre_docs=60, gap_docs=20, post_docs=30)
        cfg = CidtmConfig(hyper=HdpHyper(K_corpus=8, T_doc=4), drift_v=0.02, relevance_threshold=0.2)
        model = DriftingTopicModel(cfg, 60, len(docs), seed=3)
        prequential_run(model, docs, batch_size=16)
        assert not model.born.all() and (model.born & ~model.active).any()
        return model, docs

    def test_round_trip_bit_exact(self, tmp_path):
        docs, _ = three_topic_corpus(n_docs=40, vocab_size=20, seed=9)
        model = DriftingTopicModel(small_config(drift_v=0.01), 20, 40, seed=3)
        prequential_run(model, docs, batch_size=10)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.g.lam, model.g.lam)
        assert loaded.clock == model.clock
        assert loaded.config == model.config
        assert_same_state(state_of(loaded), state_of(model))

        # a checkpointed model continues identically
        more, _ = three_topic_corpus(n_docs=10, vocab_size=20, seed=10)
        shifted = [dataclasses.replace(d, timestamp=d.timestamp + 1e9) for d in more]
        r1 = model.process_batch(shifted)
        r2 = loaded.process_batch(shifted)
        assert r1.per_doc == r2.per_doc

    def test_round_trip_keeps_dead_and_unborn_topics(self, tmp_path):
        model, docs = self.dormant_model()
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name in ("lam", "stick_u", "stick_v"):
            np.testing.assert_array_equal(getattr(loaded.g, name), getattr(model.g, name))
        assert loaded.g.update_count == model.g.update_count
        assert_same_state(state_of(loaded), state_of(model))

        # both continue bit-identically over a batch where topics are born and revive
        more = [dataclasses.replace(d, timestamp=d.timestamp + 200 * DAY) for d in docs[:32]]
        for batch in (more[:16], more[16:]):
            assert loaded.process_batch(batch) == model.process_batch(batch)
        assert_same_state(state_of(loaded), state_of(model))
        np.testing.assert_array_equal(loaded.g.lam, model.g.lam)

    def trained_arrays(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(self.dormant_model()[0], path)
        _, header, arrays = read_checkpoint(path, {"cidtm": drifting_topics.ARRAYS})
        return header, arrays

    # a tracked mask of the wrong size or with a pad bit set and a wrong topic count: test_cli.py::TestTimeline;
    # damaged files: test_checkpoint.py
    @pytest.mark.parametrize("corrupt, message", [
        (lambda arrays: arrays.update(var=arrays["var"][:-1]),
         "mean and var must hold one value per tracked index"),
        (lambda arrays: np.put(arrays["born"], np.flatnonzero(np.unpackbits(arrays["tracked"]))[0] // 60, False),
         "is not born"),
        (lambda arrays: np.put(arrays["active"], np.flatnonzero(~arrays["born"])[0], True),
         "is active or tracks words"),
    ])
    def test_decode_rejects_an_inconsistent_topic(self, tmp_path, corrupt, message):
        header, arrays = self.trained_arrays(tmp_path)
        corrupt(arrays)
        with pytest.raises(ParameterError, match=re.escape(message)):
            drifting_topics.decode_checkpoint(header, arrays)

    def test_decode_rejects_tracks_without_a_clock(self, tmp_path):
        header, arrays = self.trained_arrays(tmp_path)
        header["clock"] = None
        with pytest.raises(ParameterError, match="tracks words but has no clock"):
            drifting_topics.decode_checkpoint(header, arrays)
