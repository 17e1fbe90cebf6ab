"""Drifting-topic model: lifecycle, evolution, batches, HDP reduction."""

import copy
import tracemalloc

import numpy as np
import pytest

from helpers import dense_kalman_stage, reference_json_bytes
from topicdrift import drifting_topics
from topicdrift.corpus import Document
from topicdrift.drifting_topics import (
    ACTIVE,
    DEAD,
    BatchResult,
    CidtmConfig,
    DriftingTopic,
    DriftingTopicModel,
    IrrelevantDoc,
    RelevantDoc,
    TopicBorn,
    TopicLifecycle,
    evolve_topics,
    lifecycle_step,
    load_checkpoint,
    prequential_run,
    process_batch,
    save_checkpoint,
    topic_word_distribution,
)
from topicdrift.errors import LifecycleProtocolError, TimeOrderError
from topicdrift.online_hdp import BatchStats, HdpHyper, OnlineHdp
from topicdrift.online_hdp import prequential_run as hdp_run
from topicdrift.synthetic import drifting_stream, three_topic_corpus

DAY = 86400.0


def small_config(**kwargs):
    hyper = kwargs.pop("hyper", HdpHyper(K_corpus=8, T_doc=4))
    return CidtmConfig(hyper=hyper, **kwargs)


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


class TestTopicWordDistribution:
    def test_equal_means_are_uniform(self):
        topic = DriftingTopic(0, {0: 1.3, 1: 1.3, 2: 1.3}, {}, 0.0, None)
        np.testing.assert_allclose(topic_word_distribution(topic, 3, prior_mean=0.0),
                                   np.full(3, 1 / 3), atol=1e-14)

    def test_dominant_word(self):
        topic = DriftingTopic(0, {7: 20.0}, {}, 0.0, None)
        probs = topic_word_distribution(topic, 1000)
        assert probs[7] > 0.999
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        base = DriftingTopic(0, {0: 0.5, 1: -1.0}, {}, 0.0, None)
        shifted = DriftingTopic(0, {0: 100.5, 1: 99.0}, {}, 0.0, None)
        np.testing.assert_allclose(
            topic_word_distribution(base, 2),
            topic_word_distribution(shifted, 2, prior_mean=100.0),
            atol=1e-12,
        )


class TestEvolve:
    def make_model(self):
        model = DriftingTopicModel(small_config(drift_v=0.01 * DAY), 10, 100, seed=0)
        model.topics[2] = DriftingTopic(2, {1: 0.4}, {1: 0.5}, last_update_ts=100.0,
                                        lifecycle=TopicLifecycle(ACTIVE, 1e12))
        model.clock = 100.0
        return model

    def test_zero_elapsed_changes_nothing(self):
        model = self.make_model()
        before = copy.deepcopy(model.topics[2])
        evolve_topics(model, 100.0)
        assert model.topics[2] == before

    def test_variance_grows_linearly(self):
        model = self.make_model()  # drift 0.01 per second
        evolve_topics(model, 110.0)
        assert model.topics[2].word_var[1] == pytest.approx(0.5 + 0.1, rel=1e-12)
        assert model.topics[2].word_mean[1] == 0.4
        assert model.topics[2].last_update_ts == 110.0

    def test_time_regression_rejected(self):
        model = self.make_model()
        with pytest.raises(TimeOrderError):
            evolve_topics(model, 99.0)


def run_pair(docs, batch_size, seed, drift_v, obs_var, hyper=None, threshold=0.05):
    hyper = hyper or HdpHyper(K_corpus=10, T_doc=5)
    cfg = CidtmConfig(hyper=hyper, drift_v=drift_v, obs_var=obs_var,
                      relevance_threshold=threshold)
    drifting = DriftingTopicModel(cfg, _vocab(docs), len(docs), seed=seed)
    plain = OnlineHdp(hyper, _vocab(docs), len(docs), seed=seed)
    return prequential_run(drifting, docs, batch_size), hdp_run(plain, docs, batch_size)


def _vocab(docs):
    return 1 + max(max(d.counts) for d in docs)


class TestProcessBatch:
    def test_empty_batch_is_noop(self):
        model = DriftingTopicModel(small_config(), 10, 100, seed=0)
        result = model.process_batch([])
        assert result == BatchResult([], set(), set())

    def test_unordered_batch_rejected(self):
        model = DriftingTopicModel(small_config(), 10, 100, seed=0)
        docs = [Document("a", 10.0, {0: 1}, 1), Document("b", 5.0, {0: 1}, 1)]
        with pytest.raises(TimeOrderError):
            model.process_batch(docs)

    def test_batch_before_clock_rejected(self):
        model = DriftingTopicModel(small_config(), 10, 100, seed=0)
        model.clock = 50.0
        with pytest.raises(TimeOrderError):
            model.process_batch([Document("a", 10.0, {0: 1}, 1)])

    def test_equal_timestamps_single_step_anchoring(self):
        docs, _ = three_topic_corpus(n_docs=12, vocab_size=20, seed=1)
        same_ts = [Document(d.id, 1000.0, d.counts, d.total_tokens) for d in docs]
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
        replayed = frozen.process_batch(docs[10:20], learn=False)
        assert learned.per_doc == replayed.per_doc
        assert replayed.topics_born == set() and replayed.topics_died == set()

    def test_deterministic_across_runs(self):
        docs, _ = three_topic_corpus(n_docs=40, vocab_size=25, seed=3)
        results = []
        for _ in range(2):
            model = DriftingTopicModel(small_config(), 25, 40, seed=7)
            results.append([process_batch(model, b)[1] for b in
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
        hyper = HdpHyper(K_corpus=8, T_doc=4)
        cfg = CidtmConfig(hyper=hyper, drift_v=0.02, obs_var=0.1,
                          active_timer_len=20 * DAY, relevance_threshold=0.2)
        model = DriftingTopicModel(cfg, _vocab(docs), len(docs), seed=2)
        died_events, born_events = [], []
        for start in range(0, len(docs), 12):
            result = model.process_batch(docs[start : start + 12])
            died_events.append(result.topics_died)
            born_events.append(result.topics_born)
        all_died = set().union(*died_events)
        assert all_died, "no topic died across the dormancy gap"
        # revival shows up as a later second death or an Active end state
        died_twice = {
            k for k in all_died
            if sum(k in batch for batch in died_events) >= 2
        }
        ended_active = {
            k for k in all_died
            if model.topics[k] is not None and model.topics[k].lifecycle.state == ACTIVE
        }
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
            cfg = CidtmConfig(hyper=HdpHyper(K_corpus=8, T_doc=4), drift_v=0.02, obs_var=0.1,
                              active_timer_len=20 * DAY, relevance_threshold=0.2)
            model = DriftingTopicModel(cfg, _vocab(docs), len(docs), seed=2)
            results = [model.process_batch(docs[s : s + 12]) for s in range(0, len(docs), 12)]
        return model, results

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
        for got, want in zip(sparse.topics, dense.topics):
            if want is None:
                assert got is None
                continue
            assert got.lifecycle == want.lifecycle
            assert got.last_update_ts == want.last_update_ts
            assert list(got.word_mean) == list(want.word_mean)
            assert list(got.word_var) == list(want.word_var)
            words = list(want.word_mean)
            for field_name in ("word_mean", "word_var"):
                np.testing.assert_allclose(
                    [getattr(got, field_name)[w] for w in words],
                    [getattr(want, field_name)[w] for w in words],
                    rtol=1e-10, atol=0,
                )

    def test_memory_is_linear_in_tracks_not_steps(self):
        rng = np.random.default_rng(12)
        n_topics, vocab, n_steps = 16, 300, 128
        cfg = small_config(hyper=HdpHyper(K_corpus=n_topics, T_doc=4), drift_v=0.02)
        start = 1_600_000_000.0
        batch = [
            Document(f"d{i}", start + 3600.0 * i,
                     {int(w): 1 for w in rng.choice(vocab, size=25, replace=False)}, 25)
            for i in range(n_steps)
        ]
        n_words = len({w for doc in batch for w in doc.counts})
        stats = BatchStats.zeros(n_topics, vocab)

        def peak_bytes(stage):
            model = DriftingTopicModel(cfg, vocab, 1000, seed=0)
            for k in range(n_topics):
                model.topics[k] = DriftingTopic(
                    k, last_update_ts=start, lifecycle=TopicLifecycle(ACTIVE, start + 90 * DAY)
                )
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


class TestCheckpoint:
    def test_bytes_equal_the_former_encoder(self, tmp_path):
        docs, _ = drifting_stream(seed=8, pre_docs=60, gap_docs=20, post_docs=30)
        cfg = CidtmConfig(hyper=HdpHyper(K_corpus=8, T_doc=4), drift_v=0.02, relevance_threshold=0.2)
        model = DriftingTopicModel(cfg, 60, len(docs), seed=3)
        prequential_run(model, docs, batch_size=16)
        assert None in model.topics and any(t and t.lifecycle.state == DEAD for t in model.topics)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        assert path.read_bytes() == reference_json_bytes(model)

    def test_round_trip_bit_exact(self, tmp_path):
        docs, _ = three_topic_corpus(n_docs=40, vocab_size=20, seed=9)
        model = DriftingTopicModel(small_config(drift_v=0.01), 20, 40, seed=3)
        prequential_run(model, docs, batch_size=10)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.hdp.g.lam, model.hdp.g.lam)
        assert loaded.clock == model.clock
        assert loaded.config == model.config
        for mine, theirs in zip(model.topics, loaded.topics):
            assert mine == theirs

        # a checkpointed model continues identically
        more, _ = three_topic_corpus(n_docs=10, vocab_size=20, seed=10)
        shifted = [Document(d.id, d.timestamp + 1e9, d.counts, d.total_tokens) for d in more]
        r1 = model.process_batch(shifted)
        r2 = loaded.process_batch(shifted)
        assert r1.per_doc == r2.per_doc
