"""Fixed-K continuous-time baseline: training, scoring, drift behavior."""

import math

import numpy as np
import pytest

from topicdrift.corpus import Document
from topicdrift.errors import ParameterError, StateError
from topicdrift.fixed_k_dtm import (
    CdtmModel,
    cdtm_heldout_loglik,
    load_checkpoint,
    save_checkpoint,
    train_cdtm,
)
from topicdrift.kalman import DriftConfig
from topicdrift.synthetic import three_topic_corpus


def train_test_split(n_docs=300, vocab=50, seed=0):
    docs, _ = three_topic_corpus(n_docs=n_docs, vocab_size=vocab, seed=seed)
    return docs[::2], docs[1::2]


class TestTraining:
    def test_zero_topics_rejected(self):
        with pytest.raises(ParameterError):
            train_cdtm([Document("a", 0.0, {0: 1}, 1)], 0, DriftConfig(0.1), 1,
                       np.random.default_rng(0))

    def test_zero_drift_keeps_topics_constant_over_time(self):
        train, _ = train_test_split(n_docs=60)
        model = train_cdtm(train, 2, DriftConfig(0.0), sweeps=3,
                           rng=np.random.default_rng(1), vocab_size=50)
        spread = np.abs(model.means - model.means[:, :1, :]).max()
        assert spread < 1e-9

    def test_single_topic_tracks_corpus_frequencies(self):
        train, _ = train_test_split(n_docs=120)
        model = train_cdtm(train, 1, DriftConfig(1e-9), sweeps=2,
                           rng=np.random.default_rng(2), vocab_size=50)
        counts = np.zeros(50)
        for d in train:
            for w, c in d.counts.items():
                counts[w] += c
        freq = counts / counts.sum()
        probs = np.exp(model.log_word_probs_at(train[0].timestamp)[0])
        # words with sparse per-knot evidence shrink toward the uniform
        # prior; frequent words must track their corpus frequency
        heavy = freq > 0.02
        np.testing.assert_allclose(probs[heavy], freq[heavy], rtol=0.3)
        assert np.corrcoef(probs, freq)[0, 1] > 0.95

    def test_objective_non_decreasing(self):
        train, _ = train_test_split()
        model = train_cdtm(train, 3, DriftConfig(1e-9), sweeps=6,
                           rng=np.random.default_rng(3), vocab_size=50)
        diffs = np.diff(model.objective_trace)
        assert np.all(diffs >= -1e-6)

    def test_learns_better_than_uniform(self):
        train, test = train_test_split()
        model = train_cdtm(train, 3, DriftConfig(1e-9), sweeps=6,
                           rng=np.random.default_rng(4), vocab_size=50)
        records = cdtm_heldout_loglik(model, test)
        pwll = sum(r[2] for r in records) / sum(r[3] for r in records)
        assert pwll > math.log(1 / 50) + 0.3

    def test_topic_count_is_structural(self):
        train, _ = train_test_split(n_docs=40)
        model = train_cdtm(train, 4, DriftConfig(1e-9), sweeps=2,
                           rng=np.random.default_rng(5), vocab_size=50)
        assert model.K == 4
        assert model.means.shape[0] == 4

    def test_deterministic_under_seed(self):
        train, _ = train_test_split(n_docs=60)
        a = train_cdtm(train, 3, DriftConfig(1e-8), 3, np.random.default_rng(6), vocab_size=50)
        b = train_cdtm(train, 3, DriftConfig(1e-8), 3, np.random.default_rng(6), vocab_size=50)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.objective_trace == b.objective_trace


class TestHeldout:
    def uniform_model(self, vocab=100):
        model = CdtmModel(K=3, alpha_dirichlet=1.0, vocab_size=vocab)
        model.knots = np.array([0.0, 10.0])
        model.means = np.zeros((3, 2, vocab))
        model.variances = np.ones((3, 2, vocab))
        model.trained = True
        return model

    def test_uniform_topics_score_log_inverse_vocab(self):
        model = self.uniform_model()
        docs = [Document("a", 5.0, {3: 4, 90: 6}, 10)]
        records = cdtm_heldout_loglik(model, docs)
        assert records[0][2] == pytest.approx(10 * math.log(1 / 100), rel=1e-9)
        assert records[0][3] == 10

    def test_duplicate_document_scores_identically(self):
        train, test = train_test_split(n_docs=60)
        model = train_cdtm(train, 2, DriftConfig(1e-9), 2,
                           np.random.default_rng(7), vocab_size=50)
        doc = test[0]
        a, b = cdtm_heldout_loglik(model, [doc, doc])
        assert a[2] == b[2]

    def test_matches_explicit_mixture_computation(self):
        model = CdtmModel(K=2, alpha_dirichlet=1.0, vocab_size=3)
        model.knots = np.array([0.0, 1.0])
        model.means = np.stack([
            np.tile(np.log([0.6, 0.3, 0.1]), (2, 1)),
            np.tile(np.log([0.1, 0.1, 0.8]), (2, 1)),
        ])
        model.variances = np.ones((2, 2, 3))
        model.trained = True
        doc = Document("a", 0.5, {0: 2, 1: 1, 2: 3}, 6)
        ((_, _, total, _),) = cdtm_heldout_loglik(model, [doc])

        from topicdrift.fixed_k_dtm import _mixture_e_step

        logp = model.log_word_probs_at(0.5)
        gamma, _, _ = _mixture_e_step(np.array([0, 1, 2]), np.array([2.0, 1.0, 3.0]),
                                      logp[:, [0, 1, 2]], 1.0)
        theta = gamma / gamma.sum()
        oracle = sum(
            c * math.log(sum(theta[k] * math.exp(logp[k, w]) for k in range(2)))
            for w, c in doc.counts.items()
        )
        assert total == pytest.approx(oracle, rel=1e-12)

    def test_untrained_model_rejected(self):
        model = CdtmModel(K=2, alpha_dirichlet=1.0, vocab_size=5)
        with pytest.raises(StateError):
            cdtm_heldout_loglik(model, [Document("a", 0.0, {0: 1}, 1)])

    def test_interpolation_between_knots(self):
        model = CdtmModel(K=1, alpha_dirichlet=1.0, vocab_size=2)
        model.knots = np.array([0.0, 10.0])
        model.means = np.array([[[0.0, 0.0], [2.0, 0.0]]])
        model.variances = np.ones((1, 2, 2))
        model.trained = True
        mid = model.log_word_probs_at(5.0)
        expected = np.log(np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum())
        np.testing.assert_allclose(mid[0], expected, atol=1e-12)
        np.testing.assert_allclose(model.log_word_probs_at(-5.0), model.log_word_probs_at(0.0))
        np.testing.assert_allclose(model.log_word_probs_at(99.0), model.log_word_probs_at(10.0))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        train, test = train_test_split(n_docs=40)
        model = train_cdtm(train, 2, DriftConfig(1e-8), 2,
                           np.random.default_rng(8), vocab_size=50)
        path = tmp_path / "cdtm.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.knots, model.knots)
        assert cdtm_heldout_loglik(loaded, test[:3]) == cdtm_heldout_loglik(model, test[:3])
