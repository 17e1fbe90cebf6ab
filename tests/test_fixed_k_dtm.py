"""Fixed-K continuous-time baseline: training, scoring, drift behavior."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from helpers import (
    mixture_e_step,
    payload_array,
    reference_cdtm_heldout,
    reference_train_cdtm,
    set_payload_array,
)
from topicdrift.corpus import Document
from topicdrift.errors import NumericalError, ParameterError, StateError
from topicdrift.fixed_k_dtm import (
    BLOCK_DOCS,
    MAX_ITER,
    CdtmModel,
    _mixture_e_step,
    cdtm_heldout_loglik,
    load_checkpoint,
    save_checkpoint,
    train_cdtm,
)
from topicdrift.kalman import DriftConfig
from topicdrift.synthetic import three_topic_corpus, uniform_stream


def train_test_split(n_docs=300, vocab=50, seed=0):
    docs, _ = three_topic_corpus(n_docs=n_docs, vocab_size=vocab, seed=seed)
    return docs[::2], docs[1::2]


class TestTraining:
    def test_zero_topics_rejected(self):
        with pytest.raises(ParameterError):
            train_cdtm([Document("a", 0.0, {0: 1}, 1)], 0, DriftConfig(0.1), 1,
                       np.random.default_rng(0))

    @pytest.mark.parametrize("sweeps", [0, -2])
    def test_fewer_than_one_sweep_rejected(self, sweeps):
        with pytest.raises(ParameterError, match="sweeps"):
            train_cdtm([Document("a", 0.0, {0: 1}, 1)], 2, DriftConfig(0.1), sweeps,
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

        logp = model.log_word_probs_at(0.5)
        ((gamma, _, _),) = _mixture_e_step([([0, 1, 2], np.array([2.0, 1.0, 3.0]))], [logp], 1.0)
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


def random_block(rng, sizes, k=6, vocab=40):
    """(words, counts) per document and the (K, V) log-probs of one of two knots each."""
    knots = [np.log(rng.dirichlet(np.full(vocab, 0.3), k)) for _ in range(2)]
    fits = []
    for m in sizes:
        words = sorted(rng.choice(vocab, m, replace=False).tolist())
        fits.append((words, rng.integers(1, 6, m).astype(float)))
    return fits, [knots[i % 2] for i in range(len(fits))]


class TestBlockKernel:
    """The block kernel against the former one-document fit (tests/helpers.py), bit for bit."""

    @pytest.mark.parametrize("size", [1, BLOCK_DOCS, BLOCK_DOCS + 1])
    def test_matches_one_document_fits(self, size):
        rng = np.random.default_rng(size)
        sizes = rng.integers(1, 30, size)
        sizes[::4] = 1  # one-word documents
        fits, logps = random_block(rng, sizes)
        fitted = _mixture_e_step(fits, logps, 0.5)
        assert len(fitted) == size
        ran = []
        for (words, n), logp, (gamma, phi, bound) in zip(fits, logps, fitted):
            ref_gamma, ref_phi, ref_bound, iterations = mixture_e_step(words, n, logp[:, words], 0.5)
            assert phi.shape == ref_phi.shape == (len(words), 6)
            assert (gamma == ref_gamma).all() and (phi == ref_phi).all() and bound == ref_bound
            ran.append(iterations)
        if size > 1:
            # documents stop at different iterations, and some run out of iterations
            assert len(set(ran)) > 1 and MAX_ITER in ran

    def test_nan_log_probs_raise_numerical_error(self):
        fits, logps = random_block(np.random.default_rng(0), [5, 3, 8])
        logps[1] = logps[1].copy()
        logps[1][:, fits[1][0][0]] = np.nan
        with pytest.raises(NumericalError, match="mixture"):
            _mixture_e_step(fits, logps, 0.5)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_word_impossible_under_a_topic_raises_numerical_error(self):
        # gamma stays finite, but the topic's 0 * -inf makes the bound nan
        fits, logps = random_block(np.random.default_rng(1), [5, 3, 8])
        logps[2] = logps[2].copy()
        logps[2][0, fits[2][0][0]] = -np.inf
        with pytest.raises(NumericalError, match="bound"):
            _mixture_e_step(fits, logps, 0.5)


def daily_stream():
    """three_topic_corpus stamped to 6-hour knots, so blocks span several shared knots."""
    docs, _ = three_topic_corpus(n_docs=150, vocab_size=30, seed=4)
    return [dataclasses.replace(d, timestamp=d.timestamp - d.timestamp % (6 * 3600.0)) for d in docs]


def unsorted_heldout(docs, train, rng):
    """Held-out documents out of time order: between the knots, on them, before and after them.

    Groups of documents share a timestamp, so blocks reuse log-probs.
    """
    first, last = train[0].timestamp, train[-1].timestamp
    stamps = [first - 7200.0, first - 1.0, docs[41].timestamp + 1800.0, last + 1.0, last + 86400.0]
    shared = [dataclasses.replace(d, id=f"{d.id}-{j}", timestamp=ts)
              for j, ts in enumerate(stamps) for d in docs[10 * j: 10 * j + 6]]
    held = docs[1::2] + shared + [dataclasses.replace(d, id=d.id + "-k") for d in train[:5]]
    return [held[i] for i in rng.permutation(len(held))]


class TestMatchesPerDocumentLoops:
    """Training and scoring against the former per-document loops (tests/helpers.py), bit for bit."""

    @pytest.mark.parametrize("stream", ["daily", "distinct"])
    def test_states_objective_and_scores(self, stream):
        docs = daily_stream() if stream == "daily" else uniform_stream(150, 30, seed=5)
        train = docs[::2]
        held = unsorted_heldout(docs, train, np.random.default_rng(9))
        if stream == "daily":
            assert len({d.timestamp for d in train}) < len(train) / 2
        else:
            assert len({d.timestamp for d in train}) == len(train)
        blocks = [held[i:i + BLOCK_DOCS] for i in range(0, len(held), BLOCK_DOCS)]
        assert len(blocks) > 2
        assert any(len({d.timestamp for d in block}) < len(block) for block in blocks)
        args = (train, 4, DriftConfig(1e-6), 3)
        model = train_cdtm(*args, np.random.default_rng(2), alpha=0.7, vocab_size=30)
        ref = reference_train_cdtm(*args, np.random.default_rng(2), alpha=0.7, vocab_size=30)
        assert (model.means == ref.means).all()
        assert (model.variances == ref.variances).all()
        assert model.objective_trace == ref.objective_trace
        assert cdtm_heldout_loglik(model, held) == reference_cdtm_heldout(ref, held)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        train, test = train_test_split(n_docs=40)
        model = train_cdtm(train, 2, DriftConfig(1e-8), 2,
                           np.random.default_rng(8), vocab_size=50)
        path = tmp_path / "cdtm.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.variances, model.variances)
        np.testing.assert_array_equal(loaded.knots, model.knots)
        assert loaded.objective_trace == model.objective_trace
        assert (loaded.K, loaded.alpha_dirichlet, loaded.vocab_size) == (model.K, model.alpha_dirichlet, 50)
        assert cdtm_heldout_loglik(loaded, test[:3]) == cdtm_heldout_loglik(model, test[:3])

    @pytest.mark.parametrize("name, corrupt, message", [
        ("means", lambda a: a.transpose(1, 0, 2), "are not (K, S, V)"),
        ("variances", lambda a: a[:, :, :-1], "are not (K, S, V)"),
        ("knots", lambda a: a[::-1], "strictly ascending"),
    ])
    def test_load_rejects_an_inconsistent_state(self, tmp_path, name, corrupt, message):
        train, _ = train_test_split(n_docs=40)
        model = train_cdtm(train, 2, DriftConfig(1e-8), 1, np.random.default_rng(8), vocab_size=50)
        assert model.knots.size > 2
        path = tmp_path / "cdtm.json"
        save_checkpoint(model, path)
        payload = json.loads(path.read_text())
        set_payload_array(payload, name, corrupt(payload_array(payload, name)))
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=re.escape(message)):
            load_checkpoint(path)
