"""Fixed-K continuous-time baseline: training, scoring, drift behavior."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    DenseCdtmModel,
    mixture_e_step,
    payload_array,
    reference_cdtm_heldout,
    reference_smooth_topics,
    reference_train_cdtm,
    set_payload_array,
)
from topicdrift import fixed_k_dtm
from topicdrift.checkpoint import write_checkpoint
from topicdrift.corpus import Document
from topicdrift.errors import NumericalError, ParameterError, StateError
from topicdrift.fixed_k_dtm import (
    BLOCK_DOCS,
    MAX_ITER,
    CdtmModel,
    _mixture_e_step,
    _smooth_topics,
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

    @pytest.mark.parametrize("setting", [{"obs_var": -0.1}, {"obs_var": math.nan}, {"obs_var": math.inf},
                                         {"smoothing": 0.0}, {"smoothing": math.nan}, {"alpha": math.nan}])
    def test_bad_observation_settings_rejected(self, setting):
        with pytest.raises(ParameterError, match="alpha, obs_var and smoothing"):
            train_cdtm([Document("a", 0.0, {0: 1}, 1)], 2, DriftConfig(0.1), 1,
                       np.random.default_rng(0), **setting)

    @pytest.mark.parametrize("counts", [{}, {50: 1}, {-1: 2}])
    def test_words_outside_the_vocabulary_rejected(self, counts):
        docs = [Document("a", 0.0, {0: 1}, 1), Document("b", 1.0, counts, 2)]
        with pytest.raises(ParameterError, match="words in"):
            train_cdtm(docs, 2, DriftConfig(0.1), 1, np.random.default_rng(0), vocab_size=50)

    def test_zero_drift_keeps_topics_constant_over_time(self):
        train, _ = train_test_split(n_docs=60)
        model = train_cdtm(train, 2, DriftConfig(0.0), sweeps=3,
                           rng=np.random.default_rng(1), vocab_size=50)
        first = model.means_at(model.knots[0])
        spread = max(np.abs(model.means_at(t) - first).max() for t in model.knots)
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


def every_pair_observed(model, means):
    """Give a hand-built model (K, S, V) ``means`` as the pair state, with every (knot, word) pair observed."""
    model.pairs = np.arange(means.shape[1] * means.shape[2])
    model.means = means.reshape(means.shape[0], -1)
    model.variances = np.ones_like(model.means)
    model.trained = True
    return model


class TestHeldout:
    def uniform_model(self, vocab=100):
        model = CdtmModel(K=3, alpha_dirichlet=1.0, vocab_size=vocab)
        model.knots = np.array([0.0, 10.0])
        return every_pair_observed(model, np.zeros((3, 2, vocab)))

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
        every_pair_observed(model, np.stack([
            np.tile(np.log([0.6, 0.3, 0.1]), (2, 1)),
            np.tile(np.log([0.1, 0.1, 0.8]), (2, 1)),
        ]))
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
        every_pair_observed(model, np.array([[[0.0, 0.0], [2.0, 0.0]]]))
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


def assert_close(actual, desired):
    """Within 1e-10 relative, elementwise, with no absolute slack."""
    np.testing.assert_allclose(actual, desired, rtol=1e-10, atol=0)


def assert_matches_one_document_fits(fits, logps, alpha):
    """Each document's gamma, phi and bound against the former one-document fit; returns its iterations."""
    fitted = _mixture_e_step(fits, logps, alpha)
    assert len(fitted) == len(fits)
    ran = []
    for (words, n), logp, (gamma, phi, bound) in zip(fits, logps, fitted):
        ref_gamma, ref_phi, ref_bound, iterations = mixture_e_step(words, n, logp[:, words], alpha)
        assert phi.shape == ref_phi.shape == (len(words), logp.shape[0])
        assert_close(gamma, ref_gamma)
        assert_close(phi, ref_phi)
        assert_close(bound, ref_bound)
        ran.append(iterations)
    return ran


class TestBlockKernel:
    """The factored block kernel against the former one-document fit (tests/helpers.py), within 1e-10."""

    @pytest.mark.parametrize("size", [1, BLOCK_DOCS, BLOCK_DOCS + 1])
    def test_matches_one_document_fits(self, size):
        rng = np.random.default_rng(size)
        sizes = rng.integers(1, 30, size)
        sizes[::4] = 1  # one-word documents
        fits, logps = random_block(rng, sizes)
        ran = assert_matches_one_document_fits(fits, logps, 0.5)
        if size > 1:
            # documents stop at different iterations, and some run out of iterations
            assert len(set(ran)) > 1 and MAX_ITER in ran

    def test_word_improbable_under_every_topic(self):
        # exp(-1000) underflows to 0, so the kernel needs its per-word shift
        fits, logps = random_block(np.random.default_rng(3), [5, 3, 8, 1])
        logps = [logp.copy() for logp in logps]
        for (words, _), logp in zip(fits, logps):
            logp[:, words[0]] = -1000.0 + np.linspace(0.0, 2.0, logp.shape[0])
        assert_matches_one_document_fits(fits, logps, 0.5)

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


# words 30, 31 and 32 of a 33-word vocabulary: seen only at the first knot, only at the last, never
EDGE_VOCAB = 33


def with_edge_words(train):
    """The training documents with word 30 added to the first one only and word 31 to the last one only."""
    first, last = train[0], train[-1]
    return ([dataclasses.replace(first, counts={**first.counts, 30: 2}, total_tokens=first.total_tokens + 2)]
            + train[1:-1]
            + [dataclasses.replace(last, counts={**last.counts, 31: 1}, total_tokens=last.total_tokens + 1)])


def at_pairs(model, dense):
    """A dense (K, S, V) array read at the model's observed pairs, as (K, P)."""
    return dense.reshape(dense.shape[0], -1)[:, model.pairs]


def probe_times(knots):
    """Every knot, a time between each two, and times before and after the knots."""
    return [*knots, *(knots[:-1] + np.diff(knots) / 3), knots[0] - 3600.0, knots[-1] + 86400.0]


class TestMatchesPerDocumentLoops:
    """Training and scoring against the former dense per-document loops (tests/helpers.py), within 1e-10."""

    @pytest.mark.parametrize("stream", ["daily", "distinct"])
    def test_states_objective_and_scores(self, stream):
        docs = daily_stream() if stream == "daily" else uniform_stream(150, 30, seed=5)
        train = with_edge_words(docs[::2])
        held = unsorted_heldout(docs, train, np.random.default_rng(9))
        if stream == "daily":
            assert len({d.timestamp for d in train}) < len(train) / 2
        else:
            assert len({d.timestamp for d in train}) == len(train)
        blocks = [held[i:i + BLOCK_DOCS] for i in range(0, len(held), BLOCK_DOCS)]
        assert len(blocks) > 2
        assert any(len({d.timestamp for d in block}) < len(block) for block in blocks)
        for drift in (0.0, 1e-6):
            args = (train, 4, DriftConfig(drift), 3)
            model = train_cdtm(*args, np.random.default_rng(2), alpha=0.7, vocab_size=EDGE_VOCAB)
            ref = reference_train_cdtm(*args, np.random.default_rng(2), alpha=0.7, vocab_size=EDGE_VOCAB)
            knot, word = np.divmod(model.pairs, EDGE_VOCAB)
            assert set(knot[word == 30]) == {0} and set(knot[word == 31]) == {model.knots.size - 1}
            assert 32 not in word and model.pairs.size < model.knots.size * 30
            assert_close(model.means, at_pairs(model, ref.means))
            assert_close(model.variances, at_pairs(model, ref.variances))
            assert_close(model.objective_trace, ref.objective_trace)
            for ts in probe_times(model.knots):
                assert_close(model.log_word_probs_at(ts), ref.log_word_probs_at(ts))
            records, ref_records = cdtm_heldout_loglik(model, held), reference_cdtm_heldout(ref, held)
            assert [(i, ts, n) for i, ts, _, n in records] == [(i, ts, n) for i, ts, _, n in ref_records]
            assert_close([r[2] for r in records], [r[2] for r in ref_records])


def smoothing_inputs(k=20, s=30, v=100, seed=0):
    """Irregular knots, random observed pairs and random (K, P) expected counts, and the same as dense inputs.

    Every knot has a pair; word v - 2 is observed only at the first knot,
    word v - 3 first at the last knot, and word v - 1 never.  Returns
    (model, expected, dense model, dense expected, present, cfg).
    """
    rng = np.random.default_rng(seed)
    knots = np.cumsum(rng.uniform(0.1, 5.0, s))
    present = rng.random((s, v)) < 0.3
    present[np.arange(s), rng.integers(0, v - 3, s)] = True
    present[:, v - 3:] = False
    present[0, v - 2] = present[-1, v - 3] = True
    pairs = np.flatnonzero(present)
    expected = rng.gamma(0.3, 2.0, (k, pairs.size))
    cfg = DriftConfig(0.05, prior_mean=math.log(1 / v), prior_variance=1.5)
    model = CdtmModel(K=k, alpha_dirichlet=1.0, vocab_size=v, process_variance=0.05, prior_variance=1.5,
                      knots=knots, pairs=pairs)
    dense = DenseCdtmModel(K=k, alpha_dirichlet=1.0, vocab_size=v, knots=knots,
                           means=np.empty((k, s, v)), variances=np.empty((k, s, v)))
    dense_expected = np.zeros((k, s * v))
    dense_expected[:, pairs] = expected
    return model, expected, dense, dense_expected.reshape(k, s, v), present, cfg


class TestSmoothTopics:
    """One sparse filter and smoother pass over all K topics, against the former dense per-topic loop."""

    def test_matches_the_dense_per_topic_loop(self):
        model, expected, dense, dense_expected, present, cfg = smoothing_inputs()
        reference_smooth_topics(dense, dense_expected, present, cfg, 0.1, 0.01)
        _smooth_topics(model, expected, cfg, 0.1, 0.01)
        model.trained = True
        assert_close(model.means, at_pairs(model, dense.means))
        assert_close(model.variances, at_pairs(model, dense.variances))
        # the closed form at any time, including before a word's first observation
        for ts in probe_times(model.knots):
            assert_close(model.means_at(ts), dense.means_at(ts))

    def test_one_filter_and_smoother_call_per_sweep(self, monkeypatch):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for name in ("pair_filter", "pair_smoother"):
            monkeypatch.setattr(fixed_k_dtm, name, counted(fixed_k_dtm, name))
        train, test = train_test_split(n_docs=40)
        model = train_cdtm(train, 3, DriftConfig(1e-8), 2, np.random.default_rng(0), vocab_size=50)
        cdtm_heldout_loglik(model, test)
        assert calls == ["pair_filter", "pair_smoother"] * 2

    def test_peak_memory_below_one_state_array(self):
        model, expected, *_, cfg = smoothing_inputs()
        tracemalloc.start()
        try:
            _smooth_topics(model, expected, cfg, 0.1, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the new means and the (K, V) filter and smoother state; expected becomes the variances
        assert peak < 2 * model.means.nbytes

    def test_training_peak_stays_below_one_dense_array(self):
        k, vocab = 20, 2000
        docs = uniform_stream(200, vocab, seed=3)
        tracemalloc.start()
        try:
            model = train_cdtm(docs, k, DriftConfig(1e-6), 2, np.random.default_rng(0), vocab_size=vocab)
            cdtm_heldout_loglik(model, docs[:BLOCK_DOCS])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.knots.size == 200
        assert peak < k * model.knots.size * vocab * 8  # one (K, S, V) float array: 64 MB


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        train, test = train_test_split(n_docs=40)
        model = train_cdtm(train, 2, DriftConfig(1e-8, prior_variance=0.5), 2,
                           np.random.default_rng(8), vocab_size=50)
        path = tmp_path / "cdtm.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.variances, model.variances)
        np.testing.assert_array_equal(loaded.knots, model.knots)
        np.testing.assert_array_equal(loaded.pairs, model.pairs)
        assert loaded.objective_trace == model.objective_trace
        assert (loaded.K, loaded.alpha_dirichlet, loaded.vocab_size) == (model.K, model.alpha_dirichlet, 50)
        assert (loaded.process_variance, loaded.prior_variance) == (1e-8, 0.5)
        assert cdtm_heldout_loglik(loaded, test[:3]) == cdtm_heldout_loglik(model, test[:3])

    @staticmethod
    def saved(tmp_path):
        """A trained model's checkpoint path and its parsed payload."""
        train, _ = train_test_split(n_docs=40)
        model = train_cdtm(train, 2, DriftConfig(1e-8), 1, np.random.default_rng(8), vocab_size=50)
        assert model.knots.size > 2
        path = tmp_path / "cdtm.json"
        save_checkpoint(model, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("name, corrupt, message", [
        ("means", lambda a: a.T, "are not (K, P)"),
        ("variances", lambda a: a[:, :-1], "are not (K, P)"),
        ("knots", lambda a: a[::-1], "strictly ascending"),
        ("pairs", lambda a: a[::-1], "strictly increasing"),
        ("pairs", lambda a: a + 50, "in [0, S * V)"),
    ])
    def test_load_rejects_an_inconsistent_state(self, tmp_path, name, corrupt, message):
        path, payload = self.saved(tmp_path)
        set_payload_array(payload, name, corrupt(payload_array(payload, name)))
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=re.escape(message)):
            load_checkpoint(path)

    def test_load_rejects_a_knot_without_a_pair(self, tmp_path):
        path, payload = self.saved(tmp_path)
        keep = payload_array(payload, "pairs") // 50 != 1
        for name in ("pairs", "means", "variances"):
            set_payload_array(payload, name, payload_array(payload, name)[..., keep])
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="a knot without an observed pair"):
            load_checkpoint(path)

    def test_former_dense_state_asks_to_retrain(self, tmp_path):
        path = tmp_path / "dense.json"
        dense = np.zeros((2, 3, 5))
        write_checkpoint("cdtm", {"K": 2, "alpha_dirichlet": 1.0, "vocab_size": 5},
                         {"knots": np.arange(3.0), "means": dense, "variances": dense + 1.0,
                          "objective_trace": np.zeros(2)}, path)
        with pytest.raises(ParameterError, match="dense .* re-train"):
            load_checkpoint(path)
