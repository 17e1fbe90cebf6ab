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
    inline_layout_train_cdtm,
    mixture_e_step,
    payload_array,
    reference_cdtm_heldout,
    reference_smooth_topics,
    reference_train_cdtm,
    set_payload_array,
    wide_smooth_topics,
)
from topicdrift import fixed_k_dtm, online_hdp
from topicdrift.checkpoint import write_checkpoint
from topicdrift.corpus import Document
from topicdrift.errors import NumericalError, ParameterError
from topicdrift.drifting_topics import SECONDS_PER_DAY
from topicdrift.fixed_k_dtm import (
    MAX_ITER,
    CdtmConfig,
    CdtmModel,
    _mixture_e_step,
    _smooth_topics,
    cdtm_heldout_loglik,
    load_checkpoint,
    save_checkpoint,
    train_cdtm,
)
from topicdrift.kalman import DriftConfig
from topicdrift.online_hdp import BLOCK_DOCS
from topicdrift.synthetic import three_topic_corpus, uniform_stream


def train_test_split(n_docs=300, vocab=50, seed=0):
    docs, _ = three_topic_corpus(n_docs=n_docs, vocab_size=vocab, seed=seed)
    return docs[::2], docs[1::2]


def cdtm_config(k, drift, sweeps):
    """A CdtmConfig with its drift given per second, the unit of the timestamps."""
    return CdtmConfig(K=k, drift_v=drift * SECONDS_PER_DAY, sweeps=sweeps)


class TestTraining:
    def test_zero_topics_rejected(self):
        with pytest.raises(ParameterError, match="K and sweeps must be >= 1, got 0 and 3"):
            CdtmConfig(K=0)

    @pytest.mark.parametrize("sweeps", [0, -2])
    def test_fewer_than_one_sweep_rejected(self, sweeps):
        with pytest.raises(ParameterError, match=f"K and sweeps must be >= 1, got 50 and {sweeps}"):
            CdtmConfig(sweeps=sweeps)

    @pytest.mark.parametrize("setting", [{"obs_var": -0.1}, {"obs_var": math.nan}, {"obs_var": math.inf},
                                         {"obs_var": 0.0}, {"alpha": 0.0}, {"alpha": math.nan}])
    def test_bad_observation_settings_rejected(self, setting):
        with pytest.raises(ParameterError, match="alpha and obs_var must be finite and > 0"):
            CdtmConfig(**setting)

    @pytest.mark.parametrize("drift_v", [-1.0, math.nan, math.inf])
    def test_bad_drift_rejected(self, drift_v):
        with pytest.raises(ParameterError, match="drift_v must be finite and >= 0"):
            CdtmConfig(drift_v=drift_v)

    @pytest.mark.parametrize("counts", [{}, {50: 1}, {-1: 2}])
    def test_words_outside_the_vocabulary_rejected(self, counts):
        docs = [Document.from_counts("a", 0.0, {0: 1}), Document.from_counts("b", 1.0, counts)]
        with pytest.raises(ParameterError, match="words in"):
            train_cdtm(docs, cdtm_config(2, 0.1, 1), np.random.default_rng(0), vocab_size=50)

    def test_repeated_word_rejected(self):
        docs = [Document.from_counts("a", 0.0, {0: 1}), Document("d", 0.0, np.array([3, 3]), np.ones(2))]
        with pytest.raises(ParameterError, match=r"document 'd' needs words in \[0, 50\), strictly ascending"):
            train_cdtm(docs, cdtm_config(2, 0.1, 1), np.random.default_rng(0), vocab_size=50)

    def test_zero_drift_keeps_topics_constant_over_time(self):
        train, _ = train_test_split(n_docs=60)
        model = train_cdtm(train, cdtm_config(2, 0.0, 3), rng=np.random.default_rng(1), vocab_size=50)
        first = model.means_at(model.knots[0])
        spread = max(np.abs(model.means_at(t) - first).max() for t in model.knots)
        assert spread < 1e-9

    def test_single_topic_tracks_corpus_frequencies(self):
        train, _ = train_test_split(n_docs=120)
        model = train_cdtm(train, cdtm_config(1, 1e-9, 2), np.random.default_rng(2), vocab_size=50)
        counts = np.zeros(50)
        for d in train:
            counts[d.words] += d.counts
        freq = counts / counts.sum()
        probs = np.exp(model.log_word_probs_at(train[0].timestamp)[0])
        # words with sparse per-knot evidence shrink toward the uniform
        # prior; frequent words must track their corpus frequency
        heavy = freq > 0.02
        np.testing.assert_allclose(probs[heavy], freq[heavy], rtol=0.3)
        assert np.corrcoef(probs, freq)[0, 1] > 0.95

    def test_objective_non_decreasing(self):
        train, _ = train_test_split()
        model = train_cdtm(train, cdtm_config(3, 1e-9, 6), np.random.default_rng(3), vocab_size=50)
        diffs = np.diff(model.objective_trace)
        assert np.all(diffs >= -1e-6)

    def test_learns_better_than_uniform(self):
        train, test = train_test_split()
        model = train_cdtm(train, cdtm_config(3, 1e-9, 6), np.random.default_rng(4), vocab_size=50)
        records = cdtm_heldout_loglik(model, test)
        pwll = sum(r[2] for r in records) / sum(r[3] for r in records)
        assert pwll > math.log(1 / 50) + 0.3

    def test_topic_count_is_structural(self):
        train, _ = train_test_split(n_docs=40)
        model = train_cdtm(train, cdtm_config(4, 1e-9, 2), np.random.default_rng(5), vocab_size=50)
        assert model.config.K == 4
        assert model.means.shape[0] == 4

    def test_deterministic_under_seed(self):
        train, _ = train_test_split(n_docs=60)
        a = train_cdtm(train, cdtm_config(3, 1e-8, 3), np.random.default_rng(6), vocab_size=50)
        b = train_cdtm(train, cdtm_config(3, 1e-8, 3), np.random.default_rng(6), vocab_size=50)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.objective_trace == b.objective_trace


def every_pair_observed(knots, means):
    """A hand-built model with (K, S, V) ``means`` as its pair state: every (knot, word) pair is observed."""
    k, s, v = means.shape
    return CdtmModel(config=CdtmConfig(K=k, drift_v=0.0), vocab_size=v,
                     knots=np.asarray(knots, dtype=float), pairs=np.arange(s * v), means=means.reshape(k, -1),
                     objective_trace=[])


class TestHeldout:
    def uniform_model(self, vocab=100):
        return every_pair_observed([0.0, 10.0], np.zeros((3, 2, vocab)))

    def test_uniform_topics_score_log_inverse_vocab(self):
        model = self.uniform_model()
        docs = [Document.from_counts("a", 5.0, {3: 4, 90: 6})]
        records = cdtm_heldout_loglik(model, docs)
        assert records[0][2] == pytest.approx(10 * math.log(1 / 100), rel=1e-9)
        assert records[0][3] == 10

    def test_duplicate_document_scores_identically(self):
        train, test = train_test_split(n_docs=60)
        model = train_cdtm(train, cdtm_config(2, 1e-9, 2), np.random.default_rng(7), vocab_size=50)
        doc = test[0]
        a, b = cdtm_heldout_loglik(model, [doc, doc])
        assert a[2] == b[2]

    def test_matches_explicit_mixture_computation(self):
        model = every_pair_observed([0.0, 1.0], np.stack([
            np.tile(np.log([0.6, 0.3, 0.1]), (2, 1)),
            np.tile(np.log([0.1, 0.1, 0.8]), (2, 1)),
        ]))
        doc = Document.from_counts("a", 0.5, {0: 2, 1: 1, 2: 3})
        ((_, _, total, _),) = cdtm_heldout_loglik(model, [doc])

        logp = model.log_word_probs_at(0.5)
        ((gamma, _, _),) = _mixture_e_step([doc], gathered([doc], [logp]), 1.0)
        theta = gamma / gamma.sum()
        oracle = sum(
            c * math.log(sum(theta[k] * math.exp(logp[k, w]) for k in range(2)))
            for w, c in [(0, 2), (1, 1), (2, 3)]
        )
        assert total == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("word", [-1, 100])
    def test_words_outside_the_vocabulary_rejected(self, word):
        docs = [Document.from_counts("a", 5.0, {3: 4}), Document.from_counts("b", 5.0, {word: 3})]
        with pytest.raises(ParameterError, match=r"document 'b' needs words in \[0, 100\)"):
            cdtm_heldout_loglik(self.uniform_model(), docs)

    def test_repeated_word_rejected(self):
        docs = [Document.from_counts("a", 5.0, {3: 4}), Document("d", 0.0, np.array([3, 3]), np.ones(2))]
        with pytest.raises(ParameterError, match=r"document 'd' needs words in \[0, 100\), strictly ascending"):
            cdtm_heldout_loglik(self.uniform_model(), docs)

    def test_log_probs_built_once_per_stamp_across_consecutive_blocks(self, monkeypatch):
        model = self.uniform_model()
        calls = []

        def counted(ts, original=model.log_word_probs_at):
            calls.append(ts)
            return original(ts)
        monkeypatch.setattr(model, "log_word_probs_at", counted)
        stamps = [1.0] * (BLOCK_DOCS + 4) + [2.0] * (BLOCK_DOCS - 8) + [3.0] * 3 + [1.0] * (BLOCK_DOCS + 1)
        docs = [Document.from_counts(f"d{i}", ts, {i % 100: 2}) for i, ts in enumerate(stamps)]
        records = cdtm_heldout_loglik(model, docs)
        # three blocks: each builds its distinct stamps once, in order of first appearance, and none
        # is carried into the next block
        assert len(docs) == 3 * BLOCK_DOCS
        assert calls == [1.0, 1.0, 2.0, 3.0, 1.0]
        assert [r[2] for r in records] == pytest.approx([2 * math.log(1 / 100)] * len(docs), rel=1e-9)

    def test_heldout_peak_holds_one_stamp_at_a_time(self):
        """A block of documents at distinct stamps holds one stamp's (K, V) log-probs at a time."""
        k, vocab = 20, 5000
        docs = uniform_stream(2 * BLOCK_DOCS, vocab, seed=4)
        model = train_cdtm(docs[::2], cdtm_config(k, 1e-6, 1), np.random.default_rng(0), vocab_size=vocab)
        held = docs[1::2]
        assert len(held) == len({d.timestamp for d in held}) == BLOCK_DOCS
        tracemalloc.start()
        try:
            cdtm_heldout_loglik(model, held)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # building one stamp's log-probs takes a few (K, V) temporaries; a block that kept each stamp's
        # array until its fit would hold BLOCK_DOCS of them
        assert peak < 6 * k * vocab * 8

    def test_interpolation_between_knots(self):
        model = every_pair_observed([0.0, 10.0], np.array([[[0.0, 0.0], [2.0, 0.0]]]))
        mid = model.log_word_probs_at(5.0)
        expected = np.log(np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum())
        np.testing.assert_allclose(mid[0], expected, atol=1e-12)
        np.testing.assert_allclose(model.log_word_probs_at(-5.0), model.log_word_probs_at(0.0))
        np.testing.assert_allclose(model.log_word_probs_at(99.0), model.log_word_probs_at(10.0))


def random_block(rng, sizes, k=6, vocab=40):
    """Documents of the given sizes and the (K, V) log-probs of one of two knots each."""
    knots = [np.log(rng.dirichlet(np.full(vocab, 0.3), k)) for _ in range(2)]
    docs = []
    for m in sizes:
        words = sorted(rng.choice(vocab, m, replace=False).tolist())
        docs.append(Document.from_counts("d", 0.0, dict(zip(words, rng.integers(1, 6, m).tolist()))))
    return docs, [knots[i % 2] for i in range(len(docs))]


def assert_close(actual, desired):
    """Within 1e-10 relative, elementwise, with no absolute slack."""
    np.testing.assert_allclose(actual, desired, rtol=1e-10, atol=0)


def gathered(docs, logps):
    """Each document's (K, V) log-probs read at its words, as one zero-padded (B, M, K) array."""
    lp = np.zeros((len(docs), max(doc.words.size for doc in docs), logps[0].shape[0]))
    for i, (doc, logp) in enumerate(zip(docs, logps)):
        lp[i, : doc.words.size] = logp[:, doc.words].T
    return lp


def assert_matches_one_document_fits(docs, logps, alpha):
    """Each document's gamma, phi and bound against the former one-document fit; returns its iterations."""
    lp = gathered(docs, logps)
    fitted = _mixture_e_step(docs, lp, alpha)
    np.testing.assert_array_equal(lp, gathered(docs, logps))  # the kernel reads its input, never writes it
    assert len(fitted) == len(docs)
    ran = []
    for doc, logp, (gamma, phi, bound) in zip(docs, logps, fitted):
        words, n = doc.words, doc.counts
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
        docs, logps = random_block(rng, sizes)
        ran = assert_matches_one_document_fits(docs, logps, 0.5)
        if size > 1:
            # documents stop at different iterations, and some run out of iterations
            assert len(set(ran)) > 1 and MAX_ITER in ran

    def test_word_improbable_under_every_topic(self):
        # exp(-1000) underflows to 0, so the kernel needs its per-word shift
        docs, logps = random_block(np.random.default_rng(3), [5, 3, 8, 1])
        logps = [logp.copy() for logp in logps]
        for doc, logp in zip(docs, logps):
            logp[:, doc.words[0]] = -1000.0 + np.linspace(0.0, 2.0, logp.shape[0])
        assert_matches_one_document_fits(docs, logps, 0.5)

    def test_nan_log_probs_raise_numerical_error(self):
        docs, logps = random_block(np.random.default_rng(0), [5, 3, 8])
        logps[1] = logps[1].copy()
        logps[1][:, docs[1].words[0]] = np.nan
        with pytest.raises(NumericalError, match="mixture"):
            _mixture_e_step(docs, gathered(docs, logps), 0.5)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_word_impossible_under_a_topic_raises_numerical_error(self):
        # gamma stays finite, but the topic's 0 * -inf makes the bound nan
        docs, logps = random_block(np.random.default_rng(1), [5, 3, 8])
        logps[2] = logps[2].copy()
        logps[2][0, docs[2].words[0]] = -np.inf
        with pytest.raises(NumericalError, match="bound"):
            _mixture_e_step(docs, gathered(docs, logps), 0.5)


def daily_stream():
    """three_topic_corpus stamped to 6-hour knots, so blocks span several shared knots."""
    docs, _ = three_topic_corpus(n_docs=150, vocab_size=30, seed=4)
    return [dataclasses.replace(d, timestamp=d.timestamp - d.timestamp % (6 * 3600.0)) for d in docs]


def unsorted_heldout(docs, train, rng):
    """Held-out documents out of time order: between the knots, on them, before and after them.

    Groups of BLOCK_DOCS / 4 documents share a timestamp, so a block builds
    one stamp's log-probs for several documents.
    """
    first, last = train[0].timestamp, train[-1].timestamp
    stamps = [first - 7200.0, first - 1.0, docs[41].timestamp + 1800.0, last + 1.0, last + 86400.0]
    shared = [dataclasses.replace(d, id=f"{d.id}-{j}", timestamp=ts)
              for j, ts in enumerate(stamps) for d in docs[10 * j: 10 * j + BLOCK_DOCS // 4]]
    held = docs[1::2] + shared + [dataclasses.replace(d, id=d.id + "-k") for d in train[:5]]
    return [held[i] for i in rng.permutation(len(held))]


# words 30, 31 and 32 of a 33-word vocabulary: seen only at the first knot, only at the last, never
EDGE_VOCAB = 33


def with_edge_words(train):
    """The training documents with word 30 added to the first one only and word 31 to the last one only."""
    first, last = train[0], train[-1]
    return ([dataclasses.replace(first, words=np.append(first.words, 30), counts=np.append(first.counts, 2.0))]
            + train[1:-1]
            + [dataclasses.replace(last, words=np.append(last.words, 31), counts=np.append(last.counts, 1.0))])


def at_pairs(model, dense):
    """A dense (K, S, V) array read at the model's observed pairs, as (K, P)."""
    return dense.reshape(dense.shape[0], -1)[:, model.pairs]


def probe_times(knots):
    """Every knot, a time between each two, and times before and after the knots."""
    return [*knots, *(knots[:-1] + np.diff(knots) / 3), knots[0] - 3600.0, knots[-1] + 86400.0]


class TestMatchesPerDocumentLoops:
    """Training and scoring against the former dense per-document loops (tests/helpers.py), within 1e-10."""

    @staticmethod
    def split(stream):
        """The training documents and the unsorted held-out documents of the "daily" or "distinct" stream."""
        docs = daily_stream() if stream == "daily" else uniform_stream(150, 30, seed=5)
        train = with_edge_words(docs[::2])
        return train, unsorted_heldout(docs, train, np.random.default_rng(9))

    @pytest.mark.parametrize("stream", ["daily", "distinct"])
    def test_states_objective_and_scores(self, stream):
        train, held = self.split(stream)
        if stream == "daily":
            assert len({d.timestamp for d in train}) < len(train) / 2
        else:
            assert len({d.timestamp for d in train}) == len(train)
        blocks = [held[i:i + BLOCK_DOCS] for i in range(0, len(held), BLOCK_DOCS)]
        assert len(blocks) > 2
        assert any(len({d.timestamp for d in block}) < len(block) for block in blocks)
        for drift_v in (0.0, 0.0864):
            cfg = CdtmConfig(K=4, alpha=0.7, drift_v=drift_v, sweeps=3)
            model = train_cdtm(train, cfg, np.random.default_rng(2), vocab_size=EDGE_VOCAB)
            ref = reference_train_cdtm(train, 4, DriftConfig(drift_v / SECONDS_PER_DAY), 3, np.random.default_rng(2),
                                       alpha=0.7, vocab_size=EDGE_VOCAB)
            knot, word = np.divmod(model.pairs, EDGE_VOCAB)
            assert set(knot[word == 30]) == {0} and set(knot[word == 31]) == {model.knots.size - 1}
            assert 32 not in word and model.pairs.size < model.knots.size * 30
            assert_close(model.means, at_pairs(model, ref.means))
            assert_close(model.objective_trace, ref.objective_trace)
            for ts in probe_times(model.knots):
                assert_close(model.log_word_probs_at(ts), ref.log_word_probs_at(ts))
            records, ref_records = cdtm_heldout_loglik(model, held), reference_cdtm_heldout(ref, held)
            assert [(i, ts, n) for i, ts, _, n in records] == [(i, ts, n) for i, ts, _, n in ref_records]
            assert_close([r[2] for r in records], [r[2] for r in ref_records])

    @pytest.mark.parametrize("stream", ["daily", "distinct"])
    def test_sixteen_document_blocks_match_the_shipped_size(self, stream, monkeypatch):
        """The block size moves only the last bits of the states, the objective and the scores."""
        assert BLOCK_DOCS != 16
        train, held = self.split(stream)
        cfg = CdtmConfig(K=4, alpha=0.7, drift_v=0.0864, sweeps=3)

        def fitted():
            model = train_cdtm(train, cfg, np.random.default_rng(2), vocab_size=EDGE_VOCAB)
            return model, cdtm_heldout_loglik(model, held)
        want, want_records = fitted()
        monkeypatch.setattr(online_hdp, "BLOCK_DOCS", 16)
        got, records = fitted()
        assert_close(got.means, want.means)
        assert_close(got.objective_trace, want.objective_trace)
        assert [(i, ts, n) for i, ts, _, n in records] == [(i, ts, n) for i, ts, _, n in want_records]
        assert_close([r[2] for r in records], [r[2] for r in want_records])


class TestPairLayout:
    """``train_cdtm`` and ``_smooth_topics`` against their forms before ``kalman.pair_layout``, bit for bit."""

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("stream", ["daily", "distinct"])
    def test_train_matches_the_inline_layout(self, stream, stride):
        """With stride 3, word w becomes 3w + 2, so the observed words are not the first W of the vocabulary."""
        train, _ = TestMatchesPerDocumentLoops.split(stream)
        train = [dataclasses.replace(d, words=d.words * stride + stride - 1) for d in train]
        vocab_size = stride * EDGE_VOCAB
        cfg = CdtmConfig(K=4, alpha=0.7, drift_v=0.0864, sweeps=3)
        model = train_cdtm(train, cfg, np.random.default_rng(2), vocab_size=vocab_size)
        want = inline_layout_train_cdtm(train, cfg, np.random.default_rng(2), vocab_size)
        assert np.unique(model.pairs % vocab_size).size < vocab_size
        for name in ("knots", "pairs", "means"):
            got, ref = getattr(model, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
        assert model.objective_trace == want.objective_trace

    @staticmethod
    def sparse_inputs(k=20, s=30, v=20000, w=100, seed=0):
        """Knots, pairs over ``w`` of ``v`` words (each knot observes about 30% of them) and (K, P) counts."""
        rng = np.random.default_rng(seed)
        knots = np.cumsum(rng.uniform(0.1, 5.0, s))
        words = np.sort(rng.choice(v, size=w, replace=False))
        present = rng.random((s, w)) < 0.3
        present[np.arange(s), rng.integers(0, w, s)] = True
        steps, cols = np.nonzero(present)
        pairs = steps * v + words[cols]
        return knots, pairs, rng.gamma(0.3, 2.0, (k, pairs.size)), CdtmConfig(K=k, drift_v=4320.0)

    def test_smooth_topics_matches_the_vocabulary_wide_state(self):
        knots, pairs, expected, config = self.sparse_inputs()
        got = _smooth_topics(knots, pairs, 20000, expected.copy(), config)
        want = wide_smooth_topics(knots, pairs, 20000, expected, config)
        assert got.tobytes() == want.tobytes()

    def test_smooth_topics_peak_below_one_vocabulary_wide_array(self):
        """With W = 100 of V = 20000 words observed, the filter and smoother state is (K, W), not (K, V)."""
        knots, pairs, expected, config = self.sparse_inputs()
        tracemalloc.start()
        try:
            _smooth_topics(knots, pairs, 20000, expected, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < config.K * 20000 * 8  # one (K, V) float64 array: 3.2 MB


def smoothing_inputs(k=20, s=30, v=100, seed=0):
    """Irregular knots, random observed pairs and random (K, P) expected counts, and the same as dense inputs.

    Every knot has a pair; word v - 2 is observed only at the first knot,
    word v - 3 first at the last knot, and word v - 1 never.  Returns
    (knots, pairs, expected, dense model, dense expected, present, cfg,
    config): ``cfg`` is the reference's drift and prior, with the prior
    variance PRIOR_VARIANCE_PATCH, and ``config`` the model's settings.
    """
    rng = np.random.default_rng(seed)
    knots = np.cumsum(rng.uniform(0.1, 5.0, s))
    present = rng.random((s, v)) < 0.3
    present[np.arange(s), rng.integers(0, v - 3, s)] = True
    present[:, v - 3:] = False
    present[0, v - 2] = present[-1, v - 3] = True
    pairs = np.flatnonzero(present)
    expected = rng.gamma(0.3, 2.0, (k, pairs.size))
    config = CdtmConfig(K=k, drift_v=4320.0)  # 0.05 per second
    cfg = DriftConfig(config.drift_v / SECONDS_PER_DAY, prior_mean=math.log(1 / v), prior_variance=PRIOR_VARIANCE_PATCH)
    dense = DenseCdtmModel(K=k, alpha_dirichlet=1.0, vocab_size=v, knots=knots,
                           means=np.empty((k, s, v)))
    dense_expected = np.zeros((k, s * v))
    dense_expected[:, pairs] = expected
    return knots, pairs, expected, dense, dense_expected.reshape(k, s, v), present, cfg, config


# a track prior variance other than 1, so the closed-form tests pin where it enters
PRIOR_VARIANCE_PATCH = 1.5


class TestSmoothTopics:
    """One sparse filter and smoother pass over all K topics, against the former dense per-topic loop."""

    def test_matches_the_dense_per_topic_loop(self, monkeypatch):
        monkeypatch.setattr(fixed_k_dtm, "PRIOR_VARIANCE", PRIOR_VARIANCE_PATCH)
        knots, pairs, expected, dense, dense_expected, present, cfg, config = smoothing_inputs()
        reference_smooth_topics(dense, dense_expected, present, cfg, config.obs_var, 0.01)
        means = _smooth_topics(knots, pairs, dense.vocab_size, expected, config)
        model = CdtmModel(config=config, vocab_size=dense.vocab_size, knots=knots, pairs=pairs, means=means,
                          objective_trace=[])
        assert_close(model.means, at_pairs(model, dense.means))
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
        model = train_cdtm(train, cdtm_config(3, 1e-8, 2), np.random.default_rng(0), vocab_size=50)
        cdtm_heldout_loglik(model, test)
        assert calls == ["pair_filter", "pair_smoother"] * 2

    def test_peak_memory_below_one_state_array(self):
        knots, pairs, expected, dense, *_, config = smoothing_inputs()
        tracemalloc.start()
        try:
            means = _smooth_topics(knots, pairs, dense.vocab_size, expected, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the new means and the (K, V) filter and smoother state; expected is the variances' scratch
        assert peak < 2 * means.nbytes

    def test_training_peak_stays_below_one_dense_array(self):
        k, vocab = 20, 2000
        docs = uniform_stream(200, vocab, seed=3)
        tracemalloc.start()
        try:
            model = train_cdtm(docs, cdtm_config(k, 1e-6, 2), np.random.default_rng(0), vocab_size=vocab)
            cdtm_heldout_loglik(model, docs[:BLOCK_DOCS])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.knots.size == 200
        assert peak < k * model.knots.size * vocab * 8  # one (K, S, V) float array: 64 MB

    def test_training_holds_no_idle_vocabulary_wide_array(self):
        """A later sweep holds one stamp's (K, V) log-probs and their scratch, but not the first sweep's draw.

        With Python 3.11 and numpy 2.4 this peaked at 4.09 (K, V) float64 arrays while the first draw and a (K, V)
        filter state were kept, and at 3.05 without them.
        """
        k, vocab = 20, 20000
        docs = uniform_stream(64, vocab, seed=0)
        tracemalloc.start()
        try:
            train_cdtm(docs, CdtmConfig(K=k, sweeps=2), np.random.default_rng(0), vocab_size=vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * k * vocab * 8


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        train, test = train_test_split(n_docs=40)
        config = CdtmConfig(K=2, alpha=0.7, drift_v=8.64e-4, obs_var=0.2, sweeps=2)
        model = train_cdtm(train, config, np.random.default_rng(8), vocab_size=50)
        path = tmp_path / "cdtm.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert set(json.loads(path.read_text())["arrays"]) == {"knots", "pairs", "means", "objective_trace"}
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.knots, model.knots)
        np.testing.assert_array_equal(loaded.pairs, model.pairs)
        assert loaded.objective_trace == model.objective_trace
        assert (loaded.config, loaded.vocab_size) == (config, 50)
        assert cdtm_heldout_loglik(loaded, test[:3]) == cdtm_heldout_loglik(model, test[:3])

    def test_loads_a_file_that_still_holds_the_smoothed_variances(self, tmp_path, monkeypatch):
        """Earlier files also held the last sweep's (K, P) smoothed ``variances``; loading ignores them."""
        smoothed, smoother = [], fixed_k_dtm.pair_smoother

        def recorded(*args):
            smoothed.append(smoother(*args))
            return smoothed[-1]
        monkeypatch.setattr(fixed_k_dtm, "pair_smoother", recorded)
        train, test = train_test_split(n_docs=40)
        model = train_cdtm(train, CdtmConfig(K=2, sweeps=2), np.random.default_rng(8), vocab_size=50)
        variances = smoothed[-1][1]
        assert variances.shape == model.means.shape and (variances > 0).all()
        path = tmp_path / "cdtm.json"
        write_checkpoint("cdtm", {"config": dataclasses.asdict(model.config), "vocab_size": 50},
                         {"knots": model.knots, "pairs": model.pairs, "means": model.means, "variances": variances,
                          "objective_trace": np.array(model.objective_trace)}, path)
        loaded = load_checkpoint(path)
        assert not hasattr(loaded, "variances")
        np.testing.assert_array_equal(loaded.means, model.means)
        assert cdtm_heldout_loglik(loaded, test) == cdtm_heldout_loglik(model, test)

    @staticmethod
    def saved(tmp_path):
        """A trained model's checkpoint path and its parsed payload."""
        train, _ = train_test_split(n_docs=40)
        model = train_cdtm(train, cdtm_config(2, 1e-8, 1), np.random.default_rng(8), vocab_size=50)
        assert model.knots.size > 2
        path = tmp_path / "cdtm.json"
        save_checkpoint(model, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("name, corrupt, message", [
        ("means", lambda a: a.T, "are not (K, P)"),
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
        for name in ("pairs", "means"):
            set_payload_array(payload, name, payload_array(payload, name)[..., keep])
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="a knot without an observed pair"):
            load_checkpoint(path)

    @staticmethod
    def as_format_2(path):
        """Rewrite the checkpoint at ``path`` with format_version 2, the format every former layout used."""
        payload = json.loads(path.read_text())
        payload["format_version"] = 2
        path.write_text(json.dumps(payload))

    def test_former_dense_state_asks_to_retrain(self, tmp_path):
        path = tmp_path / "dense.json"
        dense = np.zeros((2, 3, 5))
        write_checkpoint("cdtm", {"K": 2, "alpha_dirichlet": 1.0, "vocab_size": 5},
                         {"knots": np.arange(3.0), "means": dense, "variances": dense + 1.0,
                          "objective_trace": np.zeros(2)}, path)
        self.as_format_2(path)
        with pytest.raises(ParameterError, match="format-2 checkpoint, no longer read; re-train the model"):
            load_checkpoint(path)

    def test_header_holds_the_config_and_vocab_size(self, tmp_path):
        _, payload = self.saved(tmp_path)
        assert payload["header"] == {"config": dataclasses.asdict(cdtm_config(2, 1e-8, 1)), "vocab_size": 50}

    def test_former_per_field_header_asks_to_retrain(self, tmp_path):
        path, payload = self.saved(tmp_path)
        payload["header"] = {"K": 2, "alpha_dirichlet": 1.0, "vocab_size": 50, "process_variance": 1e-8,
                             "prior_variance": 1.0}
        path.write_text(json.dumps(payload))
        self.as_format_2(path)
        with pytest.raises(ParameterError, match="format-2 checkpoint, no longer read; re-train the model"):
            load_checkpoint(path)

    @pytest.mark.parametrize("setting, message", [
        ({"K": 0}, "K and sweeps must be >= 1, got 0"),
        ({"sweeps": -1}, "K and sweeps must be >= 1"),
        ({"alpha": 0.0}, "alpha and obs_var must be finite and > 0"),
        ({"obs_var": math.nan}, "alpha and obs_var must be finite and > 0"),
        ({"drift_v": -1.0}, "drift_v must be finite and >= 0"),
        ({"K": 2.0}, "'K' is not a int"),
    ])
    def test_load_applies_the_config_rule(self, tmp_path, setting, message):
        path, payload = self.saved(tmp_path)
        payload["header"]["config"].update(setting)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match=re.escape(message)):
            load_checkpoint(path)
