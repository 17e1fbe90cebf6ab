"""Online HDP: stick weights, document inference, streaming updates."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest


from helpers import (
    infer_core,
    reference_doc_loop,
    reference_elog_beta,
    reference_fit_block,
    reference_online_update,
)
from topicdrift import cli, drifting_topics, online_hdp
from topicdrift.corpus import Document
from topicdrift.errors import ConfigurationError, NumericalError, ParameterError
from topicdrift.online_hdp import (
    BLOCK_DOCS,
    MAX_SWEEPS,
    SWEEP_TOL,
    BatchStats,
    GlobalVariational,
    HdpHyper,
    HdpSnapshot,
    OnlineHdp,
    doc_topic_mixture,
    elog_beta,
    expect_log_sticks,
    accumulate_stats,
    expected_corpus_weights,
    infer_batch,
    init_global,
    online_update,
    prequential_run,
    save_checkpoint,
    load_checkpoint,
    mixture_score,
    score_batch,
    topic_word_probs,
)
from topicdrift.synthetic import drifting_stream, three_topic_corpus


def make_doc(counts, doc_id="d", ts=0.0):
    return Document.from_counts(doc_id, ts, counts)


def make_global(lam, gamma=1.0):
    lam = np.asarray(lam, dtype=float)
    k = lam.shape[0]
    return GlobalVariational(lam, np.ones(max(k - 1, 0)), np.full(max(k - 1, 0), gamma))


class TestCorpusWeights:
    def test_geometric_halving(self):
        g = GlobalVariational(np.ones((4, 2)), np.ones(3), np.ones(3))
        np.testing.assert_allclose(
            expected_corpus_weights(g), [0.5, 0.25, 0.125, 0.125], atol=1e-15
        )

    def test_first_stick_takes_everything(self):
        g = GlobalVariational(np.ones((3, 2)), np.array([1.0, 1.0]), np.array([1e-300, 1.0]))
        weights = expected_corpus_weights(g)
        assert weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights[1:] < 1e-12)

    def test_matches_product_form_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            u = rng.uniform(0.1, 5.0, size=k - 1)
            v = rng.uniform(0.1, 5.0, size=k - 1)
            g = GlobalVariational(np.ones((k, 2)), u, v)
            weights = expected_corpus_weights(g)
            frac = u / (u + v)
            expected, remaining = [], 1.0
            for j in range(k - 1):
                expected.append(frac[j] * remaining)
                remaining *= 1.0 - frac[j]
            expected.append(remaining)
            np.testing.assert_allclose(weights, expected, atol=1e-12)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_topic(self):
        """Also from ``init_global`` and after an update: the sticks stay empty, with no warning."""
        hyper = HdpHyper(K_corpus=1, T_doc=3)
        fresh = init_global(hyper, 6, corpus_scale=10, seed=0)
        updated = online_update(fresh, BatchStats(np.ones((1, 6)), np.array([4.0]), 2), hyper, 10)
        for g in (GlobalVariational(np.ones((1, 2)), np.zeros(0), np.zeros(0)), fresh, updated):
            assert g.stick_u.shape == g.stick_v.shape == (0,)
            np.testing.assert_array_equal(expected_corpus_weights(g), [1.0])


class TestInferDocument:
    def test_single_topic_forces_assignment(self):
        hyper = HdpHyper(K_corpus=1, T_doc=4)
        g = make_global([[1.0, 2.0, 3.0]])
        doc = make_doc({0: 2, 2: 1})
        snap = HdpSnapshot.of(g)
        ((dv, elbo, _),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
        stats = BatchStats.zeros(1, 3)
        accumulate_stats(stats, dv, doc)
        np.testing.assert_allclose(dv.varphi, 1.0)
        np.testing.assert_allclose(dv.zeta.sum(axis=1), 1.0, atol=1e-12)
        assert math.isfinite(elbo)
        assert stats.lam.sum() == pytest.approx(3.0, abs=1e-9)

    def test_uniform_rows_give_stick_softmax(self):
        """With identical topic rows the indicator posterior is the
        softmax of the expected log stick weights (hand derivation)."""
        hyper = HdpHyper(K_corpus=5, T_doc=3, gamma=1.5)
        g = make_global(np.ones((5, 8)) * 0.7, gamma=1.5)
        doc = make_doc({3: 4})
        snap = HdpSnapshot.of(g)
        ((dv, _, _),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
        sticks = expect_log_sticks(g.stick_u, g.stick_v)
        expected = np.exp(sticks - sticks.max())
        expected /= expected.sum()
        for row in dv.varphi:
            np.testing.assert_allclose(row, expected, atol=1e-10)
        np.testing.assert_allclose(doc_topic_mixture(dv), expected, atol=1e-10)

    def test_single_slot_mixture_is_its_indicator_row(self):
        """At T_doc = 1 the document has no sticks, and its one slot carries all its mass."""
        hyper = HdpHyper(K_corpus=4, T_doc=1)
        snap = HdpSnapshot.of(make_global(np.random.default_rng(2).gamma(1.0, 1.0, (4, 9)) + 0.01))
        ((dv, _, theta),) = infer_batch([make_doc({1: 2, 5: 1})], snap.elog_beta, snap.elog_sticks, hyper)
        assert dv.stick_a.shape == dv.stick_b.shape == (0,) and dv.varphi.shape == (1, 4)
        assert doc_topic_mixture(dv).tobytes() == theta.tobytes() == dv.varphi[0].tobytes()

    def test_elbo_non_decreasing_across_sweeps(self):
        rng = np.random.default_rng(1)
        hyper = HdpHyper(K_corpus=6, T_doc=4)
        g = make_global(rng.gamma(1.0, 1.0, (6, 30)) + 0.01)
        counts = {int(w): int(c) for w, c in zip(rng.choice(30, 12, replace=False),
                                                 rng.integers(1, 4, 12))}
        doc = make_doc(counts)
        snap = HdpSnapshot.of(g)
        bounds = []
        for sweeps in range(1, 11):
            ((_, elbo, _),) = online_hdp._fit_block(
                [doc], snap.elog_beta, snap.elog_sticks, hyper, sweeps, 0.0
            )
            bounds.append(elbo)
        assert all(b - a >= -1e-8 for a, b in zip(bounds, bounds[1:]))

    def test_factor_rows_stay_normalized(self):
        rng = np.random.default_rng(2)
        hyper = HdpHyper(K_corpus=7, T_doc=5)
        g = make_global(rng.gamma(1.0, 1.0, (7, 40)) + 0.01)
        doc = make_doc({int(w): 1 for w in rng.choice(40, 15, replace=False)})
        snap = HdpSnapshot.of(g)
        ((dv, _, _),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
        np.testing.assert_allclose(dv.varphi.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(dv.zeta.sum(axis=1), 1.0, atol=1e-10)

    def test_empty_document_rejected(self):
        snap = HdpSnapshot.of(make_global(np.ones((2, 3))))
        with pytest.raises(ParameterError):
            next(infer_batch([make_doc({})], snap.elog_beta, snap.elog_sticks, HdpHyper(K_corpus=2, T_doc=2)))

    @pytest.mark.parametrize("word", [-1, 8])
    def test_words_outside_the_vocabulary_rejected(self, word):
        model = OnlineHdp(HdpHyper(K_corpus=3, T_doc=2), 8, 2, seed=0)
        lam = model.g.lam.copy()
        batch = [make_doc({2: 1}, "a"), make_doc({word: 3}, "b")]
        with pytest.raises(ParameterError, match=r"document 'b' needs words in \[0, 8\)"):
            model.process_batch(batch)
        np.testing.assert_array_equal(model.g.lam, lam)

    @pytest.mark.parametrize("words, counts", [([3, 3], [1.0, 1.0]), ([3, 1], [1.0, 1.0]), ([1, 3], [1.0])])
    def test_repeated_unordered_or_miscounted_words_rejected(self, words, counts):
        """A repeated word would count once in ``accumulate_stats``; such documents never reach the kernel."""
        model = OnlineHdp(HdpHyper(K_corpus=3, T_doc=2), 8, 2, seed=0)
        lam = model.g.lam.copy()
        batch = [make_doc({2: 1}, "a"), Document("d", 0.0, np.array(words), np.array(counts))]
        with pytest.raises(ParameterError, match=r"document 'd' needs words in \[0, 8\), strictly ascending"):
            next(infer_batch(batch, *model.expectations()[:2], model.hyper))
        with pytest.raises(ParameterError, match="document 'd'"):
            model.process_batch(batch)
        np.testing.assert_array_equal(model.g.lam, lam)


class TestHyper:
    @pytest.mark.parametrize("field", ["gamma", "alpha0", "eta", "tau0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            HdpHyper(**{field: value})

    @pytest.mark.parametrize("tau0", [0.0, 0.5, 0.999])
    def test_tau0_below_one_rejected(self, tau0):
        with pytest.raises(ConfigurationError, match="tau0 must be finite and >= 1"):
            HdpHyper(tau0=tau0)


class TestOnlineUpdate:
    def test_full_replacement_at_rho_one(self):
        hyper = HdpHyper(K_corpus=3, T_doc=2, eta=0.1, tau0=1.0)
        g = make_global(np.full((3, 4), 7.0))
        stats = BatchStats(np.arange(12, dtype=float).reshape(3, 4), np.array([1.0, 2.0, 3.0]), 2)
        out = online_update(g, stats, hyper, corpus_scale=2)  # rho = (1+0)^-k = 1
        np.testing.assert_allclose(out.lam, 0.1 + stats.lam)
        assert out.update_count == 1

    def test_empty_stats_rejected(self):
        g = make_global(np.ones((2, 2)))
        with pytest.raises(ParameterError):
            online_update(g, BatchStats.zeros(2, 2), HdpHyper(K_corpus=2, T_doc=2), 10)

    def test_bad_rho_rejected(self):
        g = make_global(np.ones((2, 2)))
        stats = BatchStats(np.ones((2, 2)), np.ones(2), 1)
        with pytest.raises(ConfigurationError):
            online_update(g, stats, HdpHyper(K_corpus=2, T_doc=2, tau0=0.5), 10)  # rho = 0.5^-0.6 > 1

    def test_halving_steps_halve_distance_to_target(self):
        hyper = HdpHyper(K_corpus=2, T_doc=2, eta=0.5, kappa=1.0, tau0=2.0)  # rho = 1/2 at update 0
        g = make_global(np.full((2, 3), 10.0))
        stats = BatchStats(np.full((2, 3), 2.0), np.array([1.0, 1.0]), 1)
        target = 0.5 + 4 * 2.0  # eta + (D/batch) * stats with D=4
        d0 = abs(g.lam[0, 0] - target)
        g1 = online_update(g, stats, hyper, corpus_scale=4)
        d1 = abs(g1.lam[0, 0] - target)
        g2 = online_update(dataclasses.replace(g1, update_count=0), stats, hyper, corpus_scale=4)
        d2 = abs(g2.lam[0, 0] - target)
        assert d1 == pytest.approx(0.5 * d0, rel=1e-12)
        assert d2 == pytest.approx(0.5 * d1, rel=1e-12)

    def test_rho_one_equals_full_batch_m_step(self):
        """One rho=1 update with D = batch size is the batch M-step."""
        rng = np.random.default_rng(3)
        hyper = HdpHyper(K_corpus=4, T_doc=3, eta=0.05)
        docs = [
            make_doc({int(w): 1 for w in rng.choice(20, 8, replace=False)}, f"d{i}")
            for i in range(5)
        ]
        g = init_global(hyper, 20, corpus_scale=5, seed=0)
        snap = HdpSnapshot.of(g)
        stats = BatchStats.zeros(4, 20)
        for doc, (dv, _, _) in zip(docs, infer_batch(docs, snap.elog_beta, snap.elog_sticks, hyper), strict=True):
            accumulate_stats(stats, dv, doc)
        out = online_update(g, stats, hyper, corpus_scale=5)  # rho = (1+0)^-k = 1
        np.testing.assert_allclose(out.lam, hyper.eta + stats.lam, atol=1e-12)
        np.testing.assert_allclose(out.stick_u, 1.0 + stats.usage[:3], atol=1e-12)
        tail = np.flip(np.cumsum(np.flip(stats.usage[1:])))
        np.testing.assert_allclose(out.stick_v, hyper.gamma + tail, atol=1e-12)

    @pytest.mark.parametrize("update_count", [0, 1, 7])
    def test_matches_the_former_expression_bit_for_bit(self, update_count):
        """The step is built in one scratch array in the former expression's operations; neither input moves.
        At K = 1 the general stick expressions give the empty sticks the former K = 1 branch copied."""
        rng = np.random.default_rng(16)
        for k in (5, 1):
            hyper = HdpHyper(K_corpus=k, T_doc=3, eta=0.03)
            g = dataclasses.replace(init_global(hyper, 37, corpus_scale=90, seed=1), update_count=update_count)
            stats = BatchStats(rng.gamma(0.5, 2.0, (k, 37)), rng.gamma(2.0, 1.0, k), 7)
            before = [a.copy() for a in (g.lam, g.stick_u, g.stick_v, stats.lam, stats.usage)]
            got, want = online_update(g, stats, hyper, 90), reference_online_update(g, stats, hyper, 90)
            for name in ("lam", "stick_u", "stick_v"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
            assert got.update_count == want.update_count == update_count + 1
            for a, b in zip(before, (g.lam, g.stick_u, g.stick_v, stats.lam, stats.usage)):
                assert a.tobytes() == b.tobytes()

    def test_memory_is_the_result_and_one_scratch_array(self):
        """Measured tracemalloc peaks at K=40, V=5000, in (K, V) arrays: 2.00.  The
        former expression also peaks at 2.00 where numpy reuses its temporaries
        (numpy 2.4), so no smaller bound separates the two; the in-place form
        holds the bound without relying on that reuse."""
        rng = np.random.default_rng(17)
        hyper = HdpHyper(K_corpus=40, T_doc=3)
        g = init_global(hyper, 5000, corpus_scale=1000, seed=0)
        stats = BatchStats(rng.random((40, 5000)), np.ones(40), 10)
        tracemalloc.start()
        try:
            online_update(g, stats, hyper, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * g.lam.nbytes


class TestElogBeta:
    def test_matches_the_former_expression_bit_for_bit(self):
        rng = np.random.default_rng(18)
        g = make_global(rng.gamma(0.3, 1.0, (7, 53)) + 0.01)
        want = reference_elog_beta(g).tobytes()
        assert elog_beta(g).tobytes() == want
        assert elog_beta(g, g.lam.sum(axis=1)).tobytes() == want
        snap = HdpSnapshot.of(g)
        assert snap.elog_beta.tobytes() == want
        assert snap.word_probs.tobytes() == (g.lam / g.lam.sum(axis=1)[:, None]).tobytes()


class TestTopicWordProbs:
    def test_uniform_row(self):
        g = make_global(np.full((2, 5), 3.3))
        np.testing.assert_allclose(topic_word_probs(g), 0.2, atol=1e-15)

    def test_dirichlet_mean(self):
        g = make_global([[3.0, 1.0]])
        np.testing.assert_allclose(topic_word_probs(g)[0], [0.75, 0.25], atol=1e-15)

    def test_rows_normalized(self):
        rng = np.random.default_rng(4)
        g = make_global(rng.gamma(2.0, 1.0, (6, 9)) + 1e-3)
        np.testing.assert_allclose(topic_word_probs(g).sum(axis=1), 1.0, atol=1e-12)


def record_sweeps(monkeypatch):
    """Collect the per-document sweep counts of every block the kernel fits, in block order.

    Blocks may be checked and fitted on worker threads, in any order, so
    each block's slot is made when ``batch_iter`` cuts it, on the calling
    thread in block order, and the kernel fills the slot of the block it
    is given.  Returns the list of slots; a stream's batches, which are
    cut the same way, leave theirs empty.
    """
    blocks, slot_of = [], {}
    cut, kernel = online_hdp.batch_iter, online_hdp._fit_block

    def cutting(*args):
        for block in cut(*args):
            slot_of[id(block)] = (block, [])  # kept alive, so that no later list takes its id
            blocks.append(slot_of[id(block)][1])
            yield block

    def recording(block, *args):
        fitted = kernel(block, *args)
        slot_of[id(block)][1].extend(ran for *_, ran in fitted)
        return fitted

    monkeypatch.setattr(online_hdp, "batch_iter", cutting)
    monkeypatch.setattr(online_hdp, "_fit_block", recording)
    return blocks


def in_block_order(blocks):
    return [ran for block in blocks for ran in block]


def assert_records_match(got, want):
    """Ids, timestamps and word counts exactly; scores within 1e-10 relative."""
    assert [(i, t, c) for i, t, _, c in got] == [(i, t, c) for i, t, _, c in want]
    np.testing.assert_allclose([r[2] for r in got], [r[2] for r in want], rtol=1e-10, atol=0)


def trained_snapshot(hyper, docs, vocab_size=60):
    hdp = OnlineHdp(hyper, vocab_size, corpus_scale=len(docs), seed=3)
    prequential_run(hdp, docs, batch_size=16)
    return HdpSnapshot.of(hdp.g)


class TestInferBatch:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        """Fit on two worker threads whatever the host's CPU count, so block order is checked under threads."""
        monkeypatch.setattr(online_hdp, "WORKERS", 2)

    def test_every_caller_matches_the_reference_loop(self, monkeypatch):
        """Ids, timestamps, word counts and sweep counts exactly; scores and
        topic weights within 1e-10 relative (the kernel sums in another order)."""
        docs, _ = drifting_stream(seed=5, pre_docs=60, gap_docs=10, post_docs=BLOCK_DOCS + 14)
        train, held = docs[:80], docs[80:]  # one whole block and a partial one
        # some of the held-out fits stop on the tolerance, others at the sweep cap
        hyper = HdpHyper(K_corpus=12, T_doc=6)

        hdp = OnlineHdp(hyper, 60, corpus_scale=len(docs), seed=3)
        prequential_run(hdp, train, batch_size=16)
        snap = HdpSnapshot.of(hdp.g)
        records, mixtures, ref_sweeps = reference_doc_loop(
            held, snap.elog_beta, snap.elog_sticks, snap.word_probs, hyper
        )
        assert 1 < len(set(ref_sweeps)) and max(ref_sweeps) == MAX_SWEEPS
        sweeps = record_sweeps(monkeypatch)
        assert_records_match(score_batch(hdp, held)[0], records)
        for got, want in zip(cli._doc_topic_weights(held, *hdp.expectations()[:2], hyper), mixtures, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        assert in_block_order(sweeps) == ref_sweeps * 2

        cfg = drifting_topics.CidtmConfig(hyper=hyper, drift_v=0.02, relevance_threshold=0.2)
        model = drifting_topics.DriftingTopicModel(cfg, 60, len(docs), seed=3)
        prequential_run(model, train, batch_size=16)
        snap = HdpSnapshot.of(model.g)
        elog_adj, probs_adj = model.adjusted_matrices(snap)
        records, mixtures, ref_sweeps = reference_doc_loop(
            held, elog_adj, snap.elog_sticks, probs_adj, hyper
        )
        sweeps.clear()
        assert_records_match(score_batch(model, held)[0], records)
        for got, want in zip(cli._doc_topic_weights(held, *model.expectations()[:2], hyper), mixtures, strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        assert in_block_order(sweeps) == ref_sweeps * 2

    @pytest.mark.parametrize("size", [1, BLOCK_DOCS - 1, BLOCK_DOCS, BLOCK_DOCS + 1, 2 * BLOCK_DOCS + 1])
    def test_batch_sizes_around_the_block(self, size, monkeypatch):
        docs, _ = drifting_stream(seed=11, pre_docs=60, gap_docs=10, post_docs=2 * BLOCK_DOCS + 8)
        hyper = HdpHyper(K_corpus=12, T_doc=6)
        snap = trained_snapshot(hyper, docs[:64])
        held = docs[64 : 64 + size]
        assert len(held) == size
        records, mixtures, ref_sweeps = reference_doc_loop(
            held, snap.elog_beta, snap.elog_sticks, snap.word_probs, hyper
        )
        sweeps = record_sweeps(monkeypatch)
        fits = list(infer_batch(held, snap.elog_beta, snap.elog_sticks, hyper))
        assert len(fits) == len(held)
        assert in_block_order(sweeps) == ref_sweeps
        assert_records_match(
            [(d.id, d.timestamp, mixture_score(d, theta, snap.word_probs), int(d.counts.sum()))
             for d, (_, _, theta) in zip(held, fits)],
            records,
        )
        for (dv, _, theta), want in zip(fits, mixtures, strict=True):
            np.testing.assert_allclose(theta, want, rtol=1e-10, atol=0)
            np.testing.assert_allclose(dv.varphi.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(dv.zeta.sum(axis=1), 1.0, atol=1e-12)

    def test_one_block_is_fitted_on_the_calling_thread(self, monkeypatch):
        """At two workers a batch of exactly one block starts no thread: its kernel
        runs on the main thread, and the yields are those of one worker."""
        docs, _ = drifting_stream(seed=21, pre_docs=60, gap_docs=0, post_docs=BLOCK_DOCS)
        hyper = HdpHyper(K_corpus=12, T_doc=6)
        snap = trained_snapshot(hyper, docs[:60])
        held = docs[60:]
        assert len(held) == BLOCK_DOCS
        threads, kernel, fitted_on = threading.active_count(), online_hdp._fit_block, []

        def recording(*args):
            fitted_on.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
            return kernel(*args)

        monkeypatch.setattr(online_hdp, "_fit_block", recording)
        got = TestWorkers.fit_until_error(held, snap.elog_beta, snap.elog_sticks, hyper)
        assert fitted_on == [(True, threads)] and len(got[0]) == BLOCK_DOCS
        monkeypatch.setattr(online_hdp, "WORKERS", 1)
        assert TestWorkers.fit_until_error(held, snap.elog_beta, snap.elog_sticks, hyper) == got

    @pytest.mark.parametrize("alpha0", [0.2, 1.0, 3.0])
    def test_bounds_and_factors_match_the_reference(self, alpha0):
        docs, _ = drifting_stream(seed=16, pre_docs=60, gap_docs=0, post_docs=20)
        hyper = HdpHyper(K_corpus=12, T_doc=6, alpha0=alpha0)
        snap = trained_snapshot(hyper, docs[:60])
        held = docs[60:]
        for (dv, bound, _), doc in zip(
            infer_batch(held, snap.elog_beta, snap.elog_sticks, hyper), held, strict=True
        ):
            ref, ref_bound, _ = infer_core(
                doc.words, doc.counts, snap.elog_beta[:, doc.words], snap.elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL
            )
            assert bound == pytest.approx(ref_bound, rel=1e-10, abs=0)
            for name in ("stick_a", "stick_b", "varphi", "zeta"):
                np.testing.assert_allclose(getattr(dv, name), getattr(ref, name), rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("k, t", [(12, 1), (1, 6), (1, 1)])
    def test_single_topic_or_single_slot(self, k, t, monkeypatch):
        docs, _ = drifting_stream(seed=12, pre_docs=40, gap_docs=0, post_docs=20)
        hyper = HdpHyper(K_corpus=k, T_doc=t)
        snap = trained_snapshot(hyper, docs[:40])
        held = docs[40:]
        _, mixtures, ref_sweeps = reference_doc_loop(
            held, snap.elog_beta, snap.elog_sticks, snap.word_probs, hyper
        )
        sweeps = record_sweeps(monkeypatch)
        fits = list(infer_batch(held, snap.elog_beta, snap.elog_sticks, hyper))
        assert in_block_order(sweeps) == ref_sweeps
        for doc, (dv, bound, theta), want in zip(held, fits, mixtures, strict=True):
            assert dv.varphi.shape == (t, k) and dv.zeta.shape == (doc.words.size, t)
            assert dv.stick_a.shape == dv.stick_b.shape == (t - 1,)
            np.testing.assert_allclose(theta, want, rtol=1e-10, atol=0)

    def test_one_word_document_among_long_ones(self, monkeypatch):
        docs, _ = drifting_stream(seed=13, pre_docs=60, gap_docs=0, post_docs=20)
        hyper = HdpHyper(K_corpus=12, T_doc=6)
        snap = trained_snapshot(hyper, docs[:60])
        held = docs[60:70]
        held.insert(3, make_doc({7: 3}, "one-word", held[2].timestamp))
        assert min(d.words.size for d in held) == 1 and max(d.words.size for d in held) > 20
        _, mixtures, ref_sweeps = reference_doc_loop(
            held, snap.elog_beta, snap.elog_sticks, snap.word_probs, hyper
        )
        sweeps = record_sweeps(monkeypatch)
        fits = list(infer_batch(held, snap.elog_beta, snap.elog_sticks, hyper))
        assert in_block_order(sweeps) == ref_sweeps
        assert fits[3][0].zeta.shape == (1, 6)
        for (*_, theta), want in zip(fits, mixtures, strict=True):
            np.testing.assert_allclose(theta, want, rtol=1e-10, atol=0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_evidence_raises(self, bad):
        docs, _ = drifting_stream(seed=14, pre_docs=20, gap_docs=0, post_docs=0)
        hyper = HdpHyper(K_corpus=8, T_doc=4)
        snap = trained_snapshot(hyper, docs[:16])
        word = docs[18].words[0]
        elog = snap.elog_beta.copy()
        elog[2, word] = bad
        with pytest.raises(NumericalError) as err:
            list(infer_batch(docs[16:20], elog, snap.elog_sticks, hyper))
        assert err.value.sweep == 1
        words, n = docs[18].words, docs[18].counts
        with pytest.raises(NumericalError):  # the former loop raised too
            infer_core(words, n, elog[:, words], snap.elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL)

    def test_memory_is_bounded_by_the_block(self):
        """Fitting eight blocks of documents at K=100, T=20 on the class's two
        workers holds at most WORKERS + 1 = three blocks' arrays at a time:
        less than one fit of three blocks' documents.  Measured tracemalloc
        peaks (blocks of 64): 12.7 MB through ``infer_batch`` with one worker,
        25.2-25.4 MB with two; 12.5 MB for one block, 37.8 MB for three blocks'
        documents fitted at once and 100.8 MB for all eight's."""
        rng = np.random.default_rng(15)
        vocab = 2000
        docs = []
        for i in range(8 * BLOCK_DOCS):
            words = rng.choice(vocab, int(rng.integers(20, 120)), replace=False)
            docs.append(make_doc({int(w): int(rng.integers(1, 4)) for w in words}, f"d{i}"))
        hyper = HdpHyper(K_corpus=100, T_doc=20)
        snap = HdpSnapshot.of(init_global(hyper, vocab, corpus_scale=1000, seed=0))

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        def fit_at_once(docs):
            return lambda: online_hdp._fit_block(
                docs, snap.elog_beta, snap.elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL
            )

        blocked = peak(lambda: all(True for _ in infer_batch(docs, snap.elog_beta, snap.elog_sticks, hyper)))
        three_blocks = peak(fit_at_once(docs[: (online_hdp.WORKERS + 1) * BLOCK_DOCS]))
        assert blocked < three_blocks < peak(fit_at_once(docs))



# where exp's result of a shifted softmax score is 0 (below) or subnormal (from here up to SUBNORMAL_ABOVE)
ZERO_BELOW, SUBNORMAL_ABOVE = -745.13, -708.4


def shifted_score_census(shifted):
    """How many shifted scores exp takes to 0, to a subnormal, and to at least e^FLUSH_BELOW."""
    return np.array([
        np.count_nonzero(shifted < ZERO_BELOW),
        np.count_nonzero((ZERO_BELOW <= shifted) & (shifted < SUBNORMAL_ABOVE)),
        np.count_nonzero(shifted >= online_hdp.FLUSH_BELOW),
    ])


class TestFitBlock:
    @staticmethod
    def block_and_args(k, t, alpha0):
        """One block of BLOCK_DOCS + 1 documents with a one-word document, and the kernel's other arguments."""
        docs, _ = drifting_stream(seed=20, pre_docs=60, gap_docs=10, post_docs=BLOCK_DOCS)
        hyper = HdpHyper(K_corpus=k, T_doc=t, alpha0=alpha0)
        snap = trained_snapshot(hyper, docs[:70])
        block = docs[70:]
        block.insert(3, make_doc({7: 3}))
        return block, (snap.elog_beta, snap.elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL)

    @staticmethod
    def assert_same_bytes(got, want):
        assert len(got) == len(want)
        for (dv, bound, sweeps), (ref, ref_bound, ref_sweeps) in zip(got, want):
            assert (bound, sweeps) == (ref_bound, ref_sweeps)
            for name in ("stick_a", "stick_b", "varphi", "zeta"):
                x, y = getattr(dv, name), getattr(ref, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name

    @pytest.mark.parametrize("k, t, alpha0", [(12, 6, 1.0), (12, 6, 0.2), (12, 6, 3.0), (12, 1, 1.0), (1, 6, 1.0)])
    def test_matches_the_former_kernel_bit_for_bit(self, k, t, alpha0):
        """Factors, bounds and sweep counts of one block, with documents that stop
        on the tolerance, at the sweep cap and with one word, as the kernel gave them
        with three digamma and three gammaln calls per sweep."""
        block, args = self.block_and_args(k, t, alpha0)
        got = online_hdp._fit_block(block, *args)
        assert len(got) == BLOCK_DOCS + 1
        self.assert_same_bytes(got, reference_fit_block(block, *args))
        if t > 1 and k > 1:
            assert 1 < len({ran for *_, ran in got}) and max(ran for *_, ran in got) == MAX_SWEEPS

    def test_flushed_sweeps_keep_every_output_exact(self, monkeypatch):
        """Each sweep's varphi softmax raises the shifted scores below FLUSH_BELOW.  On a block whose
        shifted scores fall where exp gives 0, where it gives subnormals and in [FLUSH_BELOW, 0], the
        factors, bounds and sweep counts are still the exact kernel's, bit for bit, with a document
        stopped at the sweep cap; two workers yield the bytes of one."""
        block, args = self.block_and_args(12, 6, 1.0)
        sweep_softmax, census = online_hdp._softmax, []

        def counting(scores, axis, out, floor=None):
            if floor is not None:
                census.append(shifted_score_census(scores - scores.max(axis=axis, keepdims=True)))
            return sweep_softmax(scores, axis, out, floor)

        monkeypatch.setattr(online_hdp, "_softmax", counting)
        got = online_hdp._fit_block(block, *args)
        assert np.sum(census, axis=0).all()
        assert max(ran for *_, ran in got) == MAX_SWEEPS
        self.assert_same_bytes(got, reference_fit_block(block, *args))

        elog, elog_sticks, hyper = args[:3]
        monkeypatch.setattr(online_hdp, "WORKERS", 1)
        one = TestWorkers.fit_until_error(block, elog, elog_sticks, hyper)
        monkeypatch.setattr(online_hdp, "WORKERS", 2)
        assert len(one[0]) == len(block) > BLOCK_DOCS
        assert TestWorkers.fit_until_error(block, elog, elog_sticks, hyper) == one
        want = [(*(f.tobytes() for f in (dv.stick_a, dv.stick_b, dv.varphi, dv.zeta)), bound)
                for i in range(0, len(block), BLOCK_DOCS)
                for dv, bound, _ in reference_fit_block(block[i : i + BLOCK_DOCS], *args)]
        assert [fit[:5] for fit in one[0]] == want


class TestFlushedSoftmax:
    @pytest.mark.parametrize("axis", [1, 2])
    def test_log_normalizer_exact_and_only_low_weights_raised(self, axis):
        """Scores from -1e4 to 0, with some near -700.5 and -745.5 after the shift: the log normalizer
        is ``_softmax``'s bit for bit, the weights of shifted scores >= FLUSH_BELOW are ``_softmax``'s,
        and every other weight is e^FLUSH_BELOW over ``_softmax``'s total."""
        rng = np.random.default_rng(8)
        scores = rng.uniform(-1e4, 0.0, (5, 24, 30))
        lanes = np.moveaxis(scores, axis, -1)  # a view: the edits land in scores
        lanes[..., 0] = 0.0
        for i, (low, high) in enumerate([(-701.0, -700.0), (-746.0, -745.0), (-740.0, -710.0), (-650.0, -550.0)]):
            lanes[..., 1 + 4 * i : 5 + 4 * i] = rng.uniform(low, high, lanes.shape[:-1] + (4,))
        scores += rng.uniform(-40.0, 40.0, (5, 1, 1))
        shifted = scores - scores.max(axis=axis, keepdims=True)
        assert shifted_score_census(shifted).all() and (shifted < -1e3).any()

        exact, flushed = np.empty_like(scores), np.empty_like(scores)
        norm = online_hdp._softmax(scores, axis, exact)
        assert online_hdp._softmax(scores, axis, flushed, online_hdp.FLUSH_BELOW).tobytes() == norm.tobytes()
        kept = shifted >= online_hdp.FLUSH_BELOW
        assert (flushed[kept] == exact[kept]).all()
        total = np.exp(shifted).sum(axis=axis, keepdims=True)
        raised = np.broadcast_to(np.exp(online_hdp.FLUSH_BELOW) / total, scores.shape)
        assert (flushed[~kept] == raised[~kept]).all()
        tiny = np.finfo(float).tiny
        assert (flushed >= tiny).all() and ((0.0 < exact) & (exact < tiny)).any() and (exact == 0.0).any()


class TestWorkers:
    """Every worker count yields the same documents and raises the same error at the same block."""

    @staticmethod
    def fit_until_error(docs, elog, elog_sticks, hyper):
        """(yielded (factors, bound, weights), the error raised or None); threads joined."""
        threads = threading.active_count()
        got = []
        try:
            for dv, bound, theta in infer_batch(docs, elog, elog_sticks, hyper):
                factors = (dv.stick_a, dv.stick_b, dv.varphi, dv.zeta)
                got.append((*(f.tobytes() for f in factors), bound, theta.tobytes()))
            error = None
        except (NumericalError, ParameterError) as err:
            error = err
        assert threading.active_count() == threads
        return got, error

    def late_block_docs(self, counts):
        """Three blocks of documents; the second document of the third block gets ``counts`` added."""
        docs, _ = drifting_stream(seed=17, pre_docs=3 * BLOCK_DOCS + 32, gap_docs=0, post_docs=30)
        hyper = HdpHyper(K_corpus=10, T_doc=5)
        snap = trained_snapshot(hyper, docs[:60], vocab_size=61)
        held = docs[60 : 60 + 3 * BLOCK_DOCS]
        late = held[2 * BLOCK_DOCS + 1]
        held[2 * BLOCK_DOCS + 1] = make_doc({**dict(zip(late.words.tolist(), late.counts.tolist())), **counts},
                                            late.id, late.timestamp)
        assert all(60 not in d.words for d in docs[:60] + held[: 2 * BLOCK_DOCS])
        return held, snap, hyper

    @pytest.mark.parametrize("workers", [1, 2])
    def test_whole_stream_and_abandoned_stream(self, workers, monkeypatch):
        held, snap, hyper = self.late_block_docs({})
        monkeypatch.setattr(online_hdp, "WORKERS", 1)
        want, _ = self.fit_until_error(held, snap.elog_beta, snap.elog_sticks, hyper)
        monkeypatch.setattr(online_hdp, "WORKERS", workers)
        assert self.fit_until_error(held, snap.elog_beta, snap.elog_sticks, hyper) == (want, None)
        threads = threading.active_count()
        fits = infer_batch(held, snap.elog_beta, snap.elog_sticks, hyper)
        next(fits)
        assert (threading.active_count() > threads) == (workers > 1)
        del fits  # abandoned after one document: the queued blocks are dropped and the threads joined
        assert threading.active_count() == threads

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        """Ten blocks on eight threads, switching every microsecond: the same yields as one worker."""
        docs, _ = drifting_stream(seed=18, pre_docs=10 * BLOCK_DOCS + 40, gap_docs=0, post_docs=20)
        hyper = HdpHyper(K_corpus=10, T_doc=5)
        snap = trained_snapshot(hyper, docs[:60])
        held = docs[60 : 60 + 10 * BLOCK_DOCS]
        monkeypatch.setattr(online_hdp, "WORKERS", 1)
        want, _ = self.fit_until_error(held, snap.elog_beta, snap.elog_sticks, hyper)
        monkeypatch.setattr(online_hdp, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.fit_until_error(held, snap.elog_beta, snap.elog_sticks, hyper)
        finally:
            sys.setswitchinterval(interval)
        assert got == (want, None) and len(want) == 10 * BLOCK_DOCS

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_evidence_in_a_later_block(self, workers, monkeypatch):
        held, snap, hyper = self.late_block_docs({60: 2})
        elog = snap.elog_beta.copy()
        elog[:, 60] = np.nan  # only the third block reads word 60
        monkeypatch.setattr(online_hdp, "WORKERS", 1)
        want, _ = self.fit_until_error(held[: 2 * BLOCK_DOCS], elog, snap.elog_sticks, hyper)
        monkeypatch.setattr(online_hdp, "WORKERS", workers)
        got, error = self.fit_until_error(held, elog, snap.elog_sticks, hyper)
        assert got == want and len(got) == 2 * BLOCK_DOCS
        assert isinstance(error, NumericalError) and error.sweep == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_word_outside_the_vocabulary_in_a_later_block(self, workers, monkeypatch):
        held, snap, hyper = self.late_block_docs({61: 1})
        monkeypatch.setattr(online_hdp, "WORKERS", 1)
        want, _ = self.fit_until_error(held[: 2 * BLOCK_DOCS], snap.elog_beta, snap.elog_sticks, hyper)
        monkeypatch.setattr(online_hdp, "WORKERS", workers)
        got, error = self.fit_until_error(held, snap.elog_beta, snap.elog_sticks, hyper)
        assert got == want and len(got) == 2 * BLOCK_DOCS
        assert isinstance(error, ParameterError) and "61" in str(error)



class TestBlockLayout:
    """A document's fit depends on its block mates only in the last bits, so the block size is free to change."""

    @staticmethod
    def stream_fit(make_model, docs, block_docs):
        """(records, topic weights, sweep counts) per document of a score-then-learn run with ``block_docs``."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(online_hdp, "BLOCK_DOCS", block_docs)
            sweeps, weights, inner = record_sweeps(mp), [], online_hdp.infer_batch

            def recording(*args):
                for fit in inner(*args):
                    weights.append(fit[-1])
                    yield fit

            mp.setattr(online_hdp, "infer_batch", recording)
            records = prequential_run(make_model(), docs, batch_size=5 * BLOCK_DOCS // 2 + 3)
        return records, weights, in_block_order(sweeps)

    @pytest.mark.parametrize("model", ["ohdp", "cidtm"])
    def test_sixteen_document_blocks_match_the_shipped_size(self, model):
        """Identical sweep counts; scores within 1e-12 relative.  Topic weights
        within 1e-12 of the document's largest weight, and within 1e-10
        relative each: a weight of 5e-116 moved by 1.2e-12 relative, as its
        log, near -265, moved in the last bits."""
        docs, _ = drifting_stream(seed=19, pre_docs=4 * BLOCK_DOCS, gap_docs=30, post_docs=2 * BLOCK_DOCS)
        hyper = HdpHyper(K_corpus=12, T_doc=6)
        cfg = drifting_topics.CidtmConfig(hyper=hyper, drift_v=0.02, relevance_threshold=0.2)
        make_model = {
            "ohdp": lambda: OnlineHdp(hyper, 60, corpus_scale=len(docs), seed=3),
            "cidtm": lambda: drifting_topics.DriftingTopicModel(cfg, 60, len(docs), seed=3),
        }[model]
        assert BLOCK_DOCS != 16
        records, weights, sweeps = self.stream_fit(make_model, docs, 16)
        want_records, want_weights, want_sweeps = self.stream_fit(make_model, docs, BLOCK_DOCS)
        assert sweeps == want_sweeps and len(sweeps) == len(docs) and 1 < len(set(sweeps))
        assert [(i, t, c) for i, t, _, c in records] == [(i, t, c) for i, t, _, c in want_records]
        np.testing.assert_allclose([r[2] for r in records], [r[2] for r in want_records], rtol=1e-12, atol=0)
        for got, want in zip(weights, want_weights, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


class TestHeldout:
    def test_uniform_rows_give_log_inverse_vocab(self):
        hyper = HdpHyper(K_corpus=3, T_doc=2)
        g = make_global(np.full((3, 100), 2.0))
        doc = make_doc({5: 4, 80: 6})
        snap = HdpSnapshot.of(g)
        ((_, _, theta),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
        score = mixture_score(doc, theta, snap.word_probs)
        assert score == pytest.approx(10 * math.log(1 / 100), rel=1e-9)

    def test_perfect_single_topic_prediction_is_zero(self):
        hyper = HdpHyper(K_corpus=1, T_doc=2)
        g = make_global([[1e9, 1e-9, 1e-9]])
        doc = make_doc({0: 7})
        snap = HdpSnapshot.of(g)
        ((_, _, theta),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
        assert mixture_score(doc, theta, snap.word_probs) == pytest.approx(0.0, abs=1e-6)

    def test_matches_explicit_mixture_computation(self):
        hyper = HdpHyper(K_corpus=2, T_doc=3)
        g = make_global([[6.0, 3.0, 1.0], [1.0, 1.0, 8.0]])
        doc = make_doc({0: 2, 1: 1, 2: 3})
        snap = HdpSnapshot.of(g)
        ((_, _, theta),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
        score = mixture_score(doc, theta, snap.word_probs)

        ((dv, _, _),) = online_hdp._fit_block(
            [doc], snap.elog_beta, snap.elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL
        )
        theta = doc_topic_mixture(dv)
        probs = topic_word_probs(g)
        oracle = 0.0
        for w, c in zip(doc.words.tolist(), doc.counts.tolist()):
            mix = sum(theta[k] * probs[k, w] for k in range(2))
            oracle += c * math.log(mix)
        assert score == pytest.approx(oracle, rel=1e-12)


class TestStreaming:
    def test_prequential_scores_precede_learning(self):
        docs, _ = three_topic_corpus(n_docs=40, vocab_size=30, seed=5)
        hyper = HdpHyper(K_corpus=6, T_doc=4)
        a = OnlineHdp(hyper, 30, corpus_scale=40, seed=1)
        b = OnlineHdp(hyper, 30, corpus_scale=40, seed=1)
        batch = docs[:10]
        scored_learning = a.process_batch(batch)
        scored_frozen, _, _ = score_batch(b, batch)
        assert scored_learning.per_doc == scored_frozen
        # learning actually changed the state
        assert not np.allclose(a.g.lam, b.g.lam)

    def test_learning_beats_uniform_on_synthetic_mixture(self):
        docs, _ = three_topic_corpus(n_docs=300, vocab_size=50, seed=6)
        hyper = HdpHyper(K_corpus=10, T_doc=5)
        model = OnlineHdp(hyper, 50, corpus_scale=len(docs), seed=2)
        records = prequential_run(model, docs, batch_size=10)
        tail = records[-100:]
        pwll = sum(r[2] for r in tail) / sum(r[3] for r in tail)
        assert pwll > math.log(1 / 50) + 0.3

    def test_vocabulary_relabeling_equivariance(self):
        """Permuting word identities permutes topics' columns and leaves
        the likelihood trajectory unchanged (the model is exchangeable
        over words; topic indices are size-biased and are not)."""
        docs, _ = three_topic_corpus(n_docs=60, vocab_size=20, seed=7)
        perm = np.random.default_rng(8).permutation(20)
        permuted = [
            Document.from_counts(d.id, d.timestamp, dict(zip(perm[d.words].tolist(), d.counts.tolist())))
            for d in docs
        ]
        hyper = HdpHyper(K_corpus=5, T_doc=4)
        a = OnlineHdp(hyper, 20, corpus_scale=60, seed=3)
        b = OnlineHdp(hyper, 20, corpus_scale=60, seed=3)
        # align B's initial columns: word perm[w] in B plays the role of w in A
        b.g.lam = a.g.lam[:, np.argsort(perm)].copy()
        ra = prequential_run(a, docs, batch_size=10)
        rb = prequential_run(b, permuted, batch_size=10)
        for (ida, _, lla, wca), (idb, _, llb, wcb) in zip(ra, rb):
            assert ida == idb and wca == wcb
            assert lla == pytest.approx(llb, abs=1e-6)
        np.testing.assert_allclose(a.g.lam, b.g.lam[:, perm], atol=1e-8)

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        docs, _ = three_topic_corpus(n_docs=30, vocab_size=25, seed=9)
        model = OnlineHdp(HdpHyper(K_corpus=4, T_doc=3), 25, corpus_scale=30, seed=4)
        prequential_run(model, docs, batch_size=10)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.g.lam, model.g.lam)
        np.testing.assert_array_equal(loaded.g.stick_u, model.g.stick_u)
        np.testing.assert_array_equal(loaded.g.stick_v, model.g.stick_v)
        assert loaded.g.update_count == model.g.update_count
        assert loaded.hyper == model.hyper
        assert (loaded.vocab_size, loaded.corpus_scale) == (model.vocab_size, model.corpus_scale)

        # a checkpointed model continues identically
        more, _ = three_topic_corpus(n_docs=10, vocab_size=25, seed=10)
        assert loaded.process_batch(more) == model.process_batch(more)
        np.testing.assert_array_equal(loaded.g.lam, model.g.lam)
