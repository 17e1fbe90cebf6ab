"""Independent oracles used by the tests.

Everything here is implemented from first principles, separately from
the package code it checks: a textbook predict/update Kalman filter and
RTS smoother, the closed-form conjugate Normal-Gamma posterior and
evidence, and exact CRP partition probabilities by enumeration.  Some
exceptions keep a former code path as the reference for what replaced it:
``forward_steps`` and ``backward_steps``, the dense filter and smoother
over every (step, track) cell that ``kalman.pair_filter`` and
``kalman.pair_smoother`` replaced, which the references below run;
``dense_kalman_stage``, the drifting model's dense Kalman stage;
``inline_layout_kalman_stage`` and ``inline_layout_train_cdtm``, the two
drifting models as they were before ``kalman.pair_layout`` built their
(timestamp, word) pairs, each with its own inline builder
(``inline_stage_layout`` and ``inline_cdtm_layout``), the latter with
``wide_smooth_topics``, which filtered in a (K, V) state;
``reference_doc_loop``, the per-document loop every caller of
``online_hdp.infer_batch`` used to write out, with ``infer_core``, the
one-document coordinate ascent that ``online_hdp._fit_block`` replaced;
``reference_fit_block``, the block kernel before each sweep's stick
digammas and log-gammas became one call each;
``mixture_e_step``, ``reference_train_cdtm`` and ``reference_cdtm_heldout``,
the one-document mixture fit and the per-document loops of the fixed-K
baseline that ``fixed_k_dtm._mixture_e_step`` replaced, with
``reference_smooth_topics``, its per-topic dense filter and smoother loop,
and ``DenseCdtmModel``, the dense (K, S, V) state with linear
interpolation between knots that the pair state of ``fixed_k_dtm``
replaced.
``reference_tokenize``, ``reference_build_vocabulary``,
``reference_to_documents``, ``reference_mean_unique_terms`` and
``reference_ingest`` keep the ingest that tokenized every record three
times, once in each of those passes, which ``corpus.tokenize_corpus``
replaced with one pass; ``reference_write_canonical`` and
``reference_read_canonical`` keep the per-record canonical writer and
reader that ``corpus.write_canonical`` and ``corpus.read_canonical``
replaced with chunked ones.
``reference_elog_beta``, ``reference_online_update``,
``reference_log_ratio``, ``reference_adjusted_matrices`` and
``reference_drifting_expectations`` keep the online models' per-batch
(K, V) expressions as they were before they were built in place, the
last two with scipy's ``logsumexp``; ``reference_doc_topic_weights``
keeps the timeline fit that held the whole loaded model, and
``reference_moving_average`` the per-index loop of
``evaluation.moving_average``.
``reference_kalman_lower_bound`` keeps the pseudo-observation bound over
a word -> track dict and a word -> posterior dict, with a loop over every
(word, step), that ``kalman.kalman_lower_bound`` replaced with one
vectorized sum over a stack of tracks.
``payload_array`` and ``set_payload_array`` read and edit the arrays of
a parsed checkpoint with ``base64`` and numpy alone.
``documents_equal`` compares documents field by field: ``==`` on a
``Document`` compares its word and count arrays elementwise, which raises
for most documents.
"""

import base64
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.special import digamma, gammaln, logsumexp

from topicdrift.corpus import (
    Document,
    Vocabulary,
    parse_bbc,
    parse_reuters,
    parse_timestamp,
)
from topicdrift.drifting_topics import PRIOR_VARIANCE, SECONDS_PER_DAY, _log_ratio, evolve_topics
from topicdrift.errors import ConfigurationError, CorpusParseError, NumericalError, ParameterError
from topicdrift.fixed_k_dtm import SMOOTHING, CdtmModel, _fit_blocks, _log_normalize
from topicdrift.kalman import DriftConfig, pair_filter, pair_smoother
from topicdrift.online_hdp import (
    DocVariational,
    GlobalVariational,
    _log_sticks,
    _softmax,
    expect_log_sticks,
    infer_batch,
    learning_rate,
    mixture_score,
    topic_word_probs,
)
from topicdrift.stopwords import STOPWORDS


def dense_kalman_filter(timestamps, observations, obs_var, present, v, m0, v0):
    """Textbook scalar Kalman filter in predict/update form."""
    means, variances = [], []
    m, p = m0, v0
    for t in range(len(timestamps)):
        if t > 0:
            p = p + v * (timestamps[t] - timestamps[t - 1])
        if present[t]:
            r = obs_var[t] if np.ndim(obs_var) else obs_var
            k_gain = p / (p + r)
            m = m + k_gain * (observations[t] - m)
            p = (1.0 - k_gain) * p
        means.append(m)
        variances.append(p)
    return np.array(means), np.array(variances)


def rts_smoother(timestamps, fwd_means, fwd_vars, v):
    """Textbook Rauch-Tung-Striebel smoother for the same scalar model."""
    n = len(timestamps)
    sm = np.array(fwd_means, dtype=float)
    sv = np.array(fwd_vars, dtype=float)
    for t in range(n - 2, -1, -1):
        q = v * (timestamps[t + 1] - timestamps[t])
        p_pred = fwd_vars[t] + q
        c = fwd_vars[t] / p_pred
        sm[t] = fwd_means[t] + c * (sm[t + 1] - fwd_means[t])
        sv[t] = fwd_vars[t] + c * c * (sv[t + 1] - p_pred)
    return sm, sv


def forward_steps(timestamps, beta_hat, obs_variance, present, cfg, prior_mean=None, prior_var=None):
    """Dense filter: arrays shaped (steps, ...) over any number of tracks.

    Returns the filtered (means, variances).  Scalar use is the (steps,)
    special case.
    """
    shape = beta_hat.shape[1:]
    m_prev = np.array(np.broadcast_to(cfg.prior_mean if prior_mean is None else prior_mean, shape), dtype=float)
    v_prev = np.array(np.broadcast_to(cfg.prior_variance if prior_var is None else prior_var, shape), dtype=float)

    means = np.empty_like(beta_hat, dtype=float)
    variances = np.empty_like(beta_hat, dtype=float)
    for t in range(beta_hat.shape[0]):
        delta = timestamps[t] - timestamps[t - 1] if t > 0 else 0.0
        p = v_prev + cfg.process_variance * delta
        obs = present[t]
        gain = p / (p + obs_variance[t])
        beta = np.where(obs, beta_hat[t], 0.0)  # absent values never used
        means[t] = np.where(obs, m_prev + gain * (beta - m_prev), m_prev)
        variances[t] = np.where(obs, (1.0 - gain) * p, p)
        m_prev, v_prev = means[t], variances[t]
    return means, variances


def backward_steps(timestamps, fwd_means, fwd_vars, cfg):
    """Dense fixed-interval smoother matching ``forward_steps``; returns the smoothed (means, variances)."""
    sm = np.empty_like(fwd_means, dtype=float)
    sv = np.empty_like(fwd_vars, dtype=float)
    sm[-1], sv[-1] = fwd_means[-1], fwd_vars[-1]
    for t in range(fwd_means.shape[0] - 1, 0, -1):
        delta = timestamps[t] - timestamps[t - 1]
        denom = fwd_vars[t - 1] + cfg.process_variance * delta
        w = (cfg.process_variance * delta) / denom
        sm[t - 1] = w * fwd_means[t - 1] + (1.0 - w) * sm[t]
        ratio = fwd_vars[t - 1] / denom
        sv[t - 1] = fwd_vars[t - 1] + ratio * ratio * (sv[t] - denom)
    return sm, sv


def reference_kalman_lower_bound(tracks, posteriors, counts, cfg):
    """The bound over word -> ``ObservationTrack`` / ``KalmanPosterior`` dicts; ``counts`` is steps x words.

    The columns of ``counts`` follow ``sorted(tracks)``.
    """
    words = sorted(tracks)
    c = np.asarray(counts, dtype=float)
    sm = np.column_stack([posteriors[w].smoothed_mean for w in words])
    sv = np.column_stack([posteriors[w].smoothed_var for w in words])
    log_norm = np.log(np.exp(sm + 0.5 * sv).sum(axis=1))
    bound = float((c * sm).sum() - (c.sum(axis=1) * log_norm).sum())
    for w in words:
        track, post = tracks[w], posteriors[w]
        ts = track.timestamps
        for t in range(c.shape[0]):
            if not track.present[t]:
                continue
            v_hat = track.obs_variance[t]
            beta = track.beta_hat[t]
            bound -= -0.5 * math.log(2.0 * math.pi * v_hat) - (
                (beta - post.smoothed_mean[t]) ** 2 + post.smoothed_var[t]
            ) / (2.0 * v_hat)
            if t == 0:
                pred_mean, pred_var = cfg.prior_mean, cfg.prior_variance
            else:
                pred_mean = post.forward_mean[t - 1]
                pred_var = post.forward_var[t - 1] + cfg.process_variance * (ts[t] - ts[t - 1])
            s = pred_var + v_hat
            bound += -0.5 * math.log(2.0 * math.pi * s) - (beta - pred_mean) ** 2 / (2.0 * s)
    return bound


def dense_kalman_stage(model, batch, stats):
    """The drifting model's former Kalman stage, a drop-in for ``_kalman_stage``.

    Runs the dense filter and smoother over every (born topic, batch word)
    pair at every distinct timestamp and keeps only the last smoothed row.
    """
    cfg_obs = model.config.obs_var
    hyper = model.config.hyper
    born = np.flatnonzero(model.born).tolist()
    if not born:
        return
    scale = model.corpus_scale / len(batch)
    fresh = hyper.eta + scale * stats.lam
    fresh_logp = np.log(fresh / fresh.sum(axis=1, keepdims=True))
    baseline_logp = np.log(topic_word_probs(model.g))

    words = sorted({w for doc in batch for w in doc.words.tolist()})
    unique_ts, inverse = np.unique([doc.timestamp for doc in batch], return_inverse=True)
    n_steps = unique_ts.size
    word_col = {w: j for j, w in enumerate(words)}
    present_words = np.zeros((n_steps, len(words)), dtype=bool)
    for i, doc in enumerate(batch):
        step = inverse[i]
        for w in doc.words.tolist():
            present_words[step, word_col[w]] = True

    # one track per (born topic, batch word), vectorized across tracks
    n_words = len(words)
    n_tracks = len(born) * n_words
    resid = np.empty(n_tracks)
    prior_mean = np.empty(n_tracks)
    prior_var = np.empty(n_tracks)
    for i, k in enumerate(born):
        sl = slice(i * n_words, (i + 1) * n_words)
        resid[sl] = fresh_logp[k, words] - baseline_logp[k, words]
        prior_mean[sl] = model.mean[k, words]
        prior_var[sl] = model.var[k, words]

    beta = np.broadcast_to(resid, (n_steps, n_tracks))
    present = np.tile(present_words, (1, len(born)))
    obs_var = np.full((n_steps, 1), cfg_obs)
    drift = DriftConfig(model.drift_per_second, prior_variance=PRIOR_VARIANCE)
    f_mean, f_var = forward_steps(
        unique_ts, beta, obs_var, present, drift, prior_mean=prior_mean, prior_var=prior_var
    )
    s_mean, s_var = backward_steps(unique_ts, f_mean, f_var, drift)

    batch_end = unique_ts[-1]
    span = batch_end - unique_ts[0]
    for i, k in enumerate(born):
        sl = slice(i * n_words, (i + 1) * n_words)
        if span > 0 and model.drift_per_second > 0:
            outside = model.tracked[k].copy()
            outside[words] = False
            model.var[k, outside] += model.drift_per_second * span
        model.mean[k, words] = s_mean[-1, sl]
        model.var[k, words] = s_var[-1, sl]
        model.tracked[k, words] = True
    model.clock = batch_end


def inline_stage_layout(batch):
    """The (timestamp, word) layout that ``_kalman_stage`` built inline: (timestamps, starts, words, columns)."""
    words, cols = np.unique(np.concatenate([doc.words for doc in batch]), return_inverse=True)
    unique_ts, inverse = np.unique([doc.timestamp for doc in batch], return_inverse=True)
    steps = np.repeat(inverse, [doc.words.size for doc in batch])
    steps, cols = np.divmod(np.unique(steps * words.size + cols), words.size)
    starts = np.searchsorted(steps, np.arange(unique_ts.size + 1))
    return unique_ts, starts, words, cols


def inline_layout_kalman_stage(model, batch, stats):
    """``drifting_topics._kalman_stage`` with its former inline layout builder, a drop-in for it."""
    born = np.flatnonzero(model.born)
    if not born.size:
        return
    unique_ts, starts, words, cols = inline_stage_layout(batch)
    beta = _log_ratio(model, stats, born, words, len(batch))[:, cols]
    rows = np.ix_(born, words)
    mean, var = model.mean[rows], model.var[rows]
    pair_filter(unique_ts, starts, cols, beta, np.full(beta.shape, model.config.obs_var), model.drift_per_second,
                mean, var)
    evolve_topics(model, unique_ts[-1])
    model.mean[rows] = mean
    model.var[rows] = var
    model.tracked[rows] = True


def _softmax_rows(scores):
    scores = scores - scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def _plogp(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)


def _beta_entropy(a, b):
    return (
        gammaln(a) + gammaln(b) - gammaln(a + b)
        - (a - 1.0) * digamma(a) - (b - 1.0) * digamma(b)
        + (a + b - 2.0) * digamma(a + b)
    )


def doc_elbo(n, elog_beta_doc, elog_sticks, elog_sticks_doc, varphi, zeta, a, b, alpha0):
    """The former per-document bound, term by term."""
    slot_scores = varphi @ elog_beta_doc          # (T, M)
    bound = float(((zeta * n[:, None]) * slot_scores.T).sum())
    bound += float((varphi * elog_sticks[None, :]).sum())
    bound += float(((zeta * n[:, None]) * elog_sticks_doc[None, :]).sum())
    if a.size:
        bound += float(a.size * math.log(alpha0))
        bound += float(((alpha0 - 1.0) * (digamma(b) - digamma(a + b))).sum())
        bound += float(_beta_entropy(a, b).sum())
    bound -= float(_plogp(varphi).sum())
    bound -= float((n[:, None] * _plogp(zeta)).sum())
    return bound


def infer_core(words, n, elog_beta_doc, elog_sticks, hyper, max_sweeps, tol):
    """The former one-document coordinate ascent against fixed corpus expectations.

    ``elog_beta_doc`` is (K, M) over the document's distinct words.
    Returns the document factors, the final bound and the sweeps run.
    """
    t_doc = hyper.T_doc
    m = len(words)
    zeta = np.full((m, t_doc), 1.0 / t_doc)
    a = np.ones(max(t_doc - 1, 0))
    b = np.full(max(t_doc - 1, 0), hyper.alpha0)
    elog_sticks_doc = expect_log_sticks(a, b)

    elbo = None
    for sweep in range(1, max_sweeps + 1):
        varphi = _softmax_rows(
            elog_sticks[None, :] + (zeta * n[:, None]).T @ elog_beta_doc.T
        )
        zeta = _softmax_rows(
            elog_sticks_doc[None, :] + (varphi @ elog_beta_doc).T
        )
        slot_mass = (zeta * n[:, None]).sum(axis=0)
        if t_doc > 1:
            a = 1.0 + slot_mass[: t_doc - 1]
            b = hyper.alpha0 + np.flip(np.cumsum(np.flip(slot_mass[1:])))
            elog_sticks_doc = expect_log_sticks(a, b)

        new_elbo = doc_elbo(
            n, elog_beta_doc, elog_sticks, elog_sticks_doc, varphi, zeta, a, b, hyper.alpha0
        )
        if not math.isfinite(new_elbo):
            raise NumericalError("document bound became non-finite", sweep=sweep)
        if elbo is not None and abs(new_elbo - elbo) <= tol * max(1.0, abs(elbo)):
            elbo = new_elbo
            break
        elbo = new_elbo

    return DocVariational(a, b, varphi, zeta), elbo, sweep


def reference_fit_block(docs, elog_beta, elog_sticks, hyper, max_sweeps, tol):
    """The former ``online_hdp._fit_block``: three ``digamma`` and three ``gammaln`` calls per sweep.

    Same arguments and result: (factors, bound, sweeps) per document.
    """
    t_doc, alpha0 = hyper.T_doc, hyper.alpha0
    sizes = np.array([doc.words.size for doc in docs])
    n = np.zeros((sizes.size, sizes.max()))
    eb = np.zeros((sizes.size, sizes.max(), elog_beta.shape[0]))
    for i, doc in enumerate(docs):
        n[i, : sizes[i]] = doc.counts
        eb[i, : sizes[i]] = elog_beta[:, doc.words].T
    zeta = np.full((sizes.size, t_doc, sizes.max()), 1.0 / t_doc)
    weighted = zeta * n[:, None, :]
    varphi_scores = np.empty((sizes.size, t_doc, elog_beta.shape[0]))
    varphi = np.empty_like(varphi_scores)
    a = np.ones((sizes.size, t_doc - 1))
    b = np.full((sizes.size, t_doc - 1), alpha0)
    elog_sticks_doc = expect_log_sticks(a, b)
    stick_prior = (t_doc - 1) * math.log(alpha0)

    running = np.arange(sizes.size)
    bound = np.full(sizes.size, np.nan)
    out = [None] * sizes.size
    for sweep in range(1, max_sweeps + 1):
        np.matmul(weighted, eb, out=varphi_scores)
        varphi_scores += elog_sticks
        varphi_norm = _softmax(varphi_scores, 2, varphi)
        np.matmul(varphi, eb.transpose(0, 2, 1), out=zeta)
        zeta += elog_sticks_doc[:, :, None]
        zeta_norm = _softmax(zeta, 1, zeta)
        slot_mass = np.multiply(zeta, n[:, None, :], out=weighted).sum(axis=2)
        a = 1.0 + slot_mass[:, :-1]
        b = alpha0 + np.flip(np.cumsum(np.flip(slot_mass[:, 1:], 1), axis=1), 1)
        dg_a, dg_b, dg_ab = digamma(a), digamma(b), digamma(a + b)
        new_sticks_doc = _log_sticks(dg_a - dg_ab, dg_b - dg_ab)
        entropy = (
            gammaln(a) + gammaln(b) - gammaln(a + b)
            - (a - 1.0) * dg_a - (b - 1.0) * dg_b + (a + b - 2.0) * dg_ab
        )

        prev = bound
        bound = (
            (n * zeta_norm[:, 0, :]).sum(axis=1)
            + (slot_mass * (new_sticks_doc - elog_sticks_doc)).sum(axis=1)
            + (varphi @ elog_sticks).sum(axis=1)
            - np.einsum("btk,btk->b", varphi, varphi_scores) + varphi_norm.sum(axis=(1, 2))
            + stick_prior
            + ((alpha0 - 1.0) * (dg_b - dg_ab) + entropy).sum(axis=1)
        )
        elog_sticks_doc = new_sticks_doc
        if not np.isfinite(bound).all():
            raise NumericalError("document bound became non-finite", sweep=sweep)

        done = np.abs(bound - prev) <= tol * np.maximum(1.0, np.abs(prev))
        if sweep == max_sweeps:
            done[:] = True
        if not done.any():
            continue
        for j in np.flatnonzero(done):
            i = running[j]
            dv = DocVariational(a[j].copy(), b[j].copy(), varphi[j].copy(), zeta[j, :, : sizes[i]].T.copy())
            out[i] = (dv, float(bound[j]), sweep)
        rows = np.flatnonzero(~done)
        if not rows.size:
            break
        for dst, src in enumerate(rows):
            n[dst], eb[dst], zeta[dst], weighted[dst] = n[src], eb[src], zeta[src], weighted[src]
        running = running[rows]
        k, width = rows.size, sizes[running].max()
        n, eb, zeta, weighted = n[:k, :width], eb[:k, :width], zeta[:k, :, :width], weighted[:k, :, :width]
        varphi_scores, varphi = varphi_scores[:k], varphi[:k]
        elog_sticks_doc, bound = elog_sticks_doc[rows], bound[rows]
    return out


def reference_doc_loop(docs, elog_beta, elog_sticks, word_probs, hyper):
    """The former per-document loop: words, coordinate ascent, mixture, score.

    Returns one (id, timestamp, total loglik, word count) record, one
    topic-weight vector and the sweep count per document, as the online
    models produced them.
    """
    records, mixtures, sweeps = [], [], []
    for doc in docs:
        words, n = doc.words, doc.counts
        dv, _, ran = infer_core(words, n, elog_beta[:, words], elog_sticks, hyper, 50, 1e-6)
        t = dv.varphi.shape[0]
        if t == 1:
            slot_weights = np.ones(1)
        else:
            frac = dv.stick_a / (dv.stick_a + dv.stick_b)
            remaining = np.concatenate([[1.0], np.cumprod(1.0 - frac)])
            slot_weights = np.empty(t)
            slot_weights[: t - 1] = frac * remaining[: t - 1]
            slot_weights[t - 1] = remaining[t - 1]
        theta = slot_weights @ dv.varphi
        score = mixture_score(doc, theta, word_probs)
        records.append((doc.id, doc.timestamp, score, int(n.sum())))
        mixtures.append(theta)
        sweeps.append(ran)
    return records, mixtures, sweeps


def reference_elog_beta(g):
    """The former ``online_hdp.elog_beta``: one expression, two (K, V) temporaries."""
    return digamma(g.lam) - digamma(g.lam.sum(axis=1))[:, None]


def reference_online_update(g, stats, hyper, corpus_scale):
    """The former ``online_hdp.online_update``, its new lambda one expression."""
    rho = learning_rate(hyper, g.update_count)
    scale = corpus_scale / stats.batch_doc_count
    lam = (1.0 - rho) * g.lam + rho * (hyper.eta + scale * stats.lam)
    k = g.num_topics
    if k > 1:
        tail = np.flip(np.cumsum(np.flip(stats.usage[1:])))
        u = (1.0 - rho) * g.stick_u + rho * (1.0 + scale * stats.usage[: k - 1])
        v = (1.0 - rho) * g.stick_v + rho * (hyper.gamma + scale * tail)
    else:
        u, v = g.stick_u.copy(), g.stick_v.copy()
    return GlobalVariational(lam, u, v, g.update_count + 1)


def reference_log_ratio(model, stats, born, words, n_docs):
    """The former ``drifting_topics._log_ratio``, with (born, V) copies of the batch's and the HDP's lambda."""
    fresh = model.hyper.eta + model.corpus_scale / n_docs * stats.lam[born]
    lam = model.g.lam[born]
    return (np.log(fresh[:, words] / fresh.sum(axis=1, keepdims=True))
            - np.log(lam[:, words] / lam.sum(axis=1, keepdims=True)))


def reference_adjusted_matrices(elog_beta, word_probs, mean):
    """The former ``DriftingTopicModel.adjusted_matrices``: new arrays, normalized by ``logsumexp``."""
    log_probs = np.log(word_probs) + mean
    log_z = logsumexp(log_probs, axis=1, keepdims=True)
    probs = np.exp(log_probs - log_z)
    elog = elog_beta + mean - log_z
    return elog, probs


def reference_drifting_expectations(model):
    """The former ``DriftingTopicModel.expectations()``: (elog_beta, elog_sticks, word_probs)."""
    g = model.g
    elog, probs = reference_adjusted_matrices(reference_elog_beta(g), topic_word_probs(g), model.mean)
    return elog, expect_log_sticks(g.stick_u, g.stick_v), probs


def reference_moving_average(values, window):
    """The former ``evaluation.moving_average``: one window's mean per index, in a Python loop."""
    values = np.asarray(values, dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    out = np.empty(values.size)
    for i in range(values.size):
        lo = max(0, i + 1 - window)
        out[i] = (prefix[i + 1] - prefix[lo]) / (i + 1 - lo)
    return out.tolist()


def reference_doc_topic_weights(model, docs):
    """The former timeline fit: the loaded model, with its whole state, stays alive while documents are fitted."""
    elog, elog_sticks, _ = model.expectations()
    return [theta for *_, theta in infer_batch(docs, elog, elog_sticks, model.hyper)]


def mixture_e_step(words, n, logp_doc, alpha, max_iter=50, tol=1e-4):
    """The former one-document mixture fit against fixed (K, M) topic log-probs.

    Returns (gamma, phi, bound, iterations run).
    """
    k = logp_doc.shape[0]
    gamma = np.full(k, alpha + n.sum() / k)
    phi = None
    for it in range(1, max_iter + 1):
        elog_theta = digamma(gamma) - digamma(gamma.sum())
        scores = elog_theta[None, :] + logp_doc.T
        scores -= scores.max(axis=1, keepdims=True)
        phi = np.exp(scores)
        phi /= phi.sum(axis=1, keepdims=True)
        new_gamma = alpha + (phi * n[:, None]).sum(axis=0)
        if np.abs(new_gamma - gamma).mean() < tol:
            gamma = new_gamma
            break
        gamma = new_gamma

    elog_theta = digamma(gamma) - digamma(gamma.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(phi > 0, phi * np.log(np.where(phi > 0, phi, 1.0)), 0.0)
    bound = float(((phi * logp_doc.T) * n[:, None]).sum())
    bound += float(((phi * elog_theta[None, :]) * n[:, None]).sum())
    bound += gammaln(k * alpha) - k * gammaln(alpha) + float(((alpha - 1.0) * elog_theta).sum())
    bound -= gammaln(gamma.sum()) - float(gammaln(gamma).sum()) + float(((gamma - 1.0) * elog_theta).sum())
    bound -= float((plogp * n[:, None]).sum())
    return gamma, phi, bound, it


@dataclass
class DenseCdtmModel:
    """The former ``CdtmModel``: (K, S, V) smoothed means at every knot."""

    K: int
    alpha_dirichlet: float
    vocab_size: int
    knots: np.ndarray = None
    means: np.ndarray = None
    objective_trace: list = field(default_factory=list)

    def means_at(self, ts):
        """Linear (Brownian-bridge) interpolation of the (K, S, V) tracks at ts, clamped to the knots."""
        knots, means = self.knots, self.means
        if ts <= knots[0]:
            return means[:, 0, :]
        if ts >= knots[-1]:
            return means[:, -1, :]
        hi = int(np.searchsorted(knots, ts, side="right"))
        lo = hi - 1
        w = (ts - knots[lo]) / (knots[hi] - knots[lo])
        return (1.0 - w) * means[:, lo, :] + w * means[:, hi, :]

    def log_word_probs_at(self, ts):
        eta = self.means_at(ts)
        eta = eta - eta.max(axis=1, keepdims=True)
        return eta - np.log(np.exp(eta).sum(axis=1, keepdims=True))


def reference_train_cdtm(train_docs, k, drift, sweeps, rng, alpha=1.0, obs_var=0.1, smoothing=0.01,
                         vocab_size=None):
    """The former ``train_cdtm``: one mixture fit per document, every knot's log-probs cached, dense state."""
    ts = [d.timestamp for d in train_docs]
    if vocab_size is None:
        vocab_size = 1 + max(int(d.words[-1]) for d in train_docs)
    knots, doc_knot = np.unique(ts, return_inverse=True)
    s = knots.size
    base = np.log(1.0 / vocab_size)
    cfg = DriftConfig(drift.process_variance, prior_mean=base, prior_variance=drift.prior_variance)

    present = np.zeros((s, vocab_size), dtype=bool)
    for i, doc in enumerate(train_docs):
        present[doc_knot[i], doc.words] = True

    model = DenseCdtmModel(K=k, alpha_dirichlet=alpha, vocab_size=vocab_size)
    model.knots = knots
    model.means = base + rng.normal(0.0, 0.1, (k, 1, vocab_size)) * np.ones((1, s, 1))

    for _ in range(sweeps):
        objective = 0.0
        expected = np.zeros((k, s, vocab_size))
        logp_cache = {}
        for i, doc in enumerate(train_docs):
            knot = doc_knot[i]
            if knot not in logp_cache:
                logp_cache[knot] = model.log_word_probs_at(knots[knot])
            words, n = doc.words, doc.counts
            _, phi, bound, _ = mixture_e_step(words, n, logp_cache[knot][:, words], alpha)
            objective += bound
            expected[:, knot, words] += (phi * n[:, None]).T
        model.objective_trace.append(objective)

        reference_smooth_topics(model, expected, present, cfg, obs_var, smoothing)
    return model


def reference_smooth_topics(model, expected, present, cfg, obs_var, smoothing):
    """The former per-topic re-estimation: one filter and smoother call per topic."""
    for topic in range(model.K):
        counts = smoothing + expected[topic]
        beta = np.log(counts / counts.sum(axis=1, keepdims=True))
        obs = obs_var / counts
        f_mean, f_var = forward_steps(model.knots, beta, obs, present, cfg)
        model.means[topic] = backward_steps(model.knots, f_mean, f_var, cfg)[0]


def inline_cdtm_layout(docs, vocab_size):
    """The layout ``train_cdtm`` built inline: (knots, pairs as knot * V + word, each document's pair columns)."""
    knots, doc_knot = np.unique([d.timestamp for d in docs], return_inverse=True)
    flat = np.concatenate([q * vocab_size + doc.words for doc, q in zip(docs, doc_knot.tolist())])
    pairs, columns = np.unique(flat, return_inverse=True)
    return knots, pairs, np.split(columns, np.cumsum([doc.words.size for doc in docs])[:-1])


def wide_smooth_topics(knots, pairs, vocab_size, expected, config):
    """The former ``fixed_k_dtm._smooth_topics``: its filter and smoother ran in a (K, V) state."""
    v = vocab_size
    starts = np.searchsorted(pairs, np.arange(knots.size + 1) * v)
    sizes = np.diff(starts)
    counts = np.add(expected, SMOOTHING, out=expected)
    rows = np.add.reduceat(counts, starts[:-1], axis=1) + (v - sizes) * SMOOTHING
    beta = np.repeat(rows, sizes, axis=1)
    np.log(np.divide(counts, beta, out=beta), out=beta)
    obs = np.divide(config.obs_var, counts, out=expected)
    words = pairs % v
    rate = config.drift_v / SECONDS_PER_DAY
    shape = (counts.shape[0], v)
    pair_filter(knots, starts, words, beta, obs, rate, np.full(shape, np.log(1.0 / v)), np.full(shape, PRIOR_VARIANCE))
    return pair_smoother(knots, starts, words, beta, obs, rate)[0]


def inline_layout_train_cdtm(train_docs, config, rng, vocab_size):
    """``fixed_k_dtm.train_cdtm`` with its former inline layout builder and ``wide_smooth_topics``."""
    knots, pairs, columns = inline_cdtm_layout(train_docs, vocab_size)
    first = _log_normalize(rng.normal(0.0, 0.1, (config.K, vocab_size)) + np.log(1.0 / vocab_size))
    logp_at, objective_trace = lambda _: first, []
    for _ in range(config.sweeps):
        objective = 0.0
        expected = np.zeros((config.K, pairs.size))
        fitted = _fit_blocks(train_docs, logp_at, config.K, config.alpha, bounds=True)
        for doc, cols, (_, (_, phi, bound)) in zip(train_docs, columns, fitted):
            objective += bound
            expected[:, cols] += (phi * doc.counts[:, None]).T
        objective_trace.append(objective)
        means = wide_smooth_topics(knots, pairs, vocab_size, expected, config)
        model = CdtmModel(config=config, vocab_size=vocab_size, knots=knots, pairs=pairs, means=means,
                          objective_trace=objective_trace)
        logp_at = model.log_word_probs_at
    return model


def reference_cdtm_heldout(model, docs):
    """The former ``cdtm_heldout_loglik``: log-probs and one mixture fit per document."""
    records = []
    for doc in docs:
        logp = model.log_word_probs_at(doc.timestamp)
        words, n = doc.words, doc.counts
        gamma, _, _, _ = mixture_e_step(words, n, logp[:, words], model.alpha_dirichlet)
        theta = gamma / gamma.sum()
        per_word = theta @ np.exp(logp[:, words])
        records.append((doc.id, doc.timestamp, float(np.dot(n, np.log(per_word))), int(n.sum())))
    return records


def reference_tokenize(body, min_token_length=2):
    """Counts of the lowercased ``[a-z0-9]+`` tokens, filtered token by token before counting."""
    tokens = re.findall(r"[a-z0-9]+", body.lower())
    return dict(Counter(t for t in tokens if len(t) >= min_token_length and t not in STOPWORDS))


def reference_build_vocabulary(records, min_token_length, min_doc_freq):
    if not records:
        raise ParameterError("docs must be nonempty")
    df = Counter()
    for record in records:
        df.update(reference_tokenize(record.body, min_token_length).keys())
    kept = sorted(t for t, f in df.items() if f >= min_doc_freq)
    if not kept:
        raise ConfigurationError(f"no term reaches document frequency {min_doc_freq}; lower min_doc_freq")
    return Vocabulary({t: i for i, t in enumerate(kept)}, kept)


def reference_to_documents(records, vocab, min_token_length, format_hint):
    out = []
    for record in records:
        ts = parse_timestamp(record.timestamp_text, format_hint)
        counts = {}
        for term, count in reference_tokenize(record.body, min_token_length).items():
            idx = vocab.term_to_index.get(term)
            if idx is not None:
                counts[idx] = count
        if counts:
            out.append(Document.from_counts(record.id, ts, counts, record.related_ids))
    out.sort(key=lambda d: (d.timestamp, d.id))
    return out


def reference_mean_unique_terms(records, vocab, min_token_length):
    uniques = [
        sum(1 for t in reference_tokenize(record.body, min_token_length) if t in vocab.term_to_index)
        for record in records
    ]
    return sum(uniques) / len(uniques) if uniques else 0.0


def reference_ingest(fmt, input_path, out_corpus, out_vocab, min_doc_freq=2, min_token_length=2):
    """The three-pass ``topicdrift ingest``: writes both files and returns what it printed.

    Titles are looked up by record id, as they were; that is only right
    when ids are unique.
    """
    if fmt == "reuters":
        with open(input_path, "rb") as f:
            parsed = parse_reuters(f.read())
    else:
        with open(input_path, "r", encoding="utf-8") as f:
            parsed = parse_bbc(f)
    vocab = reference_build_vocabulary(parsed.documents, min_token_length, min_doc_freq)
    docs = reference_to_documents(parsed.documents, vocab, min_token_length, fmt)
    titles = {d.id: d.title for d in parsed.documents}
    reference_write_canonical([replace(doc, title=titles.get(doc.id, "")) for doc in docs], out_corpus)
    with open(out_vocab, "w", encoding="utf-8") as f:
        f.writelines(term + "\n" for term in vocab.index_to_term)
    mean = reference_mean_unique_terms(parsed.documents, vocab, min_token_length)
    return (
        f"documents\t{len(docs)}\nskipped\t{parsed.skipped}\n"
        f"vocabulary_size\t{vocab.size}\nmean_unique_terms\t{mean:.4f}\n"
    )


def reference_write_canonical(docs, path):
    """One ``json.dumps(record, sort_keys=True)`` line per document, with no check of what it writes."""
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            record = {
                "id": doc.id,
                "ts": doc.timestamp,
                "title": doc.title,
                "body_counts": {str(w): int(c) for w, c in zip(doc.words.tolist(), doc.counts.tolist())},
                "related": list(doc.related),
            }
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _unique_keys(pairs):
    """A JSON object's dict; a key given twice raises ValueError."""
    record = dict(pairs)
    if len(record) != len(pairs):
        raise ValueError("duplicate key")
    return record


def reference_read_canonical(path):
    """The documents of a canonical corpus, each line decoded, checked and built on its own.

    A line that is not a document raises CorpusParseError with the text
    ``corpus.read_canonical`` gives.
    """
    docs = []
    with open(path, "r", encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line, object_pairs_hook=_unique_keys)
                ts = record["ts"]
                counts = {int(k): v for k, v in record["body_counts"].items()}
                related, title = record.get("related", []), record.get("title", "")
                if (type(record["id"]) is not str or type(ts) not in (int, float) or not math.isfinite(ts)
                        or len(counts) != len(record["body_counts"])
                        or not all(type(v) is int and 0 < v <= 2**53 for v in counts.values())
                        or type(related) is not list or not all(type(r) is str for r in related)
                        or type(title) is not str):
                    raise ValueError
                docs.append(Document.from_counts(record["id"], float(ts), counts, related, title))
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
                raise CorpusParseError(
                    f"{path} line {number} is not a document: it needs a string id, a finite number ts"
                    " and body_counts mapping integer keys, no two naming the same word index, to integer"
                    " counts in [1, 2**53]; related, if present,"
                    " must be a list of strings and title a string"
                ) from None
    return docs


# corpus lines that are not document records, each of which read_canonical must reject naming its line
MALFORMED_LINES = {
    "no body_counts": '{"id": "a", "ts": 1.0}',
    "not an object": "[1, 2]",
    "body_counts a list": '{"id": "a", "ts": 1.0, "body_counts": [1]}',
    "id a number": '{"id": 7, "ts": 1.0, "body_counts": {"1": 1}}',
    "ts nan": '{"id": "a", "ts": NaN, "body_counts": {"1": 1}}',
    "ts a string": '{"id": "a", "ts": "1.0", "body_counts": {"1": 1}}',
    "word not an integer": '{"id": "a", "ts": 1.0, "body_counts": {"x": 1}}',
    "word index twice": '{"id": "a", "ts": 1.0, "body_counts": {"1": 2, "01": 3}}',
    "word key twice": '{"id": "a", "ts": 1.0, "body_counts": {"1": 2, "1": 3}}',
    "count zero": '{"id": "a", "ts": 1.0, "body_counts": {"1": 0}}',
    "count fractional": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1.5}}',
    "count above 2**53": '{"id": "a", "ts": 1.0, "body_counts": {"1": 9007199254740993}}',
    "word index above int64": '{"id": "a", "ts": 1.0, "body_counts": {"99999999999999999999": 1}}',
    "not JSON": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1}',
    "related a string": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1}, "related": "xyz"}',
    "related not strings": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1}, "related": [1, null]}',
    "title a number": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1}, "title": 5}',
    "title null": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1}, "title": null}',
    "top-level key twice": '{"id": "a", "id": "b", "ts": 1.0, "body_counts": {"1": 1}}',
    "key twice under an unknown field": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1}, "extra": {"k": 1, "k": 2}}',
    "body_counts as pairs": '{"id": "a", "ts": 1.0, "body_counts": [["1", 1]]}',
    "object in related": '{"id": "a", "ts": 1.0, "body_counts": {"1": 1}, "related": [{"x": "y"}]}',
}


def documents_equal(got, want):
    """Whether two lists of documents agree field by field, their arrays in dtype and value."""

    def same(x, y):
        return x.dtype == y.dtype and np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y

    return len(got) == len(want) and all(
        same(getattr(g, f.name), getattr(w, f.name)) for g, w in zip(got, want) for f in fields(Document))


def payload_array(payload, name):
    """The array stored under ``name`` in a parsed checkpoint."""
    entry = payload["arrays"][name]
    return np.frombuffer(base64.b64decode(entry["data"]), entry["dtype"]).reshape(entry["shape"])


def set_payload_array(payload, name, array):
    """Store ``array`` under ``name`` in a parsed checkpoint, at the entry's dtype."""
    entry = payload["arrays"][name]
    array = np.ascontiguousarray(array, dtype=entry["dtype"])
    entry.update(data=base64.b64encode(array.tobytes()).decode("ascii"), shape=list(array.shape))


def normal_gamma_posterior(data, mu0, lambda0, a0, b0):
    """Exact conjugate posterior parameters (mu_n, lambda_n, a_n, b_n)."""
    data = np.asarray(data, dtype=float)
    n = data.size
    xbar = data.mean()
    lambda_n = lambda0 + n
    mu_n = (lambda0 * mu0 + n * xbar) / lambda_n
    a_n = a0 + 0.5 * n
    ss = float(((data - xbar) ** 2).sum())
    b_n = b0 + 0.5 * (ss + lambda0 * n * (xbar - mu0) ** 2 / lambda_n)
    return mu_n, lambda_n, a_n, b_n


def normal_gamma_evidence(data, mu0, lambda0, a0, b0):
    """Exact log marginal likelihood of the conjugate Normal-Gamma model."""
    data = np.asarray(data, dtype=float)
    n = data.size
    _, lambda_n, a_n, b_n = normal_gamma_posterior(data, mu0, lambda0, a0, b0)
    return float(
        gammaln(a_n) - gammaln(a0)
        + a0 * math.log(b0) - a_n * math.log(b_n)
        + 0.5 * (math.log(lambda0) - math.log(lambda_n))
        - 0.5 * n * math.log(2.0 * math.pi)
    )


def set_partitions(items):
    """All set partitions of a list (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def crp_partition_logprob(blocks, alpha, n):
    """log P(partition) under CRP(alpha) for a partition given as blocks."""
    k = len(blocks)
    logp = k * math.log(alpha)
    for block in blocks:
        logp += gammaln(len(block))  # (|B| - 1)!
    logp -= sum(math.log(alpha + i) for i in range(n))
    return logp


def exact_crp_shape_distribution(n, alpha):
    """Exact probability of each partition shape (sorted block sizes)."""
    shapes = {}
    for partition in set_partitions(list(range(n))):
        shape = tuple(sorted(len(b) for b in partition))
        p = math.exp(crp_partition_logprob(partition, alpha, n))
        shapes[shape] = shapes.get(shape, 0.0) + p
    return shapes
