"""Independent oracles used by the tests.

Everything here is implemented from first principles, separately from
the package code it checks: a textbook predict/update Kalman filter and
RTS smoother, the closed-form conjugate Normal-Gamma posterior and
evidence, and exact CRP partition probabilities by enumeration.  Two
exceptions keep a former code path as the reference for what replaced it:
``dense_kalman_stage``, the drifting model's dense Kalman stage, and
``reference_doc_loop``, the per-document loop every caller of
``online_hdp.infer_batch`` used to write out.
"""

import math

import numpy as np
from scipy.special import gammaln

from topicdrift.kalman import backward_steps, forward_steps
from topicdrift.online_hdp import _infer_core, mixture_score, topic_word_probs


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


def dense_kalman_stage(model, batch, stats):
    """The drifting model's former Kalman stage, a drop-in for ``_kalman_stage``.

    Runs the dense filter and smoother over every (born topic, batch word)
    pair at every distinct timestamp and keeps only the last smoothed row.
    """
    cfg_obs = model.config.obs_var
    hyper = model.config.hyper
    born = [k for k, t in enumerate(model.topics) if t is not None]
    if not born:
        return
    scale = model.hdp.corpus_scale / len(batch)
    fresh = hyper.eta + scale * stats.lam
    fresh_logp = np.log(fresh / fresh.sum(axis=1, keepdims=True))
    baseline_logp = np.log(topic_word_probs(model.hdp.g))

    words = sorted({w for doc in batch for w in doc.counts})
    unique_ts, inverse = np.unique([doc.timestamp for doc in batch], return_inverse=True)
    n_steps = unique_ts.size
    word_col = {w: j for j, w in enumerate(words)}
    present_words = np.zeros((n_steps, len(words)), dtype=bool)
    for i, doc in enumerate(batch):
        step = inverse[i]
        for w in doc.counts:
            present_words[step, word_col[w]] = True

    # one track per (born topic, batch word), vectorized across tracks
    n_words = len(words)
    n_tracks = len(born) * n_words
    resid = np.empty(n_tracks)
    prior_mean = np.empty(n_tracks)
    prior_var = np.empty(n_tracks)
    for i, k in enumerate(born):
        topic = model.topics[k]
        sl = slice(i * n_words, (i + 1) * n_words)
        resid[sl] = fresh_logp[k, words] - baseline_logp[k, words]
        prior_mean[sl] = [topic.word_mean.get(w, 0.0) for w in words]
        prior_var[sl] = [topic.word_var.get(w, model.config.prior_variance) for w in words]

    beta = np.broadcast_to(resid, (n_steps, n_tracks))
    present = np.tile(present_words, (1, len(born)))
    obs_var = np.full((n_steps, 1), cfg_obs)
    drift = model.drift_config()
    f_mean, f_var, _, _ = forward_steps(
        unique_ts, beta, obs_var, present, drift, prior_mean=prior_mean, prior_var=prior_var
    )
    s_mean, s_var = backward_steps(unique_ts, f_mean, f_var, drift)

    batch_end = unique_ts[-1]
    span = batch_end - unique_ts[0]
    for i, k in enumerate(born):
        topic = model.topics[k]
        sl = slice(i * n_words, (i + 1) * n_words)
        terminal_mean = s_mean[-1, sl]
        terminal_var = s_var[-1, sl]
        tracked = set()
        for j, w in enumerate(words):
            topic.word_mean[w] = float(terminal_mean[j])
            topic.word_var[w] = float(terminal_var[j])
            tracked.add(w)
        if span > 0 and model.drift_per_second > 0:
            for w in topic.word_var:
                if w not in tracked:
                    topic.word_var[w] += model.drift_per_second * span
        topic.last_update_ts = batch_end


def reference_doc_loop(docs, elog_beta, elog_sticks, word_probs, hyper):
    """The former per-document loop: words, coordinate ascent, mixture, score.

    Returns one (id, timestamp, total loglik, word count) record and one
    topic-weight vector per document, as the online models produced them.
    """
    records, mixtures = [], []
    for doc in docs:
        words = sorted(doc.counts)
        n = np.array([doc.counts[w] for w in words], dtype=float)
        dv, _ = _infer_core(words, n, elog_beta[:, words], elog_sticks, hyper, 50, 1e-6)
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
        score = mixture_score(words, n, theta, word_probs)
        records.append((doc.id, doc.timestamp, score, int(n.sum())))
        mixtures.append(theta)
    return records, mixtures


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
