"""Offline fixed-K topic model with continuous-time drifting topics.

Training alternates (a) per-document variational mixture steps under a
symmetric Dirichlet(alpha) prior against the current topic trajectories
and (b) re-estimation of the topics: expected counts at each distinct
training timestamp become log-probability pseudo-observations that are
smoothed through the scalar Kalman machinery, one track per (topic,
word).  The topic count K never changes.  Training and held-out
scoring fit BLOCK_DOCS documents at a time with one batched kernel,
``_mixture_e_step``, in factored form: a block's word probabilities are
exponentiated once, so an iteration exponentiates only K values per
document.  Re-estimation, ``_smooth_topics``, runs one filter and one
smoother pass over all K topics per sweep, in place in the model's
(K, S, V) arrays.

Between training timestamps a topic's natural parameters follow the
Brownian bridge, so means interpolate linearly; outside the training
range the endpoint values carry over.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln

from .checkpoint import header_value, read_checkpoint, write_checkpoint
from .corpus import batch_iter, doc_words
from .errors import NumericalError, ParameterError, StateError, TimeOrderError
from .kalman import DriftConfig, backward_steps, forward_steps

# every document fit stops after MAX_ITER iterations or once mean |delta gamma| < TOL
MAX_ITER = 50
TOL = 1e-4
# documents fitted together; a block's padded (B, M, K) log-probs are the kernel's extra memory
BLOCK_DOCS = 16


@dataclass
class CdtmModel:
    K: int
    alpha_dirichlet: float
    vocab_size: int
    knots: np.ndarray = None        # (S,) training timestamps
    means: np.ndarray = None        # (K, S, V) smoothed natural parameters
    variances: np.ndarray = None    # (K, S, V)
    trained: bool = False
    objective_trace: list = field(default_factory=list)

    def log_word_probs_at(self, ts):
        """(K, V) log word distributions at an arbitrary timestamp."""
        if not self.trained:
            raise StateError("model is not trained")
        eta = _interpolate(self.knots, self.means, ts)
        eta = eta - eta.max(axis=1, keepdims=True)
        return eta - np.log(np.exp(eta).sum(axis=1, keepdims=True))


def _interpolate(knots, means, ts):
    """Linear (Brownian-bridge) interpolation of (K, S, V) tracks at ts."""
    if ts <= knots[0]:
        return means[:, 0, :]
    if ts >= knots[-1]:
        return means[:, -1, :]
    hi = int(np.searchsorted(knots, ts, side="right"))
    lo = hi - 1
    if knots[hi] == knots[lo]:
        return means[:, lo, :]
    w = (ts - knots[lo]) / (knots[hi] - knots[lo])
    return (1.0 - w) * means[:, lo, :] + w * means[:, hi, :]


def _doc_bound(n, logp_doc, phi, gamma, alpha):
    """One document's bound at its final (gamma, phi); ``logp_doc`` and ``phi`` are (M, K)."""
    k = gamma.size
    elog_theta = digamma(gamma) - digamma(gamma.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(phi > 0, phi * np.log(np.where(phi > 0, phi, 1.0)), 0.0)
    bound = float(((phi * logp_doc) * n[:, None]).sum())
    bound += float(((phi * elog_theta[None, :]) * n[:, None]).sum())
    bound += gammaln(k * alpha) - k * gammaln(alpha) + float(((alpha - 1.0) * elog_theta).sum())
    bound -= gammaln(gamma.sum()) - float(gammaln(gamma).sum()) + float(((gamma - 1.0) * elog_theta).sum())
    bound -= float((plogp * n[:, None]).sum())
    return bound


def _mixture_e_step(fits, logps, alpha):
    """Variational mixture fit of a block of documents against fixed topic log-probs.

    ``fits`` holds (words, counts) per document and ``logps`` the (K, V)
    log-probs each document is fitted against.  The block's log-probs at
    its words are padded to (B, M, K) with zero counts and exponentiated
    once, shifted by each word's maximum over K (the shift cancels in
    phi).  Since phi_mk is proportional to exp(Elog theta_k) exp(logp_mk),
    an iteration then takes K exponentials per document and two stacked
    matmuls: the normalizers z = beta @ exp(Elog theta) and the topic
    counts exp(Elog theta) * ((n / z) @ beta).  A document stops at its
    own iteration: once mean |delta gamma| < TOL, or after MAX_ITER; only
    then is its phi built.  The documents still running are moved to the
    front of the block's arrays.  Returns (gamma, phi, bound) per
    document, in order: the Dirichlet posterior over the mixture, the
    (M, K) word responsibilities and the document's bound.
    """
    sizes = np.array([len(words) for words, _ in fits])
    k = logps[0].shape[0]
    n = np.zeros((sizes.size, sizes.max()))
    lp = np.zeros((sizes.size, sizes.max(), k))     # (B, M, K)
    gamma = np.empty((sizes.size, k))
    for i, ((words, counts), logp) in enumerate(zip(fits, logps)):
        n[i, : sizes[i]] = counts
        lp[i, : sizes[i]] = logp[:, words].T
        gamma[i] = alpha + counts.sum() / k
    beta = np.exp(lp - lp.max(axis=2, keepdims=True))

    running = np.arange(sizes.size)
    out = [None] * sizes.size
    for it in range(1, MAX_ITER + 1):
        elog_theta = digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
        et = np.exp(elog_theta - elog_theta.max(axis=1, keepdims=True))  # (B, K)
        z = np.matmul(beta, et[:, :, None])[:, :, 0]                      # (B, M)
        new_gamma = alpha + et * np.matmul((n / z)[:, None, :], beta)[:, 0]
        if not np.isfinite(new_gamma).all():
            raise NumericalError("document mixture became non-finite", sweep=it)
        done = np.abs(new_gamma - gamma).mean(axis=1) < TOL
        gamma = new_gamma
        if it == MAX_ITER:
            done[:] = True
        if not done.any():
            continue
        for j in np.flatnonzero(done):
            i = running[j]
            m = sizes[i]
            phi = beta[j, :m] * et[j] / z[j, :m, None]
            bound = _doc_bound(n[j, :m], lp[j, :m], phi, gamma[j], alpha)
            if not np.isfinite(bound):
                raise NumericalError("document bound became non-finite", sweep=it)
            out[i] = (gamma[j].copy(), phi, bound)
        rows = np.flatnonzero(~done)
        if not rows.size:
            break
        for dst, src in enumerate(rows):  # rows only move forward
            n[dst], lp[dst], beta[dst] = n[src], lp[src], beta[src]
        running = running[rows]
        b, width = rows.size, sizes[running].max()
        n, lp, beta = n[:b, :width], lp[:b, :width], beta[:b, :width]
        gamma = gamma[rows]
    return out


def _smooth_topics(model, expected, present, cfg, obs_var, smoothing):
    """Re-estimate all K topic trajectories from (K, S, V) expected counts.

    The pseudo-observations log(counts / row sum) go into ``model.means``
    and their variances obs_var / counts into ``expected``; one filter
    and one smoother pass over (S, K, V) views then write the smoothed
    state into ``model.means`` and ``model.variances`` in place, so no
    further (K, S, V) array is allocated.  ``expected`` is overwritten.
    """
    expected += smoothing
    np.divide(expected, expected.sum(axis=2, keepdims=True), out=model.means)
    np.log(model.means, out=model.means)
    # pseudo-observation precision follows the evidence: the log of
    # a count has variance ~ 1/count, scaled by the obs_var knob
    np.divide(obs_var, expected, out=expected)
    means, variances, obs = (a.transpose(1, 0, 2) for a in (model.means, model.variances, expected))
    seen = np.broadcast_to(present[:, None, :], means.shape)
    forward_steps(model.knots, means, obs, seen, cfg, out=(means, variances))
    backward_steps(model.knots, means, variances, cfg, out=(means, variances))


def train_cdtm(train_docs, k, drift, sweeps, rng, alpha=1.0, obs_var=0.1, smoothing=0.01,
               vocab_size=None):
    """Fit the fixed-K drifting-topic model on a timestamp-ascending corpus.

    ``drift`` is a kalman.DriftConfig whose prior is taken relative to
    the uniform log-probability level.  The per-sweep objective (sum of
    per-document bounds) is recorded on the returned model.  Documents
    are fitted BLOCK_DOCS at a time, and a sweep holds the log-probs of
    the current block's knots only.
    """
    if k < 1:
        raise ParameterError("K must be >= 1")
    if sweeps < 1:
        raise ParameterError("sweeps must be >= 1")
    if not all(0.0 < x < math.inf for x in (alpha, obs_var, smoothing)):  # also rejects nan
        raise ParameterError(
            f"alpha, obs_var and smoothing must be finite and > 0, got {alpha}, {obs_var} and {smoothing}")
    if not train_docs:
        raise ParameterError("train_docs must be nonempty")
    ts = [d.timestamp for d in train_docs]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise TimeOrderError("train_docs must be timestamp-ascending")

    if vocab_size is None:
        vocab_size = 1 + max(max(d.counts) for d in train_docs)
    knots, doc_knot = np.unique(ts, return_inverse=True)
    doc_knot = doc_knot.tolist()
    s = knots.size
    base = np.log(1.0 / vocab_size)
    cfg = DriftConfig(drift.process_variance, prior_mean=base, prior_variance=drift.prior_variance)

    # word-presence per knot gates the pseudo-observations
    present = np.zeros((s, vocab_size), dtype=bool)
    for i, doc in enumerate(train_docs):
        for w in doc.counts:
            present[doc_knot[i], w] = True

    model = CdtmModel(K=k, alpha_dirichlet=alpha, vocab_size=vocab_size)
    model.knots = knots
    # (K, S, V) arrays are updated in place, so no second one is alive at the same time
    model.means = rng.normal(0.0, 0.1, (k, 1, vocab_size)) * np.ones((1, s, 1))
    model.means += base
    model.variances = np.full((k, s, vocab_size), drift.prior_variance)
    model.trained = True  # log_word_probs_at is used during sweeps

    fits = [doc_words(doc) for doc in train_docs]
    expected = np.empty((k, s, vocab_size))
    for _ in range(sweeps):
        objective = 0.0
        expected.fill(0.0)
        logps = {}
        for start in range(0, len(fits), BLOCK_DOCS):
            block = slice(start, start + BLOCK_DOCS)
            # documents ascend in time, so a knot's log-probs carry over only into the next block
            logps = {q: logps[q] if q in logps else model.log_word_probs_at(knots[q])
                     for q in dict.fromkeys(doc_knot[block])}
            fitted = _mixture_e_step(fits[block], [logps[q] for q in doc_knot[block]], alpha)
            for (words, n), q, (_, phi, bound) in zip(fits[block], doc_knot[block], fitted):
                objective += bound
                expected[:, q, words] += (phi * n[:, None]).T
        model.objective_trace.append(objective)

        _smooth_topics(model, expected, present, cfg, obs_var, smoothing)
    return model


def cdtm_heldout_loglik(model, docs):
    """Per-document predictive log-likelihood; never modifies the model.

    Documents are fitted BLOCK_DOCS at a time, and a block computes the
    log-probs of each of its distinct timestamps once.
    """
    if not model.trained:
        raise StateError("model is not trained")
    records = []
    for block in batch_iter(docs, BLOCK_DOCS):
        logps = {ts: model.log_word_probs_at(ts) for ts in dict.fromkeys(doc.timestamp for doc in block)}
        fits = [doc_words(doc) for doc in block]
        fitted = _mixture_e_step(fits, [logps[doc.timestamp] for doc in block], model.alpha_dirichlet)
        for doc, (words, n), (gamma, _, _) in zip(block, fits, fitted):
            theta = gamma / gamma.sum()
            per_word = theta @ np.exp(logps[doc.timestamp][:, words])
            records.append((doc.id, doc.timestamp, float(np.dot(n, np.log(per_word))), int(n.sum())))
    return records


# the arrays of a "cdtm" checkpoint; S = knots.size
ARRAYS = {"knots": ("<f8", 1), "means": ("<f8", 3), "variances": ("<f8", 3), "objective_trace": ("<f8", 1)}


def save_checkpoint(model, path):
    if not model.trained:
        raise StateError("model is not trained")
    header = {"K": model.K, "alpha_dirichlet": model.alpha_dirichlet, "vocab_size": model.vocab_size}
    arrays = {"knots": model.knots, "means": model.means, "variances": model.variances,
              "objective_trace": np.array(model.objective_trace, dtype=float)}
    write_checkpoint("cdtm", header, arrays, path)


def load_checkpoint(path):
    _, header, arrays = read_checkpoint(path, {"cdtm": ARRAYS})
    model = CdtmModel(
        K=header_value(header, "K", int),
        alpha_dirichlet=header_value(header, "alpha_dirichlet", float),
        vocab_size=header_value(header, "vocab_size", int),
    )
    knots = arrays["knots"]
    shape = (model.K, knots.size, model.vocab_size)
    if arrays["means"].shape != shape or arrays["variances"].shape != shape:
        raise ParameterError(f"checkpoint means {arrays['means'].shape} and variances"
                             f" {arrays['variances'].shape} are not (K, S, V) = {shape}")
    if not knots.size or (np.diff(knots) <= 0).any():
        raise ParameterError("checkpoint knots must be nonempty and strictly ascending")
    model.knots, model.means, model.variances = knots, arrays["means"], arrays["variances"]
    model.objective_trace = arrays["objective_trace"].tolist()
    model.trained = True
    return model
