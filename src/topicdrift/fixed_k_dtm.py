"""Offline fixed-K topic model with continuous-time drifting topics.

Training alternates (a) per-document variational mixture steps under a
symmetric Dirichlet(alpha) prior against the current topic trajectories
and (b) per-topic re-estimation: expected counts at each distinct
training timestamp become log-probability pseudo-observations that are
smoothed through the scalar Kalman machinery, one track per (topic,
word).  The topic count K never changes.

Between training timestamps a topic's natural parameters follow the
Brownian bridge, so means interpolate linearly; outside the training
range the endpoint values carry over.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln

from .checkpoint import header_value, read_checkpoint, write_checkpoint
from .corpus import doc_words
from .errors import ParameterError, StateError, TimeOrderError
from .kalman import DriftConfig, backward_steps, forward_steps


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


def _mixture_e_step(words, n, logp_doc, alpha, max_iter=50, tol=1e-4):
    """Variational mixture fit of one document against fixed topic log-probs.

    Returns (gamma, phi, bound): Dirichlet posterior over the mixture,
    word responsibilities and the per-document bound.
    """
    k = logp_doc.shape[0]
    gamma = np.full(k, alpha + n.sum() / k)
    phi = None
    for _ in range(max_iter):
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
    return gamma, phi, bound


def train_cdtm(train_docs, k, drift, sweeps, rng, alpha=1.0, obs_var=0.1, smoothing=0.01,
               vocab_size=None):
    """Fit the fixed-K drifting-topic model on a timestamp-ascending corpus.

    ``drift`` is a kalman.DriftConfig whose prior is taken relative to
    the uniform log-probability level.  The per-sweep objective (sum of
    per-document bounds) is recorded on the returned model.
    """
    if k < 1:
        raise ParameterError("K must be >= 1")
    if not train_docs:
        raise ParameterError("train_docs must be nonempty")
    ts = [d.timestamp for d in train_docs]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise TimeOrderError("train_docs must be timestamp-ascending")

    if vocab_size is None:
        vocab_size = 1 + max(max(d.counts) for d in train_docs)
    knots, doc_knot = np.unique(ts, return_inverse=True)
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
    model.means = base + rng.normal(0.0, 0.1, (k, 1, vocab_size)) * np.ones((1, s, 1))
    model.variances = np.full((k, s, vocab_size), drift.prior_variance)
    model.trained = True  # log_word_probs_at is used during sweeps

    for _ in range(sweeps):
        objective = 0.0
        expected = np.zeros((k, s, vocab_size))
        logp_cache = {}
        for i, doc in enumerate(train_docs):
            knot = doc_knot[i]
            if knot not in logp_cache:
                logp_cache[knot] = model.log_word_probs_at(knots[knot])
            words, n = doc_words(doc)
            _, phi, bound = _mixture_e_step(words, n, logp_cache[knot][:, words], alpha)
            objective += bound
            expected[:, knot, words] += (phi * n[:, None]).T
        model.objective_trace.append(objective)

        for topic in range(k):
            counts = smoothing + expected[topic]
            beta = np.log(counts / counts.sum(axis=1, keepdims=True))
            # pseudo-observation precision follows the evidence: the log of
            # a count has variance ~ 1/count, scaled by the obs_var knob
            obs = obs_var / counts
            f_mean, f_var, _, _ = forward_steps(knots, beta, obs, present, cfg)
            s_mean, s_var = backward_steps(knots, f_mean, f_var, cfg)
            model.means[topic] = s_mean
            model.variances[topic] = s_var
    return model


def cdtm_heldout_loglik(model, docs):
    """Per-document predictive log-likelihood; never modifies the model."""
    if not model.trained:
        raise StateError("model is not trained")
    records = []
    for doc in docs:
        logp = model.log_word_probs_at(doc.timestamp)
        words, n = doc_words(doc)
        gamma, _, _ = _mixture_e_step(words, n, logp[:, words], model.alpha_dirichlet)
        theta = gamma / gamma.sum()
        per_word = theta @ np.exp(logp[:, words])
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
