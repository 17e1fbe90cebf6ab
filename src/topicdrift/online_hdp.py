"""Online two-level stick-breaking HDP topic model.

The corpus-level Dirichlet process is truncated at K topics with stick
fractions beta'_k ~ Beta(1, gamma); each document draws its own sticks
pi'_t ~ Beta(1, alpha0) over T slots and binds slot t to a corpus topic
through an indicator c_t.  Word assignments z pick a document slot.
The variational family factorizes completely:

    q = q(beta' | u, v) q(pi' | a, b) q(c | varphi) q(z | zeta) q(phi | lambda)

Per-document inference is coordinate ascent over (varphi, zeta, a, b)
holding the corpus state fixed.  ``infer_batch`` is the one entry point
that fits documents: both online models, the timeline and the single-
document helpers call it.  Corpus-level learning is a stochastic
natural-gradient step with rate rho_t = (tau0 + t)^(-kappa) that blends
the current state with the batch estimate scaled up to corpus size.
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import digamma, gammaln

from .corpus import batch_iter, doc_words
from .errors import ConfigurationError, NumericalError, ParameterError

# every document fit stops after MAX_SWEEPS or once the bound moves by <= SWEEP_TOL (relative)
MAX_SWEEPS = 50
SWEEP_TOL = 1e-6


@dataclass(frozen=True)
class HdpHyper:
    """Concentrations, base smoothing, truncations and learning schedule."""

    gamma: float = 1.0
    alpha0: float = 1.0
    eta: float = 0.01
    K_corpus: int = 300
    T_doc: int = 20
    kappa: float = 0.6
    tau0: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0 or self.alpha0 <= 0 or self.eta <= 0:
            raise ConfigurationError("gamma, alpha0 and eta must be > 0")
        if self.K_corpus < 1 or self.T_doc < 1:
            raise ConfigurationError("truncations must be >= 1")
        if not (0.5 < self.kappa <= 1.0):
            raise ConfigurationError("kappa must lie in (0.5, 1]")
        if self.tau0 < 0:
            raise ConfigurationError("tau0 must be >= 0")


@dataclass
class GlobalVariational:
    """Corpus-level variational state: topic-word Dirichlet rows and sticks."""

    lam: np.ndarray       # (K, V)
    stick_u: np.ndarray   # (K - 1,)
    stick_v: np.ndarray   # (K - 1,)
    update_count: int = 0

    @property
    def num_topics(self):
        return self.lam.shape[0]

    @property
    def vocab_size(self):
        return self.lam.shape[1]

    def copy(self):
        return GlobalVariational(
            self.lam.copy(), self.stick_u.copy(), self.stick_v.copy(), self.update_count
        )


@dataclass
class DocVariational:
    stick_a: np.ndarray   # (T - 1,)
    stick_b: np.ndarray   # (T - 1,)
    varphi: np.ndarray    # (T, K) indicator posteriors
    zeta: np.ndarray      # (distinct words, T) assignment posteriors


@dataclass
class BatchStats:
    """Natural-gradient sufficient statistics accumulated over a batch."""

    lam: np.ndarray
    usage: np.ndarray
    batch_doc_count: int = 0

    @classmethod
    def zeros(cls, num_topics, vocab_size):
        return cls(np.zeros((num_topics, vocab_size)), np.zeros(num_topics), 0)

    def merge(self, other):
        self.lam += other.lam
        self.usage += other.usage
        self.batch_doc_count += other.batch_doc_count


def init_global(hyper, vocab_size, corpus_scale, seed):
    """Deterministic symmetry-breaking initialization of the corpus state."""
    rng = np.random.default_rng(seed)
    k = hyper.K_corpus
    lam = hyper.eta + rng.gamma(1.0, 1.0, (k, vocab_size)) * (corpus_scale / (k * vocab_size))
    return GlobalVariational(
        lam=lam,
        stick_u=np.ones(max(k - 1, 0)),
        stick_v=np.full(max(k - 1, 0), hyper.gamma),
        update_count=0,
    )


def expect_log_sticks(u, v):
    """E[log w_k] for stick weights built from Beta(u_k, v_k) fractions.

    Returns a vector one longer than u; the last entry is the expected
    log of the residual mass.
    """
    k = u.size + 1
    if k == 1:
        return np.zeros(1)
    total = digamma(u + v)
    elog_frac = digamma(u) - total
    elog_rest = digamma(v) - total
    out = np.zeros(k)
    out[: k - 1] = elog_frac
    out[1:] += np.cumsum(elog_rest)
    return out


def _stick_means(u, v):
    """Mean weights of sticks broken by Beta(u_k, v_k) fractions.

    Returns a vector one longer than u; the last entry absorbs the
    residual mass.
    """
    k = u.size + 1
    if k == 1:
        return np.ones(1)
    frac = u / (u + v)
    remaining = np.concatenate([[1.0], np.cumprod(1.0 - frac)])
    weights = np.empty(k)
    weights[: k - 1] = frac * remaining[: k - 1]
    weights[k - 1] = remaining[k - 1]
    return weights


def expected_corpus_weights(g):
    """Mean stick-breaking weights; the last topic absorbs residual mass."""
    return _stick_means(g.stick_u, g.stick_v)


def elog_beta(g):
    """E[log p(word | topic)] under the Dirichlet rows lambda_k."""
    return digamma(g.lam) - digamma(g.lam.sum(axis=1))[:, None]


def topic_word_probs(g):
    """Posterior-mean word distribution per topic (rows sum to 1)."""
    return g.lam / g.lam.sum(axis=1)[:, None]


@dataclass
class HdpSnapshot:
    """Per-batch cache of the expectations document inference needs."""

    elog_beta: np.ndarray
    elog_sticks: np.ndarray
    word_probs: np.ndarray

    @classmethod
    def of(cls, g):
        return cls(
            elog_beta=elog_beta(g),
            elog_sticks=expect_log_sticks(g.stick_u, g.stick_v),
            word_probs=topic_word_probs(g),
        )


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


def _doc_elbo(n, elog_beta_doc, elog_sticks, elog_sticks_doc, varphi, zeta, a, b, alpha0):
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


def _infer_core(words, n, elog_beta_doc, elog_sticks, hyper, max_sweeps, tol):
    """Coordinate ascent for one document against fixed corpus expectations.

    ``elog_beta_doc`` is (K, M) over the document's distinct words.
    Returns the document factors and the final per-document bound.
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

        new_elbo = _doc_elbo(
            n, elog_beta_doc, elog_sticks, elog_sticks_doc, varphi, zeta, a, b, hyper.alpha0
        )
        if not math.isfinite(new_elbo):
            raise NumericalError("document bound became non-finite", sweep=sweep)
        if elbo is not None and abs(new_elbo - elbo) <= tol * max(1.0, abs(elbo)):
            elbo = new_elbo
            break
        elbo = new_elbo

    return DocVariational(a, b, varphi, zeta), elbo


def infer_batch(docs, elog_beta, elog_sticks, hyper):
    """Fit each document against fixed (K, V) and (K,) corpus expectations.

    Yields (words, counts, factors, bound, topic weights) per document,
    lazily and in order, so a caller holds one document's factors at a time.
    """
    for doc in docs:
        if not doc.counts:
            raise ParameterError(f"document {doc.id!r} has no in-vocabulary words")
        words, n = doc_words(doc)
        dv, elbo = _infer_core(
            words, n, elog_beta[:, words], elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL
        )
        yield words, n, dv, elbo, doc_topic_mixture(dv)


def infer_document(doc, g, hyper, snapshot=None):
    """Fit the document's variational factors; returns (factors, stats, elbo)."""
    snap = snapshot or HdpSnapshot.of(g)
    ((words, n, dv, elbo, _),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
    stats = BatchStats.zeros(g.num_topics, g.vocab_size)
    accumulate_stats(stats, dv, words, n)
    return dv, stats, elbo


def accumulate_stats(stats, dv, words, n):
    stats.lam[:, words] += dv.varphi.T @ (dv.zeta * n[:, None]).T
    stats.usage += dv.varphi.sum(axis=0)
    stats.batch_doc_count += 1


def learning_rate(hyper, update_count):
    rho = (hyper.tau0 + update_count) ** (-hyper.kappa)
    if not (0.0 < rho <= 1.0):
        raise ConfigurationError(f"learning rate {rho!r} outside (0, 1]")
    return rho


def online_update(g, stats, hyper, corpus_scale, rho=None):
    """One stochastic natural-gradient step; returns the new corpus state."""
    if stats.batch_doc_count < 1:
        raise ParameterError("stats must come from at least one document")
    if rho is None:
        rho = learning_rate(hyper, g.update_count)
    elif not (0.0 < rho <= 1.0):
        raise ConfigurationError(f"learning rate {rho!r} outside (0, 1]")
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


def doc_topic_mixture(dv):
    """Expected topic weights of a fitted document."""
    return _stick_means(dv.stick_a, dv.stick_b) @ dv.varphi


def mixture_score(words, n, theta, word_probs):
    """log p(words) under a plug-in topic mixture, in nats."""
    per_word = theta @ word_probs[:, words]
    return float(np.dot(n, np.log(per_word)))


def heldout_doc_loglik(doc, g, hyper, snapshot=None):
    """Predictive log-likelihood (total nats) without touching the state."""
    snap = snapshot or HdpSnapshot.of(g)
    ((words, n, _, _, theta),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
    return mixture_score(words, n, theta, snap.word_probs)


class OnlineHdp:
    """Streaming wrapper pairing hyperparameters with the corpus state."""

    def __init__(self, hyper, vocab_size, corpus_scale, seed=42):
        self.hyper = hyper
        self.vocab_size = vocab_size
        self.corpus_scale = corpus_scale
        self.g = init_global(hyper, vocab_size, corpus_scale, seed)

    def process_batch(self, batch, learn=True):
        """Score every document against the pre-batch state, then learn once.

        Returns (doc id, timestamp, total loglik, word count) per
        document, in batch order.
        """
        if not batch:
            return []
        snap = HdpSnapshot.of(self.g)
        stats = BatchStats.zeros(self.g.num_topics, self.vocab_size)
        records = []
        fits = infer_batch(batch, snap.elog_beta, snap.elog_sticks, self.hyper)
        for doc, (words, n, dv, _, theta) in zip(batch, fits):
            score = mixture_score(words, n, theta, snap.word_probs)
            records.append((doc.id, doc.timestamp, score, int(n.sum())))
            if learn:
                accumulate_stats(stats, dv, words, n)
        if learn:
            self.g = online_update(self.g, stats, self.hyper, self.corpus_scale)
        return records


def prequential_run(model, docs, batch_size):
    """Run score-then-learn over the stream; one record per document."""
    records = []
    for batch in batch_iter(docs, batch_size):
        records.extend(model.process_batch(batch))
    return records


def encode_hdp(hdp):
    """Checkpoint fields of an OnlineHdp's sizes and state, shared by both online models."""
    g = hdp.g
    return {
        "vocab_size": hdp.vocab_size,
        "corpus_scale": hdp.corpus_scale,
        "state": {
            "lam": g.lam.tolist(),
            "stick_u": g.stick_u.tolist(),
            "stick_v": g.stick_v.tolist(),
            "update_count": g.update_count,
        },
    }


def decode_hdp(payload, hyper):
    """Rebuild the OnlineHdp whose fields ``encode_hdp`` put in ``payload``."""
    model = OnlineHdp.__new__(OnlineHdp)
    model.hyper = hyper
    model.vocab_size = payload["vocab_size"]
    model.corpus_scale = payload["corpus_scale"]
    state = payload["state"]
    model.g = GlobalVariational(
        lam=np.array(state["lam"], dtype=float),
        stick_u=np.array(state["stick_u"], dtype=float),
        stick_v=np.array(state["stick_v"], dtype=float),
        update_count=int(state["update_count"]),
    )
    return model


def save_checkpoint(model, path):
    payload = {"format_version": 1, "kind": "ohdp", "hyper": asdict(model.hyper), **encode_hdp(model)}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)


def decode_checkpoint(payload):
    """The OnlineHdp of a parsed checkpoint payload."""
    if payload.get("kind") != "ohdp" or payload.get("format_version") != 1:
        raise ParameterError("not a version-1 online-HDP checkpoint")
    return decode_hdp(payload, HdpHyper(**payload["hyper"]))


def load_checkpoint(path):
    with open(path, "r", encoding="utf-8") as f:
        return decode_checkpoint(json.load(f))
