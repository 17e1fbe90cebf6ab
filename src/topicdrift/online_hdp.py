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
document helpers call it.  It fits BLOCK_DOCS documents at a time with
one batched kernel, ``_fit_block``: the block's evidence is padded to
(B, M, K), every update is a stacked matmul or a vectorized digamma,
and each document still stops at its own sweep.  Corpus-level learning
is a stochastic natural-gradient step with rate rho_t = (tau0 + t)^(-kappa)
that blends the current state with the batch estimate scaled up to
corpus size.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import digamma, gammaln

from .checkpoint import config_from, header_value, read_checkpoint, write_checkpoint
from .corpus import batch_iter, doc_words
from .errors import ConfigurationError, NumericalError, ParameterError

# every document fit stops after MAX_SWEEPS or once the bound moves by <= SWEEP_TOL (relative)
MAX_SWEEPS = 50
SWEEP_TOL = 1e-6
# documents fitted together; a block's padded (B, M, K) evidence is the kernel's extra memory
BLOCK_DOCS = 16


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


def _log_sticks(elog_frac, elog_rest):
    """E[log w_k] from E[log frac_k] and E[log(1 - frac_k)] along the last axis."""
    k = elog_frac.shape[-1] + 1
    out = np.zeros(elog_frac.shape[:-1] + (k,))
    out[..., : k - 1] = elog_frac
    out[..., 1:] += np.cumsum(elog_rest, axis=-1)
    return out


def expect_log_sticks(u, v):
    """E[log w_k] for stick weights built from Beta(u_k, v_k) fractions.

    Works along the last axis; the result is one longer than u there, and
    its last entry is the expected log of the residual mass.
    """
    total = digamma(u + v)
    return _log_sticks(digamma(u) - total, digamma(v) - total)


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


def _beta_entropy(a, b, dg_a, dg_b, dg_ab):
    """Entropy of Beta(a, b), given the digammas of a, b and a + b."""
    return (
        gammaln(a) + gammaln(b) - gammaln(a + b)
        - (a - 1.0) * dg_a - (b - 1.0) * dg_b + (a + b - 2.0) * dg_ab
    )


def _softmax(scores, axis, out):
    """Softmax of ``scores`` along ``axis`` into ``out``; returns the log normalizer (keepdims).

    Since the weights sum to 1, sum(p log p) = sum(p * scores) - log normalizer.
    """
    top = scores.max(axis=axis, keepdims=True)
    np.subtract(scores, top, out=out)
    np.exp(out, out=out)
    total = out.sum(axis=axis, keepdims=True)
    out /= total
    return top + np.log(total)


def _fit_block(fits, elog_beta, elog_sticks, hyper, max_sweeps, tol):
    """Coordinate ascent for a block of documents against fixed corpus expectations.

    ``fits`` holds (words, counts) per document and ``elog_beta`` is (K, V).
    Every document's evidence is padded to the block's longest document
    with zero counts, which add exact zeros to every product and sum.  A
    document leaves the block at the sweep where its own fit stops: after
    ``max_sweeps``, or once its bound moves by <= ``tol`` (relative).  The
    documents still running are then moved to the front of the block's
    arrays, which every sweep reuses.  Returns (factors, bound, sweeps)
    per document, in order.
    """
    t_doc, alpha0 = hyper.T_doc, hyper.alpha0
    sizes = np.array([len(words) for words, _ in fits])
    n = np.zeros((sizes.size, sizes.max()))
    eb = np.zeros((sizes.size, sizes.max(), elog_beta.shape[0]))     # (B, M, K)
    for i, (words, counts) in enumerate(fits):
        n[i, : sizes[i]] = counts
        eb[i, : sizes[i]] = elog_beta[:, words].T
    zeta = np.full((sizes.size, t_doc, sizes.max()), 1.0 / t_doc)  # (B, T, M)
    weighted = np.empty_like(zeta)                                   # zeta * counts
    varphi_scores = np.empty((sizes.size, t_doc, elog_beta.shape[0]))  # (B, T, K)
    varphi = np.empty_like(varphi_scores)
    a = np.ones((sizes.size, t_doc - 1))
    b = np.full((sizes.size, t_doc - 1), alpha0)
    elog_sticks_doc = expect_log_sticks(a, b)                        # (B, T)
    stick_prior = (t_doc - 1) * math.log(alpha0)

    running = np.arange(sizes.size)
    bound = np.full(sizes.size, np.nan)
    out = [None] * sizes.size
    for sweep in range(1, max_sweeps + 1):
        np.multiply(zeta, n[:, None, :], out=weighted)
        np.matmul(weighted, eb, out=varphi_scores)
        varphi_scores += elog_sticks
        varphi_norm = _softmax(varphi_scores, 2, varphi)
        # varphi @ eb^T is the zeta logit less the document sticks
        np.matmul(varphi, eb.transpose(0, 2, 1), out=zeta)
        zeta += elog_sticks_doc[:, :, None]
        zeta_norm = _softmax(zeta, 1, zeta)
        slot_mass = np.multiply(zeta, n[:, None, :], out=weighted).sum(axis=2)  # (B, T)
        a = 1.0 + slot_mass[:, :-1]
        b = alpha0 + np.flip(np.cumsum(np.flip(slot_mass[:, 1:], 1), axis=1), 1)
        dg_a, dg_b, dg_ab = digamma(a), digamma(b), digamma(a + b)
        new_sticks_doc = _log_sticks(dg_a - dg_ab, dg_b - dg_ab)

        # zeta is the softmax of (varphi @ eb^T + old sticks), so its data,
        # stick and entropy terms collapse to sum_m n_m log Z_m plus the
        # slot mass times the change in the document's expected log sticks;
        # the varphi terms are its corpus-stick term less sum(varphi log varphi)
        prev = bound
        bound = (
            (n * zeta_norm[:, 0, :]).sum(axis=1)
            + (slot_mass * (new_sticks_doc - elog_sticks_doc)).sum(axis=1)
            + (varphi @ elog_sticks).sum(axis=1)
            - np.einsum("btk,btk->b", varphi, varphi_scores) + varphi_norm.sum(axis=(1, 2))
            + stick_prior
            + ((alpha0 - 1.0) * (dg_b - dg_ab) + _beta_entropy(a, b, dg_a, dg_b, dg_ab)).sum(axis=1)
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
        for dst, src in enumerate(rows):  # rows only move forward
            n[dst], eb[dst], zeta[dst] = n[src], eb[src], zeta[src]
        running = running[rows]
        k, width = rows.size, sizes[running].max()
        n, eb, zeta = n[:k, :width], eb[:k, :width], zeta[:k, :, :width]
        weighted, varphi_scores, varphi = weighted[:k, :, :width], varphi_scores[:k], varphi[:k]
        elog_sticks_doc, bound = elog_sticks_doc[rows], bound[rows]
    return out


def infer_batch(docs, elog_beta, elog_sticks, hyper):
    """Fit each document against fixed (K, V) and (K,) corpus expectations.

    Documents are fitted BLOCK_DOCS at a time by one batched coordinate
    ascent, so a caller holds one block's factors at a time.  Yields
    (words, counts, factors, bound, topic weights) per document, lazily
    and in order.
    """
    for block in batch_iter(docs, BLOCK_DOCS):
        for doc in block:
            if not doc.counts:
                raise ParameterError(f"document {doc.id!r} has no in-vocabulary words")
        fits = [doc_words(doc) for doc in block]
        for (words, n), (dv, bound, _) in zip(
            fits, _fit_block(fits, elog_beta, elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL)
        ):
            yield words, n, dv, bound, doc_topic_mixture(dv)


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


# name -> (dtype, ndim) of the arrays of an "ohdp" checkpoint; a "cidtm" one adds its tracks
ARRAYS = {"lam": ("<f8", 2), "stick_u": ("<f8", 1), "stick_v": ("<f8", 1)}


def encode_hdp(hdp):
    """Checkpoint header fields and arrays of an OnlineHdp, shared by both online models."""
    g = hdp.g
    header = {"vocab_size": hdp.vocab_size, "corpus_scale": hdp.corpus_scale, "update_count": g.update_count}
    return header, {"lam": g.lam, "stick_u": g.stick_u, "stick_v": g.stick_v}


def decode_hdp(header, arrays, hyper):
    """Rebuild the OnlineHdp that ``encode_hdp`` put in ``header`` and ``arrays``."""
    model = OnlineHdp.__new__(OnlineHdp)
    model.hyper = hyper
    model.vocab_size = header_value(header, "vocab_size", int)
    model.corpus_scale = header_value(header, "corpus_scale", float)
    k = hyper.K_corpus
    lam, stick_u, stick_v = arrays["lam"], arrays["stick_u"], arrays["stick_v"]
    if lam.shape != (k, model.vocab_size) or stick_u.shape != (k - 1,) or stick_v.shape != (k - 1,):
        raise ParameterError(f"checkpoint lam {lam.shape} and sticks {stick_u.shape}, {stick_v.shape}"
                             f" do not fit K_corpus = {k} and vocab_size = {model.vocab_size}")
    model.g = GlobalVariational(lam, stick_u, stick_v, header_value(header, "update_count", int))
    return model


def save_checkpoint(model, path):
    header, arrays = encode_hdp(model)
    write_checkpoint("ohdp", {**header, "hyper": asdict(model.hyper)}, arrays, path)


def decode_checkpoint(header, arrays):
    """The OnlineHdp of an "ohdp" checkpoint's header and arrays."""
    return decode_hdp(header, arrays, config_from(HdpHyper, header_value(header, "hyper", dict)))


def load_checkpoint(path):
    return decode_checkpoint(*read_checkpoint(path, {"ohdp": ARRAYS})[1:])
