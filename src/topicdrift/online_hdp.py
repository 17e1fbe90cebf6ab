"""Online two-level stick-breaking HDP topic model.

The corpus-level Dirichlet process is truncated at K topics with stick
fractions beta'_k ~ Beta(1, gamma); each document draws its own sticks
pi'_t ~ Beta(1, alpha0) over T slots and binds slot t to a corpus topic
through an indicator c_t.  Word assignments z pick a document slot.
The variational family factorizes completely:

    q = q(beta' | u, v) q(pi' | a, b) q(c | varphi) q(z | zeta) q(phi | lambda)

Per-document inference is coordinate ascent over (varphi, zeta, a, b)
holding the corpus state fixed.  ``infer_batch`` is the one entry point
that fits documents: ``score_batch`` (for both online models) and the
timeline call it.  It fits BLOCK_DOCS (64) documents at a time with
one batched kernel, ``_fit_block``: the block's evidence is padded to
(B, M, K), every update is a stacked matmul or one vectorized special
function call, and each document still stops at its own sweep.  Inside
a sweep the varphi softmax raises its shifted scores to FLUSH_BELOW, so
that no subnormal reaches ``exp`` or the next matmul; every sum such a
weight joins comes out the same, and a stopping document's varphi is
rebuilt exactly, so the factors are the exact softmax's.  Given
the corpus state the blocks are independent, so up to WORKERS of them
are checked and fitted on worker threads while the caller consumes the
one before; a caller holds at most WORKERS + 1 blocks' factors.  Corpus-level
learning is a stochastic natural-gradient step with rate
rho_t = (tau0 + t)^(-kappa) that blends the current state with the
batch estimate scaled up to corpus size.

``OnlineHdp.expectations()`` gives the (K, V) and (K,) expectations a
batch is fitted and scored against.  The drifting model of
``drifting_topics`` is an ``OnlineHdp`` subclass that overrides that
method and adds its drift stages after the HDP step, so ``score_batch``
is the one fit-and-score loop and ``prequential_run`` the one stream
runner of both online models.
"""

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, field

import numpy as np
from scipy.special import digamma, gammaln

from .checkpoint import (
    check_values, config_from, header_value, pack_mask, read_checkpoint, unpack_mask, write_checkpoint,
)
from .corpus import batch_iter, check_words
from .errors import ConfigurationError, NumericalError, ParameterError

# every document fit stops after MAX_SWEEPS or once the bound moves by <= SWEEP_TOL (relative)
MAX_SWEEPS = 50
SWEEP_TOL = 1e-6
# documents fitted together; a block's padded (B, M, K) evidence is the kernel's extra memory, and each
# sweep's fixed cost, which holds the GIL, is spread over the block's rows (see infer_batch)
BLOCK_DOCS = 64
# each sweep's varphi softmax raises its shifted scores to this floor: exp(-600) ~ 2.6e-261 is a normal
# double, so neither exp nor the varphi @ eb^T that reads its result meets a subnormal, which numpy's exp
# and the matmul both handle on a slow hardware path; a stopping document's varphi is rebuilt exactly
FLUSH_BELOW = -600.0


def _usable_cpus():
    """The CPUs this process may run on, where the platform says so, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# blocks that infer_batch fits at once, on worker threads; 1 fits them on the calling thread
WORKERS = min(4, _usable_cpus())


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
        # the bounds are written so that nan fails them
        if not all(0.0 < x < math.inf for x in (self.gamma, self.alpha0, self.eta)):
            raise ConfigurationError(
                f"gamma, alpha0 and eta must be finite and > 0, got {self.gamma}, {self.alpha0} and {self.eta}")
        if self.K_corpus < 1 or self.T_doc < 1:
            raise ConfigurationError("truncations must be >= 1")
        if not (0.5 < self.kappa <= 1.0):
            raise ConfigurationError("kappa must lie in (0.5, 1]")
        # update counts start at 0, so rho_t lies in (0, 1] for every update exactly when tau0 >= 1
        if not 1.0 <= self.tau0 < math.inf:
            raise ConfigurationError(f"tau0 must be finite and >= 1, got {self.tau0}")


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
        stick_u=np.ones(k - 1),
        stick_v=np.full(k - 1, hyper.gamma),
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
    frac = u / (u + v)
    remaining = np.concatenate([[1.0], np.cumprod(1.0 - frac)])
    weights = np.empty(k)
    weights[: k - 1] = frac * remaining[: k - 1]
    weights[k - 1] = remaining[k - 1]
    return weights


def expected_corpus_weights(g):
    """Mean stick-breaking weights; the last topic absorbs residual mass."""
    return _stick_means(g.stick_u, g.stick_v)


def elog_beta(g, row_sums=None):
    """E[log p(word | topic)] under the Dirichlet rows lambda_k, whose sums ``row_sums`` may pass in."""
    out = digamma(g.lam)
    out -= digamma(g.lam.sum(axis=1) if row_sums is None else row_sums)[:, None]
    return out


def topic_word_probs(g, row_sums=None):
    """Posterior-mean word distribution per topic (rows sum to 1); ``row_sums`` as for ``elog_beta``."""
    return g.lam / (g.lam.sum(axis=1) if row_sums is None else row_sums)[:, None]


@dataclass
class HdpSnapshot:
    """Per-batch cache of the expectations document inference needs."""

    elog_beta: np.ndarray
    elog_sticks: np.ndarray
    word_probs: np.ndarray

    @classmethod
    def of(cls, g):
        row_sums = g.lam.sum(axis=1)
        return cls(
            elog_beta=elog_beta(g, row_sums),
            elog_sticks=expect_log_sticks(g.stick_u, g.stick_v),
            word_probs=topic_word_probs(g, row_sums),
        )


def _beta_entropy(sticks, dg, lg):
    """Entropy of Beta(a, b), given the stacked (a, b, a + b), their digammas and their log-gammas."""
    a, b, ab = sticks
    return lg[0] + lg[1] - lg[2] - (a - 1.0) * dg[0] - (b - 1.0) * dg[1] + (ab - 2.0) * dg[2]


def _softmax(scores, axis, out, floor=None):
    """Softmax of ``scores`` along ``axis`` into ``out``; returns the log normalizer (keepdims).

    Since the weights sum to 1, sum(p log p) = sum(p * scores) - log normalizer.
    With a ``floor``, every score below it after the max shift is raised to
    it: such a weight is e^floor / total instead of a smaller, often
    subnormal, one.  The shift leaves a 0 in every lane, so the total is at
    least 1, and at a floor as low as FLUSH_BELOW the raised addends are far
    below its last bit: the total and the log normalizer are those of the
    softmax without a floor, bit for bit.
    """
    top = scores.max(axis=axis, keepdims=True)
    np.subtract(scores, top, out=out)
    if floor is not None:
        np.maximum(out, floor, out=out)
    np.exp(out, out=out)
    total = out.sum(axis=axis, keepdims=True)
    out /= total
    return top + np.log(total)


def _fit_block(docs, elog_beta, elog_sticks, hyper, max_sweeps, tol):
    """Coordinate ascent for a block of documents against fixed corpus expectations.

    ``docs`` are the block's documents and ``elog_beta`` is (K, V); a
    document that fails ``check_words`` raises ParameterError first.
    Every document's evidence is padded to the block's longest document
    with zero counts, which add exact zeros to every product and sum.  A
    document leaves the block at the sweep where its own fit stops: after
    ``max_sweeps``, or once its bound moves by <= ``tol`` (relative).  The
    documents still running are then moved to the front of the block's
    arrays, which every sweep reuses.  Returns (factors, bound, sweeps)
    per document, in order.

    Each sweep's varphi is ``_softmax``'s with the floor FLUSH_BELOW: a
    weight below e^FLUSH_BELOW / total, which the exact softmax often makes
    subnormal or 0, is raised to that normal double.  The outputs stay
    exact, bit for bit.  The evidence, the scores and the stick terms are
    all negative, so every sum a raised weight joins keeps one sign and
    holds a term at least the row's largest weight (>= 1/K) times a nonzero
    evidence or score entry; round-to-nearest returns the same double
    whatever the raised addend is.  Padded evidence rows are +0 either way, and NaN passes
    through the raise.  So zeta, the sticks, the bound and the sweep counts
    are unchanged, and the varphi a stopping document leaves with is
    rebuilt from its scores by ``_softmax`` without a floor.
    """
    check_words(docs, elog_beta.shape[1])
    t_doc, alpha0 = hyper.T_doc, hyper.alpha0
    sizes = np.array([doc.words.size for doc in docs])
    n = np.zeros((sizes.size, sizes.max()))
    eb = np.zeros((sizes.size, sizes.max(), elog_beta.shape[0]))     # (B, M, K)
    for i, doc in enumerate(docs):
        n[i, : sizes[i]] = doc.counts
        eb[i, : sizes[i]] = elog_beta[:, doc.words].T
    zeta = np.full((sizes.size, t_doc, sizes.max()), 1.0 / t_doc)  # (B, T, M)
    weighted = zeta * n[:, None, :]                                  # zeta * counts, kept by every sweep
    varphi_scores = np.empty((sizes.size, t_doc, elog_beta.shape[0]))  # (B, T, K)
    varphi = np.empty_like(varphi_scores)
    # the document sticks' (a, b, a + b), stacked so that each special function is one call per sweep
    sticks = np.empty((3, sizes.size, t_doc - 1))
    sticks[0], sticks[1] = 1.0, alpha0
    elog_sticks_doc = expect_log_sticks(sticks[0], sticks[1])        # (B, T)
    stick_prior = (t_doc - 1) * math.log(alpha0)

    running = np.arange(sizes.size)
    bound = np.full(sizes.size, np.nan)
    out = [None] * sizes.size
    for sweep in range(1, max_sweeps + 1):
        np.matmul(weighted, eb, out=varphi_scores)
        varphi_scores += elog_sticks
        varphi_norm = _softmax(varphi_scores, 2, varphi, FLUSH_BELOW)
        # varphi @ eb^T is the zeta logit less the document sticks
        np.matmul(varphi, eb.transpose(0, 2, 1), out=zeta)
        zeta += elog_sticks_doc[:, :, None]
        zeta_norm = _softmax(zeta, 1, zeta)
        slot_mass = np.multiply(zeta, n[:, None, :], out=weighted).sum(axis=2)  # (B, T)
        a, b, ab = sticks
        np.add(1.0, slot_mass[:, :-1], out=a)
        np.cumsum(slot_mass[:, :0:-1], axis=1, out=b[:, ::-1])
        b += alpha0
        np.add(a, b, out=ab)
        dg, lg = digamma(sticks), gammaln(sticks)
        elog_frac = dg[:2] - dg[2]  # E[log frac] and E[log(1 - frac)] of every document stick
        new_sticks_doc = _log_sticks(elog_frac[0], elog_frac[1])

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
            + ((alpha0 - 1.0) * elog_frac[1] + _beta_entropy(sticks, dg, lg)).sum(axis=1)
        )
        elog_sticks_doc = new_sticks_doc
        if not np.isfinite(bound).all():
            raise NumericalError("document bound became non-finite", sweep=sweep)

        done = np.abs(bound - prev) <= tol * np.maximum(1.0, np.abs(prev))
        if sweep == max_sweeps:
            done[:] = True
        if not done.any():
            continue
        stop = np.flatnonzero(done)
        exact = varphi_scores[stop]
        _softmax(exact, 2, exact)
        for r, j in enumerate(stop):
            i = running[j]
            dv = DocVariational(a[j].copy(), b[j].copy(), exact[r], zeta[j, :, : sizes[i]].T.copy())
            out[i] = (dv, float(bound[j]), sweep)
        rows = np.flatnonzero(~done)
        if not rows.size:
            break
        # rows only move forward, one at a time, since a fancy-indexed copy of eb would be a block-sized transient;
        # the next sweep overwrites zeta before reading it, so only the evidence and the weighted counts move
        for dst, src in enumerate(rows):
            n[dst], eb[dst], weighted[dst] = n[src], eb[src], weighted[src]
        running = running[rows]
        k, width = rows.size, sizes[running].max()
        n, eb, zeta, weighted = n[:k, :width], eb[:k, :width], zeta[:k, :, :width], weighted[:k, :, :width]
        varphi_scores, varphi, sticks = varphi_scores[:k], varphi[:k], sticks[:, :k]
        elog_sticks_doc, bound = elog_sticks_doc[rows], bound[rows]
    return out


def _in_order(fit, blocks):
    """``map(fit, blocks)`` on WORKERS threads.  Block i + WORKERS is submitted once block i is done, so
    every submitted block has a thread; leaving the ``with`` joins them when the stream ends, fails or is
    abandoned."""
    with ThreadPoolExecutor(WORKERS, thread_name_prefix="infer_batch") as pool:
        pending = deque(pool.submit(fit, block) for block in blocks[:WORKERS])
        for i in range(WORKERS, len(blocks) + WORKERS):
            done = pending.popleft().result()
            if i < len(blocks):
                pending.append(pool.submit(fit, blocks[i]))
            yield done
            del done  # the block's factors are freed before the next block is awaited


def infer_batch(docs, elog_beta, elog_sticks, hyper):
    """Fit each document against fixed (K, V) and (K,) corpus expectations.

    Documents are fitted BLOCK_DOCS at a time by one batched coordinate
    ascent.  Yields (factors, bound, topic weights) per document, lazily
    and in order; the documents' words and counts are the caller's.  A
    document that fails ``check_words`` raises ParameterError when its
    block's turn comes.

    With WORKERS > 1 and at least two blocks, each block's ``_fit_block``,
    which checks the block's words first, runs on a pool of WORKERS
    threads: block i + WORKERS is submitted before block i's documents are
    yielded, so a caller holds at most WORKERS + 1 blocks' factors.  A block's
    ParameterError is raised at the block's turn, and topic weights stay
    on the calling thread.  Otherwise the built-in ``map`` fits each block
    on the calling thread as its turn comes.  Either way the yields, and
    the error raised, are bit-identical.

    WORKERS is one per CPU the process may run on, at most 4: memory grows
    by a block's working arrays per worker, and the share of the kernel
    that holds the GIL limits what more threads can gain.  Only 1 and 2
    workers have been measured.

    Blocks are 64 documents because a sweep's numpy calls each hold the
    GIL for a fixed cost whatever their size, and a block's rows thin out
    as its documents stop: with 16-document blocks two workers were slower
    than one.  The price is memory: each worker's padded (B, M, K) arrays,
    and the WORKERS + 1 blocks' factors a caller holds, grow with the block.
    """
    blocks = list(batch_iter(docs, BLOCK_DOCS))

    def fit(block):
        return _fit_block(block, elog_beta, elog_sticks, hyper, MAX_SWEEPS, SWEEP_TOL)

    fitted_blocks = map(fit, blocks) if WORKERS == 1 or len(blocks) == 1 else _in_order(fit, blocks)
    for fitted in fitted_blocks:
        for dv, bound, _ in fitted:
            yield dv, bound, doc_topic_mixture(dv)
        del fitted  # the block's factors are freed before the next block is fitted


def accumulate_stats(stats, dv, doc):
    stats.lam[:, doc.words] += dv.varphi.T @ (dv.zeta * doc.counts[:, None]).T
    stats.usage += dv.varphi.sum(axis=0)
    stats.batch_doc_count += 1


def learning_rate(hyper, update_count):
    return (hyper.tau0 + update_count) ** (-hyper.kappa)


def online_update(g, stats, hyper, corpus_scale):
    """One stochastic natural-gradient step; returns the new corpus state.

    Neither ``g`` nor ``stats`` is changed.  The new lambda is
    (1 - rho) lambda + rho (eta + scale * batch lambda), built with one
    (K, V) scratch array besides the result.
    """
    if stats.batch_doc_count < 1:
        raise ParameterError("stats must come from at least one document")
    rho = learning_rate(hyper, g.update_count)
    scale = corpus_scale / stats.batch_doc_count
    step = stats.lam * scale
    step += hyper.eta
    step *= rho
    lam = g.lam * (1.0 - rho)
    lam += step
    k = g.num_topics
    tail = np.flip(np.cumsum(np.flip(stats.usage[1:])))
    u = (1.0 - rho) * g.stick_u + rho * (1.0 + scale * stats.usage[: k - 1])
    v = (1.0 - rho) * g.stick_v + rho * (hyper.gamma + scale * tail)
    return GlobalVariational(lam, u, v, g.update_count + 1)


def doc_topic_mixture(dv):
    """Expected topic weights of a fitted document."""
    return _stick_means(dv.stick_a, dv.stick_b) @ dv.varphi


def mixture_score(doc, theta, word_probs):
    """log p(words) of a document under a plug-in topic mixture, in nats."""
    per_word = theta @ word_probs[:, doc.words]
    return float(np.dot(doc.counts, np.log(per_word)))


@dataclass
class BatchResult:
    """Per-document records of one batch and the topics it gave birth to or killed."""

    per_doc: list
    topics_born: set = field(default_factory=set)
    topics_died: set = field(default_factory=set)


class OnlineHdp:
    """Streaming wrapper pairing hyperparameters with the corpus state."""

    def __init__(self, hyper, vocab_size, corpus_scale, seed=42):
        self.hyper = hyper
        self.vocab_size = vocab_size
        self.corpus_scale = corpus_scale
        self.g = init_global(hyper, vocab_size, corpus_scale, seed)

    def expectations(self):
        """(elog_beta, elog_sticks, word_probs) that documents are fitted and scored against."""
        snap = HdpSnapshot.of(self.g)
        return snap.elog_beta, snap.elog_sticks, snap.word_probs

    def process_batch(self, batch):
        """Score every document against the pre-batch state, then learn once."""
        if not batch:
            return BatchResult([])
        records, _, stats = score_batch(self, batch)
        self.g = online_update(self.g, stats, self.hyper, self.corpus_scale)
        return BatchResult(records)


def score_batch(model, batch):
    """Fit and score each document of a batch against ``model.expectations()``, leaving the model as it is.

    Returns the (doc id, timestamp, total loglik, word count) record and
    the topic weights of each document, in batch order, and the batch's
    sufficient statistics.
    """
    elog, elog_sticks, word_probs = model.expectations()
    stats = BatchStats.zeros(model.hyper.K_corpus, model.vocab_size)
    records, mixtures = [], []
    for doc, (dv, _, theta) in zip(batch, infer_batch(batch, elog, elog_sticks, model.hyper)):
        records.append((doc.id, doc.timestamp, mixture_score(doc, theta, word_probs), int(doc.counts.sum())))
        mixtures.append(theta)
        accumulate_stats(stats, dv, doc)
    return records, mixtures, stats


def prequential_run(model, docs, batch_size):
    """Run score-then-learn over the stream with either online model; one record per document."""
    records = []
    for batch in batch_iter(docs, batch_size):
        records.extend(model.process_batch(batch).per_doc)
    return records


# name -> (dtype, ndim) of the arrays of an "ohdp" checkpoint; a "cidtm" one adds its tracks.  lam is
# stored as the packed (K, V) mask of its entries equal to eta and its other entries in C order: with
# the default tau0 = 1 the first update has rate 1, so every entry that no batch has touched is eta
ARRAYS = {"lam_is_eta": ("|u1", 1), "lam_off_eta": ("<f8", 1), "stick_u": ("<f8", 1), "stick_v": ("<f8", 1)}


def encode_hdp(hdp):
    """Checkpoint header fields and arrays of an OnlineHdp, shared by both online models."""
    g = hdp.g
    header = {"vocab_size": hdp.vocab_size, "corpus_scale": hdp.corpus_scale, "update_count": g.update_count}
    is_eta = g.lam == hdp.hyper.eta
    arrays = {"lam_is_eta": pack_mask(is_eta), "lam_off_eta": g.lam[~is_eta]}
    return header, {**arrays, "stick_u": g.stick_u, "stick_v": g.stick_v}


def decode_hdp(model, header, arrays, hyper):
    """Fill ``model`` with the OnlineHdp state that ``encode_hdp`` put in ``header`` and ``arrays``; returns it."""
    model.hyper = hyper
    model.vocab_size = header_value(header, "vocab_size", int)
    model.corpus_scale = header_value(header, "corpus_scale", float)
    update_count = header_value(header, "update_count", int)
    if update_count < 0:
        raise ParameterError(f"checkpoint 'update_count' must be >= 0, got {update_count}")
    check_values("corpus_scale", model.corpus_scale, positive=True)
    for name in ("lam_off_eta", "stick_u", "stick_v"):
        check_values(name, arrays[name], positive=True)
    k = hyper.K_corpus
    stick_u, stick_v = arrays["stick_u"], arrays["stick_v"]
    if stick_u.shape != (k - 1,) or stick_v.shape != (k - 1,):
        raise ParameterError(f"checkpoint sticks {stick_u.shape}, {stick_v.shape} do not fit K_corpus = {k}")
    off_eta = ~unpack_mask("lam_is_eta", arrays["lam_is_eta"], (k, model.vocab_size))
    size, expected = arrays["lam_off_eta"].size, np.count_nonzero(off_eta)
    if size != expected:
        raise ParameterError(f"checkpoint lam_off_eta holds {size} values, not one per lam entry off eta ({expected})")
    lam = np.full(off_eta.shape, hyper.eta)
    lam[off_eta] = arrays["lam_off_eta"]
    model.g = GlobalVariational(lam, stick_u, stick_v, update_count)
    return model


def save_checkpoint(model, path):
    header, arrays = encode_hdp(model)
    write_checkpoint("ohdp", {**header, "hyper": asdict(model.hyper)}, arrays, path)


def decode_checkpoint(header, arrays):
    """The OnlineHdp of an "ohdp" checkpoint's header and arrays."""
    hyper = config_from(HdpHyper, header_value(header, "hyper", dict))
    return decode_hdp(OnlineHdp.__new__(OnlineHdp), header, arrays, hyper)


def load_checkpoint(path):
    return decode_checkpoint(*read_checkpoint(path, {"ohdp": ARRAYS})[1:])
