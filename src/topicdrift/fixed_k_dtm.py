"""Offline fixed-K topic model with continuous-time drifting topics.

Training alternates (a) per-document variational mixture steps under a
symmetric Dirichlet(alpha) prior against the current topic trajectories
and (b) re-estimation of the topics: expected counts at each distinct
training timestamp (knot) become log-probability pseudo-observations
that are smoothed through the scalar Kalman machinery, one track per
(topic, word).  The topic count K never changes.  Training and held-out
scoring fit their documents through one loop, ``_fit_blocks``:
online_hdp.BLOCK_DOCS documents at a time with one batched kernel,
``_mixture_e_step``, in factored form: a block's word probabilities are
exponentiated once, so an iteration exponentiates only K values per
document.

As in the sparse variational inference of Wang, Blei and Heckerman
(UAI 2008), a track is touched only where its word is observed.  The
model keeps its state at the P observed (knot, word) pairs, as (K, P)
smoothed ``means``, and re-estimation, ``_smooth_topics``, runs one
sparse filter and one sparse smoother pass over all K topics per sweep;
the smoothed variances are scratch, since scoring reads only the means.
The smoothed mean at any other time follows in closed form from
the Markov property of the Brownian track: linear in time between two
observations of the word, its last value after its last observation,
``m0 + (P0 + v (t - t0)) / (P0 + v (a - t0)) * (m_a - m0)`` before its
first observation at ``a``, and the prior mean ``m0`` for a word never
observed; timestamps outside the knots clamp to the end knots.  So
memory is O(K·P) plus the (K, V) array of one timestamp at a time.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import digamma, gammaln

from . import online_hdp
from .checkpoint import config_from, header_value, read_checkpoint, write_checkpoint
from .corpus import batch_iter, check_words
from .drifting_topics import PRIOR_VARIANCE, SECONDS_PER_DAY, CidtmConfig
from .errors import NumericalError, ParameterError, TimeOrderError
from .kalman import pair_filter, pair_smoother

# every document fit stops after MAX_ITER iterations or once mean |delta gamma| < TOL
MAX_ITER = 50
TOL = 1e-4
# pseudo-count added to every (knot, word) expected count before it becomes an observation
SMOOTHING = 0.01


@dataclass(frozen=True)
class CdtmConfig:
    """Topic count, Dirichlet alpha, drift per day, observation variance and training sweeps.

    The drift defaults are ``CidtmConfig``'s, so both drifting models compare at the same settings.
    """

    K: int = 50
    alpha: float = 1.0
    drift_v: float = CidtmConfig.drift_v
    obs_var: float = CidtmConfig.obs_var
    sweeps: int = 3

    def __post_init__(self):
        if self.K < 1 or self.sweeps < 1:
            raise ParameterError(f"K and sweeps must be >= 1, got {self.K} and {self.sweeps}")
        # the bounds are written so that nan fails them
        if not (0.0 < self.alpha < math.inf and 0.0 < self.obs_var < math.inf):
            raise ParameterError(f"alpha and obs_var must be finite and > 0, got {self.alpha} and {self.obs_var}")
        if not 0.0 <= self.drift_v < math.inf:
            raise ParameterError(f"drift_v must be finite and >= 0, got {self.drift_v}")


@dataclass
class CdtmModel:
    """A trained fixed-K model: its smoothed means at the observed (knot, word) pairs.

    ``knots`` and ``pairs`` never change after construction, so the
    word-run index of ``means_at`` is built once, here.
    """

    config: CdtmConfig
    vocab_size: int
    knots: np.ndarray         # (S,) training timestamps, strictly ascending
    pairs: np.ndarray         # (P,) observed (knot, word) pairs as knot * V + word, strictly ascending
    means: np.ndarray         # (K, P) smoothed natural parameters at the pairs
    objective_trace: list     # the objective after each training sweep

    def __post_init__(self):
        # the pairs sorted by (word, knot), their keys word * S + knot, and each word's run of keys
        s = self.knots.size
        knot, word = np.divmod(self.pairs, self.vocab_size)
        keys = word * s + knot
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        self._bounds = np.searchsorted(self._keys, np.arange(self.vocab_size + 1) * s)

    def means_at(self, ts):
        """(K, V) smoothed natural parameters at an arbitrary timestamp, in closed form."""
        knots, s = self.knots, self.knots.size
        t = min(max(float(ts), knots[0]), knots[-1])
        order, keys, bounds = self._order, self._keys, self._bounds
        q = int(np.searchsorted(knots, t, side="right")) - 1  # the last knot at or before t
        nxt = np.searchsorted(keys, np.arange(self.vocab_size) * s + q, side="right")
        before, after = nxt > bounds[:-1], nxt < bounds[1:]  # the word is observed at or before / after q
        lo, hi = nxt - 1, np.minimum(nxt, keys.size - 1)  # masked out where there is no such observation
        t_lo, t_hi = knots[keys[lo] % s], knots[keys[hi] % s]
        m0, p0, v = math.log(1.0 / self.vocab_size), PRIOR_VARIANCE, self.config.drift_v / SECONDS_PER_DAY
        # the next observation's weight: linear in time between two observations; before the
        # first, the track's prior variance at t over its prior variance at that observation
        num = np.where(before, t - t_lo, p0 + v * (t - knots[0]))
        den = np.where(before, t_hi - t_lo, p0 + v * (t_hi - knots[0]))
        w = np.where(after, num / np.where(after, den, 1.0), 0.0)
        m_lo = self.means.take(order[lo], axis=1)
        m_lo[:, ~before] = m0
        out = self.means.take(order[hi], axis=1)
        out -= m_lo
        out *= w
        out += m_lo
        return out

    def log_word_probs_at(self, ts):
        """(K, V) log word distributions at an arbitrary timestamp."""
        return _log_normalize(self.means_at(ts))


def _log_normalize(eta):
    """Rows of natural parameters as log-probabilities."""
    eta = eta - eta.max(axis=1, keepdims=True)
    return eta - np.log(np.exp(eta).sum(axis=1, keepdims=True))


def _block_bounds(n, lp, phi, gamma, alpha):
    """Bounds of padded documents at their final (gamma, phi); ``n`` is (B, M), ``lp`` and ``phi`` (B, M, K).

    Padding has zero counts, so it adds nothing.
    """
    k = gamma.shape[1]
    elog_theta = digamma(gamma) - digamma(gamma.sum(axis=1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(phi > 0, phi * np.log(np.where(phi > 0, phi, 1.0)), 0.0)
    words = ((phi * (lp + elog_theta[:, None, :]) - plogp) * n[:, :, None]).sum(axis=(1, 2))
    prior = gammaln(k * alpha) - k * gammaln(alpha) + ((alpha - 1.0) * elog_theta).sum(axis=1)
    entropy = gammaln(gamma.sum(axis=1)) - gammaln(gamma).sum(axis=1) + ((gamma - 1.0) * elog_theta).sum(axis=1)
    return words + prior - entropy


def _mixture_e_step(docs, lp, alpha, bounds=True):
    """Variational mixture fit of a block of documents against fixed topic log-probs.

    ``docs`` are the block's documents and ``lp``, never modified,
    the (B, M, K) log-probs at their words, zero-padded to the widest.  They
    are exponentiated once, shifted by each word's maximum over K (the shift
    cancels in phi).  Since phi_mk is proportional to exp(Elog theta_k)
    exp(logp_mk), an iteration then takes K exponentials per document and
    two stacked matmuls: the normalizers z = beta @ exp(Elog theta) and the
    topic counts exp(Elog theta) * ((n / z) @ beta).  A document stops at its
    own iteration: once mean |delta gamma| < TOL, or after MAX_ITER; the
    phi and bounds of the documents that stop together are built in one
    pass over their padded rows.  The documents still running are moved
    to the front of the block's arrays.  Returns (gamma, phi, bound) per
    document, in order: the Dirichlet posterior over the mixture, the
    (M, K) word responsibilities and the document's bound; phi and the
    bound are None unless ``bounds``.
    """
    sizes = np.array([doc.words.size for doc in docs])
    k = lp.shape[2]
    n = np.zeros(lp.shape[:2])
    gamma = np.empty((sizes.size, k))
    for i, doc in enumerate(docs):
        n[i, : sizes[i]] = doc.counts
        gamma[i] = alpha + doc.counts.sum() / k
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
        stop = np.flatnonzero(done)
        if bounds:
            phi = beta[stop] * et[stop, None, :] / z[stop, :, None]
            bound = _block_bounds(n[stop], lp[running[stop], : n.shape[1]], phi, gamma[stop], alpha)
            if not np.isfinite(bound).all():
                raise NumericalError("document bound became non-finite", sweep=it)
        for r, j in enumerate(stop):
            i = running[j]
            fit = (phi[r, : sizes[i]], float(bound[r])) if bounds else (None, None)
            out[i] = (gamma[j].copy(), *fit)
        rows = np.flatnonzero(~done)
        if not rows.size:
            break
        for dst, src in enumerate(rows):  # rows only move forward
            n[dst], beta[dst] = n[src], beta[src]
        running = running[rows]
        b, width = rows.size, sizes[running].max()
        n, beta = n[:b, :width], beta[:b, :width]
        gamma = gamma[rows]
    return out


def _fit_blocks(docs, logp_at, k, alpha, bounds):
    """``_mixture_e_step`` over documents BLOCK_DOCS at a time; yields (log-probs, fit) per document, in order.

    A document is fitted against ``logp_at(doc.timestamp)``, the (K, V)
    log-probs at its timestamp.  A block builds those of each distinct
    stamp once, copies its documents' columns into one padded (B, M, K)
    array and drops them before it builds the next stamp's, so it holds
    one (K, V) array at a time; a document's log-probs are its (M, K) rows.

    Blocks are fitted in turn on the calling thread: on the worker pool
    of ``online_hdp.infer_batch`` they ran no faster and peaked 6-9 MB
    higher, and the benchmark's span tracer, which times
    ``_mixture_e_step``, is not thread-safe.
    """
    for block in batch_iter(docs, online_hdp.BLOCK_DOCS):
        at = np.array([doc.timestamp for doc in block])
        lp = np.zeros((len(block), max(doc.words.size for doc in block), k))
        for ts in dict.fromkeys(at.tolist()):
            logp = logp_at(ts)
            for i in np.flatnonzero(at == ts):
                words = block[i].words
                lp[i, : words.size] = logp[:, words].T
            del logp
        fitted = _mixture_e_step(block, lp, alpha, bounds)
        yield from ((doc_lp[: doc.words.size], fit) for doc_lp, doc, fit in zip(lp, block, fitted))


def _smooth_topics(knots, pairs, vocab_size, expected, config):
    """All K topic tracks at the pairs, smoothed from (K, P) expected counts; returns the (K, P) means.

    With count = expected + SMOOTHING, a pair's pseudo-observation is
    log(count / row sum) and its variance ``config.obs_var`` / count; a
    knot's row sum is its pairs' counts plus SMOOTHING for each of its
    V - n_s unobserved words.  One sparse filter and one sparse smoother
    pass over all K topics, at ``config``'s drift rate and from the
    uniform level log(1/V) with variance PRIOR_VARIANCE, then turn them
    into the (K, P) smoothed means.  ``expected`` is overwritten: it is
    the scratch for the variances, which nothing reads.
    """
    v = vocab_size
    starts = np.searchsorted(pairs, np.arange(knots.size + 1) * v)
    sizes = np.diff(starts)
    counts = np.add(expected, SMOOTHING, out=expected)
    rows = np.add.reduceat(counts, starts[:-1], axis=1) + (v - sizes) * SMOOTHING  # (K, S)
    beta = np.repeat(rows, sizes, axis=1)
    np.log(np.divide(counts, beta, out=beta), out=beta)
    # pseudo-observation precision follows the evidence: the log of
    # a count has variance ~ 1/count, scaled by the obs_var knob
    obs = np.divide(config.obs_var, counts, out=expected)
    words = pairs % v
    rate = config.drift_v / SECONDS_PER_DAY
    pair_filter(knots, starts, words, beta, obs, rate, np.log(1.0 / v), PRIOR_VARIANCE)
    return pair_smoother(knots, starts, words, beta, obs, rate)[0]


def train_cdtm(train_docs, config, rng, vocab_size):
    """Fit the fixed-K drifting-topic model, with ``config``'s settings, on a timestamp-ascending corpus.

    The per-sweep objective (sum of per-document bounds) is recorded on
    the returned model.  Documents are fitted by ``_fit_blocks``, so a
    sweep holds the log-probs of one knot at a time.  The
    first sweep fits every document against one random (K, V) draw
    around the uniform level; every later one against the model smoothed
    by the sweep before.
    """
    if not train_docs:
        raise ParameterError("train_docs must be nonempty")
    ts = [d.timestamp for d in train_docs]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise TimeOrderError("train_docs must be timestamp-ascending")

    check_words(train_docs, vocab_size)
    knots, doc_knot = np.unique(ts, return_inverse=True)
    base = np.log(1.0 / vocab_size)

    # the observed (knot, word) pairs, and each document's columns among them
    flat = np.concatenate([q * vocab_size + doc.words for doc, q in zip(train_docs, doc_knot.tolist())])
    pairs, columns = np.unique(flat, return_inverse=True)
    columns = np.split(columns, np.cumsum([doc.words.size for doc in train_docs])[:-1])

    first = _log_normalize(rng.normal(0.0, 0.1, (config.K, vocab_size)) + base)
    logp_at, objective_trace = lambda _: first, []
    for _ in range(config.sweeps):
        objective = 0.0
        expected = np.zeros((config.K, pairs.size))
        fitted = _fit_blocks(train_docs, logp_at, config.K, config.alpha, bounds=True)
        for doc, cols, (_, (_, phi, bound)) in zip(train_docs, columns, fitted):
            objective += bound
            expected[:, cols] += (phi * doc.counts[:, None]).T
        objective_trace.append(objective)

        means = _smooth_topics(knots, pairs, vocab_size, expected, config)
        model = CdtmModel(config=config, vocab_size=vocab_size, knots=knots, pairs=pairs, means=means,
                          objective_trace=objective_trace)
        logp_at = model.log_word_probs_at
    return model


def cdtm_heldout_loglik(model, docs):
    """Per-document predictive log-likelihood; never modifies the model.

    Documents are fitted by ``_fit_blocks``.  Only each document's
    mixture posterior is fitted: no phi, no bound.
    """
    check_words(docs, model.vocab_size)
    fitted = _fit_blocks(docs, model.log_word_probs_at, model.config.K, model.config.alpha, bounds=False)
    records = []
    for doc, (lp, (gamma, _, _)) in zip(docs, fitted):
        theta = gamma / gamma.sum()
        per_word = np.exp(lp) @ theta
        records.append((doc.id, doc.timestamp, float(np.dot(doc.counts, np.log(per_word))), int(doc.counts.sum())))
    return records


# the arrays of a "cdtm" checkpoint, whose header holds the config and vocab_size; S = knots.size, P = pairs.size
ARRAYS = {"knots": ("<f8", 1), "pairs": ("<i8", 1), "means": ("<f8", 2), "objective_trace": ("<f8", 1)}


def save_checkpoint(model, path):
    arrays = {name: getattr(model, name) for name in ARRAYS}
    arrays["objective_trace"] = np.array(model.objective_trace, dtype=float)
    write_checkpoint("cdtm", {"config": asdict(model.config), "vocab_size": model.vocab_size}, arrays, path)


def load_checkpoint(path):
    _, header, arrays = read_checkpoint(path, {"cdtm": ARRAYS})
    config = config_from(CdtmConfig, header_value(header, "config", dict))
    v = header_value(header, "vocab_size", int)
    knots, pairs = arrays["knots"], arrays["pairs"]
    if not knots.size or (np.diff(knots) <= 0).any():
        raise ParameterError("checkpoint knots must be nonempty and strictly ascending")
    if v < 1:
        raise ParameterError(f"checkpoint vocab_size must be >= 1, got {v}")
    if not pairs.size or (np.diff(pairs) <= 0).any() or pairs[0] < 0 or pairs[-1] >= knots.size * v:
        raise ParameterError("checkpoint pairs must be strictly increasing indices knot * V + word in [0, S * V)")
    if np.count_nonzero(np.diff(pairs // v)) + 1 != knots.size:
        raise ParameterError("checkpoint has a knot without an observed pair")
    if arrays["means"].shape != (config.K, pairs.size):
        raise ParameterError(f"checkpoint means {arrays['means'].shape} are not (K, P) = {(config.K, pairs.size)}")
    arrays["objective_trace"] = arrays["objective_trace"].tolist()
    return CdtmModel(config=config, vocab_size=v, **arrays)
