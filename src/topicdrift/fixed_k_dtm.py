"""Offline fixed-K topic model with continuous-time drifting topics.

Training alternates (a) per-document variational mixture steps under a
symmetric Dirichlet(alpha) prior against the current topic trajectories
and (b) re-estimation of the topics: expected counts at each distinct
training timestamp (knot) become log-probability pseudo-observations
that are smoothed through the scalar Kalman machinery, one track per
(topic, word).  The topic count K never changes.  Training and held-out
scoring fit their documents through one loop, ``_fit_blocks``:
BLOCK_DOCS documents at a time with one batched kernel,
``_mixture_e_step``, in factored form: a block's word probabilities are
exponentiated once, so an iteration exponentiates only K values per
document.

As in the sparse variational inference of Wang, Blei and Heckerman
(UAI 2008), a track is touched only where its word is observed.  The
model keeps its state at the P observed (knot, word) pairs, as (K, P)
``means`` and ``variances``, and re-estimation, ``_smooth_topics``, runs
one sparse filter and one sparse smoother pass over all K topics per
sweep.  The smoothed mean at any other time follows in closed form from
the Markov property of the Brownian track: linear in time between two
observations of the word, its last value after its last observation,
``m0 + (P0 + v (t - t0)) / (P0 + v (a - t0)) * (m_a - m0)`` before its
first observation at ``a``, and the prior mean ``m0`` for a word never
observed; timestamps outside the knots clamp to the end knots.  So
memory is O(K·P) plus one (K, V) array per timestamp asked for.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .checkpoint import header_value, read_checkpoint, write_checkpoint
from .corpus import vocab_words
from .errors import NumericalError, ParameterError, TimeOrderError
from .kalman import DriftConfig, pair_filter, pair_smoother

# every document fit stops after MAX_ITER iterations or once mean |delta gamma| < TOL
MAX_ITER = 50
TOL = 1e-4
# documents fitted together; a block's padded (B, M, K) log-probs are the kernel's extra memory
BLOCK_DOCS = 16
# pseudo-count added to every (knot, word) expected count before it becomes an observation
SMOOTHING = 0.01


@dataclass
class CdtmModel:
    """A trained fixed-K model: its smoothed state at the observed (knot, word) pairs.

    ``knots`` and ``pairs`` never change after construction, so the
    word-run index of ``means_at`` is built once, here.
    """

    K: int
    alpha_dirichlet: float
    vocab_size: int
    process_variance: float   # Brownian drift per unit time of every track
    prior_variance: float     # track variance at the first knot, around m0 = log(1 / V)
    knots: np.ndarray         # (S,) training timestamps, strictly ascending
    pairs: np.ndarray         # (P,) observed (knot, word) pairs as knot * V + word, strictly ascending
    means: np.ndarray         # (K, P) smoothed natural parameters at the pairs
    variances: np.ndarray     # (K, P)
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
        m0, p0, v = math.log(1.0 / self.vocab_size), self.prior_variance, self.process_variance
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


def _mixture_e_step(fits, logps, alpha, bounds=True):
    """Variational mixture fit of a block of documents against fixed topic log-probs.

    ``fits`` holds (words, counts) per document and ``logps`` the (K, V)
    log-probs each document is fitted against.  The block's log-probs at
    its words are padded to (B, M, K) with zero counts and exponentiated
    once, shifted by each word's maximum over K (the shift cancels in
    phi).  Since phi_mk is proportional to exp(Elog theta_k) exp(logp_mk),
    an iteration then takes K exponentials per document and two stacked
    matmuls: the normalizers z = beta @ exp(Elog theta) and the topic
    counts exp(Elog theta) * ((n / z) @ beta).  A document stops at its
    own iteration: once mean |delta gamma| < TOL, or after MAX_ITER; the
    phi and bounds of the documents that stop together are built in one
    pass over their padded rows.  The documents still running are moved
    to the front of the block's arrays.  Returns (gamma, phi, bound) per
    document, in order: the Dirichlet posterior over the mixture, the
    (M, K) word responsibilities and the document's bound; phi and the
    bound are None unless ``bounds``.
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
        stop = np.flatnonzero(done)
        if bounds:
            phi = beta[stop] * et[stop, None, :] / z[stop, :, None]
            bound = _block_bounds(n[stop], lp[stop], phi, gamma[stop], alpha)
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
            n[dst], lp[dst], beta[dst] = n[src], lp[src], beta[src]
        running = running[rows]
        b, width = rows.size, sizes[running].max()
        n, lp, beta = n[:b, :width], lp[:b, :width], beta[:b, :width]
        gamma = gamma[rows]
    return out


def _fit_blocks(fits, stamps, logp_at, alpha, bounds):
    """``_mixture_e_step`` over documents BLOCK_DOCS at a time; yields (log-probs, fit) per document, in order.

    Document i is fitted against ``logp_at(stamps[i])``, the (K, V)
    log-probs at its timestamp.  A block builds those of each of its
    distinct stamps once and reuses the previous block's, so a run of
    consecutive blocks that share a stamp builds its log-probs once.
    """
    logps = {}
    for start in range(0, len(fits), BLOCK_DOCS):
        block = slice(start, start + BLOCK_DOCS)
        logps = {ts: logps[ts] if ts in logps else logp_at(ts) for ts in dict.fromkeys(stamps[block])}
        doc_logps = [logps[ts] for ts in stamps[block]]
        yield from zip(doc_logps, _mixture_e_step(fits[block], doc_logps, alpha, bounds))


def _smooth_topics(knots, pairs, vocab_size, expected, drift, obs_var):
    """All K topic tracks at the pairs, smoothed from (K, P) expected counts; returns (means, variances).

    With count = expected + SMOOTHING, a pair's pseudo-observation is
    log(count / row sum) and its variance obs_var / count; a knot's row
    sum is its pairs' counts plus SMOOTHING for each of its V - n_s
    unobserved words.  One sparse filter and one sparse smoother pass over
    all K topics, at ``drift``'s rate and from the uniform level log(1/V)
    with ``drift``'s prior variance, then turn them into the (K, P)
    smoothed means and variances.  ``expected`` is overwritten: it becomes
    the variances.
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
    obs = np.divide(obs_var, counts, out=expected)
    words = pairs % v
    pair_filter(knots, starts, words, beta, obs, drift.process_variance, np.log(1.0 / v), drift.prior_variance)
    return pair_smoother(knots, starts, words, beta, obs, drift.process_variance)


def _check_positive(**settings):
    """The rule for alpha and obs_var, in training and in a checkpoint header: finite and > 0."""
    if not all(0.0 < x < math.inf for x in settings.values()):  # also rejects nan
        raise ParameterError(f"{' and '.join(settings)} must be finite and > 0,"
                             f" got {' and '.join(map(str, settings.values()))}")


def train_cdtm(train_docs, k, drift, sweeps, rng, vocab_size, alpha=1.0, obs_var=0.1):
    """Fit the fixed-K drifting-topic model on a timestamp-ascending corpus.

    ``drift`` is a kalman.DriftConfig whose drift rate and prior
    variance are used; its ``prior_mean`` is not read, as every track
    starts at the uniform level log(1/V).  The per-sweep objective (sum of
    per-document bounds) is recorded on the returned model.  Documents
    are fitted by ``_fit_blocks``, so a sweep holds the log-probs of the
    current block's knots only.  The first sweep fits every document
    against one random (K, V) draw around the uniform level; every later
    one against the model smoothed by the sweep before.
    """
    if k < 1:
        raise ParameterError("K must be >= 1")
    if sweeps < 1:
        raise ParameterError("sweeps must be >= 1")
    _check_positive(alpha=alpha, obs_var=obs_var)
    if not train_docs:
        raise ParameterError("train_docs must be nonempty")
    ts = [d.timestamp for d in train_docs]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise TimeOrderError("train_docs must be timestamp-ascending")

    fits = vocab_words(train_docs, vocab_size)
    knots, doc_knot = np.unique(ts, return_inverse=True)
    base = np.log(1.0 / vocab_size)

    # the observed (knot, word) pairs, and each document's columns among them
    flat = np.concatenate([q * vocab_size + np.asarray(words) for (words, _), q in zip(fits, doc_knot.tolist())])
    pairs, columns = np.unique(flat, return_inverse=True)
    columns = np.split(columns, np.cumsum([len(words) for words, _ in fits])[:-1])

    first = _log_normalize(rng.normal(0.0, 0.1, (k, vocab_size)) + base)
    logp_at, objective_trace = lambda _: first, []
    for _ in range(sweeps):
        objective = 0.0
        expected = np.zeros((k, pairs.size))
        fitted = _fit_blocks(fits, ts, logp_at, alpha, bounds=True)
        for (_, n), cols, (_, (_, phi, bound)) in zip(fits, columns, fitted):
            objective += bound
            expected[:, cols] += (phi * n[:, None]).T
        objective_trace.append(objective)

        means, variances = _smooth_topics(knots, pairs, vocab_size, expected, drift, obs_var)
        model = CdtmModel(K=k, alpha_dirichlet=alpha, vocab_size=vocab_size,
                          process_variance=drift.process_variance, prior_variance=drift.prior_variance,
                          knots=knots, pairs=pairs, means=means, variances=variances,
                          objective_trace=objective_trace)
        logp_at = model.log_word_probs_at
    return model


def cdtm_heldout_loglik(model, docs):
    """Per-document predictive log-likelihood; never modifies the model.

    Documents are fitted by ``_fit_blocks``.  Only each document's
    mixture posterior is fitted: no phi, no bound.
    """
    fits = vocab_words(docs, model.vocab_size)
    fitted = _fit_blocks(fits, [doc.timestamp for doc in docs], model.log_word_probs_at, model.alpha_dirichlet,
                         bounds=False)
    records = []
    for doc, (words, n), (logp, (gamma, _, _)) in zip(docs, fits, fitted):
        theta = gamma / gamma.sum()
        per_word = theta @ np.exp(logp[:, words])
        records.append((doc.id, doc.timestamp, float(np.dot(n, np.log(per_word))), int(n.sum())))
    return records


# the header fields and the arrays of a "cdtm" checkpoint; S = knots.size, P = pairs.size
HEADER = {"K": int, "alpha_dirichlet": float, "vocab_size": int, "process_variance": float,
          "prior_variance": float}
ARRAYS = {"knots": ("<f8", 1), "pairs": ("<i8", 1), "means": ("<f8", 2), "variances": ("<f8", 2),
          "objective_trace": ("<f8", 1)}


def save_checkpoint(model, path):
    header = {name: getattr(model, name) for name in HEADER}
    arrays = {name: getattr(model, name) for name in ARRAYS}
    arrays["objective_trace"] = np.array(model.objective_trace, dtype=float)
    write_checkpoint("cdtm", header, arrays, path)


def _refuse_dense_state(path):
    """Raise the re-train error if ``path`` holds the former dense (K, S, V) state."""
    try:
        read_checkpoint(path, {"cdtm": {"means": ("<f8", 3)}})
    except ParameterError:
        return
    raise ParameterError(f"{path} holds the former dense (K, S, V) cdtm state, no longer read;"
                         " re-train the model") from None


def load_checkpoint(path):
    try:
        _, header, arrays = read_checkpoint(path, {"cdtm": ARRAYS})
    except ParameterError:
        _refuse_dense_state(path)
        raise
    params = {name: header_value(header, name, kind) for name, kind in HEADER.items()}
    DriftConfig(params["process_variance"], prior_variance=params["prior_variance"])  # rejects bad settings
    _check_positive(alpha_dirichlet=params["alpha_dirichlet"])
    k, v = params["K"], params["vocab_size"]
    knots, pairs = arrays["knots"], arrays["pairs"]
    if not knots.size or (np.diff(knots) <= 0).any():
        raise ParameterError("checkpoint knots must be nonempty and strictly ascending")
    if k < 1 or v < 1:
        raise ParameterError(f"checkpoint K and vocab_size must be >= 1, got {k} and {v}")
    if not pairs.size or (np.diff(pairs) <= 0).any() or pairs[0] < 0 or pairs[-1] >= knots.size * v:
        raise ParameterError("checkpoint pairs must be strictly increasing indices knot * V + word in [0, S * V)")
    if np.count_nonzero(np.diff(pairs // v)) + 1 != knots.size:
        raise ParameterError("checkpoint has a knot without an observed pair")
    shape = (k, pairs.size)
    if arrays["means"].shape != shape or arrays["variances"].shape != shape:
        raise ParameterError(f"checkpoint means {arrays['means'].shape} and variances"
                             f" {arrays['variances'].shape} are not (K, P) = {shape}")
    arrays["objective_trace"] = arrays["objective_trace"].tolist()
    return CdtmModel(**params, **arrays)
