"""Sparse variational Kalman filtering over scalar natural-parameter tracks.

A track is a single (topic, word) state beta that performs Brownian
motion in continuous time: between timestamps s and t its variance grows
by v * (t - s).  Pseudo-observations beta_hat of the state are Gaussian
with variance v_hat and exist only at steps where the word was actually
seen; other steps propagate the prediction unchanged.

One sparse filter and smoother implement that model.  ``pair_filter``
and ``pair_smoother`` touch a track only at the steps where it is
observed, grow its variance across each gap in one step, and keep the
filtered and then the smoothed state of each observed (step, column)
pair in place in the caller's (..., P) arrays.  The filter's running
state lives in the caller's (..., width) ``mean`` and ``var``, which hold
the prior on entry and every column's state at the last timestamp on
return; it returns nothing.  The online drifting model keeps only that
terminal state, the offline baseline smooths all of its (topic, word)
tracks with one pass of each per sweep, and
``kalman_forward``/``kalman_backward`` run a stack of tracks on one
grid, every step a pair and an absent step an observation with infinite
variance, and ``kalman_lower_bound`` sums the stack's bound in one pass.
``pair_layout`` is the one builder of that layout from documents: both
drifting models take their (timestamp, word) pairs from it.

The forward pass is the scalar Kalman filter written in gain form,

    m_t = g_t m_{t-1} + (1 - g_t) beta_hat_t,   g_t = v_hat / (P + v_hat)
    V_t = g_t P,                                P = V_{t-1} + v Delta_t

and the backward pass is the matching fixed-interval smoother

    m~_{t-1} = w m_{t-1} + (1 - w) m~_t,        w = v Delta_t / (V_{t-1} + v Delta_t)
    V~_{t-1} = V_{t-1} + (V_{t-1} / (V_{t-1} + v Delta_t))^2 (V~_t - V_{t-1} - v Delta_t)

with m~_T = m_T and V~_T = V_T.  The prior (m0, V0) applies at the first
timestamp of the track; callers that need drift before the first
observation fold it into V0.  The pair passes take the drift rate v as
a number, and ``pair_filter`` the prior as the state arrays it filters
in place; the ``ObservationTrack`` API takes both from a ``DriftConfig``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, TimeOrderError, ParameterError


@dataclass(frozen=True)
class DriftConfig:
    """Brownian drift rate (per unit time) and the track prior."""

    process_variance: float
    prior_mean: float = 0.0
    prior_variance: float = 1.0

    def __post_init__(self):
        # zero drift is allowed so static reductions are exactly testable; nan fails every comparison
        if not 0.0 <= self.process_variance < math.inf:
            raise ParameterError(f"process_variance must be finite and >= 0, got {self.process_variance}")
        if not 0.0 < self.prior_variance < math.inf:
            raise ParameterError(f"prior_variance must be finite and > 0, got {self.prior_variance}")
        if not math.isfinite(self.prior_mean):
            raise ParameterError(f"prior_mean must be finite, got {self.prior_mean}")


@dataclass(frozen=True)
class ObservationTrack:
    """Timestamps, pseudo-observations and their variances for a stack of tracks.

    ``timestamps`` is the one (S,) grid; ``beta_hat`` and ``present``,
    which marks the steps that carry an observation, are (..., S), one
    track per leading index, and ``obs_variance`` broadcasts to them.
    ``beta_hat`` values at absent steps are ignored.
    """

    timestamps: np.ndarray
    beta_hat: np.ndarray
    obs_variance: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise ParameterError("timestamps must be a nonempty 1-d sequence")
        if not np.isfinite(ts).all():
            raise ParameterError("timestamps must be finite")
        if np.any(np.diff(ts) <= 0.0):
            raise TimeOrderError("timestamps must be strictly increasing")
        beta = np.asarray(self.beta_hat, dtype=float)
        present = np.asarray(self.present, dtype=bool)
        if beta.shape[-1:] != ts.shape or present.shape != beta.shape:
            raise ShapeMismatchError("beta_hat and present must be (..., S) stacks over the timestamps")
        ov = np.broadcast_to(np.asarray(self.obs_variance, dtype=float), beta.shape).copy()
        if not ((ov > 0.0) & np.isfinite(ov)).all():
            raise ParameterError("obs_variance entries must be finite and > 0")
        if np.any(~np.isfinite(beta[present])):
            raise ParameterError("beta_hat must be finite at present steps")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "obs_variance", ov)
        object.__setattr__(self, "present", present)


@dataclass(frozen=True)
class KalmanPosterior:
    forward_mean: np.ndarray
    forward_var: np.ndarray
    smoothed_mean: np.ndarray
    smoothed_var: np.ndarray


def pair_layout(docs):
    """The (timestamp, word) pairs that ``docs`` observe, laid out for ``pair_filter``.

    A document observes each of its words at its timestamp.  Returns
    (timestamps, starts, words, columns, doc_pairs): the distinct
    timestamps, ascending; the ``starts`` that bound each timestamp's
    pairs; the distinct words, ascending; each pair's column among those
    words, ascending within a step; and the pair of each (document, word)
    entry, in document order.
    """
    words, cols = np.unique(np.concatenate([doc.words for doc in docs]), return_inverse=True)
    timestamps, step = np.unique([doc.timestamp for doc in docs], return_inverse=True)
    keys = np.repeat(step, [doc.words.size for doc in docs]) * words.size + cols
    keys, doc_pairs = np.unique(keys, return_inverse=True)
    steps, columns = np.divmod(keys, words.size)
    starts = np.searchsorted(steps, np.arange(timestamps.size + 1))
    return timestamps, starts, words, columns, doc_pairs


def _pair_steps(timestamps, starts, columns):
    """Timestamps as floats, each step's (first pair, end pair, columns) and the column count, validated."""
    ts = np.asarray(timestamps, dtype=float)
    starts = np.asarray(starts)
    if (starts.shape != (ts.size + 1,) or starts[0] != 0 or starts[-1] != len(columns)
            or (np.diff(starts) < 0).any()):
        raise ShapeMismatchError("starts must bound the pairs of every timestamp, from 0 to P")
    bounds = starts.tolist()
    steps = [(lo, hi, columns[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return ts, steps, int(np.max(columns, initial=-1)) + 1


def pair_filter(timestamps, starts, columns, beta_hat, obs_variance, drift, mean, var):
    """Sparse filter over observed (step, column) pairs, in the caller's arrays; returns nothing.

    The last axis of ``beta_hat`` and ``obs_variance`` indexes P pairs
    grouped by step: ``starts[s]:starts[s + 1]`` are the pairs observed at
    ``timestamps[s]``, ``columns`` gives each pair's column, and a column
    appears at most once per step.  Leading axes are independent tracks
    that share the pattern.  ``mean`` and ``var`` are the running state:
    float arrays of one (..., width) shape, whose leading axes are
    ``beta_hat``'s and whose width covers every column, holding the prior
    that applies at ``timestamps[0]``.  Each column remembers when it was
    last updated, so its prediction variance grows by ``drift`` *
    (t - last) in one step across any gap.  The filtered mean and variance
    of each pair overwrite its pseudo-observation and its variance.

    On return ``mean`` and ``var`` hold the terminal state: each column's
    (mean, variance) at ``timestamps[-1]``, the variance grown by
    ``drift`` * (timestamps[-1] - last).
    """
    ts, steps, width = _pair_steps(timestamps, starts, columns)
    if not all(isinstance(a, np.ndarray) and a.dtype.kind == "f" for a in (mean, var)):
        raise ParameterError("mean and var must be float arrays")
    if (mean.shape != var.shape or mean.ndim != beta_hat.ndim or mean.shape[:-1] != beta_hat.shape[:-1]
            or mean.shape[-1] < width):
        raise ShapeMismatchError("mean and var must have one shape, with beta_hat's tracks, covering every column")
    last = np.full(mean.shape[-1], ts[0])
    for t, (lo, hi, cols) in zip(ts, steps):
        p = var[..., cols] + drift * (t - last[cols])
        gain = p / (p + obs_variance[..., lo:hi])
        m = mean[..., cols]
        mean[..., cols] = beta_hat[..., lo:hi] = m + gain * (beta_hat[..., lo:hi] - m)
        var[..., cols] = obs_variance[..., lo:hi] = (1.0 - gain) * p
        last[cols] = t
    var += drift * (ts[-1] - last)


def pair_smoother(timestamps, starts, columns, means, variances, drift):
    """Fixed-interval smoother matching ``pair_filter``, in place.

    ``means`` and ``variances`` hold the state filtered at drift rate
    ``drift``, at the pairs laid out as for ``pair_filter``; the smoothed
    state overwrites them, and both arrays are returned.  The steps are
    visited in descending order,
    and each column carries the smoothed state and the time of its next
    observation, so a gap takes one step.  At a column's last observation
    the smoothed state is the filtered one.
    """
    columns = np.asarray(columns)
    ts, steps, width = _pair_steps(timestamps, starts, columns)
    # each column's last pair seeds its "next observation": a zero gap leaves that pair's state as it is
    last = np.zeros(width, dtype=np.intp)
    np.maximum.at(last, columns, np.arange(columns.size))
    next_mean, next_var = means[..., last], variances[..., last]
    next_t = np.repeat(ts, np.diff(np.asarray(starts)))[last]
    for t, (lo, hi, cols) in zip(ts[::-1], steps[::-1]):
        gap = drift * (next_t[cols] - t)
        fm, fv = means[..., lo:hi], variances[..., lo:hi]
        denom = fv + gap
        # a zero gap keeps the next state even where fv is 0, as after an exact observation
        w = np.divide(gap, denom, out=np.zeros(denom.shape), where=gap > 0)
        ratio = np.divide(fv, denom, out=np.ones(denom.shape), where=gap > 0)
        sm = w * fm + (1.0 - w) * next_mean[..., cols]
        sv = fv + ratio * ratio * (next_var[..., cols] - denom)
        next_mean[..., cols] = means[..., lo:hi] = sm
        next_var[..., cols] = variances[..., lo:hi] = sv
        next_t[cols] = t
    return means, variances


def _one_column(track):
    """``starts`` and ``columns`` that make every step of ``track`` one pair of column 0."""
    return np.arange(track.timestamps.size + 1), np.zeros(track.timestamps.size, dtype=np.intp)


def kalman_forward(track, cfg):
    """Filtered means and variances, (..., S) as ``track.beta_hat``, for every track of the stack.

    An absent step is an observation of 0 with infinite variance: its gain
    is exactly 0, so the state carries over with its variance grown.
    """
    means = np.where(track.present, track.beta_hat, 0.0)
    variances = np.where(track.present, track.obs_variance, math.inf)
    prior = means.shape[:-1] + (1,)
    pair_filter(track.timestamps, *_one_column(track), means, variances, cfg.process_variance,
                np.full(prior, cfg.prior_mean), np.full(prior, cfg.prior_variance))
    return means, variances


def kalman_backward(track, forward, cfg):
    """Smoothed means and variances given the forward output for the same stack; ``forward`` is not changed."""
    fwd_means, fwd_vars = (np.array(a, dtype=float) for a in forward)
    if fwd_means.shape != track.beta_hat.shape or fwd_vars.shape != track.beta_hat.shape:
        raise ShapeMismatchError("forward output does not align with the track")
    return pair_smoother(track.timestamps, *_one_column(track), fwd_means, fwd_vars, cfg.process_variance)


def kalman_posterior(track, cfg):
    """Convenience: run filter and smoother, return a KalmanPosterior."""
    fwd = kalman_forward(track, cfg)
    sm, sv = kalman_backward(track, fwd, cfg)
    return KalmanPosterior(fwd[0], fwd[1], sm, sv)


def kalman_lower_bound(track, posterior, counts, cfg):
    """Lower bound (nats) on the likelihood of the pseudo-observations.

    ``track`` stacks one track per word on its leading axes,
    ``posterior`` is its ``kalman_posterior`` and ``counts`` holds the
    nonnegative n_{w,t}, of the track's (..., S) shape; n_t sums them over
    the words.  Sums three terms over the steps:

    * the word-likelihood bound
      sum_w n_{w,t} m~_{w,t} - n_t log sum_w exp(m~_{w,t} + V~_{w,t}/2),
    * minus the expected observation log-density
      -1/2 log(2 pi v_hat) - ((beta_hat - m~)^2 + V~) / (2 v_hat)
      at steps where the word is present,
    * plus the one-step predictive log q(beta_hat_t | beta_hat_{1:t-1}),
      a Gaussian with mean m_{t-1} and variance V_{t-1} + v Delta + v_hat,
      again only at present steps.
    """
    c = np.asarray(counts, dtype=float)
    fm, fv, sm, sv = (np.asarray(a, dtype=float) for a in (
        posterior.forward_mean, posterior.forward_var, posterior.smoothed_mean, posterior.smoothed_var))
    if any(a.shape != track.beta_hat.shape for a in (c, fm, fv, sm, sv)):
        raise ShapeMismatchError("counts and posterior must have the track's shape")
    if not (c >= 0.0).all():
        raise ParameterError("counts must be nonnegative")
    # n_t log sum_w exp(...) is the sum over w of n_{w,t} times the step's log normalizer
    log_norm = np.log(np.exp(sm + 0.5 * sv).reshape(-1, track.timestamps.size).sum(axis=0))
    bound = float((c * (sm - log_norm)).sum())

    # absent steps are masked out before the arithmetic: their beta_hat may be nan or inf
    beta = np.where(track.present, track.beta_hat, 0.0)
    v_hat = track.obs_variance
    # expected log-density of each observation under the smoothed state
    expected = -0.5 * np.log(2.0 * math.pi * v_hat) - ((beta - sm) ** 2 + sv) / (2.0 * v_hat)
    # innovations: the predictive of beta_hat given the past, the prior at the first step
    pred_mean = np.insert(fm[..., :-1], 0, cfg.prior_mean, axis=-1)
    s = np.insert(fv[..., :-1] + cfg.process_variance * np.diff(track.timestamps), 0, cfg.prior_variance, axis=-1)
    s += v_hat
    innovation = -0.5 * np.log(2.0 * math.pi * s) - (beta - pred_mean) ** 2 / (2.0 * s)
    return bound + float((innovation - expected)[track.present].sum())
