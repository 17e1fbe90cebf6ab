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
pair in place in the caller's (..., P) arrays; the filter also returns
every column's state at the last timestamp.  The online drifting model
keeps only that terminal state, the offline baseline smooths all of its
(topic, word) tracks with one pass of each per sweep, and
``kalman_forward``/``kalman_backward`` run one track whose every step is
a pair, an absent step being an observation with infinite variance.

The forward pass is the scalar Kalman filter written in gain form,

    m_t = g_t m_{t-1} + (1 - g_t) beta_hat_t,   g_t = v_hat / (P + v_hat)
    V_t = g_t P,                                P = V_{t-1} + v Delta_t

and the backward pass is the matching fixed-interval smoother

    m~_{t-1} = w m_{t-1} + (1 - w) m~_t,        w = v Delta_t / (V_{t-1} + v Delta_t)
    V~_{t-1} = V_{t-1} + (V_{t-1} / (V_{t-1} + v Delta_t))^2 (V~_t - V_{t-1} - v Delta_t)

with m~_T = m_T and V~_T = V_T.  The prior (m0, V0) applies at the first
timestamp of the track; callers that need drift before the first
observation fold it into V0.
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
    """Timestamps, pseudo-observations and their variances for one track.

    ``present[t]`` marks steps that carry an observation; ``beta_hat``
    values at absent steps are ignored.  ``obs_variance`` may be given
    as one scalar for all steps.
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
        ov = np.broadcast_to(np.asarray(self.obs_variance, dtype=float), ts.shape).copy()
        if beta.shape != ts.shape or present.shape != ts.shape:
            raise ShapeMismatchError("beta_hat and present must align with timestamps")
        if not ((ov > 0.0) & np.isfinite(ov)).all():
            raise ParameterError("obs_variance entries must be finite and > 0")
        if np.any(~np.isfinite(beta[present])):
            raise ParameterError("beta_hat must be finite at present steps")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "obs_variance", ov)
        object.__setattr__(self, "present", present)

    def __len__(self):
        return self.timestamps.size


@dataclass(frozen=True)
class KalmanPosterior:
    forward_mean: np.ndarray
    forward_var: np.ndarray
    smoothed_mean: np.ndarray
    smoothed_var: np.ndarray


@dataclass(frozen=True)
class WordCounts:
    """Word counts per step; row t gives n_{t,w} and totals are n_t."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        if c.ndim != 2:
            raise ShapeMismatchError("counts must be steps x words")
        if np.any(c < 0):
            raise ParameterError("counts must be nonnegative")
        object.__setattr__(self, "counts", c)

    @property
    def totals(self):
        return self.counts.sum(axis=1)


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


def pair_filter(timestamps, starts, columns, beta_hat, obs_variance, cfg, prior_mean=None, prior_var=None):
    """Sparse filter over observed (step, column) pairs, writing each pair's filtered state in place.

    The last axis of ``beta_hat`` and ``obs_variance`` indexes P pairs
    grouped by step: ``starts[s]:starts[s + 1]`` are the pairs observed at
    ``timestamps[s]``, ``columns`` gives each pair's column, and a column
    appears at most once per step.  Leading axes are independent tracks
    that share the pattern.  The prior (``prior_mean``, ``prior_var``,
    ``cfg``'s by default) applies at ``timestamps[0]`` and is broadcast to
    the running (..., width) state, whose width is the priors' last axis,
    or one more than the largest column for priors shared by every column.
    Each column remembers when it was last updated, so its prediction
    variance grows by v * (t - last) in one step across any gap.  The
    filtered mean and variance of each pair overwrite its
    pseudo-observation and its variance.

    Returns the terminal state: each column's (mean, variance) at
    ``timestamps[-1]``, the variance grown by v * (timestamps[-1] - last).
    """
    ts, steps, width = _pair_steps(timestamps, starts, columns)
    m0 = cfg.prior_mean if prior_mean is None else prior_mean
    v0 = cfg.prior_variance if prior_var is None else prior_var
    shape = np.broadcast_shapes(beta_hat.shape[:-1] + (1,), np.shape(m0), np.shape(v0))
    if shape[-1] == 1:
        shape = shape[:-1] + (width,)
    elif shape[-1] < width:
        raise ShapeMismatchError("prior_mean and prior_var must cover every column")
    mean = np.array(np.broadcast_to(m0, shape), dtype=float)
    var = np.array(np.broadcast_to(v0, shape), dtype=float)
    last = np.full(shape[-1], ts[0])
    v = cfg.process_variance
    for t, (lo, hi, cols) in zip(ts, steps):
        p = var[..., cols] + v * (t - last[cols])
        gain = p / (p + obs_variance[..., lo:hi])
        m = mean[..., cols]
        mean[..., cols] = beta_hat[..., lo:hi] = m + gain * (beta_hat[..., lo:hi] - m)
        var[..., cols] = obs_variance[..., lo:hi] = (1.0 - gain) * p
        last[cols] = t
    var += v * (ts[-1] - last)
    return mean, var


def pair_smoother(timestamps, starts, columns, means, variances, cfg):
    """Fixed-interval smoother matching ``pair_filter``, in place.

    ``means`` and ``variances`` hold the filtered state at the pairs laid
    out as for ``pair_filter``; the smoothed state overwrites them, and
    both arrays are returned.  The steps are visited in descending order,
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
    v = cfg.process_variance
    for t, (lo, hi, cols) in zip(ts[::-1], steps[::-1]):
        gap = v * (next_t[cols] - t)
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
    return np.arange(len(track) + 1), np.zeros(len(track), dtype=np.intp)


def kalman_forward(track, cfg):
    """Filtered means and variances for one track.

    An absent step is an observation of 0 with infinite variance: its gain
    is exactly 0, so the state carries over with its variance grown.
    """
    means = np.where(track.present, track.beta_hat, 0.0)
    variances = np.where(track.present, track.obs_variance, math.inf)
    pair_filter(track.timestamps, *_one_column(track), means, variances, cfg)
    return means, variances


def kalman_backward(track, forward, cfg):
    """Smoothed means and variances given the forward output for the same track; ``forward`` is not changed."""
    fwd_means, fwd_vars = (np.array(a, dtype=float) for a in forward)
    if fwd_means.shape != track.timestamps.shape or fwd_vars.shape != track.timestamps.shape:
        raise ShapeMismatchError("forward output does not align with the track")
    return pair_smoother(track.timestamps, *_one_column(track), fwd_means, fwd_vars, cfg)


def kalman_posterior(track, cfg):
    """Convenience: run filter and smoother, return a KalmanPosterior."""
    fwd = kalman_forward(track, cfg)
    sm, sv = kalman_backward(track, fwd, cfg)
    return KalmanPosterior(fwd[0], fwd[1], sm, sv)


def kalman_lower_bound(tracks, posteriors, counts, cfg):
    """Lower bound (nats) on the likelihood of the pseudo-observations.

    ``tracks`` and ``posteriors`` map word index -> ObservationTrack /
    KalmanPosterior over a shared timestamp grid; ``counts`` is the
    steps x words count matrix over the same word order as
    ``sorted(tracks)``.  Assembles three pieces per step:

    * the word-likelihood bound
      sum_w n_{t,w} m~_{t,w} - n_t log sum_w exp(m~_{t,w} + V~_{t,w}/2),
    * minus the expected observation log-density
      -1/2 log(2 pi v_hat) - ((beta_hat - m~)^2 + V~) / (2 v_hat)
      at steps where the word is present,
    * plus the one-step predictive log q(beta_hat_t | beta_hat_{1:t-1}),
      a Gaussian with mean m_{t-1} and variance V_{t-1} + v Delta + v_hat,
      again only at present steps.
    """
    words = sorted(tracks)
    for w in words:
        if w not in posteriors:
            raise ShapeMismatchError(f"no posterior for word {w!r}")
    c = counts.counts
    if c.shape[1] != len(words):
        raise ShapeMismatchError("counts width does not match the number of tracks")

    n_steps = c.shape[0]
    sm = np.column_stack([posteriors[w].smoothed_mean for w in words])
    sv = np.column_stack([posteriors[w].smoothed_var for w in words])
    if sm.shape[0] != n_steps:
        raise ShapeMismatchError("posterior length does not match counts")

    totals = counts.totals
    log_norm = np.log(np.exp(sm + 0.5 * sv).sum(axis=1))
    bound = float((c * sm).sum() - (totals * log_norm).sum())

    for j, w in enumerate(words):
        track = tracks[w]
        post = posteriors[w]
        ts = track.timestamps
        for t in range(n_steps):
            if not track.present[t]:
                continue
            v_hat = track.obs_variance[t]
            beta = track.beta_hat[t]
            # expected log-density of the observation under the smoothed state
            expected = -0.5 * math.log(2.0 * math.pi * v_hat) - (
                (beta - post.smoothed_mean[t]) ** 2 + post.smoothed_var[t]
            ) / (2.0 * v_hat)
            bound -= expected
            # innovations term: predictive of beta_hat given the past
            if t == 0:
                pred_mean, pred_var = cfg.prior_mean, cfg.prior_variance
            else:
                delta = ts[t] - ts[t - 1]
                pred_mean = post.forward_mean[t - 1]
                pred_var = post.forward_var[t - 1] + cfg.process_variance * delta
            s = pred_var + v_hat
            bound += -0.5 * math.log(2.0 * math.pi * s) - (beta - pred_mean) ** 2 / (2.0 * s)
    return bound
