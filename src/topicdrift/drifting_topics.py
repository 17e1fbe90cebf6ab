"""Streaming topic model with continuous-time drifting topics.

``DriftingTopicModel`` is an ``OnlineHdp`` with per-(topic, word) scalar
Kalman tracks and an Active/Dead topic lifecycle.  It overrides
``expectations()``, which shifts the HDP's expectations by the tracks;
documents are fitted and scored by ``online_hdp.score_batch`` and a
stream is run by ``online_hdp.prequential_run``, as for the plain model.
Each batch runs score-then-learn:

1. every document is fitted and scored prequentially against the
   pre-batch state;
2. the HDP state takes one natural-gradient step on the batch;
3. the batch's own topic-word evidence is turned into pseudo-
   observations at the batch's document timestamps and filtered through
   per-(topic, word) Kalman tracks that resume from their persisted
   state (variance grown since the model clock); a track is touched
   only at the timestamps where its word occurs;
4. each track's filtered state at the batch's last timestamp is written
   back into the drifting topics;
5. topic lifecycles advance on per-document relevance events.

The track state is the topic's natural-parameter adjustment relative to
the slowly-moving HDP estimate: the model's word distribution for topic
k is softmax(log p_hdp(w|k) + m_{k,w}), and the observation fed to the
track is the gap between the batch's fresh topic-word estimate and the
HDP estimate.  A track at its prior mean 0 leaves the HDP predictive
untouched, so with the drift rate at zero and a huge observation
variance the whole layer is inert and the model reduces exactly to the
plain online HDP.  After a long dormancy gap the grown prediction
variance makes the first new evidence decisive, which is what lets this
model outrun the HDP's fixed learning-rate schedule.

The state is held in arrays on the model: (K, V) ``mean`` and ``var``
with a (K, V) bool ``tracked`` mask, every untracked entry sitting at
exactly the prior (0.0 and ``PRIOR_VARIANCE``), and (K,) ``born``,
``active`` and ``deadline`` for the lifecycles.  As in the
continuous-time DTM of Wang, Blei and Heckerman (UAI 2008), only the
(born topic, word) pairs that some batch observed are tracked.  Every
tracked variance is brought forward together, so one ``clock`` dates
them all.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from .checkpoint import config_from, header_value, pack_mask, read_checkpoint, unpack_mask, write_checkpoint
from .errors import (
    ConfigurationError,
    LifecycleProtocolError,
    ParameterError,
    TimeOrderError,
)
from .kalman import pair_filter
from .online_hdp import (
    ARRAYS as HDP_ARRAYS,
    BatchResult,
    HdpHyper,
    HdpSnapshot,
    OnlineHdp,
    decode_hdp,
    encode_hdp,
    online_update,
    score_batch,
)

ACTIVE = "active"
DEAD = "dead"

SECONDS_PER_DAY = 86400.0
# the variance of every track before its first observation
PRIOR_VARIANCE = 1.0


@dataclass(frozen=True)
class TopicBorn:
    ts: float


@dataclass(frozen=True)
class RelevantDoc:
    ts: float


@dataclass(frozen=True)
class IrrelevantDoc:
    ts: float


@dataclass(frozen=True)
class TopicLifecycle:
    state: str
    timer_deadline: float


def lifecycle_step(lc, event, timer_len):
    """Advance one lifecycle through a single event.

    Birth requires no prior lifecycle; any other event before birth is a
    protocol error.  A relevant document always (re)activates and resets
    the timer; an irrelevant document kills an Active topic only once
    its deadline has passed.
    """
    if isinstance(event, TopicBorn):
        if lc is not None:
            raise LifecycleProtocolError("topic is already born")
        return TopicLifecycle(ACTIVE, event.ts + timer_len)
    if lc is None:
        raise LifecycleProtocolError("event before topic birth")
    if isinstance(event, RelevantDoc):
        return TopicLifecycle(ACTIVE, event.ts + timer_len)
    if isinstance(event, IrrelevantDoc):
        if lc.state == ACTIVE and event.ts > lc.timer_deadline:
            return TopicLifecycle(DEAD, lc.timer_deadline)
        return lc
    raise LifecycleProtocolError(f"unknown event {event!r}")


@dataclass(frozen=True)
class CidtmConfig:
    """Online-HDP hyperparameters plus the drift layer's knobs.

    ``drift_v`` is expressed per day and converted internally; the
    lifecycle timer is in seconds.
    """

    hyper: HdpHyper = HdpHyper(alpha0=0.2)
    drift_v: float = 0.005
    obs_var: float = 0.1
    active_timer_len: float = 90.0 * SECONDS_PER_DAY
    relevance_threshold: float = 0.05

    def __post_init__(self):
        # the bounds are written so that nan fails them
        if not 0.0 <= self.drift_v < math.inf:
            raise ConfigurationError(f"drift_v must be finite and >= 0, got {self.drift_v}")
        if not 0.0 < self.obs_var < math.inf:
            raise ConfigurationError(f"obs_var must be finite and > 0, got {self.obs_var}")
        if not 0.0 < self.active_timer_len < math.inf:
            raise ConfigurationError(f"active_timer_len must be finite and > 0, got {self.active_timer_len}")
        if not (0.0 <= self.relevance_threshold <= 1.0):
            raise ConfigurationError("relevance_threshold must lie in [0, 1]")


class DriftingTopicModel(OnlineHdp):
    """Online HDP whose topic-word distributions drift in continuous time."""

    def __init__(self, config, vocab_size, corpus_scale, seed=42):
        super().__init__(config.hyper, vocab_size, corpus_scale, seed)
        self.config = config
        self._clear_tracks()
        self.clock = None

    def _clear_tracks(self):
        """Every track at the prior and no topic born."""
        k, v = self.hyper.K_corpus, self.vocab_size
        self.mean = np.zeros((k, v))
        self.var = np.full((k, v), PRIOR_VARIANCE)
        self.tracked = np.zeros((k, v), dtype=bool)
        self.born = np.zeros(k, dtype=bool)
        self.active = np.zeros(k, dtype=bool)
        self.deadline = np.zeros(k)

    @property
    def drift_per_second(self):
        return self.config.drift_v / SECONDS_PER_DAY

    def adjusted_matrices(self, snap):
        """HDP expectations shifted by the drift corrections and renormalized: (elog_beta, word_probs).

        Row k of the word distribution is softmax(log word_probs_k + mean_k),
        with log normalizer log_z_k, and the expected log is shifted to
        elog_beta_k + mean_k - log_z_k.  The snapshot's ``word_probs`` and
        ``elog_beta`` buffers are reused for the two results, so the
        snapshot holds them afterwards, not the HDP's expectations.
        """
        probs = np.log(snap.word_probs, out=snap.word_probs)
        probs += self.mean
        top = probs.max(axis=1, keepdims=True)
        probs -= top
        np.exp(probs, out=probs)
        total = probs.sum(axis=1, keepdims=True)
        probs /= total
        elog = snap.elog_beta
        elog += self.mean
        elog -= top + np.log(total)
        return elog, probs

    def expectations(self):
        """The HDP's expectations with the word terms shifted by the drift tracks."""
        snap = HdpSnapshot.of(self.g)
        elog, probs = self.adjusted_matrices(snap)
        return elog, snap.elog_sticks, probs

    def process_batch(self, batch):
        return process_batch(self, batch)


def evolve_topics(model, to_ts):
    """Grow every tracked variance by the drift from the model clock to ``to_ts``, and move the clock there."""
    if model.clock is not None:
        if to_ts < model.clock:
            raise TimeOrderError(f"cannot evolve back in time to {to_ts!r}")
        np.add(model.var, model.drift_per_second * (to_ts - model.clock), out=model.var, where=model.tracked)
    model.clock = to_ts
    return model


def _check_batch_order(model, batch):
    ts = [doc.timestamp for doc in batch]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise TimeOrderError("batch must be timestamp-ascending")
    if model.clock is not None and ts[0] < model.clock:
        raise TimeOrderError("batch precedes the model clock")
    return ts


def _log_ratio(model, stats, born, words, n_docs):
    """The log-ratio of the batch's and the HDP's word distributions at the born topics' batch words."""
    fresh = stats.lam[born]
    fresh *= model.corpus_scale / n_docs
    fresh += model.hyper.eta
    lam = model.g.lam
    return (np.log(fresh[:, words] / fresh.sum(axis=1, keepdims=True))
            - np.log(lam[np.ix_(born, words)] / lam.sum(axis=1)[born][:, None]))


def _kalman_stage(model, batch, stats):
    """Filter the batch's fresh topic-word evidence into the drift tracks.

    One track per (born topic, batch word); a word is observed at each
    distinct timestamp of the documents that contain it.  Those
    (timestamp, word) pairs, ordered by timestamp and then word, are the
    pairs of ``pair_filter``, shared by every born topic: each pair
    observes its topic's log-ratio at its word with variance ``obs_var``,
    and the prior is the track's persisted state.  Only the filter's
    terminal state at the batch's last timestamp is kept.
    """
    born = np.flatnonzero(model.born)
    if not born.size:
        return
    words, cols = np.unique(np.concatenate([doc.words for doc in batch]), return_inverse=True)
    unique_ts, inverse = np.unique([doc.timestamp for doc in batch], return_inverse=True)
    steps = np.repeat(inverse, [doc.words.size for doc in batch])
    steps, cols = np.divmod(np.unique(steps * words.size + cols), words.size)
    starts = np.searchsorted(steps, np.arange(unique_ts.size + 1))

    # the (born, V) and (born, W) intermediates are gone before the (born, P) pairs are filtered
    beta = _log_ratio(model, stats, born, words, len(batch))[:, cols]
    rows = np.ix_(born, words)
    mean, var = pair_filter(
        unique_ts, starts, cols, beta, np.full(beta.shape, model.config.obs_var), model.drift_per_second,
        model.mean[rows], model.var[rows],
    )

    # tracked words outside the batch drift to its end; the batch's words take the filtered state
    evolve_topics(model, unique_ts[-1])
    model.mean[rows] = mean
    model.var[rows] = var
    model.tracked[rows] = True


def _lifecycle_stage(model, batch, mixtures):
    """``lifecycle_step`` for all K topics at once, one document at a time.

    A relevant document births or (re)activates a topic and resets its
    deadline; an irrelevant one kills an Active topic whose deadline it
    is strictly past.  A dead topic keeps its deadline.
    """
    born = np.zeros_like(model.born)
    died = np.zeros_like(model.born)
    timer = model.config.active_timer_len
    threshold = model.config.relevance_threshold
    for doc, theta in zip(batch, mixtures):
        relevant = theta >= threshold
        expired = model.active & ~relevant & (doc.timestamp > model.deadline)
        born |= relevant & ~model.born
        died |= expired
        model.born |= relevant
        model.active[expired] = False
        model.active[relevant] = True
        model.deadline[relevant] = doc.timestamp + timer
    return set(np.flatnonzero(born).tolist()), set(np.flatnonzero(died).tolist())


def process_batch(model, batch):
    """Score-then-learn over one timestamp-ascending batch of documents."""
    if not batch:
        return BatchResult([])
    ts = _check_batch_order(model, batch)
    records, mixtures, stats = score_batch(model, batch)
    evolve_topics(model, ts[0])
    model.g = online_update(model.g, stats, model.hyper, model.corpus_scale)
    _kalman_stage(model, batch, stats)
    born, died = _lifecycle_stage(model, batch, mixtures)
    # the Kalman stage has moved the clock there unless no topic is born, and then nothing is tracked
    model.clock = ts[-1]
    return BatchResult(records, born, died)


# the arrays of a "cidtm" checkpoint: the HDP state, the tracked (topic, word) pairs as the packed (K, V)
# mask with their mean and var in C order, and the (K,) lifecycles
LIFECYCLE_ARRAYS = {"born": ("|b1", 1), "active": ("|b1", 1), "deadline": ("<f8", 1)}
ARRAYS = {**HDP_ARRAYS, "tracked": ("|u1", 1), "mean": ("<f8", 1), "var": ("<f8", 1), **LIFECYCLE_ARRAYS}


def save_checkpoint(model, path):
    header, arrays = encode_hdp(model)
    arrays.update({name: getattr(model, name) for name in LIFECYCLE_ARRAYS})
    arrays.update(tracked=pack_mask(model.tracked), mean=model.mean[model.tracked], var=model.var[model.tracked])
    write_checkpoint("cidtm", {**header, "config": asdict(model.config), "clock": model.clock}, arrays, path)


def decode_checkpoint(header, arrays):
    """The DriftingTopicModel of a "cidtm" checkpoint's header and arrays."""
    config = config_from(CidtmConfig, header_value(header, "config", dict))
    model = decode_hdp(DriftingTopicModel.__new__(DriftingTopicModel), header, arrays, config.hyper)
    model.config = config
    model.clock = header_value(header, "clock", float, nullable=True)
    model._clear_tracks()
    k, v = config.hyper.K_corpus, model.vocab_size
    for name in LIFECYCLE_ARRAYS:
        if arrays[name].shape != (k,):
            raise ParameterError(f"checkpoint {name!r} lists {arrays[name].size} topics, not K_corpus = {k}")
        setattr(model, name, arrays[name])
    tracked = unpack_mask("tracked", arrays["tracked"], (k, v))
    pairs = np.count_nonzero(tracked)
    if arrays["mean"].shape != (pairs,) or arrays["var"].shape != (pairs,):
        raise ParameterError("checkpoint mean and var must hold one value per tracked index")
    if pairs and model.clock is None:
        raise ParameterError("checkpoint tracks words but has no clock to date their variances")
    unborn = np.flatnonzero(~model.born & (model.active | tracked.any(axis=1)))
    if unborn.size:
        raise ParameterError(f"topic {unborn[0]} is not born but is active or tracks words")
    model.mean[tracked] = arrays["mean"]
    model.var[tracked] = arrays["var"]
    model.tracked = tracked
    return model


def load_checkpoint(path):
    return decode_checkpoint(*read_checkpoint(path, {"cidtm": ARRAYS})[1:])
