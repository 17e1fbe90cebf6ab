"""Streaming topic model with continuous-time drifting topics.

This couples the online HDP with per-(topic, word) scalar Kalman tracks
and an Active/Dead topic lifecycle.  Each batch runs score-then-learn:

1. every document is scored prequentially against the pre-batch state;
2. the online HDP performs its usual inference and one natural-gradient
   update;
3. the batch's own topic-word evidence is turned into pseudo-
   observations at the batch's document timestamps and filtered through
   per-(topic, word) Kalman tracks that resume from each topic's
   persisted state (variance grown by elapsed time); a track is touched
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
exactly the prior (0.0 and ``prior_variance``), and (K,) ``born``,
``active``, ``deadline`` and ``last_update_ts`` for the lifecycles.  As
in the continuous-time DTM of Wang, Blei and Heckerman (UAI 2008), only
the (born topic, word) pairs that some batch observed are tracked.
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import logsumexp

from .checkpoint import write_checkpoint
from .errors import (
    ConfigurationError,
    LifecycleProtocolError,
    ParameterError,
    TimeOrderError,
)
from .kalman import DriftConfig, terminal_filter
from .online_hdp import (
    BatchStats,
    HdpHyper,
    HdpSnapshot,
    OnlineHdp,
    accumulate_stats,
    decode_hdp,
    encode_hdp,
    infer_batch,
    mixture_score,
    online_update,
    topic_word_probs,
)

ACTIVE = "active"
DEAD = "dead"

SECONDS_PER_DAY = 86400.0


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
    prior_variance: float = 1.0

    def __post_init__(self):
        if self.drift_v < 0 or self.obs_var <= 0:
            raise ConfigurationError("drift_v must be >= 0 and obs_var > 0")
        if self.active_timer_len <= 0:
            raise ConfigurationError("active_timer_len must be > 0")
        if not (0.0 <= self.relevance_threshold <= 1.0):
            raise ConfigurationError("relevance_threshold must lie in [0, 1]")
        if self.prior_variance <= 0:
            raise ConfigurationError("prior_variance must be > 0")


@dataclass
class BatchResult:
    per_doc: list
    topics_born: set = field(default_factory=set)
    topics_died: set = field(default_factory=set)


class DriftingTopicModel:
    """Online HDP whose topic-word distributions drift in continuous time."""

    def __init__(self, config, vocab_size, corpus_scale, seed=42):
        self.config = config
        self.hdp = OnlineHdp(config.hyper, vocab_size, corpus_scale, seed)
        self._clear_tracks()
        self.clock = None

    def _clear_tracks(self):
        """Every track at the prior and no topic born."""
        k, v = self.config.hyper.K_corpus, self.vocab_size
        self.mean = np.zeros((k, v))
        self.var = np.full((k, v), self.config.prior_variance)
        self.tracked = np.zeros((k, v), dtype=bool)
        self.born = np.zeros(k, dtype=bool)
        self.active = np.zeros(k, dtype=bool)
        self.deadline = np.zeros(k)
        self.last_update_ts = np.zeros(k)

    @property
    def vocab_size(self):
        return self.hdp.vocab_size

    @property
    def drift_per_second(self):
        return self.config.drift_v / SECONDS_PER_DAY

    def drift_config(self):
        return DriftConfig(
            process_variance=self.drift_per_second,
            prior_mean=0.0,
            prior_variance=self.config.prior_variance,
        )

    def adjusted_matrices(self, snap):
        """HDP expectations shifted by the drift corrections and renormalized."""
        log_probs = np.log(snap.word_probs) + self.mean
        log_z = logsumexp(log_probs, axis=1, keepdims=True)
        probs = np.exp(log_probs - log_z)
        elog = snap.elog_beta + self.mean - log_z
        return elog, probs

    def predictive_word_probs(self):
        """Current per-topic word distributions used for scoring."""
        snap = HdpSnapshot.of(self.hdp.g)
        _, probs = self.adjusted_matrices(snap)
        return probs

    def process_batch(self, batch, learn=True):
        result = process_batch(self, batch, learn=learn)[1]
        return result


def evolve_topics(model, to_ts):
    """Grow every tracked variance by the drift accumulated up to ``to_ts``."""
    if model.clock is not None and to_ts < model.clock:
        raise TimeOrderError(f"cannot evolve back in time to {to_ts!r}")
    dt = np.where(model.born, to_ts - model.last_update_ts, 0.0)
    if (dt < 0).any():
        raise TimeOrderError("topic state is ahead of the target time")
    np.add(model.var, (model.drift_per_second * dt)[:, None], out=model.var, where=model.tracked)
    model.last_update_ts[model.born] = to_ts
    return model


def _check_batch_order(model, batch):
    ts = [doc.timestamp for doc in batch]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise TimeOrderError("batch must be timestamp-ascending")
    if model.clock is not None and ts[0] < model.clock:
        raise TimeOrderError("batch precedes the model clock")
    return ts


def _kalman_stage(model, batch, stats):
    """Filter the batch's fresh topic-word evidence into the drift tracks.

    One track per (born topic, batch word); a word is observed at each
    distinct timestamp of the documents that contain it.  Only the
    filtered state at the batch's last timestamp is kept.
    """
    born = np.flatnonzero(model.born)
    if not born.size:
        return
    hyper = model.config.hyper
    scale = model.hdp.corpus_scale / len(batch)
    fresh = hyper.eta + scale * stats.lam
    fresh_logp = np.log(fresh / fresh.sum(axis=1, keepdims=True))
    baseline_logp = np.log(topic_word_probs(model.hdp.g))

    doc_words = [np.fromiter(doc.counts, np.intp, len(doc.counts)) for doc in batch]
    words, cols = np.unique(np.concatenate(doc_words), return_inverse=True)
    unique_ts, inverse = np.unique([doc.timestamp for doc in batch], return_inverse=True)
    steps = np.repeat(inverse, [w.size for w in doc_words])
    # the distinct (timestamp, column) pairs, ordered by timestamp and then column
    steps, cols = np.divmod(np.unique(steps * words.size + cols), words.size)
    observed = np.split(cols, np.searchsorted(steps, np.arange(1, unique_ts.size)))

    rows = np.ix_(born, words)
    resid = fresh_logp[rows] - baseline_logp[rows]
    mean, var = terminal_filter(
        unique_ts, observed, resid, model.config.obs_var, model.drift_config(),
        model.mean[rows], model.var[rows],
    )

    # tracked words outside the batch drift to its end; the batch's words take the filtered state
    span = unique_ts[-1] - unique_ts[0]
    np.add(model.var, model.drift_per_second * span, out=model.var, where=model.tracked)
    model.mean[rows] = mean
    model.var[rows] = var
    model.tracked[rows] = True
    model.last_update_ts[born] = unique_ts[-1]


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
        new = relevant & ~model.born
        model.last_update_ts[new] = doc.timestamp
        born |= new
        died |= expired
        model.born |= relevant
        model.active[expired] = False
        model.active[relevant] = True
        model.deadline[relevant] = doc.timestamp + timer
    return set(np.flatnonzero(born).tolist()), set(np.flatnonzero(died).tolist())


def process_batch(model, batch, learn=True):
    """Score-then-learn over one timestamp-ascending batch of documents."""
    if not batch:
        return model, BatchResult([], set(), set())
    ts = _check_batch_order(model, batch)

    snap = HdpSnapshot.of(model.hdp.g)
    elog_adj, probs_adj = model.adjusted_matrices(snap)
    hyper = model.config.hyper

    stats = BatchStats.zeros(hyper.K_corpus, model.vocab_size)
    records, mixtures = [], []
    fits = infer_batch(batch, elog_adj, snap.elog_sticks, hyper)
    for doc, (words, n, dv, _, theta) in zip(batch, fits):
        records.append(
            (doc.id, doc.timestamp, mixture_score(words, n, theta, probs_adj), int(n.sum()))
        )
        mixtures.append(theta)
        accumulate_stats(stats, dv, words, n)

    if not learn:
        return model, BatchResult(records, set(), set())

    evolve_topics(model, ts[0])
    model.hdp.g = online_update(model.hdp.g, stats, hyper, model.hdp.corpus_scale)
    _kalman_stage(model, batch, stats)
    born, died = _lifecycle_stage(model, batch, mixtures)
    model.clock = ts[-1]
    return model, BatchResult(records, born, died)


def prequential_run(model, docs, batch_size):
    """Run score-then-learn over the whole stream; one record per document."""
    from .corpus import batch_iter

    records = []
    for batch in batch_iter(docs, batch_size):
        records.extend(process_batch(model, batch)[1].per_doc)
    return records


def save_checkpoint(model, path):
    topics = [None] * model.born.size
    for k in np.flatnonzero(model.born).tolist():
        words = np.flatnonzero(model.tracked[k])
        keys = list(map(str, words.tolist()))
        topics[k] = {
            "topic_index": k,
            "word_mean": dict(zip(keys, model.mean[k, words].tolist())),
            "word_var": dict(zip(keys, model.var[k, words].tolist())),
            "last_update_ts": float(model.last_update_ts[k]),
            "lifecycle": {
                "state": ACTIVE if model.active[k] else DEAD,
                "timer_deadline": float(model.deadline[k]),
            },
        }
    payload = {
        "format_version": 1,
        "kind": "cidtm",
        **encode_hdp(model.hdp),
        "config": {
            "hyper": asdict(model.config.hyper),
            "drift_v": model.config.drift_v,
            "obs_var": model.config.obs_var,
            "active_timer_len": model.config.active_timer_len,
            "relevance_threshold": model.config.relevance_threshold,
            "prior_variance": model.config.prior_variance,
        },
        "clock": model.clock,
        "topics": topics,
    }
    write_checkpoint(payload, path)


def decode_checkpoint(payload):
    """The DriftingTopicModel of a parsed checkpoint payload."""
    if payload.get("kind") != "cidtm" or payload.get("format_version") != 1:
        raise ParameterError("not a version-1 drifting-topic checkpoint")
    raw_cfg = payload["config"]
    config = CidtmConfig(
        hyper=HdpHyper(**raw_cfg["hyper"]),
        drift_v=raw_cfg["drift_v"],
        obs_var=raw_cfg["obs_var"],
        active_timer_len=raw_cfg["active_timer_len"],
        relevance_threshold=raw_cfg["relevance_threshold"],
        prior_variance=raw_cfg["prior_variance"],
    )
    model = DriftingTopicModel.__new__(DriftingTopicModel)
    model.config = config
    model.hdp = decode_hdp(payload, config.hyper)
    model.clock = payload["clock"]
    model._clear_tracks()
    topics = payload["topics"]
    if len(topics) != config.hyper.K_corpus:
        raise ParameterError(f"checkpoint lists {len(topics)} topics, not K_corpus = {config.hyper.K_corpus}")
    for k, raw in enumerate(topics):
        if raw is None:
            continue
        if raw["topic_index"] != k:
            raise ParameterError(f"topic {k}: topic_index {raw['topic_index']!r} is not its position")
        means, variances = raw["word_mean"], raw["word_var"]
        if means.keys() != variances.keys():
            raise ParameterError(f"topic {k}: word_mean and word_var track different words")
        words = np.array(list(means), dtype=np.intp)
        if words.size and not (0 <= words.min() and words.max() < model.vocab_size):
            raise ParameterError(f"topic {k}: tracked word index outside [0, {model.vocab_size})")
        state = raw["lifecycle"]["state"]
        if state not in (ACTIVE, DEAD):
            raise ParameterError(f"topic {k}: unknown lifecycle state {state!r}")
        model.mean[k, words] = list(means.values())
        model.var[k, np.array(list(variances), dtype=np.intp)] = list(variances.values())
        model.tracked[k, words] = True
        model.born[k] = True
        model.active[k] = state == ACTIVE
        model.deadline[k] = raw["lifecycle"]["timer_deadline"]
        model.last_update_ts[k] = raw["last_update_ts"]
    return model


def load_checkpoint(path):
    with open(path, "r", encoding="utf-8") as f:
        return decode_checkpoint(json.load(f))
