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
"""

import json
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import logsumexp

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


@dataclass
class DriftingTopic:
    """Sparse Gaussian track of one topic's natural-parameter adjustments.

    Words absent from the maps sit at the prior (m0, V0); the means are
    in centered log scale, so 0 means "no adjustment".
    """

    topic_index: int
    word_mean: dict = field(default_factory=dict)
    word_var: dict = field(default_factory=dict)
    last_update_ts: float = 0.0
    lifecycle: TopicLifecycle = None


def topic_word_distribution(topic, vocab_size, prior_mean=0.0):
    """Simplex map of the topic's tracked means; untracked words at the prior."""
    if topic.word_mean and max(topic.word_mean) >= vocab_size:
        raise ParameterError("vocab_size smaller than a tracked word index")
    means = np.full(vocab_size, prior_mean, dtype=float)
    for w, m in topic.word_mean.items():
        means[w] = m
    shifted = means - means.max()
    e = np.exp(shifted)
    return e / e.sum()


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
        self.topics = [None] * config.hyper.K_corpus
        self.clock = None

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

    def correction_matrix(self):
        """Dense (K, V) view of the tracked natural-parameter adjustments."""
        c = np.zeros((self.config.hyper.K_corpus, self.vocab_size))
        for k, topic in enumerate(self.topics):
            if topic is None:
                continue
            for w, m in topic.word_mean.items():
                c[k, w] = m
        return c

    def adjusted_matrices(self, snap):
        """HDP expectations shifted by the drift corrections and renormalized."""
        c = self.correction_matrix()
        log_probs = np.log(snap.word_probs) + c
        log_z = logsumexp(log_probs, axis=1, keepdims=True)
        probs = np.exp(log_probs - log_z)
        elog = snap.elog_beta + c - log_z
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
    rate = model.drift_per_second
    for topic in model.topics:
        if topic is None:
            continue
        dt = to_ts - topic.last_update_ts
        if dt < 0:
            raise TimeOrderError("topic state is ahead of the target time")
        if dt > 0 and rate > 0:
            for w in topic.word_var:
                topic.word_var[w] += rate * dt
        topic.last_update_ts = to_ts
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
    born = [k for k, t in enumerate(model.topics) if t is not None]
    if not born:
        return
    hyper = model.config.hyper
    scale = model.hdp.corpus_scale / len(batch)
    fresh = hyper.eta + scale * stats.lam
    fresh_logp = np.log(fresh / fresh.sum(axis=1, keepdims=True))
    baseline_logp = np.log(topic_word_probs(model.hdp.g))

    words = sorted({w for doc in batch for w in doc.counts})
    unique_ts, inverse = np.unique([doc.timestamp for doc in batch], return_inverse=True)
    word_col = {w: j for j, w in enumerate(words)}
    seen = [[] for _ in unique_ts]
    for step, doc in zip(inverse, batch):
        seen[step].extend(word_col[w] for w in doc.counts)
    observed = [np.unique(np.asarray(cols, dtype=np.intp)) for cols in seen]

    rows = np.ix_(born, words)
    resid = fresh_logp[rows] - baseline_logp[rows]
    prior_mean = np.array([[model.topics[k].word_mean.get(w, 0.0) for w in words] for k in born])
    prior_var = np.array(
        [[model.topics[k].word_var.get(w, model.config.prior_variance) for w in words] for k in born]
    )
    mean, var = terminal_filter(
        unique_ts, observed, resid, model.config.obs_var, model.drift_config(), prior_mean, prior_var
    )

    batch_end = unique_ts[-1]
    span = batch_end - unique_ts[0]
    batch_words = set(words)
    for i, k in enumerate(born):
        topic = model.topics[k]
        topic.word_mean.update(zip(words, mean[i].tolist()))
        topic.word_var.update(zip(words, var[i].tolist()))
        if span > 0 and model.drift_per_second > 0:
            for w in topic.word_var:
                if w not in batch_words:
                    topic.word_var[w] += model.drift_per_second * span
        topic.last_update_ts = batch_end


def _lifecycle_stage(model, batch, mixtures):
    born, died = set(), set()
    timer = model.config.active_timer_len
    threshold = model.config.relevance_threshold
    for doc, theta in zip(batch, mixtures):
        for k in range(model.config.hyper.K_corpus):
            relevant = theta[k] >= threshold
            topic = model.topics[k]
            if topic is None:
                if relevant:
                    lc = lifecycle_step(None, TopicBorn(doc.timestamp), timer)
                    model.topics[k] = DriftingTopic(
                        k, {}, {}, last_update_ts=doc.timestamp, lifecycle=lc
                    )
                    born.add(k)
                continue
            event = RelevantDoc(doc.timestamp) if relevant else IrrelevantDoc(doc.timestamp)
            was = topic.lifecycle.state
            topic.lifecycle = lifecycle_step(topic.lifecycle, event, timer)
            if was == ACTIVE and topic.lifecycle.state == DEAD:
                died.add(k)
    return born, died


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
    topics = []
    for topic in model.topics:
        if topic is None:
            topics.append(None)
            continue
        topics.append(
            {
                "topic_index": topic.topic_index,
                "word_mean": {str(w): m for w, m in sorted(topic.word_mean.items())},
                "word_var": {str(w): v for w, v in sorted(topic.word_var.items())},
                "last_update_ts": topic.last_update_ts,
                "lifecycle": {
                    "state": topic.lifecycle.state,
                    "timer_deadline": topic.lifecycle.timer_deadline,
                },
            }
        )
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)


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
    model.topics = []
    for raw in payload["topics"]:
        if raw is None:
            model.topics.append(None)
            continue
        model.topics.append(
            DriftingTopic(
                topic_index=int(raw["topic_index"]),
                word_mean={int(w): float(m) for w, m in raw["word_mean"].items()},
                word_var={int(w): float(v) for w, v in raw["word_var"].items()},
                last_update_ts=float(raw["last_update_ts"]),
                lifecycle=TopicLifecycle(
                    raw["lifecycle"]["state"], raw["lifecycle"]["timer_deadline"]
                ),
            )
        )
    return model


def load_checkpoint(path):
    with open(path, "r", encoding="utf-8") as f:
        return decode_checkpoint(json.load(f))
