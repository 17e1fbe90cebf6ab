"""Evaluation harness: per-word likelihood series, smoothing, timelines,
confusion metrics and CPU-time scaling runs."""

import time
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

UNDEFINED = None  # marker for ratios with an empty denominator
# runtime_benchmark trains each prefix this many times and reports the fastest
REPEATS = 5


@dataclass
class EvalSeries:
    """Per-document per-word log-likelihood points plus a smoothed view."""

    points: list      # (doc id, timestamp, per-word loglik in nats)
    smoothed: list

    def values(self):
        return [p[2] for p in self.points]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ParameterError("confusion counts must be nonnegative")


def per_word_series(per_doc):
    """Normalize (id, ts, total loglik, word count) records to per-word nats."""
    points = []
    for doc_id, ts, total, word_count in per_doc:
        if word_count <= 0:
            raise ParameterError(f"word count must be positive for {doc_id!r}")
        points.append((doc_id, ts, total / word_count))
    return EvalSeries(points, [p[2] for p in points])


def moving_average(values, window):
    """Trailing mean; partial windows at the start keep the length."""
    if window < 1:
        raise ParameterError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(values)])
    out = np.empty(values.size)
    for i in range(values.size):
        lo = max(0, i + 1 - window)
        out[i] = (prefix[i + 1] - prefix[lo]) / (i + 1 - lo)
    return out.tolist()


def smooth_series(series, window):
    return EvalSeries(series.points, moving_average(series.values(), window))


# the default of ``timeline --threshold``; CidtmConfig.relevance_threshold is the lifecycles' own setting
TIMELINE_THRESHOLD = 0.05


def timeline_assign(docs, topic_weights, target_topic, threshold):
    """Flag documents whose weight on the target topic reaches the threshold."""
    if len(docs) != len(topic_weights):
        raise ParameterError("topic_weights must align with docs")
    flags = []
    for weights in topic_weights:
        weights = np.asarray(weights, dtype=float)
        if not (0 <= target_topic < weights.size):
            raise ParameterError(f"topic {target_topic} out of range")
        flags.append(bool(weights[target_topic] >= threshold))
    return flags


def confusion_from_assignments(assigned, labels):
    tp = sum(1 for a, l in zip(assigned, labels) if a and l)
    fn = sum(1 for a, l in zip(assigned, labels) if not a and l)
    fp = sum(1 for a, l in zip(assigned, labels) if a and not l)
    tn = sum(1 for a, l in zip(assigned, labels) if not a and not l)
    return ConfusionMatrix(tp, fn, fp, tn)


def confusion_metrics(m):
    """(accuracy, recall, precision); undefined ratios come back as None."""
    total = m.tp + m.fn + m.fp + m.tn
    if total == 0:
        raise ParameterError("confusion matrix is empty")
    accuracy = (m.tp + m.tn) / total
    recall = m.tp / (m.tp + m.fn) if (m.tp + m.fn) > 0 else UNDEFINED
    precision = m.tp / (m.tp + m.fp) if (m.tp + m.fp) > 0 else UNDEFINED
    return accuracy, recall, precision


def _train_once(model_kind, docs, config):
    from .drifting_topics import CidtmConfig, DriftingTopicModel
    from .fixed_k_dtm import CdtmConfig, train_cdtm
    from .online_hdp import HdpHyper, OnlineHdp, prequential_run

    seed = config.get("seed", 42)
    batch_size = config.get("batch_size", 16)
    vocab_size = config["vocab_size"]
    hyper = config.get("hyper") or HdpHyper(K_corpus=20, T_doc=8)
    if model_kind == "ohdp":
        prequential_run(OnlineHdp(hyper, vocab_size, len(docs), seed=seed), docs, batch_size)
    elif model_kind == "cidtm":
        model = DriftingTopicModel(CidtmConfig(hyper=hyper), vocab_size, len(docs), seed=seed)
        prequential_run(model, docs, batch_size)
    elif model_kind == "cdtm":
        settings = {key: config[key] for key in ("K", "sweeps", "drift_v") if key in config}
        train_cdtm(docs, CdtmConfig(**settings), np.random.default_rng(seed), vocab_size)
    else:
        raise ParameterError(f"unknown model kind {model_kind!r}")


def runtime_benchmark(model_kind, docs, prefix_sizes, config):
    """CPU seconds of the process (``time.process_time``, all threads) to train from scratch on each prefix.

    CPU time leaves out the waits that other processes' load adds to wall
    time.  Prefix sizes must be ascending and within the corpus.  A
    discarded warm-up run on the smallest prefix excludes interpreter and
    cache effects.  Each prefix is timed REPEATS times, in one process, and
    reported by its fastest run; every other round times the prefixes in
    reverse order, so the host's swings reach all prefixes alike.
    """
    sizes = list(prefix_sizes)
    if sizes != sorted(sizes) or (sizes and sizes[-1] > len(docs)):
        raise ParameterError("prefix sizes must be ascending and <= corpus size")
    if sizes:
        _train_once(model_kind, docs[: min(sizes[0], 200)], config)
    seconds = [[] for _ in sizes]
    for r in range(REPEATS):
        for size, times in list(zip(sizes, seconds))[:: -1 if r % 2 else 1]:
            start = time.process_time()
            _train_once(model_kind, docs[:size], config)
            times.append(time.process_time() - start)
    return [(size, min(times)) for size, times in zip(sizes, seconds)]


def write_series_tsv(series, path):
    """TSV: doc_id, timestamp, pwll_nats, pwll_ma100."""
    smoothed = series.smoothed
    if len(smoothed) != len(series.points):
        raise ParameterError("smoothed length must match points")
    with open(path, "w", encoding="utf-8") as f:
        f.write("doc_id\ttimestamp\tpwll_nats\tpwll_ma100\n")
        for (doc_id, ts, value), ma in zip(series.points, smoothed):
            f.write(f"{doc_id}\t{ts!r}\t{value!r}\t{ma!r}\n")
