"""Seeded synthetic corpora for experiments and acceptance checks."""

import numpy as np

from .corpus import Document

HOUR = 3600.0
DAY = 86400.0
START_TS = 1_600_000_000.0  # every stream's first timestamp


def _block_topic(vocab_size, block, rng):
    """A word distribution drawn around a contiguous vocabulary block."""
    alpha = np.full(vocab_size, 0.01)
    alpha[block] = 1.0
    return rng.dirichlet(alpha)


def _draw_doc(doc_id, ts, mixture, topics, length, rng):
    counts = rng.multinomial(length, mixture @ topics)
    words = np.flatnonzero(counts).tolist()
    return Document.from_counts(doc_id, ts, dict(zip(words, counts[words].tolist())))


def three_topic_corpus(n_docs=500, vocab_size=50, seed=0, mix_alpha=0.3):
    """Documents from a static 3-topic mixture, one per hour.

    Returns (documents, topic matrix); topics occupy near-disjoint
    vocabulary blocks so the mixture is learnable from a short stream.
    """
    rng = np.random.default_rng(seed)
    block = vocab_size // 3
    topics = np.stack([
        _block_topic(vocab_size, slice(0, block), rng),
        _block_topic(vocab_size, slice(block, 2 * block), rng),
        _block_topic(vocab_size, slice(2 * block, vocab_size), rng),
    ])
    docs = []
    for i in range(n_docs):
        mixture = rng.dirichlet(np.full(3, mix_alpha))
        length = int(rng.integers(40, 81))
        docs.append(_draw_doc(f"doc{i:05d}", START_TS + i * HOUR, mixture, topics, length, rng))
    return docs, topics


def drifting_stream(seed=0, pre_docs=200, gap_docs=30, post_docs=120):
    """A two-topic stream over 60 words where one topic goes dormant for 90 days and shifts meanwhile.

    Topic A lives on one vocabulary block before the gap and on a
    shifted block afterwards; topic B is stationary and fills the gap.
    Returns (documents, ids of post-gap A-dominated documents).
    """
    rng = np.random.default_rng(seed)
    vocab_size = 60
    block = vocab_size // 3
    topic_a_pre = _block_topic(vocab_size, slice(0, block), rng)
    topic_a_post = _block_topic(vocab_size, slice(block // 2, block + block // 2), rng)
    topic_b = _block_topic(vocab_size, slice(2 * block, vocab_size), rng)

    docs = []
    post_gap_a = []
    ts = START_TS
    pre_step = 60.0 * DAY / max(pre_docs, 1)
    for i in range(pre_docs):
        if rng.random() < 0.5:
            mixture, topics = np.array([0.9, 0.1]), np.stack([topic_a_pre, topic_b])
        else:
            mixture, topics = np.array([0.1, 0.9]), np.stack([topic_a_pre, topic_b])
        length = int(rng.integers(40, 81))
        docs.append(_draw_doc(f"pre{i:05d}", ts, mixture, topics, length, rng))
        ts += pre_step

    gap_step = 90.0 * DAY / max(gap_docs, 1)
    for i in range(gap_docs):
        length = int(rng.integers(40, 81))
        docs.append(_draw_doc(f"gap{i:05d}", ts, np.array([1.0]), topic_b[None, :], length, rng))
        ts += gap_step

    post_step = 30.0 * DAY / max(post_docs, 1)
    for i in range(post_docs):
        a_doc = rng.random() < 0.6
        if a_doc:
            mixture, topics = np.array([0.9, 0.1]), np.stack([topic_a_post, topic_b])
        else:
            mixture, topics = np.array([0.1, 0.9]), np.stack([topic_a_post, topic_b])
        doc_id = f"post{i:05d}"
        length = int(rng.integers(40, 81))
        docs.append(_draw_doc(doc_id, ts, mixture, topics, length, rng))
        if a_doc:
            post_gap_a.append(doc_id)
        ts += post_step
    return docs, post_gap_a


def uniform_stream(n_docs, vocab_size, seed=0):
    """A plain 5-topic stream for scaling runs (one doc per hour)."""
    n_topics = 5
    rng = np.random.default_rng(seed)
    size = max(vocab_size // n_topics, 1)
    topics = np.stack([
        _block_topic(vocab_size, slice(k * size, min((k + 1) * size, vocab_size)), rng)
        for k in range(n_topics)
    ])
    docs = []
    for i in range(n_docs):
        mixture = rng.dirichlet(np.full(n_topics, 0.3))
        length = int(rng.integers(30, 61))
        docs.append(_draw_doc(f"doc{i:06d}", START_TS + i * HOUR, mixture, topics, length, rng))
    return docs
