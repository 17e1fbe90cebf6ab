"""Why continuous-time drift matters: the dormancy-gap experiment.

One topic disappears for 90 days and its word distribution shifts in
the meantime.  The plain online HDP only counts documents, so it
adapts at its fixed learning-rate schedule; the drifting-topic model
sees the elapsed time, lets the prediction variance grow, and snaps to
the post-gap evidence.
"""

import numpy as np

from topicdrift.drifting_topics import CidtmConfig, DriftingTopicModel
from topicdrift.online_hdp import HdpHyper, OnlineHdp, prequential_run
from topicdrift.synthetic import drifting_stream

docs, post_gap_a = drifting_stream(seed=0)
vocab = 1 + max(int(d.words[-1]) for d in docs)
print(f"stream: {len(docs)} documents, {len(post_gap_a)} post-gap documents "
      "from the shifted topic")

hyper = HdpHyper(K_corpus=10, T_doc=5)
drifting = DriftingTopicModel(CidtmConfig(hyper=hyper, drift_v=0.005, obs_var=0.1),
                              vocab, len(docs), seed=0)
plain = OnlineHdp(hyper, vocab, len(docs), seed=0)

records_drift = prequential_run(drifting, docs, batch_size=16)
records_plain = prequential_run(plain, docs, batch_size=16)

wanted = set(post_gap_a)


def post_gap_pwll(records):
    rows = [(r[2], r[3]) for r in records if r[0] in wanted]
    return sum(a for a, _ in rows) / sum(b for _, b in rows)


drift_score = post_gap_pwll(records_drift)
plain_score = post_gap_pwll(records_plain)
print(f"\npost-gap per-word log-likelihood on the shifted topic:")
print(f"  drifting topics : {drift_score:8.4f} nats")
print(f"  plain online HDP: {plain_score:8.4f} nats")
print(f"  margin          : {drift_score - plain_score:+.4f} nats")

born = np.flatnonzero(drifting.born).tolist()
states = {k: "active" if drifting.active[k] else "dead" for k in born}
print(f"\ntopics born: {born}; lifecycle states now: {states}")
