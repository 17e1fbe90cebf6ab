"""The benchmark's span tracer still finds the functions it wraps.

``benchmarks/spans.py`` patches functions by name from outside the
program; a name it cannot find silently reads 0 in every per-layer
metric built on it.  These tests pin the set of names it may miss and
check that one batch of each online model, and one small ``cdtm`` fit
and scoring, run through the wrapped stages.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from topicdrift import fixed_k_dtm
from topicdrift.drifting_topics import CidtmConfig, DriftingTopicModel
from topicdrift.online_hdp import HdpHyper, OnlineHdp
from topicdrift.synthetic import three_topic_corpus

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
# the fused kernel replaced the first two and the sparse pair passes the dense Kalman ones, which no
# workload called any more; their metrics read 0 until the program traces itself
KNOWN_MISSING = {"online_hdp._infer_core", "online_hdp._doc_elbo", "kalman.forward_steps", "kalman.backward_steps"}


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.start_run()
    return tracer


def test_no_wrapped_name_goes_missing(tracer):
    with tracer.installed():
        assert set(tracer.missing) <= KNOWN_MISSING


def test_an_online_batch_of_each_model_runs_through_the_wrapped_stages(tracer):
    docs, _ = three_topic_corpus(n_docs=20, vocab_size=20, seed=1)
    hyper = HdpHyper(K_corpus=6, T_doc=3)
    with tracer.installed():
        OnlineHdp(hyper, 20, len(docs), seed=0).process_batch(docs)
        model = DriftingTopicModel(CidtmConfig(hyper=hyper), 20, len(docs), seed=0)
        model.process_batch(docs[:10])
        model.process_batch(docs[10:])
    names = {span[0] for span in tracer.spans}
    assert names >= {
        "online_hdp.batch", "online_hdp.snapshot", "online_hdp.update", "online_hdp.stats",
        "online_hdp.score", "drifting_topics.batch", "drifting_topics.adjust",
        "drifting_topics.evolve", "drifting_topics.lifecycle",
    }
    # the drifting model's batches are its own spans, not the plain model's
    assert [s[0] for s in tracer.spans].count("online_hdp.batch") == 1


def test_a_cdtm_fit_and_scoring_run_through_the_wrapped_stages(tracer):
    docs, _ = three_topic_corpus(n_docs=30, vocab_size=20, seed=2)
    with tracer.installed():  # the tracer patches module attributes, so call through the module
        config = fixed_k_dtm.CdtmConfig(K=3, sweeps=2)
        model = fixed_k_dtm.train_cdtm(docs[::2], config, np.random.default_rng(0), 20)
        fixed_k_dtm.cdtm_heldout_loglik(model, docs[1::2])
    names = [span[0] for span in tracer.spans]
    assert set(names) >= {"fixed_k_dtm.train", "fixed_k_dtm.estep", "fixed_k_dtm.interpolate",
                          "fixed_k_dtm.heldout"}
    assert names.count("fixed_k_dtm.train") == 1 and names.count("fixed_k_dtm.heldout") == 1
