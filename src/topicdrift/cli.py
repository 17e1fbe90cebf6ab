"""Command-line pipelines: ingest, train, timeline, simulate.

Exit codes are a stable scripting contract: 0 success, 2 usage or
configuration problems, 3 numerical failure.  The environment variable
``TM_SEED`` overrides any configured seed.  All outputs are UTF-8
TSV/JSONL with headers and are byte-identical across reruns with the
same seed and inputs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import corpus as corpus_mod
from . import drifting_topics, evaluation, fixed_k_dtm, online_hdp
from .checkpoint import read_checkpoint
from .dp_sim import crp_partition, crfp_sample, dim_sum_sample, tdpm_decayed_counts
from .errors import (
    ConfigurationError,
    ConvergenceError,
    CorpusParseError,
    NumericalError,
    ParameterError,
    ShapeMismatchError,
    TimeOrderError,
    TimestampParseError,
)
from .kalman import DriftConfig

USAGE_ERRORS = (
    ConfigurationError,
    CorpusParseError,
    ParameterError,
    ShapeMismatchError,
    TimeOrderError,
    TimestampParseError,
    FileNotFoundError,
    ValueError,
)
NUMERICAL_ERRORS = (ConvergenceError, NumericalError, FloatingPointError)


def _seed(args):
    env = os.environ.get("TM_SEED")
    return int(env) if env else args.seed


def cmd_ingest(args):
    if args.format == "reuters":
        with open(args.input, "rb") as f:
            parsed = corpus_mod.parse_reuters(f.read())
    elif args.format == "bbc":
        with open(args.input, "r", encoding="utf-8") as f:
            parsed = corpus_mod.parse_bbc(f)
    else:
        raise ConfigurationError(f"unknown format {args.format!r}")
    cfg = corpus_mod.TokenizerConfig(min_token_length=args.min_token_length)
    vocab = corpus_mod.build_vocabulary(parsed.documents, cfg, min_doc_freq=args.min_doc_freq)
    docs = corpus_mod.to_documents(parsed.documents, vocab, cfg, format_hint=args.format)
    titles = {d.id: d.title for d in parsed.documents}
    corpus_mod.write_canonical(docs, args.out_corpus, titles=titles)
    corpus_mod.write_vocabulary(vocab, args.out_vocab)
    stats = corpus_mod.corpus_statistics(parsed.documents, vocab, cfg)
    print(f"documents\t{len(docs)}")
    print(f"skipped\t{parsed.skipped}")
    print(f"vocabulary_size\t{stats['vocabulary_size']}")
    print(f"mean_unique_terms\t{stats['mean_unique_terms']:.4f}")
    return 0


def _check_words(docs, vocab_size):
    """Every document needs at least one word, and every index must lie in [0, vocab_size)."""
    for doc in docs:
        if not doc.counts:
            raise ConfigurationError(f"document {doc.id!r} has no words")
        for w in (min(doc.counts), max(doc.counts)):
            if not 0 <= w < vocab_size:
                raise ConfigurationError(
                    f"document {doc.id!r} uses word index {w} outside the {vocab_size}-term vocabulary"
                )


def _load_corpus(args):
    docs = corpus_mod.read_canonical(args.corpus)
    vocab = corpus_mod.read_vocabulary(args.vocab)
    if not docs:
        raise ConfigurationError("corpus is empty")
    _check_words(docs, vocab.size)
    return docs, vocab


def _hyper_from(args):
    alpha0 = args.alpha0
    if alpha0 is None:
        alpha0 = 0.2 if args.model == "cidtm" else 1.0
    return online_hdp.HdpHyper(
        gamma=args.gamma,
        alpha0=alpha0,
        eta=args.eta,
        K_corpus=args.k_corpus,
        T_doc=args.t_doc,
        kappa=args.kappa,
        tau0=args.tau0,
    )


def cmd_train(args):
    if args.model == "cdtm":
        if not 0.0 < args.train_fraction <= 1.0:  # also rejects nan
            raise ConfigurationError(f"--train-fraction must lie in (0, 1], got {args.train_fraction}")
        if args.sweeps < 1:
            raise ConfigurationError(f"--sweeps must be >= 1, got {args.sweeps}")
    docs, vocab = _load_corpus(args)
    seed = _seed(args)
    hyper = _hyper_from(args)
    if args.model == "ohdp":
        model = online_hdp.OnlineHdp(hyper, vocab.size, len(docs), seed=seed)
        records = online_hdp.prequential_run(model, docs, args.batch_size)
        online_hdp.save_checkpoint(model, args.checkpoint)
    elif args.model == "cidtm":
        cfg = drifting_topics.CidtmConfig(
            hyper=hyper,
            drift_v=args.drift_v,
            obs_var=args.obs_var,
            active_timer_len=args.timer * 86400.0,
            relevance_threshold=args.threshold,
        )
        model = drifting_topics.DriftingTopicModel(cfg, vocab.size, len(docs), seed=seed)
        records = drifting_topics.prequential_run(model, docs, args.batch_size)
        drifting_topics.save_checkpoint(model, args.checkpoint)
    elif args.model == "cdtm":
        rng = np.random.default_rng(seed)
        n_train = max(1, int(round(args.train_fraction * len(docs))))
        train_idx = set(rng.choice(len(docs), size=n_train, replace=False).tolist())
        train = [d for i, d in enumerate(docs) if i in train_idx]
        test = [d for i, d in enumerate(docs) if i not in train_idx] or train
        model = fixed_k_dtm.train_cdtm(
            train, args.k, DriftConfig(args.drift_v / 86400.0), args.sweeps, rng,
            alpha=hyper.alpha0, obs_var=args.obs_var, vocab_size=vocab.size,
        )
        records = fixed_k_dtm.cdtm_heldout_loglik(model, test)
        fixed_k_dtm.save_checkpoint(model, args.checkpoint)
    else:
        raise ConfigurationError(f"unknown model {args.model!r}")
    series = evaluation.per_word_series(records)
    evaluation.write_series_tsv(evaluation.smooth_series(series, 100), args.tsv)
    print(f"documents_scored\t{len(records)}")
    return 0


def _doc_topic_weights(kind, model, docs):
    """Expected topic weights of each document under a loaded online model."""
    hdp = model.hdp if kind == "cidtm" else model
    snap = online_hdp.HdpSnapshot.of(hdp.g)
    elog = model.adjusted_matrices(snap)[0] if kind == "cidtm" else snap.elog_beta
    return [theta for *_, theta in online_hdp.infer_batch(docs, elog, snap.elog_sticks, hdp.hyper)]


def cmd_timeline(args):
    kinds = {"ohdp": online_hdp, "cidtm": drifting_topics}
    kind, header, arrays = read_checkpoint(args.checkpoint, {k: module.ARRAYS for k, module in kinds.items()})
    model = kinds[kind].decode_checkpoint(header, arrays)
    hyper = model.config.hyper if kind == "cidtm" else model.hyper
    if not 0 <= args.topic < hyper.K_corpus:
        raise ConfigurationError(f"topic {args.topic} out of range")
    docs = corpus_mod.read_canonical(args.corpus)
    _check_words(docs, model.vocab_size)
    weights = _doc_topic_weights(kind, model, docs)
    assigned = evaluation.timeline_assign(docs, weights, args.topic, args.threshold)

    with open(args.out_assign, "w", encoding="utf-8") as f:
        f.write("doc_id\ttimestamp\tassigned\tweight\n")
        for doc, flag, w in zip(docs, assigned, weights):
            f.write(f"{doc.id}\t{doc.timestamp!r}\t{int(flag)}\t{float(w[args.topic])!r}\n")

    if args.labels:
        labels = {}
        with open(args.labels, "r", encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    doc_id, value = line.rstrip("\n").split("\t")
                    labels[doc_id] = bool(int(value))
        pairs = [(flag, labels[doc.id]) for doc, flag in zip(docs, assigned) if doc.id in labels]
        matrix = evaluation.confusion_from_assignments(*zip(*pairs))
        accuracy, recall, precision = evaluation.confusion_metrics(matrix)
        out = args.out_confusion or (args.out_assign + ".confusion")
        with open(out, "w", encoding="utf-8") as f:
            f.write("tp\tfn\tfp\ttn\taccuracy\trecall\tprecision\n")
            f.write(
                f"{matrix.tp}\t{matrix.fn}\t{matrix.fp}\t{matrix.tn}"
                f"\t{accuracy!r}\t{recall!r}\t{precision!r}\n"
            )
    return 0


def _emit(records, out):
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args):
    rng = np.random.default_rng(_seed(args))
    if args.process == "crp":
        part = crp_partition(args.n, args.alpha, rng)
        records = [{
            "tables": part.num_tables,
            "table_sizes": part.table_sizes,
            "table_of_customer": part.table_of_customer,
        }]
    elif args.process == "crfp":
        sizes = [int(s) for s in args.doc_sizes.split(",")]
        state = crfp_sample(sizes, args.alpha, args.gamma, rng)
        records = [
            {
                "restaurant": d,
                "table_sizes": r.table_sizes,
                "dish_of_table": state.dish_of_table[d],
            }
            for d, r in enumerate(state.restaurants)
        ]
        records.append({"dish_usage": state.dish_usage, "num_dishes": state.num_dishes})
    elif args.process == "dimsum":
        sizes = [int(s) for s in args.doc_sizes.split(",")]
        times = [float(t) for t in args.arrival_times.split(",")]
        traj = dim_sum_sample(sizes, times, args.alpha, args.gamma, args.drift_v,
                              args.param_dim, rng)
        records = []
        for d, state in enumerate(traj.states):
            records.append({
                "arrival": float(traj.arrival_times[d]),
                "num_dishes": state.num_dishes,
                "dish_usage": state.dish_usage,
                "dish_params": traj.dish_params[d].tolist(),
            })
    elif args.process == "tdpm":
        history = [[float(x) for x in row.split(",")] for row in args.history.split(";")]
        weights = tdpm_decayed_counts(np.array(history), args.width, args.decay_lambda)
        records = [{"decayed_counts": weights.tolist()}]
    else:
        raise ConfigurationError(f"unknown process {args.process!r}")
    _emit(records, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="topicdrift",
        description="Streaming topic models with continuous-time topic drift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a raw corpus into the canonical format")
    p.add_argument("--format", required=True, choices=["reuters", "bbc"])
    p.add_argument("--input", required=True)
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-vocab", required=True)
    p.add_argument("--min-doc-freq", type=int, default=2)
    p.add_argument("--min-token-length", type=int, default=2)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model and emit a likelihood TSV")
    p.add_argument("--model", required=True, choices=["ohdp", "cidtm", "cdtm"])
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tsv", required=True)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha0", type=float, default=None,
                   help="document-level concentration (default 1.0; 0.2 for cidtm)")
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--k-corpus", type=int, default=300)
    p.add_argument("--t-doc", type=int, default=20)
    p.add_argument("--kappa", type=float, default=0.6)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--drift-v", type=float, default=0.005)
    p.add_argument("--obs-var", type=float, default=0.1)
    p.add_argument("--timer", type=float, default=90.0, help="lifecycle timer in days")
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--train-fraction", type=float, default=0.5,
                   help="share of documents cdtm trains on, in (0, 1]")
    p.add_argument("--k", type=int, default=50, help="fixed topic count for cdtm")
    p.add_argument("--sweeps", type=int, default=3, help="cdtm training sweeps, >= 1")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("timeline", help="assign documents to a topic timeline")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--topic", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--labels")
    p.add_argument("--out-assign", required=True)
    p.add_argument("--out-confusion")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("simulate", help="dump seeded generative trajectories")
    p.add_argument("process", choices=["crp", "crfp", "dimsum", "tdpm"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--doc-sizes", default="50,50,50")
    p.add_argument("--arrival-times", default="0,1,2")
    p.add_argument("--drift-v", type=float, default=0.1)
    p.add_argument("--param-dim", type=int, default=2)
    p.add_argument("--history", default="2;4")
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--decay-lambda", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
