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
from .errors import ConfigurationError, ConvergenceError, NumericalError

# every usage error of errors.py subclasses ValueError; OSError is a path that cannot be read or written
USAGE_ERRORS = (ValueError, OSError)
NUMERICAL_ERRORS = (ConvergenceError, NumericalError, FloatingPointError)
# the online models' modules, by --model and by checkpoint kind
ONLINE = {"ohdp": online_hdp, "cidtm": drifting_topics}
# the flags each train --model and each simulate process reads; giving another exits 2
_TRAIN = {"--model", "--corpus", "--vocab", "--checkpoint", "--tsv", "--seed"}
_HDP = _TRAIN | {"--batch-size", "--gamma", "--alpha0", "--eta", "--k-corpus", "--t-doc", "--kappa", "--tau0"}
_CRFP = {"--seed", "--alpha", "--gamma", "--doc-sizes", "--out"}
READS = {"ohdp": _HDP, "cidtm": _HDP | {"--drift-v", "--obs-var", "--timer", "--threshold"},
         "cdtm": _TRAIN | {"--alpha0", "--drift-v", "--obs-var", "--train-fraction", "--k", "--sweeps"},
         "crp": {"--seed", "--n", "--alpha", "--out"}, "crfp": _CRFP,
         "dimsum": _CRFP | {"--arrival-times", "--drift-v", "--param-dim"},
         "tdpm": {"--history", "--width", "--decay-lambda", "--out"}}


class _Given(argparse.Action):
    """Store the value, as argparse's ``store`` does, and append the flag to ``given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given += tuple(self.option_strings[:1])


def _seed(args):
    env = os.environ.get("TM_SEED")
    if not env:
        seed, name = args.seed, "--seed"
    else:
        try:
            seed, name = int(env), "TM_SEED"
        except ValueError:
            raise ConfigurationError(f"TM_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {seed}")
    return seed


def _check_flags(args, choice, name):
    """Exit 2, naming them and ``name``, on given flags that ``choice`` of ``READS`` does not read."""
    stray = [flag for flag in dict.fromkeys(args.given) if flag not in READS[choice]]
    if stray:
        raise ConfigurationError(f"{name} does not read {', '.join(stray)}")


def _check_outputs(outputs, inputs):
    """Exit 2, naming the flags, on an output that cannot be written or that names another output or an input.

    Each is a (flag, path) pair; a hard link names its target.  Nothing is read, created or truncated."""
    for i, (flag, path) in enumerate(outputs):
        if os.path.isdir(path):
            raise ConfigurationError(f"{flag} {path} is a directory")
        folder = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(folder) and os.access(path if os.path.exists(path) else folder, os.W_OK)):
            raise ConfigurationError(f"{flag} {path} cannot be written: its directory is missing or read-only")
        for other, named in [*outputs[:i], *inputs]:
            if os.path.realpath(path) == os.path.realpath(named) or (
                    os.path.exists(path) and os.path.exists(named) and os.path.samefile(path, named)):
                raise ConfigurationError(f"{flag} and {other} both name {path}")


def cmd_ingest(args):
    _check_outputs([("--out-corpus", args.out_corpus), ("--out-vocab", args.out_vocab)], [("--input", args.input)])
    if args.format == "reuters":
        with open(args.input, "rb") as f:
            parsed = corpus_mod.parse_reuters(f.read())
    elif args.format == "bbc":
        with open(args.input, "r", encoding="utf-8") as f:
            parsed = corpus_mod.parse_bbc(f)
    cfg = corpus_mod.TokenizerConfig(min_token_length=args.min_token_length)
    tokenized = corpus_mod.tokenize_corpus(parsed.documents, cfg)
    vocab = corpus_mod.build_vocabulary(tokenized, min_doc_freq=args.min_doc_freq)
    docs = corpus_mod.to_documents(tokenized, vocab, format_hint=args.format)
    corpus_mod.write_canonical(docs, args.out_corpus)
    corpus_mod.write_vocabulary(vocab, args.out_vocab)
    stats = corpus_mod.corpus_statistics(docs, vocab, len(parsed.documents))
    print(f"documents\t{len(docs)}")
    print(f"skipped\t{parsed.skipped}")
    print(f"vocabulary_size\t{stats['vocabulary_size']}")
    print(f"mean_unique_terms\t{stats['mean_unique_terms']:.4f}")
    return 0


def _load_corpus(args):
    docs = corpus_mod.read_canonical(args.corpus)
    vocab = corpus_mod.read_vocabulary(args.vocab)
    if not docs:
        raise ConfigurationError("corpus is empty")
    # the fitting code checks words too, but the README promises exit 2 before any fitting
    corpus_mod.check_words(docs, vocab.size)
    return docs, vocab


def _hyper_from(args):
    default = drifting_topics.CidtmConfig.hyper if args.model == "cidtm" else online_hdp.HdpHyper
    return online_hdp.HdpHyper(
        gamma=args.gamma,
        alpha0=default.alpha0 if args.alpha0 is None else args.alpha0,
        eta=args.eta,
        K_corpus=args.k_corpus,
        T_doc=args.t_doc,
        kappa=args.kappa,
        tau0=args.tau0,
    )


def cmd_train(args):
    _check_flags(args, args.model, f"--model {args.model}")
    _check_outputs([("--checkpoint", args.checkpoint), ("--tsv", args.tsv)],
                   [("--corpus", args.corpus), ("--vocab", args.vocab)])
    if args.model == "cdtm":
        if not 0.0 < args.train_fraction <= 1.0:  # also rejects nan
            raise ConfigurationError(f"--train-fraction must lie in (0, 1], got {args.train_fraction}")
        alpha = fixed_k_dtm.CdtmConfig.alpha if args.alpha0 is None else args.alpha0
        config = fixed_k_dtm.CdtmConfig(K=args.k, alpha=alpha, drift_v=args.drift_v, obs_var=args.obs_var,
                                        sweeps=args.sweeps)
    elif args.model == "ohdp":
        config = _hyper_from(args)
    else:
        config = drifting_topics.CidtmConfig(hyper=_hyper_from(args), drift_v=args.drift_v, obs_var=args.obs_var,
                                             active_timer_len=args.timer * drifting_topics.SECONDS_PER_DAY,
                                             relevance_threshold=args.threshold)
    seed = _seed(args)
    docs, vocab = _load_corpus(args)
    if args.model == "cdtm":
        rng = np.random.default_rng(seed)
        n_train = max(1, int(round(args.train_fraction * len(docs))))
        train_idx = set(rng.choice(len(docs), size=n_train, replace=False).tolist())
        train = [d for i, d in enumerate(docs) if i in train_idx]
        test = [d for i, d in enumerate(docs) if i not in train_idx] or train
        model = fixed_k_dtm.train_cdtm(train, config, rng, vocab.size)
        records = fixed_k_dtm.cdtm_heldout_loglik(model, test)
        fixed_k_dtm.save_checkpoint(model, args.checkpoint)
    else:
        build = online_hdp.OnlineHdp if args.model == "ohdp" else drifting_topics.DriftingTopicModel
        model = build(config, vocab.size, len(docs), seed=seed)
        records = online_hdp.prequential_run(model, docs, args.batch_size)
        ONLINE[args.model].save_checkpoint(model, args.checkpoint)
    series = evaluation.per_word_series(records)
    evaluation.write_series_tsv(evaluation.smooth_series(series, 100), args.tsv)
    print(f"documents_scored\t{len(records)}")
    return 0


def _read_labels(path, docs):
    """doc id -> bool from a ``doc_id<TAB>0|1`` file; at least one id must be a document's, and none twice."""
    labels, line_of = {}, {}
    with open(path, "r", encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            if line.strip():
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 2 or fields[1] not in ("0", "1"):
                    raise ConfigurationError(f"{path} line {number}: expected doc_id<TAB>0|1")
                if fields[0] in line_of:
                    raise ConfigurationError(
                        f"{path} lines {line_of[fields[0]]} and {number}: doc id {fields[0]!r} is labelled twice")
                line_of[fields[0]] = number
                labels[fields[0]] = fields[1] == "1"
    if not any(doc.id in labels for doc in docs):
        raise ConfigurationError(f"no document of the corpus has a label in {path}")
    return labels


def cmd_timeline(args):
    """Flag each document whose weight on ``--topic`` reaches ``--threshold``, keeping only that weight of each."""
    confusion = args.out_confusion or args.out_assign + ".confusion"
    if args.out_confusion and not args.labels:
        raise ConfigurationError("--out-confusion needs --labels")
    labelled = [("--labels", args.labels)] if args.labels else []
    _check_outputs([("--out-assign", args.out_assign), *([("--out-confusion", confusion)] if labelled else [])],
                   [("--checkpoint", args.checkpoint), ("--corpus", args.corpus), *labelled])
    if not 0.0 <= args.threshold <= 1.0:  # also rejects nan
        raise ConfigurationError(f"--threshold must lie in [0, 1], got {args.threshold}")
    kind, header, arrays = read_checkpoint(args.checkpoint, {k: module.ARRAYS for k, module in ONLINE.items()})
    model = ONLINE[kind].decode_checkpoint(header, arrays)
    del arrays
    if kind == "cidtm":  # its expectations read only the drift means: the (K, V) variances and mask go now
        del model.var, model.tracked
    if not 0 <= args.topic < model.hyper.K_corpus:
        raise ConfigurationError(f"topic {args.topic} out of range")
    docs = corpus_mod.read_canonical(args.corpus)
    corpus_mod.check_words(docs, model.vocab_size)
    labels = _read_labels(args.labels, docs) if args.labels else None
    # the fit reads only these: the model's (K, V) state and its word probabilities go before it starts
    elog, elog_sticks = model.expectations()[:2]
    hyper = model.hyper
    del model
    # fromiter reads the fit to its end, so its worker threads are joined before any row is written
    fits = online_hdp.infer_batch(docs, elog, elog_sticks, hyper)
    weights = np.fromiter((theta[args.topic] for *_, theta in fits), float)
    assigned = evaluation.timeline_assign(weights, args.threshold)

    with open(args.out_assign, "w", encoding="utf-8") as f:
        f.write("doc_id\ttimestamp\tassigned\tweight\n")
        for doc, flag, w in zip(docs, assigned, weights):
            f.write(f"{doc.id}\t{doc.timestamp!r}\t{int(flag)}\t{float(w)!r}\n")

    if labels is not None:
        pairs = [(flag, labels[doc.id]) for doc, flag in zip(docs, assigned) if doc.id in labels]
        matrix = evaluation.confusion_from_assignments(*zip(*pairs))
        accuracy, recall, precision = evaluation.confusion_metrics(matrix)
        with open(confusion, "w", encoding="utf-8") as f:
            f.write("tp\tfn\tfp\ttn\taccuracy\trecall\tprecision\n")
            f.write(f"{matrix.tp}\t{matrix.fn}\t{matrix.fp}\t{matrix.tn}\t{accuracy!r}\t{recall!r}\t{precision!r}\n")
    return 0


def _emit(records, out):
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _numbers(text, flag, kind):
    """The comma-separated ``kind`` values of a flag; one that does not parse exits 2 naming the flag."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"{flag} must list comma-separated {kind.__name__}s, got {text!r}") from None


def cmd_simulate(args):
    _check_flags(args, args.process, f"simulate {args.process}")
    rng = np.random.default_rng(_seed(args))
    if args.process == "crp":
        part = crp_partition(args.n, args.alpha, rng)
        records = [{
            "tables": part.num_tables,
            "table_sizes": part.table_sizes,
            "table_of_customer": part.table_of_customer,
        }]
    elif args.process == "crfp":
        sizes = _numbers(args.doc_sizes, "--doc-sizes", int)
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
        sizes = _numbers(args.doc_sizes, "--doc-sizes", int)
        times = _numbers(args.arrival_times, "--arrival-times", float)
        traj = dim_sum_sample(sizes, times, args.alpha, args.gamma, args.drift_v,
                              args.param_dim, rng)
        records = [{"arrival": float(arrival), "num_dishes": len(usage), "dish_usage": usage,
                    "dish_params": params.tolist()}
                   for arrival, usage, params in zip(traj.arrival_times, traj.dish_usage, traj.dish_params)]
    elif args.process == "tdpm":
        history = [_numbers(row, "--history", float) for row in args.history.split(";")]
        if len({len(row) for row in history}) > 1:
            raise ConfigurationError(f"--history rows must all hold one count per component, got {args.history!r}")
        weights = tdpm_decayed_counts(np.array(history), args.width, args.decay_lambda)
        records = [{"decayed_counts": weights.tolist()}]
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
    p.add_argument("--min-token-length", type=int, default=corpus_mod.TokenizerConfig.min_token_length)
    p.set_defaults(func=cmd_ingest)

    # the model flags default to the settings of the configs they build; cdtm's drift defaults are cidtm's
    hdp, cidtm, cdtm = online_hdp.HdpHyper, drifting_topics.CidtmConfig, fixed_k_dtm.CdtmConfig
    p = sub.add_parser("train", help="train a model and emit a likelihood TSV")
    p.register("action", None, _Given)  # each flag below is noted in ``given`` when it is given
    p.add_argument("--model", required=True, choices=["ohdp", "cidtm", "cdtm"])
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tsv", required=True)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--gamma", type=float, default=hdp.gamma)
    p.add_argument("--alpha0", type=float, default=None,
                   help=f"document-level concentration (default {hdp.alpha0}; {cidtm.hyper.alpha0} for cidtm);"
                        f" for cdtm the Dirichlet alpha of each document's mixture (default {cdtm.alpha})")
    p.add_argument("--eta", type=float, default=hdp.eta)
    p.add_argument("--k-corpus", type=int, default=hdp.K_corpus)
    p.add_argument("--t-doc", type=int, default=hdp.T_doc)
    p.add_argument("--kappa", type=float, default=hdp.kappa)
    p.add_argument("--tau0", type=float, default=hdp.tau0)
    p.add_argument("--drift-v", type=float, default=cidtm.drift_v, help="drift per day, for cidtm and cdtm")
    p.add_argument("--obs-var", type=float, default=cidtm.obs_var)
    p.add_argument("--timer", type=float, default=cidtm.active_timer_len / drifting_topics.SECONDS_PER_DAY,
                   help="lifecycle timer in days")
    p.add_argument("--threshold", type=float, default=cidtm.relevance_threshold)
    p.add_argument("--train-fraction", type=float, default=0.5,
                   help="share of documents cdtm trains on, in (0, 1]")
    p.add_argument("--k", type=int, default=cdtm.K, help="fixed topic count for cdtm")
    p.add_argument("--sweeps", type=int, default=cdtm.sweeps, help="cdtm training sweeps, >= 1")
    p.set_defaults(func=cmd_train, given=())

    p = sub.add_parser("timeline", help="assign documents to a topic timeline")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--topic", type=int, required=True)
    p.add_argument("--threshold", type=float, default=evaluation.TIMELINE_THRESHOLD)
    p.add_argument("--labels")
    p.add_argument("--out-assign", required=True)
    p.add_argument("--out-confusion")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("simulate", help="dump seeded generative trajectories")
    p.register("action", None, _Given)
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
    p.set_defaults(func=cmd_simulate, given=())
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
