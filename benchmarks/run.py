"""Seeded end-to-end benchmark of the topicdrift pipeline.

    python3 benchmarks/run.py --workload ohdp-hourly --seed 3 --seconds 20 --trace 0

Each pass runs the user pipeline in-process through ``topicdrift.cli.main``:
``ingest`` a generated raw archive, ``train`` a model on it and, for the
online models, ``timeline`` on the trained checkpoint.  A run is

1. set-up: imports, archive generation and one warm-up pass on the archive
   of ``DEFAULT_SEED``, whose outputs are checked against the reference
   values stored in ``benchmarks/reference``.  ``setup_s`` is the median of
   ``SETUP_REPEATS`` repeats of (a fresh interpreter importing the program,
   plus generating the archives), plus the warm-up pass;
2. measurement: passes over the archive of ``--seed`` until ``--seconds``
   have elapsed (at least ``MIN_PASSES``); every pass is checked against
   the first one and rates are totals over all passes;
3. a report: one line per metric with its unit, then, as the last line,
   ``{"correct", "attempted", "failed", "metrics"}`` as JSON.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes, checks that both give byte-identical
outputs, and reports the per-layer metrics from the traced ones (see
``spans.py``).  Spans and a full report go to ``.bench_out/`` in the checkout.

BLAS and OpenMP use one thread, set before numpy is imported, and all load
comes from this one process, so timings do not depend on the core count.
"""

import os
import sys

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
os.environ.pop("TM_SEED", None)  # it would override the seed the references were made with

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
MIN_PASSES = 2
SETUP_REPEATS = 3
INGEST_REPEATS = 3
REL_TOL = 1e-10
MB = 1e6


@dataclass(frozen=True)
class Workload:
    layout: str  # "sgml" for archive.write_sgml, "lines" for archive.write_line_records
    n_docs: int
    train_args: tuple
    n_days: int = 0

    @property
    def fmt(self):
        return "reuters" if self.layout == "sgml" else "bbc"

    @property
    def model(self):
        return self.train_args[1]

    @property
    def timeline(self):
        return self.model != "cdtm"  # timeline accepts online-model checkpoints only

    @property
    def expected_scored(self):
        if self.model != "cdtm":
            return self.n_docs
        fraction = float(self.train_args[self.train_args.index("--train-fraction") + 1])
        return self.n_docs - max(1, int(round(fraction * self.n_docs)))


# Why each workload exists is recorded in BENCHMARK.json.  Sizes keep a pass
# within 2-10 s, so a 20-second run measures several passes.
HOURLY = ("--k-corpus", "100", "--t-doc", "20", "--batch-size", "128")
WORKLOADS = {
    "ohdp-hourly": Workload("sgml", 256, ("--model", "ohdp") + HOURLY),
    "cidtm-hourly": Workload("sgml", 256, ("--model", "cidtm") + HOURLY),
    "cdtm-daily": Workload(
        "lines", 512, ("--model", "cdtm", "--k", "50", "--sweeps", "3", "--train-fraction", "0.5"),
        n_days=16,
    ),
}


def write_archive(workload, seed, path):
    import archive

    if workload.layout == "sgml":
        archive.write_sgml(path, seed, workload.n_docs)
    else:
        archive.write_line_records(path, seed, workload.n_docs, workload.n_days)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_tsv(path):
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    return rows[0], rows[1:]


@dataclass
class Command:
    name: str
    wall: float
    ok: bool
    stdout: str


@dataclass
class PassResult:
    commands: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # file role -> sha256
    checkpoint_bytes: int = 0
    scored: int = 0
    pwll: list = field(default_factory=list)
    doc_ids: list = field(default_factory=list)
    flags: str = ""

    @property
    def ok(self):
        return bool(self.commands) and all(c.ok for c in self.commands)

    def walls(self, name):
        return [c.wall for c in self.commands if c.name == name and c.ok]

    @property
    def wall(self):
        return sum(c.wall for c in self.commands)


def complain(msg):
    print(f"check failed: {msg}", file=sys.stderr)
    return False


def run_command(cli, name, argv, tracer):
    buf = io.StringIO()
    span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), span:
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # the command crashed: count it as failed and go on
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - start
    ok = code == 0 or complain(f"{name} exited with {code!r}")
    return Command(name, wall, ok, buf.getvalue())


def run_pass(cli, workload, archive_path, work, tracer=None):
    """ingest, train, timeline, ingest; checks each command's output.

    Ingest is short, so it runs ``INGEST_REPEATS`` times at both ends of the
    pass; spreading its samples over the pass averages them over more of the
    machine's speed swings.
    """
    corpus, vocab = work / "corpus.jsonl", work / "vocab.txt"
    ckpt, tsv, assign = work / "model.json", work / "scores.tsv", work / "assign.tsv"
    res = PassResult()

    def ingest():
        for _ in range(INGEST_REPEATS):
            cmd = run_command(cli, "ingest", ["ingest", "--format", workload.fmt,
                                              "--input", str(archive_path), "--out-corpus", str(corpus),
                                              "--out-vocab", str(vocab)], tracer)
            res.commands.append(cmd)
            if not cmd.ok:
                return False
            if f"documents\t{workload.n_docs}\n" not in cmd.stdout:
                cmd.ok = complain(f"ingest kept {cmd.stdout.splitlines()[:1]}, not {workload.n_docs} documents")
                return False
            produced = {"corpus": digest(corpus), "vocab": digest(vocab)}
            if any(res.outputs.get(k, v) != v for k, v in produced.items()):
                cmd.ok = complain("repeated ingest wrote different bytes")
                return False
            res.outputs.update(produced)
        return True

    if not ingest():
        return res
    cmd = run_command(cli, "train", ["train", *workload.train_args, "--corpus", str(corpus),
                                     "--vocab", str(vocab), "--checkpoint", str(ckpt),
                                     "--tsv", str(tsv)], tracer)
    res.commands.append(cmd)
    if not cmd.ok:
        return res
    header, rows = read_tsv(tsv)
    res.doc_ids = [r[0] for r in rows]
    res.pwll = [float(r[2]) for r in rows]
    res.scored = len(rows)
    res.checkpoint_bytes = ckpt.stat().st_size
    res.outputs.update(tsv=digest(tsv), checkpoint=digest(ckpt))
    if (f"documents_scored\t{workload.expected_scored}\n" not in cmd.stdout
            or res.scored != workload.expected_scored or header[2] != "pwll_nats"):
        cmd.ok = complain(f"train scored {res.scored} documents, expected {workload.expected_scored}")
        return res
    if not all(math.isfinite(v) for v in res.pwll):
        cmd.ok = complain("train wrote a non-finite score")
        return res

    if workload.timeline:
        cmd = run_command(cli, "timeline", ["timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                                            "--topic", "1", "--out-assign", str(assign)], tracer)
        res.commands.append(cmd)
        if not cmd.ok:
            return res
        _, rows = read_tsv(assign)
        res.flags = "".join(r[2] for r in rows)
        res.outputs["assign"] = digest(assign)
        if len(rows) != workload.n_docs or set(res.flags) - {"0", "1"}:
            cmd.ok = complain(f"timeline assigned {len(rows)} rows, expected {workload.n_docs}")
            return res
    ingest()
    return res


def reference_path(name):
    return BENCH / "reference" / f"{name}.json"


def reference_record(res):
    return {"seed": DEFAULT_SEED, "documents_scored": res.scored, "doc_ids": res.doc_ids,
            "pwll_nats": res.pwll, "timeline_flags": res.flags}


def matches_reference(name, res):
    """Scores within REL_TOL of the recorded ones, timeline flags exactly equal."""
    path = reference_path(name)
    if not path.exists():
        return complain(f"no reference values at {path.relative_to(ROOT)}")
    ref = json.loads(path.read_text(encoding="utf-8"))
    if res.scored != ref["documents_scored"] or res.doc_ids != ref["doc_ids"]:
        return complain("scored documents differ from the reference")
    worst = max(abs(a - b) / abs(b) for a, b in zip(res.pwll, ref["pwll_nats"]))
    if worst > REL_TOL:
        return complain(f"scores differ from the reference by {worst:.3g} (relative)")
    if res.flags != ref["timeline_flags"]:
        return complain("timeline flags differ from the reference")
    return True


def mark_failed(res):
    """Count the pass's last command as failed when the pass as a whole fails a check."""
    if res.commands:
        res.commands[-1].ok = False


def corpus_properties(corpus_path, workload):
    """Exact counts of the input properties the models' costs depend on."""
    stamps, distinct_words = [], 0
    with open(corpus_path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            stamps.append(rec["ts"])
            distinct_words += len(rec["body_counts"])
    props = {"docs": len(stamps), "distinct_timestamps": len(set(stamps)),
             "distinct_words_total": distinct_words}
    if "--batch-size" in workload.train_args:
        size = int(workload.train_args[workload.train_args.index("--batch-size") + 1])
        props["distinct_timestamps_per_batch"] = [
            len(set(stamps[i:i + size])) for i in range(0, len(stamps), size)
        ]
    return props


def checkpoint_properties(ckpt_path, model):
    """Counts read back from a version-1 checkpoint; another format gives none."""
    with open(ckpt_path, encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format_version") != 1:
        return {}
    if model == "cdtm":
        return {"knots": len(payload["knots"])}
    if model == "cidtm":
        topics = [t for t in payload["topics"] if t is not None]
        return {"topics_born": len(topics),
                "topics_dead_at_end": sum(t["lifecycle"]["state"] == "dead" for t in topics),
                "tracked_pairs": sum(len(t["word_mean"]) for t in topics)}
    return {}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
            "blas_threads": THREADS, "processes": 1}


def import_seconds():
    """Wall time of a fresh interpreter that imports the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import topicdrift.cli"], env=env, cwd=ROOT,
                   check=True, capture_output=True)
    return time.perf_counter() - start


def end_to_end_metrics(workload, passes, setup_s):
    """Rates are total work over total wall time of the run's passes.

    The machine's speed swings by about 20% within seconds; a run-long
    total averages over the swings, where the median of a few samples
    jumps between the fast and the slow mode.
    """
    ingest = [w for p in passes for w in p.walls("ingest")]
    train = [w for p in passes for w in p.walls("train")]
    per_ingest = statistics.fmean(ingest)
    pipeline = per_ingest * len(passes) + sum(train) + sum(w for p in passes for w in p.walls("timeline"))
    first = passes[0]
    return {
        "setup_s": (setup_s, "s"),
        "ingest_docs_per_s": (workload.n_docs / per_ingest, "docs/s"),
        "train_docs_per_s": (sum(p.scored for p in passes) / sum(train), "docs/s"),
        "pipeline_docs_per_s": (workload.n_docs * len(passes) / pipeline, "docs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
        "checkpoint_mb": (first.checkpoint_bytes / MB, "MB"),
        "neg_pwll_nats": (-statistics.fmean(first.pwll), "nats/word"),
    }


def per_layer_metrics(tracer, traced_runs, untraced_walls, traced_walls, props):
    """Medians over traced passes of each layer's busy time and counts."""
    per_run = []
    for run in traced_runs:
        total, self_time, calls, durations, counts = tracer.summarize(run)
        batches = durations.get("drifting_topics.batch", [])
        cells = counts["kalman.cells"]
        m = {
            "corpus.parse_s": total["corpus.parse"],
            "corpus.vocab_s": total["corpus.vocab"],
            "corpus.to_documents_s": total["corpus.to_documents"],
            "corpus.write_canonical_s": total["corpus.write_canonical"],
            "corpus.read_canonical_s": total["corpus.read_canonical"],
            "corpus.statistics_s": total["corpus.statistics"],
            "corpus.vocab_io_s": total["corpus.vocab_io"],
            "online_hdp.infer_s": total["online_hdp.infer"],
            "online_hdp.infer_calls": calls["online_hdp.infer"],
            "online_hdp.sweeps_per_doc": calls["online_hdp.elbo"] / calls["online_hdp.infer"]
            if calls["online_hdp.infer"] else 0.0,
            "online_hdp.elbo_s": total["online_hdp.elbo"],
            "online_hdp.snapshot_s": total["online_hdp.snapshot"],
            "online_hdp.update_s": total["online_hdp.update"],
            "online_hdp.stats_s": total["online_hdp.stats"],
            "online_hdp.score_s": total["online_hdp.score"],
            "online_hdp.batch_self_s": self_time["online_hdp.batch"],
            "online_hdp.save_s": total["online_hdp.save"],
            "online_hdp.load_s": total["online_hdp.load"],
            "drifting_topics.batch_s_p50": statistics.median(batches) if batches else 0.0,
            "drifting_topics.batch_s_max": max(batches, default=0.0),
            "drifting_topics.self_s": self_time["drifting_topics.batch"],
            "drifting_topics.adjust_s": total["drifting_topics.adjust"],
            "drifting_topics.evolve_s": total["drifting_topics.evolve"],
            "drifting_topics.lifecycle_s": total["drifting_topics.lifecycle"],
            "drifting_topics.lifecycle_steps": counts["drifting_topics.lifecycle_steps"],
            "drifting_topics.topics_born": counts["drifting_topics.topics_born"],
            "drifting_topics.topics_died": counts["drifting_topics.topics_died"],
            "drifting_topics.topics_revived": counts["drifting_topics.topics_revived"],
            "drifting_topics.tracked_pairs": counts["drifting_topics.tracked_pairs"],
            "drifting_topics.save_s": total["drifting_topics.save"],
            "drifting_topics.load_s": total["drifting_topics.load"],
            "kalman.forward_s": total["kalman.forward"],
            "kalman.backward_s": total["kalman.backward"],
            "kalman.calls": calls["kalman.forward"],
            "kalman.cells": cells,
            "kalman.present_share": counts["kalman.present_cells"] / cells if cells else 0.0,
            "kalman.computed_mb": counts["kalman.computed_bytes"] / MB,
            "fixed_k_dtm.train_self_s": self_time["fixed_k_dtm.train"],
            "fixed_k_dtm.estep_s": total["fixed_k_dtm.estep"],
            "fixed_k_dtm.estep_calls": calls["fixed_k_dtm.estep"],
            "fixed_k_dtm.interpolate_s": total["fixed_k_dtm.interpolate"],
            "fixed_k_dtm.heldout_s": total["fixed_k_dtm.heldout"],
            "fixed_k_dtm.knots": counts["fixed_k_dtm.knots"],
            "fixed_k_dtm.state_mb": counts["fixed_k_dtm.state_bytes"] / MB,
            "fixed_k_dtm.save_s": total["fixed_k_dtm.save"],
            "evaluation.series_s": total["evaluation.series"],
            "evaluation.timeline_assign_s": total["evaluation.timeline_assign"],
        }
        for cmd in ("ingest", "train", "timeline"):
            m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
            m[f"cli.{cmd}_self_s"] = self_time[f"cli.{cmd}"]
        per_run.append(m)
    metrics = {name: float(statistics.median(m[name] for m in per_run)) for name in per_run[0]}
    metrics["corpus.input_mb"] = props["input_bytes"] / MB
    metrics["corpus.docs"] = props["docs"]
    metrics["input.distinct_ts_share"] = props["distinct_timestamps"] / props["docs"]
    metrics["input.distinct_words_per_doc"] = props["distinct_words_total"] / props["docs"]
    untraced, traced = statistics.median(untraced_walls), statistics.median(traced_walls)
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.traced_pass_s"] = traced
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    return metrics


def self_time_report(tracer, run):
    """Per command: wall = children + self, and whether every child lies inside its command."""
    walls, children, ok = {}, {}, True
    for i, (name, start, end, parent, span_run) in enumerate(tracer.spans):
        if span_run != run:
            continue
        if parent == -1:
            walls[name] = walls.get(name, 0.0) + end - start
        elif tracer.spans[parent][3] == -1:
            _, p_start, p_end, _, _ = tracer.spans[parent]
            ok = ok and p_start <= start <= end <= p_end
            key = tracer.spans[parent][0]
            children[key] = children.get(key, 0.0) + end - start
    lines = [f"# self-time {name}: wall {wall:.6f} s = children {children.get(name, 0.0):.6f} s"
             f" + self {wall - children.get(name, 0.0):.6f} s" for name, wall in walls.items()]
    return lines, ok


UNITS = {"_s": "s", "_mb": "MB", "_share": "ratio", "_per_doc": "1/doc"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix) or suffix + "_" in name:
            return unit
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's outputs as the reference values and exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "topicdrift" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        return run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, work):
    from topicdrift import cli
    from spans import Tracer

    work.mkdir(parents=True)
    ref_archive = work / f"reference.{workload.layout}"
    archive_path = work / f"seed{args.seed}.{workload.layout}"
    all_passes = []

    # set-up, several times: a fresh interpreter's imports plus archive generation
    repeats = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        write_archive(workload, DEFAULT_SEED, ref_archive)
        write_archive(workload, args.seed, archive_path)
        repeats.append(import_seconds() + time.perf_counter() - start)
    start = time.perf_counter()
    warm = run_pass(cli, workload, ref_archive, work)
    warmup_s = time.perf_counter() - start
    setup_s = statistics.median(repeats) + warmup_s
    all_passes.append(warm)
    if args.write_reference:
        if not warm.ok:
            return 1
        reference_path(args.workload).parent.mkdir(exist_ok=True)
        reference_path(args.workload).write_text(json.dumps(reference_record(warm)) + "\n",
                                                 encoding="utf-8")
        print(f"wrote {reference_path(args.workload).relative_to(ROOT)}")
        return 0
    if warm.ok and not matches_reference(args.workload, warm):
        mark_failed(warm)

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    begin = time.perf_counter()
    while (time.perf_counter() - begin < args.seconds
           or len(untraced) < (1 if tracer else MIN_PASSES) or (tracer and not traced)):
        use_trace = tracer is not None and len(traced) < len(untraced)
        if use_trace:
            tracer.start_run()
            with tracer.installed():
                res = run_pass(cli, workload, archive_path, work, tracer)
            traced.append((tracer.run, res))
        else:
            res = run_pass(cli, workload, archive_path, work)
            untraced.append(res)
        all_passes.append(res)
        if res.ok and res.outputs != untraced[0].outputs:
            complain("a pass wrote different outputs than the first pass on the same input"
                     + (" (traced against untraced)" if use_trace else ""))
            mark_failed(res)
        if res.ok and args.seed == DEFAULT_SEED and not matches_reference(args.workload, res):
            mark_failed(res)
        if not res.ok:
            break

    good = [p for p in untraced if p.ok]
    if not good or (tracer and not any(p.ok for _, p in traced)):
        print("error: no pass completed", file=sys.stderr)
        return 1

    props = corpus_properties(work / "corpus.jsonl", workload)
    props["input_bytes"] = archive_path.stat().st_size
    props.update(checkpoint_properties(work / "model.json", workload.model))
    lines = []
    if tracer:
        runs = [run_id for run_id, p in traced if p.ok]
        metrics = per_layer_metrics(tracer, runs, [p.wall for p in good],
                                    [p.wall for _, p in traced if p.ok], props)
        for key in ("kalman.present_share", "drifting_topics.topics_died",
                    "drifting_topics.topics_revived", "fixed_k_dtm.knots"):
            props[key] = int(metrics[key]) if metrics[key].is_integer() else metrics[key]
        report, consistent = self_time_report(tracer, runs[0])
        lines += report
        if not consistent:
            complain("child spans do not nest inside their command")
            mark_failed(traced[0][1])
        if tracer.missing:
            lines.append("# trace hooks not found in the program: " + ", ".join(tracer.missing))
        metrics = {k: (v, unit_of(k)) for k, v in metrics.items()}
    else:
        metrics = end_to_end_metrics(workload, good, setup_s)

    attempted = sum(len(p.commands) for p in all_passes)
    failed = sum(not c.ok for p in all_passes for c in p.commands)
    env = environment()
    lines.append("# env " + json.dumps(env, sort_keys=True))
    lines.append("# input " + json.dumps(props, sort_keys=True))
    lines.append(f"# passes measured {len(untraced)} untraced, {len(traced)} traced; "
                 f"failed_share {failed / attempted:.6f} ({failed} of {attempted} commands)")
    lines.append("# no layer waits: the program has no queues or threads")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}\t{value!r}\t{unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "env": env, "input": props,
                    "setup": {"repeats_s": repeats, "warmup_s": warmup_s},
                    "passes": [[[c.name, c.wall, c.ok] for c in p.commands] for p in all_passes],
                    **result}, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
