"""Compare the outputs of two source trees of topicdrift, run on the same inputs.

    python3 tools/identity.py PARENT CHILD

PARENT and CHILD are checkouts of the repository.  Each tree runs in its own
interpreter, with ``PYTHONPATH=<tree>/src``, once with
``online_hdp.WORKERS = 1`` and once with 2.  Each run is:

* ``ingest`` -> ``train`` -> ``timeline`` for every workload of
  ``benchmarks/run.py``, with its ``train`` settings, on the
  ``benchmarks/archive.py`` archives of seeds 0, 3 and 7;
* ``uniform_stream(512, 20000, seed=0)`` written as a corpus with its
  vocabulary, then ``train`` of all three models and ``timeline`` of both
  online models, every option at its default.

The archives are written once and read by both trees.  One row is printed
per output: its name, both sha256 values and, for score TSVs and
``assign.tsv``, the largest relative difference of their numbers.  The exit
status is 1 if a relative difference is above 1e-10, if an ``assign.tsv``
flag, a doc id or a row count differs, or if an output exists in one tree
only; a byte difference within 1e-10 is printed but does not fail.
Everything is written under a temporary directory, which is removed.
"""

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark modules are imported from the checkout

TOOLS = Path(__file__).resolve().parent
BENCH = TOOLS.parent / "benchmarks"
SEEDS = (0, 3, 7)
WORKERS = (1, 2)
REL_TOL = 1e-10
DEFAULTS_DOCS, DEFAULTS_VOCAB = 512, 20000


def _bench():
    """``benchmarks/run.py``, whose workloads and archives the runs use."""
    sys.path.insert(0, str(BENCH))
    import run
    return run


def _archive(archives, layout, seed):
    return archives / f"{layout}-seed{seed}"


def _cli(cli, *argv):
    code = cli.main([str(a) for a in argv])
    if code:
        raise SystemExit(f"topicdrift {' '.join(map(str, argv))} exited {code}")


def _pipeline(cli, out, corpus, vocab, train_args, timeline, prefix=""):
    """``train`` and, for an online model, ``timeline`` of topic 1, as the benchmark runs them."""
    ckpt = out / f"{prefix}checkpoint.json"
    _cli(cli, "train", *train_args, "--corpus", corpus, "--vocab", vocab, "--checkpoint", ckpt,
         "--tsv", out / f"{prefix}scores.tsv")
    if timeline:
        _cli(cli, "timeline", "--checkpoint", ckpt, "--corpus", corpus, "--topic", "1",
             "--out-assign", out / f"{prefix}assign.tsv")


def run_tree(tree, workers, archives, out):
    """Every run, in this interpreter, on the topicdrift of ``tree`` with ``workers`` workers; writes under ``out``."""
    from topicdrift import cli, online_hdp
    from topicdrift.corpus import Vocabulary, write_canonical, write_vocabulary
    from topicdrift.synthetic import uniform_stream

    if not Path(cli.__file__).resolve().is_relative_to(Path(tree).resolve() / "src"):
        raise SystemExit(f"imported {cli.__file__}, not the topicdrift of {tree}")
    online_hdp.WORKERS = workers
    archives, out = Path(archives), Path(out)
    for name, workload in sorted(_bench().WORKLOADS.items()):
        for seed in SEEDS:
            run_dir = out / f"{name}-seed{seed}"
            run_dir.mkdir(parents=True)
            corpus, vocab = run_dir / "corpus.jsonl", run_dir / "vocab.txt"
            _cli(cli, "ingest", "--format", workload.fmt, "--input", _archive(archives, workload.layout, seed),
                 "--out-corpus", corpus, "--out-vocab", vocab)
            _pipeline(cli, run_dir, corpus, vocab, workload.train_args, workload.timeline)

    run_dir = out / "cli-defaults"
    run_dir.mkdir()
    corpus, vocab = run_dir / "corpus.jsonl", run_dir / "vocab.txt"
    write_canonical(uniform_stream(DEFAULTS_DOCS, DEFAULTS_VOCAB, seed=0), corpus)
    terms = [f"w{i}" for i in range(DEFAULTS_VOCAB)]
    write_vocabulary(Vocabulary({t: i for i, t in enumerate(terms)}, terms), vocab)
    for model in ("ohdp", "cidtm", "cdtm"):
        _pipeline(cli, run_dir, corpus, vocab, ("--model", model), model != "cdtm", prefix=f"{model}.")


def _run_in_subprocess(tree, workers, archives, out):
    env = {k: v for k, v in os.environ.items() if k != "TM_SEED"}  # TM_SEED would override every --seed
    env.update(PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import identity; "
            f"identity.run_tree({str(tree)!r}, {workers}, {str(archives)!r}, {str(out)!r})")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=out.parent, capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"the runs of {tree} at {workers} worker(s) failed")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rel_diff(a, b):
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    d = abs(a - b) / max(abs(a), abs(b))
    return d if math.isfinite(d) else math.inf


def tsv_diff(parent, child):
    """The largest relative difference of two TSVs' numbers, and what else differs, or None.

    Column 0 is a doc id and must match, as must the row count and an
    ``assign.tsv`` flag column; every other column is a number.
    """
    rows = [[line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()] for path in (parent, child)]
    (p_head, *p_rows), (c_head, *c_rows) = rows
    if p_head != c_head or len(p_rows) != len(c_rows):
        return math.inf, "header or row count"
    exact = {0, p_head.index("assigned")} if "assigned" in p_head else {0}
    worst = 0.0
    for p, c in zip(p_rows, c_rows):
        if len(p) != len(c) or any(p[i] != c[i] for i in exact):
            return math.inf, "doc id or flag"
        worst = max([worst] + [rel_diff(x, y) for i, (x, y) in enumerate(zip(p, c)) if i not in exact])
    return worst, None


def compare(parent_out, child_out):
    """Print one row per output of either tree; returns True if every output passes."""
    names = sorted({p.relative_to(root) for root in (parent_out, child_out) for p in root.rglob("*") if p.is_file()})
    ok, same = True, 0
    print("output\tparent_sha256\tchild_sha256\tmax_rel_diff\tresult")
    for name in names:
        p, c = parent_out / name, child_out / name
        if not (p.is_file() and c.is_file()):
            ok = False
            print(f"{name}\t{sha256(p) if p.is_file() else '-'}\t{sha256(c) if c.is_file() else '-'}\t-\tmissing")
            continue
        hp, hc = sha256(p), sha256(c)
        same += hp == hc
        diff, problem = tsv_diff(p, c) if name.suffix == ".tsv" else (None, None)
        failed = problem is not None or (diff is not None and diff > REL_TOL)
        ok &= not failed
        if failed:
            result = f"FAIL ({problem})" if problem else "FAIL"
        else:
            result = "identical" if hp == hc else "bytes differ" if diff is None else "within 1e-10"
        print(f"{name}\t{hp}\t{hc}\t{'-' if diff is None else f'{diff:.3g}'}\t{result}")
    print(f"# {len(names)} outputs, {same} byte-identical, {'pass' if ok else 'FAIL'}")
    return ok


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all((Path(t) / "src" / "topicdrift").is_dir() for t in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, child = (Path(t).resolve() for t in argv)
    bench = _bench()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        archives = tmp / "archives"
        archives.mkdir()
        for workload in bench.WORKLOADS.values():
            for seed in SEEDS:
                path = _archive(archives, workload.layout, seed)
                if not path.exists():
                    bench.write_archive(workload, seed, path)
        for side, tree in (("parent", parent), ("child", child)):
            for workers in WORKERS:
                out = tmp / side / f"workers{workers}"
                out.mkdir(parents=True)
                _run_in_subprocess(tree, workers, archives, out)
        return 0 if compare(tmp / "parent", tmp / "child") else 1


if __name__ == "__main__":
    sys.exit(main())
