"""Span tracing for the benchmark, installed from outside the program.

``Tracer.installed()`` replaces each traced function with a timing wrapper
at every name a caller looks up: the defining module's attribute, every
other pipeline module that imported the same function object, and the
class attribute for methods.  Leaving the context restores the originals,
so untraced passes run the program exactly as shipped.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span (-1 for a command's root span) and ``run`` numbers the
pipeline pass, the unit that plays the role of one request.  Spans stay
in memory and are written out once, when the benchmark ends.

The program has no queues or threads, so no layer ever waits; the trace
records busy time and counts only.
"""

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "corpus", "online_hdp", "drifting_topics", "kalman", "fixed_k_dtm", "evaluation")

# (span name, module, function or Class.method); the name is looked up at call time
TIMED = (
    ("corpus.parse", "corpus", "parse_reuters"),
    ("corpus.parse", "corpus", "parse_bbc"),
    ("corpus.vocab", "corpus", "build_vocabulary"),
    ("corpus.to_documents", "corpus", "to_documents"),
    ("corpus.write_canonical", "corpus", "write_canonical"),
    ("corpus.read_canonical", "corpus", "read_canonical"),
    ("corpus.statistics", "corpus", "corpus_statistics"),
    ("corpus.vocab_io", "corpus", "write_vocabulary"),
    ("corpus.vocab_io", "corpus", "read_vocabulary"),
    ("online_hdp.batch", "online_hdp", "OnlineHdp.process_batch"),
    ("online_hdp.infer", "online_hdp", "_infer_core"),
    ("online_hdp.elbo", "online_hdp", "_doc_elbo"),
    ("online_hdp.snapshot", "online_hdp", "HdpSnapshot.of"),
    ("online_hdp.update", "online_hdp", "online_update"),
    ("online_hdp.stats", "online_hdp", "accumulate_stats"),
    ("online_hdp.score", "online_hdp", "mixture_score"),
    ("online_hdp.score", "online_hdp", "doc_topic_mixture"),
    ("online_hdp.save", "online_hdp", "save_checkpoint"),
    ("online_hdp.load", "online_hdp", "load_checkpoint"),
    ("drifting_topics.batch", "drifting_topics", "process_batch"),
    ("drifting_topics.adjust", "drifting_topics", "DriftingTopicModel.adjusted_matrices"),
    ("drifting_topics.evolve", "drifting_topics", "evolve_topics"),
    ("drifting_topics.lifecycle", "drifting_topics", "_lifecycle_stage"),
    ("drifting_topics.save", "drifting_topics", "save_checkpoint"),
    ("drifting_topics.load", "drifting_topics", "load_checkpoint"),
    ("kalman.forward", "kalman", "forward_steps"),
    ("kalman.backward", "kalman", "backward_steps"),
    ("fixed_k_dtm.train", "fixed_k_dtm", "train_cdtm"),
    ("fixed_k_dtm.estep", "fixed_k_dtm", "_mixture_e_step"),
    ("fixed_k_dtm.interpolate", "fixed_k_dtm", "CdtmModel.log_word_probs_at"),
    ("fixed_k_dtm.heldout", "fixed_k_dtm", "cdtm_heldout_loglik"),
    ("fixed_k_dtm.save", "fixed_k_dtm", "save_checkpoint"),
    ("evaluation.series", "evaluation", "per_word_series"),
    ("evaluation.series", "evaluation", "smooth_series"),
    ("evaluation.series", "evaluation", "write_series_tsv"),
    ("evaluation.timeline_assign", "evaluation", "timeline_assign"),
)



def _kalman_forward_counts(counts, result, args, kwargs):
    beta_hat, present = args[1], args[3]
    counts["kalman.cells"] += beta_hat.size
    counts["kalman.present_cells"] += int(np.count_nonzero(present))
    counts["kalman.computed_bytes"] += sum(a.nbytes for a in result)


def _kalman_backward_counts(counts, result, args, kwargs):
    counts["kalman.computed_bytes"] += sum(a.nbytes for a in result)


def _drift_batch_counts(counts, result, args, kwargs):
    model = args[0]
    counts["drifting_topics.tracked_pairs"] = sum(
        len(t.word_mean) for t in model.topics if t is not None
    )


def _cdtm_train_counts(counts, model, args, kwargs):
    k, s, v = model.means.shape
    counts["fixed_k_dtm.knots"] = s
    counts["fixed_k_dtm.state_bytes"] = 2 * k * s * v * 8


def _lifecycle_counts(counts, new, args, kwargs):
    old = args[0]
    counts["drifting_topics.lifecycle_steps"] += 1
    if old is None:
        counts["drifting_topics.topics_born"] += 1
    elif old.state != new.state:
        key = "topics_died" if new.state == "dead" else "topics_revived"
        counts["drifting_topics." + key] += 1


# functions that are only counted: lifecycle_step runs once per (document, topic)
COUNTED = (("drifting_topics", "lifecycle_step", _lifecycle_counts),)

HOOKS = {
    "kalman.forward": _kalman_forward_counts,
    "kalman.backward": _kalman_backward_counts,
    "drifting_topics.batch": _drift_batch_counts,
    "fixed_k_dtm.train": _cdtm_train_counts,
}


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # run -> Counter
        self.run = -1
        self.missing = []
        self._stack = []

    def start_run(self):
        self.run += 1
        self.counts[self.run] = Counter()

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if hook is not None:
                    self._count(hook, name, result, args, kwargs)
            return result

        return wrapper

    def _counted(self, hook, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(hook, fn.__name__, result, args, kwargs)
            return result

        return wrapper

    def _count(self, hook, name, result, args, kwargs):
        """Run a counting hook; one written against another program version is reported, not fatal."""
        try:
            hook(self.counts[self.run], result, args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            if f"{name} counts" not in self.missing:
                self.missing.append(f"{name} counts")

    @contextmanager
    def installed(self):
        """Patch every lookup site of the traced functions; restore on exit."""
        modules = [importlib.import_module(f"topicdrift.{m}") for m in LAYERS]
        undo = []

        def patch(owner, attr, make):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(make(original.__func__)))
                undo.append((owner, attr, original))
                return
            wrapped = make(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
            if owner not in modules:
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))

        makers = [(mod, attr, functools.partial(self._timed, name)) for name, mod, attr in TIMED]
        makers += [(mod, attr, functools.partial(self._counted, hook)) for mod, attr, hook in COUNTED]
        try:
            for mod_name, attr, make in makers:
                owner = importlib.import_module(f"topicdrift.{mod_name}")
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                if owner is None or path[-1] not in vars(owner):
                    if f"{mod_name}.{attr}" not in self.missing:
                        self.missing.append(f"{mod_name}.{attr}")
                    continue
                patch(owner, path[-1], make)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def summarize(self, run):
        """Per-name total and self seconds, span counts and counters of one run."""
        ids = [i for i, s in enumerate(self.spans) if s[4] == run]
        child_time = Counter()
        for i in ids:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        total, self_time, calls, durations = Counter(), Counter(), Counter(), {}
        for i in ids:
            name, start, end, _, _ = self.spans[i]
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            durations.setdefault(name, []).append(end - start)
        return total, self_time, calls, durations, self.counts.get(run, Counter())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")
