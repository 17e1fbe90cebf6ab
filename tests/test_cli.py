"""Command-line pipelines: determinism, formats, exit codes."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from helpers import MALFORMED_LINES, payload_array, reference_doc_topic_weights, set_payload_array
from topicdrift import drifting_topics, evaluation, fixed_k_dtm, online_hdp
from topicdrift.checkpoint import read_checkpoint
from topicdrift.cli import build_parser, main
from topicdrift.corpus import read_canonical, write_canonical, write_vocabulary, Vocabulary
from topicdrift.errors import NumericalError
from topicdrift.synthetic import three_topic_corpus, uniform_stream

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_synthetic_corpus(tmp_path, n_docs=200, vocab=30, seed=0):
    docs, _ = three_topic_corpus(n_docs=n_docs, vocab_size=vocab, seed=seed)
    corpus = tmp_path / "corpus.jsonl"
    vocab_file = tmp_path / "vocab.txt"
    write_canonical(docs, corpus)
    terms = [f"w{i:03d}" for i in range(vocab)]
    write_vocabulary(Vocabulary({t: i for i, t in enumerate(terms)}, terms), vocab_file)
    return corpus, vocab_file


def write_raw_corpus(path, body_counts):
    """A canonical corpus with one hand-written document per ``body_counts`` entry."""
    path.write_text("".join(
        json.dumps({"id": f"d{i}", "ts": float(i), "title": "", "body_counts": counts, "related": []}) + "\n"
        for i, counts in enumerate(body_counts)
    ))
    return path


def config_wording(message):
    """A flag's rule as its config words it: "--obs-var must ..." reads "obs_var must ..."."""
    flag, rule = message.split(" ", 1)
    return f"{flag.lstrip('-').replace('-', '_')} {rule}"


def malformed_corpus(path, line):
    path.write_text('{"id": "d0", "ts": 0.0, "body_counts": {"3": 1}}\n' + line + "\n")
    return path


class TestIngest:
    def test_reuters_fixture_round_trip(self, tmp_path, capsys):
        out_corpus = tmp_path / "c.jsonl"
        out_vocab = tmp_path / "v.txt"
        code = main([
            "ingest", "--format", "reuters",
            "--input", str(FIXTURES / "sample_reuters.sgm"),
            "--out-corpus", str(out_corpus), "--out-vocab", str(out_vocab),
            "--min-doc-freq", "1",
        ])
        assert code == 0
        docs = read_canonical(out_corpus)
        assert len(docs) == 3
        stats = capsys.readouterr().out
        assert "documents\t3" in stats and "vocabulary_size" in stats

    def test_bbc_fixture_keeps_related(self, tmp_path):
        out_corpus = tmp_path / "c.jsonl"
        main([
            "ingest", "--format", "bbc",
            "--input", str(FIXTURES / "sample_bbc.txt"),
            "--out-corpus", str(out_corpus), "--out-vocab", str(tmp_path / "v.txt"),
            "--min-doc-freq", "1",
        ])
        docs = read_canonical(out_corpus)
        by_id = {d.id: d for d in docs}
        assert len(by_id["http://www.bbc.co.uk/news/world-europe-10912658"].related) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        args = lambda sub: [
            "ingest", "--format", "reuters",
            "--input", str(FIXTURES / "sample_reuters.sgm"),
            "--out-corpus", str(tmp_path / f"c{sub}.jsonl"),
            "--out-vocab", str(tmp_path / f"v{sub}.txt"),
            "--min-doc-freq", "1",
        ]
        main(args("a"))
        main(args("b"))
        assert (tmp_path / "ca.jsonl").read_bytes() == (tmp_path / "cb.jsonl").read_bytes()
        assert (tmp_path / "va.txt").read_bytes() == (tmp_path / "vb.txt").read_bytes()

    def test_records_sharing_an_id_keep_their_own_titles(self, tmp_path):
        raw = tmp_path / "records.txt"
        raw.write_text(
            "a1\t2010/08/09 15:51:53\tFirst title\tmarkets rallied\n"
            "a1\t2010/08/10 15:51:53\tSecond title\tmarkets rallied\n"
        )
        out_corpus = tmp_path / "c.jsonl"
        assert main([
            "ingest", "--format", "bbc", "--input", str(raw),
            "--out-corpus", str(out_corpus), "--out-vocab", str(tmp_path / "v.txt"),
        ]) == 0
        titles = [json.loads(line)["title"] for line in out_corpus.read_text().splitlines()]
        assert titles == ["First title", "Second title"]

    def test_runs_as_a_module_from_source(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "topicdrift", "ingest", "--format", "bbc",
             "--input", str(FIXTURES / "sample_bbc.txt"), "--out-corpus", str(tmp_path / "c.jsonl"),
             "--out-vocab", str(tmp_path / "v.txt"), "--min-doc-freq", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("documents\t3\n")

    @pytest.mark.parametrize("floor", ["0", "-4"])
    def test_min_doc_freq_below_one_exits_2(self, tmp_path, capsys, floor):
        code = main([
            "ingest", "--format", "bbc", "--input", str(FIXTURES / "sample_bbc.txt"),
            "--out-corpus", str(tmp_path / "c.jsonl"), "--out-vocab", str(tmp_path / "v.txt"),
            "--min-doc-freq", floor,
        ])
        assert code == 2
        assert f"min_doc_freq must be >= 1, got {floor}" in capsys.readouterr().err
        assert not (tmp_path / "c.jsonl").exists()

    def test_unreadable_input_exits_2(self, tmp_path):
        code = main([
            "ingest", "--format", "reuters", "--input", str(tmp_path / "missing.sgm"),
            "--out-corpus", str(tmp_path / "c"), "--out-vocab", str(tmp_path / "v"),
        ])
        assert code == 2


class TestTrain:
    def small_args(self, corpus, vocab_file, tmp_path, model, extra=()):
        """A small run; the online models get small truncations, and cdtm, which reads neither, none."""
        return [
            "train", "--model", model,
            "--corpus", str(corpus), "--vocab", str(vocab_file),
            "--checkpoint", str(tmp_path / f"{model}.ckpt"),
            "--tsv", str(tmp_path / f"{model}.tsv"),
            *([] if model == "cdtm" else ["--k-corpus", "8", "--t-doc", "4"]), "--seed", "42",
            *extra,
        ]

    def test_ohdp_batch_one_emits_row_per_document(self, tmp_path):
        corpus, vocab_file = write_synthetic_corpus(tmp_path)
        code = main(self.small_args(corpus, vocab_file, tmp_path, "ohdp",
                                    ["--batch-size", "1"]))
        assert code == 0
        rows = (tmp_path / "ohdp.tsv").read_text().splitlines()
        assert len(rows) == 201  # header + one row per document

    def test_cidtm_large_batch_runs_and_checkpoints(self, tmp_path):
        corpus, vocab_file = write_synthetic_corpus(tmp_path)
        code = main(self.small_args(corpus, vocab_file, tmp_path, "cidtm",
                                    ["--batch-size", "256"]))
        assert code == 0
        payload = json.loads((tmp_path / "cidtm.ckpt").read_text())
        assert payload["kind"] == "cidtm"

    def test_cdtm_trains_on_split(self, tmp_path):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=80)
        code = main(self.small_args(corpus, vocab_file, tmp_path, "cdtm",
                                    ["--k", "3", "--sweeps", "2"]))
        assert code == 0
        rows = (tmp_path / "cdtm.tsv").read_text().splitlines()
        assert len(rows) == 41  # header + the held-out half

    def test_same_seed_identical_tsv(self, tmp_path):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=60)
        for sub in ("a", "b"):
            main([
                "train", "--model", "ohdp", "--corpus", str(corpus),
                "--vocab", str(vocab_file),
                "--checkpoint", str(tmp_path / f"{sub}.ckpt"),
                "--tsv", str(tmp_path / f"{sub}.tsv"),
                "--k-corpus", "6", "--t-doc", "3",
                "--batch-size", "10", "--seed", "7",
            ])
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=40)
        main(self.small_args(corpus, vocab_file, tmp_path, "ohdp",
                             ["--batch-size", "10", "--seed", "1"]))
        first = (tmp_path / "ohdp.tsv").read_bytes()
        monkeypatch.setenv("TM_SEED", "999")
        main(self.small_args(corpus, vocab_file, tmp_path, "ohdp",
                             ["--batch-size", "10", "--seed", "1"]))
        assert (tmp_path / "ohdp.tsv").read_bytes() != first

    @pytest.mark.parametrize("value", ["abc", "1.5", " "])
    def test_env_seed_that_is_not_an_integer_exits_2(self, tmp_path, monkeypatch, capsys, value):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        monkeypatch.setenv("TM_SEED", value)
        assert main(self.small_args(corpus, vocab_file, tmp_path, "ohdp")) == 2
        assert f"TM_SEED must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "ohdp.tsv").exists()

    @pytest.mark.parametrize("model, env, flag, message", [
        ("ohdp", "", "-1", "--seed must be >= 0, got -1"),
        ("cdtm", "", "-1", "--seed must be >= 0, got -1"),
        ("ohdp", "-3", "1", "TM_SEED must be >= 0, got -3"),
    ])
    def test_negative_seed_exits_2_naming_its_source(self, tmp_path, monkeypatch, capsys, model, env, flag, message):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        monkeypatch.setenv("TM_SEED", env)
        assert main(self.small_args(corpus, vocab_file, tmp_path, model, ["--seed", flag])) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"{model}.tsv").exists()

    @pytest.mark.parametrize("model, header, config", [
        ("ohdp", "hyper", online_hdp.HdpHyper()),
        ("cidtm", "config", drifting_topics.CidtmConfig()),
        ("cdtm", "config", fixed_k_dtm.CdtmConfig()),
    ])
    def test_model_flags_default_to_the_config_defaults(self, tmp_path, model, header, config):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        ckpt = tmp_path / f"{model}.ckpt"
        assert main(["train", "--model", model, "--corpus", str(corpus), "--vocab", str(vocab_file),
                     "--checkpoint", str(ckpt), "--tsv", str(tmp_path / f"{model}.tsv")]) == 0
        assert json.loads(ckpt.read_text())["header"][header] == asdict(config)

    @pytest.mark.parametrize("model", ["ohdp", "cidtm"])
    @pytest.mark.parametrize("tau0", ["0", "0.5"])
    def test_tau0_below_one_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch, model, tau0):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)

        def no_fitting(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(online_hdp, "prequential_run", no_fitting)
        monkeypatch.setattr(fixed_k_dtm, "train_cdtm", no_fitting)
        code = main(self.small_args(corpus, vocab_file, tmp_path, model, ["--tau0", tau0]))
        assert code == 2
        assert f"tau0 must be finite and >= 1, got {float(tau0)}" in capsys.readouterr().err
        assert not (tmp_path / f"{model}.ckpt").exists()

    @pytest.mark.parametrize("model, extra, named", [
        ("ohdp", ["--drift-v", "5", "--sweeps", "9", "--k", "3"], "--drift-v, --sweeps, --k"),
        ("ohdp", ["--timer=1", "--train-fraction=0.5"], "--timer, --train-fraction"),
        ("cidtm", ["--k", "3", "--sw", "2"], "--k, --sweeps"),  # an abbreviation is named in full
        ("cidtm", ["--train-fraction", "0.5"], "--train-fraction"),
        ("cdtm", ["--batch-size", "3", "--k-corpus", "2", "--timer", "1"], "--batch-size, --k-corpus, --timer"),
        ("cdtm", ["--kappa=0.2", "--tau0=0.5", "--eta=0", "--gamma=nan", "--t-doc=4"],
         "--kappa, --tau0, --eta, --gamma, --t-doc"),
        ("cdtm", ["--threshold", "0.1"], "--threshold"),
    ])
    def test_a_flag_the_model_does_not_read_exits_2_before_any_input_is_read(self, tmp_path, capsys, monkeypatch,
                                                                             model, extra, named):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        given = corpus.read_bytes()

        def no_reading(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr("topicdrift.corpus.read_canonical", no_reading)
        monkeypatch.setattr("topicdrift.corpus.read_vocabulary", no_reading)
        assert main(self.small_args(corpus, vocab_file, tmp_path, model, extra)) == 2
        assert f"--model {model} does not read {named}" in capsys.readouterr().err
        assert not (tmp_path / f"{model}.ckpt").exists() and not (tmp_path / f"{model}.tsv").exists()
        assert corpus.read_bytes() == given

    def test_a_flag_given_at_its_default_is_still_refused(self, tmp_path, capsys):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        default = str(fixed_k_dtm.CdtmConfig.K)
        assert main(self.small_args(corpus, vocab_file, tmp_path, "ohdp", ["--k", default])) == 2
        assert "--model ohdp does not read --k" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        code = main(self.small_args(corpus, vocab_file, tmp_path, "ohdp",
                                    ["--kappa", "0.2"]))
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--train-fraction", "0", "--train-fraction must lie in (0, 1]"),
        ("--train-fraction", "-1", "--train-fraction must lie in (0, 1]"),
        ("--train-fraction", "1.5", "--train-fraction must lie in (0, 1]"),
        ("--train-fraction", "nan", "--train-fraction must lie in (0, 1]"),
        ("--sweeps", "0", "--sweeps must be >= 1"),
        ("--sweeps", "-2", "--sweeps must be >= 1"),
    ])
    def test_bad_cdtm_split_or_sweeps_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch,
                                                             flag, value, message):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)

        def no_fitting(*args, **kwargs):
            raise AssertionError("train_cdtm ran")

        monkeypatch.setattr(fixed_k_dtm, "train_cdtm", no_fitting)
        code = main(self.small_args(corpus, vocab_file, tmp_path, "cdtm", ["--k", "3", flag, value]))
        assert code == 2
        # the split is the command line's own rule; CdtmConfig words the sweeps rule
        assert (message if flag == "--train-fraction" else config_wording(message)) in capsys.readouterr().err
        assert not (tmp_path / "cdtm.ckpt").exists() and not (tmp_path / "cdtm.tsv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--obs-var", "-0.1", "--obs-var must be finite and > 0"),
        ("--obs-var", "-1e9", "--obs-var must be finite and > 0"),
        ("--obs-var", "0", "--obs-var must be finite and > 0"),
        ("--obs-var", "nan", "--obs-var must be finite and > 0"),
        ("--obs-var", "inf", "--obs-var must be finite and > 0"),
        ("--drift-v", "-1", "--drift-v must be finite and >= 0"),
        ("--drift-v", "nan", "--drift-v must be finite and >= 0"),
        ("--drift-v", "inf", "--drift-v must be finite and >= 0"),
    ])
    def test_bad_cdtm_drift_settings_exit_2_before_fitting(self, tmp_path, capsys, monkeypatch,
                                                          flag, value, message):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)

        def no_fitting(*args, **kwargs):
            raise AssertionError("train_cdtm ran")

        monkeypatch.setattr(fixed_k_dtm, "train_cdtm", no_fitting)
        # "--flag=value", since argparse reads "-1e9" after a space as an option
        code = main(self.small_args(corpus, vocab_file, tmp_path, "cdtm", ["--k", "3", f"{flag}={value}"]))
        assert code == 2
        assert config_wording(message) in capsys.readouterr().err
        assert not (tmp_path / "cdtm.ckpt").exists() and not (tmp_path / "cdtm.tsv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--obs-var", "-0.1", "obs_var must be finite and > 0"),
        ("--obs-var", "nan", "obs_var must be finite and > 0"),
        ("--obs-var", "inf", "obs_var must be finite and > 0"),
        ("--drift-v", "-1", "drift_v must be finite and >= 0"),
        ("--drift-v", "nan", "drift_v must be finite and >= 0"),
        ("--drift-v", "inf", "drift_v must be finite and >= 0"),
        ("--timer", "0", "active_timer_len must be finite and > 0"),
        ("--timer", "nan", "active_timer_len must be finite and > 0"),
        ("--timer", "inf", "active_timer_len must be finite and > 0"),
    ])
    def test_bad_cidtm_drift_settings_exit_2_before_fitting(self, tmp_path, capsys, monkeypatch,
                                                           flag, value, message):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)

        def no_model(*args, **kwargs):
            raise AssertionError("the drifting model was built")

        monkeypatch.setattr(drifting_topics, "DriftingTopicModel", no_model)
        code = main(self.small_args(corpus, vocab_file, tmp_path, "cidtm", [f"{flag}={value}"]))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cidtm.ckpt").exists() and not (tmp_path / "cidtm.tsv").exists()

    @pytest.mark.parametrize("model, flag, message", [
        ("ohdp", "--tau0=0.5", "tau0 must be finite and >= 1, got 0.5"),
        ("ohdp", "--kappa=0.2", "kappa must lie in (0.5, 1]"),
        ("cidtm", "--tau0=0.5", "tau0 must be finite and >= 1, got 0.5"),
        ("cidtm", "--kappa=0.2", "kappa must lie in (0.5, 1]"),
        ("cidtm", "--drift-v=-1", "drift_v must be finite and >= 0"),
        ("cidtm", "--timer=0", "active_timer_len must be finite and > 0"),
    ])
    def test_bad_online_setting_exits_2_before_the_corpus_is_read(self, tmp_path, capsys, monkeypatch,
                                                                   model, flag, message):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)

        def no_reading(*args, **kwargs):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr("topicdrift.corpus.read_canonical", no_reading)
        monkeypatch.setattr("topicdrift.corpus.read_vocabulary", no_reading)
        assert main(self.small_args(corpus, vocab_file, tmp_path, model, [flag])) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"{model}.ckpt").exists() and not (tmp_path / f"{model}.tsv").exists()

    # cdtm reads only --alpha0 of these, as its Dirichlet alpha
    @pytest.mark.parametrize("flag, model", [
        (flag, model) for model in ("ohdp", "cidtm") for flag in ("--gamma", "--alpha0", "--eta")
    ] + [("--alpha0", "cdtm")])
    def test_non_finite_concentration_exits_2(self, tmp_path, capsys, model, flag):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        k = ["--k", "3"] if model == "cdtm" else []
        code = main(self.small_args(corpus, vocab_file, tmp_path, model, [*k, f"{flag}=nan"]))
        assert code == 2
        message = "alpha and obs_var" if model == "cdtm" else "gamma, alpha0 and eta"
        assert f"{message} must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / f"{model}.ckpt").exists()

    def test_negative_word_index_exits_2(self, tmp_path, capsys):
        _, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        corpus = write_raw_corpus(tmp_path / "bad.jsonl", [{"3": 1}, {"-1": 2}])
        code = main(self.small_args(corpus, vocab_file, tmp_path, "ohdp"))
        assert code == 2
        err = capsys.readouterr().err
        assert "'d1'" in err and "-1" in err

    @pytest.mark.parametrize("line", list(MALFORMED_LINES.values()), ids=list(MALFORMED_LINES))
    def test_malformed_corpus_line_exits_2_naming_it(self, tmp_path, capsys, line):
        _, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        corpus = malformed_corpus(tmp_path / "bad.jsonl", line)
        code = main(self.small_args(corpus, vocab_file, tmp_path, "ohdp"))
        assert code == 2
        assert "bad.jsonl line 2 is not a document" in capsys.readouterr().err

    def test_document_without_words_exits_2(self, tmp_path, capsys):
        _, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        corpus = write_raw_corpus(tmp_path / "bad.jsonl", [{"3": 1}, {}])
        code = main(self.small_args(corpus, vocab_file, tmp_path, "cidtm"))
        assert code == 2
        assert "'d1' has no words" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["ohdp", "cdtm"])
    @pytest.mark.parametrize("terms, shown", [
        (["w000", "", "w001"], "vocab.txt line 2 is blank"),
        (["w000", "w001", "w000"], "vocab.txt lines 1 and 3: term 'w000' is listed twice"),
    ], ids=["blank line", "term twice"])
    def test_vocabulary_whose_line_numbers_are_not_its_indices_exits_2(self, tmp_path, capsys, model, terms, shown):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        vocab_file.write_text("".join(t + "\n" for t in terms + [f"w{i:03d}" for i in range(2, 30)]))
        assert main(self.small_args(corpus, vocab_file, tmp_path, model)) == 2
        assert shown in capsys.readouterr().err


class TestTimeline:
    def train_checkpoint(self, tmp_path):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=60)
        main([
            "train", "--model", "ohdp", "--corpus", str(corpus),
            "--vocab", str(vocab_file),
            "--checkpoint", str(tmp_path / "m.ckpt"), "--tsv", str(tmp_path / "m.tsv"),
            "--k-corpus", "6", "--t-doc", "3", "--batch-size", "10",
        ])
        return corpus, tmp_path / "m.ckpt"

    def test_all_labels_positive_with_zero_threshold(self, tmp_path):
        corpus, ckpt = self.train_checkpoint(tmp_path)
        docs = read_canonical(corpus)
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{d.id}\t1\n" for d in docs))
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--threshold", "0.0", "--labels", str(labels),
            "--out-assign", str(tmp_path / "assign.tsv"),
            "--out-confusion", str(tmp_path / "conf.tsv"),
        ])
        assert code == 0
        header, row = (tmp_path / "conf.tsv").read_text().splitlines()
        values = dict(zip(header.split("\t"), row.split("\t")))
        assert float(values["recall"]) == 1.0
        assert float(values["precision"]) == 1.0

    def test_threshold_defaults_to_the_timeline_constant(self, tmp_path):
        corpus, ckpt = self.train_checkpoint(tmp_path)
        base = ["timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--topic", "0", "--out-assign"]
        assert main([*base, str(tmp_path / "default.tsv")]) == 0
        assert main([*base, str(tmp_path / "given.tsv"), "--threshold", repr(evaluation.TIMELINE_THRESHOLD)]) == 0
        assert (tmp_path / "default.tsv").read_bytes() == (tmp_path / "given.tsv").read_bytes()
        assert build_parser().parse_args(["timeline", *base[1:], "a"]).threshold == evaluation.TIMELINE_THRESHOLD

    def test_labels_naming_no_corpus_document_exit_2(self, tmp_path, capsys):
        corpus, ckpt = self.train_checkpoint(tmp_path)
        labels = tmp_path / "labels.tsv"
        labels.write_text("nosuchdoc\t1\n")
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--labels", str(labels), "--out-assign", str(tmp_path / "assign.tsv"),
        ])
        assert code == 2
        assert "no document of the corpus has a label" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["2", "-1", "", "1\textra", "yes"],
                             ids=["two", "minus-one", "one-field", "three-fields", "yes"])
    def test_label_other_than_0_or_1_exits_2_naming_the_line(self, tmp_path, monkeypatch, capsys, bad):
        corpus, ckpt = self.train_checkpoint(tmp_path)
        docs = read_canonical(corpus)
        labels = tmp_path / "labels.tsv"
        labels.write_text(f"{docs[0].id}\t1\n{docs[1].id}" + (f"\t{bad}" if bad else "") + "\n")

        def no_fits(*args):
            raise AssertionError("timeline fitted documents before reading the labels")

        monkeypatch.setattr(online_hdp, "infer_batch", no_fits)
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--labels", str(labels), "--out-assign", str(tmp_path / "assign.tsv"),
        ])
        assert code == 2
        assert f"{labels} line 2: expected doc_id<TAB>0|1" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["1", "0"], ids=["same-label", "other-label"])
    def test_doc_labelled_twice_exits_2_naming_both_lines(self, tmp_path, capsys, second):
        corpus, ckpt = self.train_checkpoint(tmp_path)
        docs = read_canonical(corpus)
        labels = tmp_path / "labels.tsv"
        labels.write_text(f"{docs[0].id}\t1\n{docs[1].id}\t0\n\n{docs[0].id}\t{second}\n")
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--labels", str(labels), "--out-assign", str(tmp_path / "assign.tsv"),
        ])
        assert code == 2
        assert f"{labels} lines 1 and 4: doc id {docs[0].id!r} is labelled twice" in capsys.readouterr().err
        assert not (tmp_path / "assign.tsv").exists()

    WIDE_K, WIDE_V = 40, 5000

    def train_wide_checkpoint(self, tmp_path, model):
        """(corpus, checkpoint) of ``model`` trained with WIDE_K topics on 48 documents over WIDE_V words."""
        corpus, vocab_file = tmp_path / "corpus.jsonl", tmp_path / "vocab.txt"
        write_canonical(uniform_stream(48, self.WIDE_V, seed=1), corpus)
        terms = [f"w{i}" for i in range(self.WIDE_V)]
        write_vocabulary(Vocabulary({t: i for i, t in enumerate(terms)}, terms), vocab_file)
        ckpt = tmp_path / "m.ckpt"
        assert main([
            "train", "--model", model, "--corpus", str(corpus), "--vocab", str(vocab_file), "--checkpoint", str(ckpt),
            "--tsv", str(tmp_path / "m.tsv"), "--k-corpus", str(self.WIDE_K), "--t-doc", "5", "--batch-size", "24",
        ]) == 0
        return corpus, ckpt

    def peak_in_arrays(self, run):
        """``tracemalloc`` peak of ``run()``, in (WIDE_K, WIDE_V) float64 arrays."""
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / (self.WIDE_K * self.WIDE_V * 8)
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("model", ["ohdp", "cidtm"])
    def test_fit_holds_the_expectations_not_the_model(self, tmp_path, monkeypatch, model):
        """Traced peak from the start of the fit to the end of the command, in
        (K, V) arrays at K=40, V=5000.  Measured: 1.77 for both models; 3.95
        (ohdp) and 6.35 (cidtm) when the whole loaded model stays alive through
        the fit."""
        corpus, ckpt = self.train_wide_checkpoint(tmp_path, model)
        inner = online_hdp.infer_batch

        def measured(*args):
            tracemalloc.reset_peak()
            return inner(*args)

        monkeypatch.setattr(online_hdp, "infer_batch", measured)
        monkeypatch.setattr("helpers.infer_batch", measured)

        def former():
            modules = {"ohdp": online_hdp, "cidtm": drifting_topics}
            kind, header, arrays = read_checkpoint(ckpt, {name: m.ARRAYS for name, m in modules.items()})
            reference_doc_topic_weights(modules[kind].decode_checkpoint(header, arrays), read_canonical(corpus))

        assert self.peak_in_arrays(lambda: main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--topic", "1",
            "--out-assign", str(tmp_path / "assign.tsv"),
        ])) < 3.0 < self.peak_in_arrays(former)

    def test_cidtm_timeline_never_holds_the_drift_variances(self, tmp_path):
        """Traced peak of the whole command, in (K, V) arrays at K=40, V=5000.
        Measured: 4.14; 5.26 when the decoded model keeps its variances and
        tracked mask, and 5.13 for decoding the checkpoint and building the
        expectations alone with them.  The weights are written bit for bit."""
        corpus, ckpt = self.train_wide_checkpoint(tmp_path, "cidtm")
        assign = tmp_path / "assign.tsv"

        def former():
            model = drifting_topics.decode_checkpoint(*read_checkpoint(ckpt, {"cidtm": drifting_topics.ARRAYS})[1:])
            model.expectations()

        timeline = self.peak_in_arrays(lambda: main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--topic", "1", "--out-assign", str(assign),
        ]))
        assert timeline < 4.7 < self.peak_in_arrays(former)
        model = drifting_topics.load_checkpoint(ckpt)
        assert model.tracked.any()
        want = [repr(float(w[1])) for w in reference_doc_topic_weights(model, read_canonical(corpus))]
        assert [line.split("\t")[3] for line in assign.read_text().splitlines()[1:]] == want

    def test_threshold_sweep_monotone(self, tmp_path):
        corpus, ckpt = self.train_checkpoint(tmp_path)
        counts = []
        for i, threshold in enumerate(np.linspace(0.0, 1.0, 6)):
            out = tmp_path / f"assign{i}.tsv"
            main([
                "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                "--topic", "0", "--threshold", str(threshold),
                "--out-assign", str(out),
            ])
            rows = out.read_text().splitlines()[1:]
            counts.append(sum(int(r.split("\t")[2]) for r in rows))
        assert counts == sorted(counts, reverse=True)

    def test_weight_column_holds_plain_numbers(self, tmp_path):
        corpus, ckpt = self.train_checkpoint(tmp_path)
        out = tmp_path / "assign.tsv"
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--out-assign", str(out),
        ])
        assert code == 0
        header, *rows = out.read_text().splitlines()
        column = header.split("\t").index("weight")
        weights = [float(r.split("\t")[column]) for r in rows]
        assert len(weights) == 60 and all(0.0 <= w <= 1.0 for w in weights)

    def test_word_index_beyond_checkpoint_vocabulary_exits_2(self, tmp_path, capsys):
        _, ckpt = self.train_checkpoint(tmp_path)
        corpus = write_raw_corpus(tmp_path / "wide.jsonl", [{"3": 1}, {"30": 1}])
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--out-assign", str(tmp_path / "x.tsv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "'d1'" in err and "30" in err

    @pytest.mark.parametrize("line", list(MALFORMED_LINES.values()), ids=list(MALFORMED_LINES))
    def test_malformed_corpus_line_exits_2_naming_it(self, tmp_path, capsys, line):
        _, ckpt = self.train_checkpoint(tmp_path)
        corpus = malformed_corpus(tmp_path / "bad.jsonl", line)
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--out-assign", str(tmp_path / "x.tsv"),
        ])
        assert code == 2
        assert "bad.jsonl line 2 is not a document" in capsys.readouterr().err

    def timeline_exit_code(self, tmp_path, monkeypatch, topic, threshold="0.05"):
        corpus, ckpt = self.train_checkpoint(tmp_path)

        def no_fits(*args):
            raise AssertionError("timeline fitted documents before checking --topic and --threshold")

        monkeypatch.setattr(online_hdp, "infer_batch", no_fits)
        return main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", topic, "--threshold", threshold, "--out-assign", str(tmp_path / "x.tsv"),
        ])

    def test_topic_out_of_range_exits_2(self, tmp_path, monkeypatch, capsys):
        assert self.timeline_exit_code(tmp_path, monkeypatch, "99") == 2
        assert "topic 99 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("topic", ["6", "-1"])
    def test_topic_just_outside_the_checkpoint_exits_2(self, tmp_path, monkeypatch, capsys, topic):
        assert self.timeline_exit_code(tmp_path, monkeypatch, topic) == 2
        assert f"topic {topic} out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "-1", "2", "1.0000001"])
    def test_threshold_outside_the_unit_interval_exits_2(self, tmp_path, monkeypatch, capsys, threshold):
        assert self.timeline_exit_code(tmp_path, monkeypatch, "0", threshold) == 2
        assert f"--threshold must lie in [0, 1], got {float(threshold)}" in capsys.readouterr().err
        assert not (tmp_path / "x.tsv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--threshold", "nan"], "--threshold must lie in [0, 1], got nan"),
        (["--threshold", "2"], "--threshold must lie in [0, 1], got 2.0"),
        (["--out-confusion", "conf.tsv"], "--out-confusion needs --labels"),
    ], ids=["threshold-nan", "threshold-2", "confusion-without-labels"])
    def test_bad_setting_exits_2_before_the_checkpoint_is_read(self, tmp_path, monkeypatch, capsys, argv, message):
        def no_reading(*args, **kwargs):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr("topicdrift.cli.read_checkpoint", no_reading)
        monkeypatch.chdir(tmp_path)
        assert main(["timeline", "--checkpoint", "m.ckpt", "--corpus", "c.jsonl", "--topic", "0",
                     "--out-assign", "x.tsv", *argv]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_memory_held_after_the_fit_is_one_weight_per_document(self, tmp_path, monkeypatch):
        """``tracemalloc``'s current size at the ``timeline_assign`` call less that at the ``infer_batch`` call,
        at 512 and 2,048 documents against one checkpoint (K = 100, V = 500).  Measured: it grows by about 15 B
        per added document; about 929 B when every document's (K,) topic weights are kept to the end."""
        vocab_size, topics = 500, 100
        corpus, vocab_file = tmp_path / "train.jsonl", tmp_path / "vocab.txt"
        write_canonical(uniform_stream(64, vocab_size, seed=1), corpus)
        terms = [f"w{i}" for i in range(vocab_size)]
        write_vocabulary(Vocabulary({t: i for i, t in enumerate(terms)}, terms), vocab_file)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--model", "ohdp", "--corpus", str(corpus), "--vocab", str(vocab_file),
                     "--checkpoint", str(ckpt), "--tsv", str(tmp_path / "m.tsv"), "--k-corpus", str(topics),
                     "--t-doc", "5", "--batch-size", "64"]) == 0
        marks = {}
        infer, assign = online_hdp.infer_batch, evaluation.timeline_assign

        def marked(name, inner):
            def call(*args):
                marks[name] = tracemalloc.get_traced_memory()[0]
                return inner(*args)
            return call

        monkeypatch.setattr(online_hdp, "infer_batch", marked("fit", infer))
        monkeypatch.setattr(evaluation, "timeline_assign", marked("assign", assign))
        held = {}
        for n_docs in (512, 2048):
            corpus = tmp_path / f"c{n_docs}.jsonl"
            write_canonical(uniform_stream(n_docs, vocab_size, seed=2), corpus)
            tracemalloc.start()
            try:
                assert main(["timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--topic", "1",
                             "--out-assign", str(tmp_path / f"assign{n_docs}.tsv")]) == 0
            finally:
                tracemalloc.stop()
            held[n_docs] = marks["assign"] - marks["fit"]
        assert (held[2048] - held[512]) / (2048 - 512) < 64

    def edited_cidtm_timeline(self, tmp_path, edit):
        """Exit code of timeline on a trained cidtm checkpoint (K = 6, V = 30) after ``edit(payload)``."""
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=60)
        ckpt = tmp_path / "cidtm.ckpt"
        assert main([
            "train", "--model", "cidtm", "--corpus", str(corpus), "--vocab", str(vocab_file),
            "--checkpoint", str(ckpt), "--tsv", str(tmp_path / "cidtm.tsv"),
            "--k-corpus", "6", "--t-doc", "3", "--batch-size", "10",
        ]) == 0
        payload = json.loads(ckpt.read_text())
        edit(payload)
        ckpt.write_text(json.dumps(payload))
        return main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--out-assign", str(tmp_path / "x.tsv"),
        ])

    @pytest.mark.parametrize("word", ["30", "-1"])
    def test_tracked_word_outside_the_vocabulary_exits_2(self, tmp_path, capsys, word):
        """The (6, 30) tracked mask packs into 23 bytes, whose last 4 bits are padding.

        Word 30 of the last topic would be entry 180, a pad bit; word -1 of the first would be the
        last bit of a byte before the first, which makes the mask 24 bytes.
        """
        def track_word(payload):
            mask = payload_array(payload, "tracked").copy()
            if word == "30":
                mask[180 // 8] |= 0x80 >> 180 % 8
            else:
                mask = np.insert(mask, 0, 1)
            set_payload_array(payload, "tracked", mask)

        assert self.edited_cidtm_timeline(tmp_path, track_word) == 2
        err = capsys.readouterr().err
        if word == "30":
            assert "mask 'tracked' sets a pad bit past its 180 entries" in err
        else:
            assert "mask 'tracked' holds 24 bytes, not the bits of [6, 30]" in err

    def test_checkpoint_with_a_clock_per_topic_still_loads(self, tmp_path):
        """A (K,) last_update_ts array, which cidtm files held before the model kept one clock, is ignored."""
        def add_topic_clocks(payload):
            payload["arrays"]["last_update_ts"] = {"dtype": "<f8"}
            set_payload_array(payload, "last_update_ts", np.full(6, payload["header"]["clock"]))

        plain, old = tmp_path / "plain", tmp_path / "old"
        plain.mkdir()
        old.mkdir()
        assert self.edited_cidtm_timeline(plain, lambda payload: None) == 0
        assert self.edited_cidtm_timeline(old, add_topic_clocks) == 0
        assert "last_update_ts" in json.loads((old / "cidtm.ckpt").read_text())["arrays"]
        assert (old / "x.tsv").read_bytes() == (plain / "x.tsv").read_bytes()

    def test_checkpoint_with_a_prior_variance_still_loads(self, tmp_path):
        """A prior_variance in the config, which cidtm files held before it became a constant, is ignored."""
        def add_prior_variance(payload):
            payload["header"]["config"]["prior_variance"] = 1.0

        plain, old = tmp_path / "plain", tmp_path / "old"
        plain.mkdir()
        old.mkdir()
        assert self.edited_cidtm_timeline(plain, lambda payload: None) == 0
        assert self.edited_cidtm_timeline(old, add_prior_variance) == 0
        assert "prior_variance" in json.loads((old / "cidtm.ckpt").read_text())["header"]["config"]
        assert (old / "x.tsv").read_bytes() == (plain / "x.tsv").read_bytes()

    def test_wrong_topic_count_exits_2(self, tmp_path, capsys):
        def drop_topic(payload):
            set_payload_array(payload, "born", payload_array(payload, "born")[:-1])

        assert self.edited_cidtm_timeline(tmp_path, drop_topic) == 2
        assert "lists 5 topics, not K_corpus = 6" in capsys.readouterr().err

    def test_format_1_checkpoint_exits_2_asking_to_retrain(self, tmp_path, capsys):
        corpus, _ = write_synthetic_corpus(tmp_path, n_docs=10)
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_text(json.dumps({"format_version": 1, "kind": "ohdp", "hyper": {}, "state": {}}))
        code = main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", "0", "--out-assign", str(tmp_path / "x.tsv"),
        ])
        assert code == 2
        assert "re-train" in capsys.readouterr().err


# simulate settings outside their ranges, each with the rule its error message names
BAD_SIMULATE_SETTINGS = {
    "crp-alpha-nan": (["crp", "--n", "5", "--alpha", "nan"], "alpha must be finite and > 0"),
    "crp-alpha-inf": (["crp", "--n", "5", "--alpha", "inf"], "alpha must be finite and > 0"),
    "crfp-alpha-nan": (["crfp", "--alpha", "nan"], "alpha and gamma must be finite and > 0"),
    "crfp-gamma-inf": (["crfp", "--gamma", "inf"], "alpha and gamma must be finite and > 0"),
    "dimsum-alpha-nan": (["dimsum", "--alpha", "nan"], "alpha and gamma must be finite and > 0"),
    "dimsum-alpha-0": (["dimsum", "--alpha", "0"], "alpha and gamma must be finite and > 0"),
    "dimsum-alpha-negative": (["dimsum", "--alpha", "-1"], "alpha and gamma must be finite and > 0"),
    "dimsum-gamma-0": (["dimsum", "--gamma", "0"], "alpha and gamma must be finite and > 0"),
    "dimsum-doc-size-0": (["dimsum", "--doc-sizes", "0,3,3"], "all doc_sizes must be >= 1"),
    "dimsum-drift-v-nan": (["dimsum", "--drift-v", "nan"], "drift_v must be finite and >= 0"),
    "dimsum-drift-v-inf": (["dimsum", "--drift-v", "inf"], "drift_v must be finite and >= 0"),
    "dimsum-arrival-nan": (["dimsum", "--doc-sizes", "3", "--arrival-times", "nan"], "arrival_times must be finite"),
    "tdpm-decay-lambda-nan": (["tdpm", "--decay-lambda", "nan"], "decay_lambda must be finite and > 0"),
    "tdpm-history-nan": (["tdpm", "--history", "nan;1"], "history counts must be finite and >= 0"),
    "crfp-doc-size-fractional": (["crfp", "--doc-sizes", "1.5"], "--doc-sizes must list comma-separated ints"),
    "dimsum-doc-size-fractional": (["dimsum", "--doc-sizes", "3,1.5"],
                                   "--doc-sizes must list comma-separated ints, got '3,1.5'"),
    "dimsum-arrival-not-a-number": (["dimsum", "--arrival-times", "0,x,2"],
                                    "--arrival-times must list comma-separated floats, got '0,x,2'"),
    "dimsum-arrival-empty-entry": (["dimsum", "--arrival-times", "0,,2"],
                                   "--arrival-times must list comma-separated floats"),
    "tdpm-history-not-a-number": (["tdpm", "--history", "2;x"], "--history must list comma-separated floats"),
    "tdpm-history-ragged": (["tdpm", "--history", "1,2;3"],
                            "--history rows must all hold one count per component, got '1,2;3'"),
    "crp-seed-negative": (["crp", "--seed", "-2"], "--seed must be >= 0, got -2"),
}


class TestWorkers:
    @pytest.mark.parametrize("model", ["ohdp", "cidtm"])
    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path, monkeypatch, model):
        """Three batches of four blocks each; with two workers every block is fitted off the calling thread."""
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=12 * online_hdp.BLOCK_DOCS)
        kernel, fitted_on = online_hdp._fit_block, []

        def recording(*args):
            fitted_on.append(threading.current_thread() is threading.main_thread())
            return kernel(*args)

        monkeypatch.setattr(online_hdp, "_fit_block", recording)
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(online_hdp, "WORKERS", workers)
            out, threads = tmp_path / str(workers), threading.active_count()
            out.mkdir()
            fitted_on.clear()
            assert main([
                "train", "--model", model, "--corpus", str(corpus), "--vocab", str(vocab_file),
                "--checkpoint", str(out / "m.ckpt"), "--tsv", str(out / "m.tsv"),
                "--k-corpus", "8", "--t-doc", "4", "--batch-size", str(4 * online_hdp.BLOCK_DOCS), "--seed", "42",
            ]) == 0
            assert main([
                "timeline", "--checkpoint", str(out / "m.ckpt"), "--corpus", str(corpus),
                "--topic", "1", "--out-assign", str(out / "assign.tsv"),
            ]) == 0
            assert threading.active_count() == threads
            assert fitted_on == [workers == 1] * (3 * 4 + 12)
            outputs[workers] = {name: (out / name).read_bytes() for name in ("m.ckpt", "m.tsv", "assign.tsv")}
        assert outputs[1] == outputs[2]


class TestSimulate:
    def test_single_customer_crp(self, tmp_path, capsys):
        code = main(["simulate", "crp", "--n", "1"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["tables"] == 1

    def test_tdpm_zero_width_is_zero(self, capsys):
        code = main(["simulate", "tdpm", "--history", "2;4", "--width", "0"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["decayed_counts"] == [0.0]

    def test_fixed_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            main(["simulate", "dimsum", "--doc-sizes", "5,5", "--arrival-times", "0,2",
                  "--seed", "3", "--out", str(tmp_path / f"{sub}.jsonl")])
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_bad_params_exit_2(self):
        assert main(["simulate", "crp", "--n", "0"]) == 2

    @pytest.mark.parametrize("argv, message", list(BAD_SIMULATE_SETTINGS.values()), ids=list(BAD_SIMULATE_SETTINGS))
    def test_out_of_range_settings_exit_2_naming_them(self, capsys, argv, message):
        assert main(["simulate", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_crfp_records_add_up(self, capsys):
        argv = ["simulate", "crfp", "--doc-sizes", "7,1,12", "--alpha", "1.5", "--gamma", "0.8", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        *restaurants, menu = [json.loads(line) for line in first.splitlines()]
        assert [r["restaurant"] for r in restaurants] == [0, 1, 2]
        assert [sum(r["table_sizes"]) for r in restaurants] == [7, 1, 12]
        assert all(len(r["dish_of_table"]) == len(r["table_sizes"]) for r in restaurants)
        assert sum(menu["dish_usage"]) == sum(len(r["table_sizes"]) for r in restaurants)
        assert menu["num_dishes"] == len(menu["dish_usage"])


class TestMain:
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)

        def diverge(*args):
            raise NumericalError("kernel diverged")

        monkeypatch.setattr(fixed_k_dtm, "_mixture_e_step", diverge)
        code = main([
            "train", "--model", "cdtm", "--corpus", str(corpus), "--vocab", str(vocab_file),
            "--checkpoint", str(tmp_path / "m.json"), "--tsv", str(tmp_path / "m.tsv"), "--k", "2",
        ])
        assert code == 3
        assert "numerical failure: kernel diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ingest", "--format", "xml", "--input", "x", "--out-corpus", "c", "--out-vocab", "v"],
        ["train", "--model", "lda", "--corpus", "c", "--vocab", "v", "--checkpoint", "m", "--tsv", "t"],
        ["simulate", "ibp"],
    ], ids=["format", "model", "process"])
    def test_an_unknown_choice_exits_2_before_any_command_runs(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    # an input that cannot be read; an output that is a directory or whose directory is missing
    INPUTS = [("train", "--corpus"), ("ingest", "--input"), ("timeline", "--labels")]
    OUTPUTS = {"train": ("--checkpoint", "--tsv"), "ingest": ("--out-corpus", "--out-vocab"),
               "timeline": ("--out-assign", "--out-confusion")}

    @pytest.mark.parametrize("command, flag, missing_parent", [
        pytest.param(command, flag, False, id=f"{command}-{flag}") for command, flag in INPUTS
    ] + [
        pytest.param(command, flag, missing, id=f"{command}-{flag}" + "-missing-parent" * missing)
        for command, flags in OUTPUTS.items() for flag in flags for missing in (False, True)
    ])
    def test_a_path_that_cannot_be_opened_exits_2(self, tmp_path, monkeypatch, capsys, command, flag, missing_parent):
        corpus, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        ckpt, directory = tmp_path / "m.ckpt", tmp_path / "a-directory"
        directory.mkdir()
        labels = tmp_path / "labels.tsv"
        labels.write_text("".join(f"{doc.id}\t{i % 2}\n" for i, doc in enumerate(read_canonical(corpus))))
        out = tmp_path / "out"
        out.mkdir()

        def train(checkpoint, tsv):
            return ["train", "--model", "ohdp", "--corpus", str(corpus), "--vocab", str(vocab_file),
                    "--checkpoint", str(checkpoint), "--tsv", str(tsv), "--k-corpus", "4", "--t-doc", "2"]

        argv = {
            "train": train(out / "m.ckpt", out / "m.tsv"),
            "ingest": ["ingest", "--format", "bbc", "--input", str(FIXTURES / "sample_bbc.txt"),
                       "--out-corpus", str(out / "c.jsonl"), "--out-vocab", str(out / "v.txt")],
            "timeline": ["timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--topic", "0",
                         "--labels", str(labels), "--out-assign", str(out / "assign.tsv"),
                         "--out-confusion", str(out / "conf.tsv")],
        }
        if command == "timeline":
            assert main(train(ckpt, tmp_path / "m.tsv")) == 0
            capsys.readouterr()
        argv = argv[command]
        bad = directory / "missing" / "file" if missing_parent else directory
        argv[argv.index(flag) + 1] = str(bad)
        if flag in self.OUTPUTS[command]:
            def no_reading(*args, **kwargs):
                raise AssertionError("an input was read")

            for reader in ("corpus.read_canonical", "corpus.read_vocabulary", "corpus.parse_bbc", "cli.read_checkpoint",
                           "cli._read_labels"):
                monkeypatch.setattr(f"topicdrift.{reader}", no_reading)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert list(out.iterdir()) == [] and list(directory.iterdir()) == []

    def test_module_help_lists_the_commands(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "topicdrift", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert all(command in done.stdout for command in ("ingest", "train", "timeline", "simulate"))


class TestCollidingPaths:
    """An output path that names another output or an input exits 2, naming both flags, before any input is read."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        """A corpus, vocabulary, checkpoint, labels and raw archive in ``tmp_path``, the working directory."""
        corpus, vocab = write_synthetic_corpus(tmp_path, n_docs=20)
        assert main(["train", "--model", "ohdp", "--corpus", str(corpus), "--vocab", str(vocab), "--checkpoint",
                     str(tmp_path / "m.ckpt"), "--tsv", str(tmp_path / "m.tsv"), "--k-corpus", "4", "--t-doc", "2"]) == 0
        (tmp_path / "labels.tsv").write_text("".join(f"{doc.id}\t1\n" for doc in read_canonical(corpus)))
        (tmp_path / "raw.txt").write_bytes((FIXTURES / "sample_bbc.txt").read_bytes())
        monkeypatch.chdir(tmp_path)

        def no_reading(*args, **kwargs):
            raise AssertionError("an input was read")

        for reader in ("corpus.read_canonical", "corpus.read_vocabulary", "corpus.parse_bbc", "cli.read_checkpoint",
                       "cli._read_labels"):
            monkeypatch.setattr(f"topicdrift.{reader}", no_reading)
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    INGEST = ["ingest", "--format", "bbc", "--input", "raw.txt", "--out-corpus", "c2.jsonl", "--out-vocab", "v2.txt"]
    TRAIN = ["train", "--model", "ohdp", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt",
             "--checkpoint", "n.ckpt", "--tsv", "n.tsv"]
    TIMELINE = ["timeline", "--checkpoint", "m.ckpt", "--corpus", "corpus.jsonl", "--topic", "0",
                "--labels", "labels.tsv", "--out-assign", "a.tsv", "--out-confusion", "conf.tsv"]

    @staticmethod
    def argv(base, **paths):
        argv = list(base)
        for flag, path in paths.items():
            argv[argv.index("--" + flag.replace("_", "-")) + 1] = path
        return argv

    @pytest.mark.parametrize("base, paths, named", [
        (INGEST, {"out_corpus": "raw.txt"}, "--out-corpus and --input both name raw.txt"),
        (INGEST, {"out_vocab": "raw.txt"}, "--out-vocab and --input both name raw.txt"),
        (INGEST, {"out_corpus": "x", "out_vocab": "x"}, "--out-vocab and --out-corpus both name x"),
        (TRAIN, {"tsv": "corpus.jsonl"}, "--tsv and --corpus both name corpus.jsonl"),
        (TRAIN, {"checkpoint": "vocab.txt"}, "--checkpoint and --vocab both name vocab.txt"),
        (TRAIN, {"checkpoint": "x", "tsv": "x"}, "--tsv and --checkpoint both name x"),
        (TRAIN, {"checkpoint": "m.ckpt", "tsv": "m.ckpt"}, "--tsv and --checkpoint both name m.ckpt"),
        (TIMELINE, {"out_assign": "x", "out_confusion": "x"}, "--out-confusion and --out-assign both name x"),
        (TIMELINE, {"out_assign": "m.ckpt"}, "--out-assign and --checkpoint both name m.ckpt"),
        (TIMELINE, {"out_assign": "corpus.jsonl"}, "--out-assign and --corpus both name corpus.jsonl"),
        (TIMELINE, {"out_assign": "labels.tsv"}, "--out-assign and --labels both name labels.tsv"),
        (TIMELINE, {"out_confusion": "m.ckpt"}, "--out-confusion and --checkpoint both name m.ckpt"),
        (TIMELINE, {"out_confusion": "corpus.jsonl"}, "--out-confusion and --corpus both name corpus.jsonl"),
        (TIMELINE, {"out_confusion": "labels.tsv"}, "--out-confusion and --labels both name labels.tsv"),
    ])
    def test_collision_exits_2_and_leaves_every_file_as_it_was(self, files, capsys, base, paths, named):
        assert main(self.argv(base, **paths)) == 2
        assert named in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in Path.cwd().iterdir()} == files

    def test_default_confusion_path_that_names_the_labels_exits_2(self, files, capsys):
        os.replace("labels.tsv", "a.tsv.confusion")
        files["a.tsv.confusion"] = files.pop("labels.tsv")
        argv = self.argv(self.TIMELINE, labels="a.tsv.confusion")
        del argv[-2:]  # --out-confusion defaults to the --out-assign path plus .confusion
        assert main(argv) == 2
        assert "--out-confusion and --labels both name a.tsv.confusion" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in Path.cwd().iterdir()} == files

    def test_relative_and_absolute_spellings_of_one_path_collide(self, files, capsys, tmp_path):
        assert main(self.argv(self.TRAIN, corpus=str(tmp_path / "corpus.jsonl"), tsv="./corpus.jsonl")) == 2
        assert "--tsv and --corpus both name ./corpus.jsonl" in capsys.readouterr().err
        assert main(self.argv(self.TRAIN, checkpoint="./x", tsv=str(tmp_path / "x"))) == 2
        assert f"--tsv and --checkpoint both name {tmp_path / 'x'}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in Path.cwd().iterdir()} == files

    @pytest.mark.parametrize("link", [os.link, os.symlink], ids=["hard-link", "symlink"])
    def test_a_link_to_an_input_collides(self, files, capsys, link):
        link("corpus.jsonl", "alias.jsonl")
        files["alias.jsonl"] = files["corpus.jsonl"]
        assert main(self.argv(self.TRAIN, tsv="alias.jsonl")) == 2
        assert "--tsv and --corpus both name alias.jsonl" in capsys.readouterr().err
        assert main(self.argv(self.INGEST, input="alias.jsonl", out_vocab="corpus.jsonl")) == 2
        assert "--out-vocab and --input both name corpus.jsonl" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in Path.cwd().iterdir()} == files


class TestSimulateFlags:
    @pytest.mark.parametrize("argv, named", [
        (["crp", "--gamma", "2", "--doc-sizes", "1,2"], "simulate crp does not read --gamma, --doc-sizes"),
        (["crfp", "--n", "7", "--drift-v", "0.1"], "simulate crfp does not read --n, --drift-v"),
        (["dimsum", "--history", "1;2", "--n", "3"], "simulate dimsum does not read --history, --n"),
        (["tdpm", "--seed", "5", "--n", "7"], "simulate tdpm does not read --seed, --n"),
    ], ids=["crp", "crfp", "dimsum", "tdpm"])
    def test_a_flag_the_process_does_not_read_exits_2_writing_nothing(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out.jsonl"
        assert main(["simulate", *argv, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["crp", "--seed", "1", "--n", "4", "--alpha", "2"],
        ["crfp", "--seed", "1", "--alpha", "2", "--gamma", "0.5", "--doc-sizes", "2,3"],
        ["dimsum", "--seed", "1", "--alpha", "2", "--gamma", "0.5", "--doc-sizes", "2,3", "--arrival-times", "0,4",
         "--drift-v", "0.2", "--param-dim", "3"],
        ["tdpm", "--history", "1,2;3,4", "--width", "1", "--decay-lambda", "0.5"],
    ], ids=["crp", "crfp", "dimsum", "tdpm"])
    def test_every_flag_the_process_reads_is_accepted(self, tmp_path, argv):
        assert main(["simulate", *argv, "--out", str(tmp_path / "out.jsonl")]) == 0
