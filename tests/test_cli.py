"""Command-line pipelines: determinism, formats, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import payload_array, set_payload_array
from topicdrift import fixed_k_dtm, online_hdp
from topicdrift.cli import main
from topicdrift.corpus import read_canonical, write_canonical, write_vocabulary, Vocabulary
from topicdrift.synthetic import three_topic_corpus

FIXTURES = Path(__file__).parent / "fixtures"


def write_synthetic_corpus(tmp_path, n_docs=200, vocab=30, seed=0):
    docs, _ = three_topic_corpus(n_docs=n_docs, vocab_size=vocab, seed=seed)
    corpus = tmp_path / "corpus.jsonl"
    vocab_file = tmp_path / "vocab.txt"
    write_canonical(docs, corpus)
    terms = [f"w{i:03d}" for i in range(vocab)]
    write_vocabulary(Vocabulary({t: i for i, t in enumerate(terms)}, terms, {}), vocab_file)
    return corpus, vocab_file


def write_raw_corpus(path, body_counts):
    """A canonical corpus with one hand-written document per ``body_counts`` entry."""
    path.write_text("".join(
        json.dumps({"id": f"d{i}", "ts": float(i), "title": "", "body_counts": counts, "related": []}) + "\n"
        for i, counts in enumerate(body_counts)
    ))
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

    def test_unreadable_input_exits_2(self, tmp_path):
        code = main([
            "ingest", "--format", "reuters", "--input", str(tmp_path / "missing.sgm"),
            "--out-corpus", str(tmp_path / "c"), "--out-vocab", str(tmp_path / "v"),
        ])
        assert code == 2


class TestTrain:
    def small_args(self, corpus, vocab_file, tmp_path, model, extra=()):
        return [
            "train", "--model", model,
            "--corpus", str(corpus), "--vocab", str(vocab_file),
            "--checkpoint", str(tmp_path / f"{model}.ckpt"),
            "--tsv", str(tmp_path / f"{model}.tsv"),
            "--k-corpus", "8", "--t-doc", "4", "--seed", "42",
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
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cdtm.ckpt").exists() and not (tmp_path / "cdtm.tsv").exists()

    def test_negative_word_index_exits_2(self, tmp_path, capsys):
        _, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        corpus = write_raw_corpus(tmp_path / "bad.jsonl", [{"3": 1}, {"-1": 2}])
        code = main(self.small_args(corpus, vocab_file, tmp_path, "ohdp"))
        assert code == 2
        err = capsys.readouterr().err
        assert "'d1'" in err and "-1" in err

    def test_document_without_words_exits_2(self, tmp_path, capsys):
        _, vocab_file = write_synthetic_corpus(tmp_path, n_docs=20)
        corpus = write_raw_corpus(tmp_path / "bad.jsonl", [{"3": 1}, {}])
        code = main(self.small_args(corpus, vocab_file, tmp_path, "cidtm"))
        assert code == 2
        assert "'d1' has no words" in capsys.readouterr().err


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

    def timeline_exit_code(self, tmp_path, monkeypatch, topic):
        corpus, ckpt = self.train_checkpoint(tmp_path)

        def no_fits(*args):
            raise AssertionError("timeline fitted documents before checking --topic")

        monkeypatch.setattr(online_hdp, "infer_batch", no_fits)
        return main([
            "timeline", "--checkpoint", str(ckpt), "--corpus", str(corpus),
            "--topic", topic, "--out-assign", str(tmp_path / "x.tsv"),
        ])

    def test_topic_out_of_range_exits_2(self, tmp_path, monkeypatch, capsys):
        assert self.timeline_exit_code(tmp_path, monkeypatch, "99") == 2
        assert "topic 99 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("topic", ["6", "-1"])
    def test_topic_just_outside_the_checkpoint_exits_2(self, tmp_path, monkeypatch, capsys, topic):
        assert self.timeline_exit_code(tmp_path, monkeypatch, topic) == 2
        assert f"topic {topic} out of range" in capsys.readouterr().err

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
        def track_word(payload):
            # word 30 of the last topic is flat index 6 * 30, word -1 of the first is -1
            index = 5 * 30 + int(word) if word == "30" else int(word)
            arrays = {name: payload_array(payload, name) for name in ("tracked", "mean", "var")}
            at = np.searchsorted(arrays["tracked"], index)
            set_payload_array(payload, "tracked", np.insert(arrays["tracked"], at, index))
            for name in ("mean", "var"):
                set_payload_array(payload, name, np.insert(arrays[name], at, 0.5))

        assert self.edited_cidtm_timeline(tmp_path, track_word) == 2
        assert "tracked index outside [0, K_corpus * vocab_size = 180)" in capsys.readouterr().err

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
