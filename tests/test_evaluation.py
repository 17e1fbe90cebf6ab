"""Likelihood series, smoothing, timelines, confusion metrics, benchmark."""

import math

import numpy as np
import pytest

from helpers import reference_moving_average
from topicdrift.corpus import Document
from topicdrift.errors import ParameterError
from topicdrift.evaluation import (
    ConfusionMatrix,
    confusion_from_assignments,
    confusion_metrics,
    moving_average,
    per_word_series,
    runtime_benchmark,
    smooth_series,
    timeline_assign,
    write_series_tsv,
)
from topicdrift.synthetic import uniform_stream


class TestPerWordSeries:
    def test_plain_division(self):
        series = per_word_series([("a", 0.0, -46.0517, 10)])
        assert series.points[0][2] == pytest.approx(-4.60517, abs=1e-12)

    def test_zero_total(self):
        series = per_word_series([("a", 0.0, 0.0, 5)])
        assert series.points[0][2] == 0.0

    def test_matches_recount(self):
        rng = np.random.default_rng(0)
        records = [
            (f"d{i}", float(i), float(rng.normal(-100, 10)), int(rng.integers(1, 50)))
            for i in range(200)
        ]
        series = per_word_series(records)
        for (_, _, total, wc), (_, _, value) in zip(records, series.points):
            assert value == total / wc

    def test_zero_word_count_rejected(self):
        with pytest.raises(ParameterError):
            per_word_series([("a", 0.0, -1.0, 0)])

    def test_uniform_model_run_sits_at_log_inverse_vocab(self):
        from topicdrift.corpus import Document
        from topicdrift.online_hdp import GlobalVariational, HdpHyper, HdpSnapshot, infer_batch, mixture_score

        vocab = 40
        hyper = HdpHyper(K_corpus=3, T_doc=2)
        g = GlobalVariational(np.full((3, vocab), 2.0), np.ones(2), np.ones(2))
        snap = HdpSnapshot.of(g)
        rng = np.random.default_rng(7)
        records = []
        for i in range(20):
            counts = {int(w): int(c) for w, c in
                      zip(rng.choice(vocab, 5, replace=False), rng.integers(1, 5, 5))}
            doc = Document.from_counts(f"d{i}", float(i), counts)
            ((_, _, theta),) = infer_batch([doc], snap.elog_beta, snap.elog_sticks, hyper)
            records.append((doc.id, doc.timestamp,
                            mixture_score(doc, theta, snap.word_probs), int(doc.counts.sum())))
        series = per_word_series(records)
        for _, _, value in series.points:
            assert value == pytest.approx(math.log(1 / vocab), rel=1e-9)


class TestMovingAverage:
    def test_constant_series(self):
        assert moving_average([2.5] * 7, 3) == [2.5] * 7

    def test_hand_example(self):
        assert moving_average([0.0, 2.0], 2) == [0.0, 1.0]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=1000).tolist()
        out = moving_average(values, 100)
        for i in range(1000):
            window = values[max(0, i - 99) : i + 1]
            assert abs(out[i] - sum(window) / len(window)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=300)
        scaled = moving_average((3.7 * values).tolist(), 25)
        base = moving_average(values.tolist(), 25)
        np.testing.assert_allclose(scaled, [3.7 * b for b in base], atol=1e-12)

    def test_zero_window_rejected(self):
        with pytest.raises(ParameterError):
            moving_average([1.0], 0)

    def test_matches_the_former_loop_bit_for_bit(self):
        rng = np.random.default_rng(3)
        cases = [(0, 1), (1, 1), (1, 5000), (1000, 1), (1000, 1000), (1000, 5000)]
        cases += [(int(rng.integers(0, 1001)), int(rng.integers(1, 5001))) for _ in range(28)]
        for n, window in cases:
            values = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n).tolist()
            got, want = moving_average(values, window), reference_moving_average(values, window)
            assert len(got) == n and np.array(got).tobytes() == np.array(want).tobytes(), (n, window)


class TestTimelineAssign:
    DOCS = [Document.from_counts(f"d{i}", float(i), {0: 1}) for i in range(5)]
    WEIGHTS = [
        [0.9, 0.1],
        [0.04, 0.96],
        [0.05, 0.95],
        [0.5, 0.5],
        [0.0, 1.0],
    ]

    def test_zero_threshold_assigns_all(self):
        assert timeline_assign(self.DOCS, self.WEIGHTS, 0, 0.0) == [True] * 5

    def test_unit_threshold_assigns_none_nondegenerate(self):
        assert timeline_assign(self.DOCS[:4], self.WEIGHTS[:4], 0, 1.0) == [False] * 4

    def test_hand_table(self):
        expected = [True, False, True, True, False]
        assert timeline_assign(self.DOCS, self.WEIGHTS, 0, 0.05) == expected

    def test_out_of_range_topic(self):
        with pytest.raises(ParameterError):
            timeline_assign(self.DOCS, self.WEIGHTS, 7, 0.1)


class TestConfusionMetrics:
    def test_first_timeline_table(self):
        accuracy, recall, precision = confusion_metrics(ConfusionMatrix(51, 10, 0, 13))
        assert round(accuracy, 3) == 0.865
        assert round(recall, 3) == 0.836
        assert round(precision, 3) == 1.0

    def test_second_timeline_table(self):
        accuracy, recall, precision = confusion_metrics(ConfusionMatrix(57, 4, 0, 13))
        assert round(accuracy, 3) == 0.946
        assert round(recall, 3) == 0.934
        assert round(precision, 3) == 1.0

    def test_perfect_classifier(self):
        assert confusion_metrics(ConfusionMatrix(5, 0, 0, 5)) == (1.0, 1.0, 1.0)

    def test_undefined_ratios_are_none_not_zero(self):
        accuracy, recall, precision = confusion_metrics(ConfusionMatrix(0, 0, 0, 10))
        assert accuracy == 1.0
        assert recall is None
        assert precision is None

    def test_from_assignments(self):
        matrix = confusion_from_assignments(
            [True, True, False, False], [True, False, True, False]
        )
        assert matrix == ConfusionMatrix(1, 1, 1, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            ConfusionMatrix(-1, 0, 0, 0)


class TestTsvOutputs:
    def test_series_tsv(self, tmp_path):
        series = smooth_series(per_word_series([("a", 1.0, -4.0, 2), ("b", 2.0, -6.0, 3)]), 100)
        path = tmp_path / "series.tsv"
        write_series_tsv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "doc_id\ttimestamp\tpwll_nats\tpwll_ma100"
        assert len(lines) == 3


class TestRuntimeBenchmark:
    def test_single_measurement(self):
        docs = uniform_stream(120, 30, seed=3)
        config = {"vocab_size": 30, "batch_size": 16, "seed": 0}
        results = runtime_benchmark("ohdp", docs, [100], config)
        assert len(results) == 1
        assert results[0][0] == 100
        assert results[0][1] > 0

    def test_rejects_bad_sizes(self):
        docs = uniform_stream(50, 30, seed=4)
        with pytest.raises(ParameterError):
            runtime_benchmark("ohdp", docs, [40, 20], {"vocab_size": 30})
        with pytest.raises(ParameterError):
            runtime_benchmark("ohdp", docs, [100], {"vocab_size": 30})

    def test_unknown_model_rejected(self):
        docs = uniform_stream(20, 30, seed=5)
        with pytest.raises(ParameterError):
            runtime_benchmark("mystery", docs, [10], {"vocab_size": 30})

    def test_identical_runs_are_stable(self):
        # measurement-noise contract: repeat timings agree within 25%; one call times the two in
        # alternating rounds, as it times the prefixes of a scaling run
        docs = uniform_stream(400, 40, seed=6)
        config = {"vocab_size": 40, "batch_size": 16, "seed": 0}
        first, second = runtime_benchmark("ohdp", docs, [400, 400], config)
        assert abs(first[1] - second[1]) / max(first[1], second[1]) < 0.25
