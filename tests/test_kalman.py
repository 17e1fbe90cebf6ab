"""Scalar filter/smoother against textbook oracles, plus the lower bound."""

import math

import numpy as np
import pytest

from helpers import (
    backward_steps,
    dense_kalman_filter,
    forward_steps,
    inline_stage_layout,
    reference_kalman_lower_bound,
    rts_smoother,
)
from topicdrift.corpus import Document
from topicdrift.errors import ParameterError, ShapeMismatchError, TimeOrderError
from topicdrift.kalman import (
    DriftConfig,
    KalmanPosterior,
    ObservationTrack,
    kalman_backward,
    kalman_forward,
    kalman_lower_bound,
    kalman_posterior,
    pair_filter,
    pair_layout,
    pair_smoother,
)


def make_track(timestamps, values, obs_var, present=None):
    values = np.asarray(values, dtype=float)
    present = np.ones(values.shape, dtype=bool) if present is None else np.asarray(present)
    return ObservationTrack(np.asarray(timestamps, float), values, obs_var, present)


class TestForward:
    def test_tiny_observation_noise_pins_to_observations(self):
        track = make_track([0.0, 1.0, 4.0], [1.0, -2.0, 0.5], 1e-12)
        means, variances = kalman_forward(track, DriftConfig(0.1))
        np.testing.assert_allclose(means, track.beta_hat, atol=1e-9)
        assert np.all(variances < 1e-10)

    def test_huge_observation_noise_ignores_observations(self):
        cfg = DriftConfig(0.1, prior_mean=0.3, prior_variance=2.0)
        track = make_track([0.0, 1.0, 4.0], [10.0, -20.0, 5.0], 1e12)
        means, variances = kalman_forward(track, cfg)
        np.testing.assert_allclose(means, 0.3, atol=1e-9)
        np.testing.assert_allclose(variances, [2.0, 2.1, 2.4], rtol=1e-9)

    def test_matches_dense_oracle_on_irregular_gaps(self):
        ts = np.cumsum([0.0, 1.0, 3.0, 0.5, 10.0])
        track = make_track(ts, [0.2, -0.4, 1.0, 0.3, -1.5], 0.2)
        cfg = DriftConfig(0.1, prior_mean=0.0, prior_variance=1.0)
        means, variances = kalman_forward(track, cfg)
        o_means, o_vars = dense_kalman_filter(ts, track.beta_hat, 0.2, track.present, 0.1, 0.0, 1.0)
        np.testing.assert_allclose(means, o_means, atol=1e-10)
        np.testing.assert_allclose(variances, o_vars, atol=1e-10)

    def test_absent_steps_propagate_prediction(self):
        ts = [0.0, 2.0, 5.0]
        track = make_track(ts, [1.0, 99.0, 1.0], 0.5, present=[True, False, True])
        cfg = DriftConfig(0.25, prior_variance=1.0)
        means, variances = kalman_forward(track, cfg)
        assert means[1] == means[0]
        assert variances[1] == pytest.approx(variances[0] + 0.25 * 2.0, rel=1e-12)

    def test_variance_never_exceeds_prediction(self):
        rng = np.random.default_rng(0)
        ts = np.cumsum(rng.uniform(0.1, 3.0, size=12))
        track = make_track(ts, rng.normal(size=12), 0.3)
        cfg = DriftConfig(0.2)
        _, variances = kalman_forward(track, cfg)
        prev = cfg.prior_variance
        for t in range(len(ts)):
            growth = 0.2 * (ts[t] - ts[t - 1]) if t else 0.0
            assert variances[t] <= prev + growth + 1e-15
            prev = variances[t]

    def test_depends_only_on_v_times_delta(self):
        rng = np.random.default_rng(1)
        ts = np.cumsum(rng.uniform(0.5, 2.0, size=8))
        values = rng.normal(size=8)
        a = kalman_forward(make_track(ts, values, 0.4), DriftConfig(0.3))
        b = kalman_forward(make_track(2.0 * ts, values, 0.4), DriftConfig(0.15))
        np.testing.assert_allclose(a[0], b[0], atol=1e-13)
        np.testing.assert_allclose(a[1], b[1], atol=1e-13)

    def test_rejects_unordered_timestamps(self):
        with pytest.raises(TimeOrderError):
            make_track([0.0, 2.0, 2.0], [0, 0, 0], 0.1)


class TestBackward:
    def test_terminal_equals_forward(self):
        track = make_track([0.0, 1.0, 3.0], [1.0, 0.0, -1.0], 0.2)
        cfg = DriftConfig(0.1)
        fwd = kalman_forward(track, cfg)
        sm, sv = kalman_backward(track, fwd, cfg)
        assert sm[-1] == fwd[0][-1]
        assert sv[-1] == fwd[1][-1]

    def test_vanishing_gap_copies_smoothed_value(self):
        ts = [0.0, 1.0, 1.0 + 1e-15]
        track = make_track(ts, [0.5, -0.5, 2.0], 0.2)
        cfg = DriftConfig(0.1)
        fwd = kalman_forward(track, cfg)
        sm, _ = kalman_backward(track, fwd, cfg)
        assert sm[1] == pytest.approx(sm[2], abs=1e-9)

    def test_matches_rts_oracle(self):
        rng = np.random.default_rng(2)
        ts = np.cumsum(rng.uniform(0.2, 4.0, size=5))
        track = make_track(ts, rng.normal(size=5), 0.35)
        cfg = DriftConfig(0.07, prior_mean=0.2, prior_variance=0.8)
        fwd = kalman_forward(track, cfg)
        sm, sv = kalman_backward(track, fwd, cfg)
        o_sm, o_sv = rts_smoother(ts, fwd[0], fwd[1], 0.07)
        np.testing.assert_allclose(sm, o_sm, atol=1e-10)
        np.testing.assert_allclose(sv, o_sv, atol=1e-10)

    def test_interior_means_bridge_endpoints(self):
        ts = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        present = [True, False, False, False, True]
        track = make_track(ts, [0.0, 0, 0, 0, 4.0], 1e-6, present=present)
        cfg = DriftConfig(1e-3, prior_variance=10.0)
        post = kalman_posterior(track, cfg)
        interior = post.smoothed_mean[1:-1]
        assert np.all(interior >= post.smoothed_mean[0] - 1e-9)
        assert np.all(interior <= post.smoothed_mean[-1] + 1e-9)
        assert np.all(np.diff(post.smoothed_mean) >= -1e-9)

    @pytest.mark.parametrize("v", [0.0, 0.1])
    def test_exact_observations_smooth_to_themselves(self, v):
        # the gain rounds to 1, so every filtered variance is exactly 0; without drift the first
        # observation pins the state for good
        track = make_track([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1e-20)
        post = kalman_posterior(track, DriftConfig(v))
        assert (post.forward_var == 0.0).all()
        np.testing.assert_array_equal(post.smoothed_mean, [1.0, 2.0, 3.0] if v else 1.0)
        np.testing.assert_array_equal(post.smoothed_var, 0.0)

    def test_length_mismatch_rejected(self):
        track = make_track([0.0, 1.0], [0.0, 1.0], 0.1)
        with pytest.raises(ShapeMismatchError):
            kalman_backward(track, (np.zeros(3), np.ones(3)), DriftConfig(0.1))


class TestTerminalFilter:
    """The pair filter's terminal state against the dense oracle's last row."""

    @staticmethod
    def oracle_terminal(ts, present, values, obs_var, v, m0, v0):
        """Last row of the dense oracle, column by column."""
        means, variances = [], []
        for w in range(values.shape[-1]):
            m, p = dense_kalman_filter(
                ts, np.full(len(ts), values[w]), obs_var, present[:, w], v, m0[w], v0[w]
            )
            means.append(m[-1])
            variances.append(p[-1])
        return np.array(means), np.array(variances)

    @staticmethod
    def terminal(ts, present, values, obs_var, cfg, m0, v0):
        """``pair_filter``'s terminal state, one pair per present cell observing its column's value."""
        steps, columns = np.nonzero(present)
        starts = np.searchsorted(steps, np.arange(len(ts) + 1))
        beta = values[..., columns]
        mean, var = m0.copy(), v0.copy()
        pair_filter(ts, starts, columns, beta, np.full(beta.shape, obs_var), cfg.process_variance, mean, var)
        return mean, var

    def check(self, ts, present, values, obs_var, cfg, m0, v0):
        mean, var = self.terminal(ts, present, values, obs_var, cfg, m0, v0)
        o_mean, o_var = self.oracle_terminal(
            ts, present, values, obs_var, cfg.process_variance, m0, v0
        )
        np.testing.assert_allclose(mean, o_mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(var, o_var, rtol=1e-12, atol=1e-15)

    def test_irregular_gaps(self):
        rng = np.random.default_rng(4)
        steps, words = 30, 12
        ts = np.cumsum(rng.uniform(0.01, 5.0, size=steps))
        present = rng.random((steps, words)) < 0.25
        values = rng.normal(size=words)
        m0, v0 = rng.normal(size=words), rng.uniform(0.1, 2.0, size=words)
        self.check(ts, present, values, 0.3, DriftConfig(0.2), m0, v0)

    def test_word_seen_only_at_first_step_grows_to_the_end(self):
        ts = np.array([0.0, 1.5, 4.0, 9.0])
        present = np.zeros((4, 3), dtype=bool)
        present[0, 0] = True
        present[:, 1] = True
        values, m0, v0 = np.array([1.0, -0.5, 2.0]), np.zeros(3), np.ones(3)
        cfg = DriftConfig(0.1)
        self.check(ts, present, values, 0.2, cfg, m0, v0)
        mean, var = self.terminal(ts, present, values, 0.2, cfg, m0, v0)
        gain = 1.0 / (1.0 + 0.2)
        assert mean[0] == pytest.approx(gain * 1.0, rel=1e-12)
        assert var[0] == pytest.approx((1.0 - gain) + 0.1 * 9.0, rel=1e-12)
        # a column never observed keeps its prior mean and only drifts
        assert mean[2] == 0.0
        assert var[2] == pytest.approx(1.0 + 0.1 * 9.0, rel=1e-12)

    def test_zero_process_variance(self):
        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.uniform(0.5, 3.0, size=10))
        present = rng.random((10, 6)) < 0.5
        values = rng.normal(size=6)
        m0, v0 = np.zeros(6), np.full(6, 0.7)
        self.check(ts, present, values, 0.4, DriftConfig(0.0), m0, v0)

    def test_single_shared_timestamp(self):
        ts = np.array([1000.0])
        present = np.array([[True, False, True, True]])
        values = np.array([0.3, 9.0, -1.2, 0.0])
        m0, v0 = np.full(4, 0.1), np.array([1.0, 2.0, 0.5, 3.0])
        self.check(ts, present, values, 0.1, DriftConfig(0.05), m0, v0)
        mean, var = self.terminal(ts, present, values, 0.1, DriftConfig(0.05), m0, v0)
        assert mean[1] == 0.1 and var[1] == 2.0

    def test_leading_axes_are_independent_tracks(self):
        rng = np.random.default_rng(6)
        steps, topics, words = 15, 3, 8
        ts = np.cumsum(rng.uniform(0.1, 2.0, size=steps))
        present = rng.random((steps, words)) < 0.4
        values = rng.normal(size=(topics, words))
        m0 = rng.normal(size=(topics, words))
        v0 = rng.uniform(0.2, 1.5, size=(topics, words))
        cfg = DriftConfig(0.3)
        mean, var = self.terminal(ts, present, values, 0.25, cfg, m0, v0)
        for k in range(topics):
            o_mean, o_var = self.oracle_terminal(ts, present, values[k], 0.25, 0.3, m0[k], v0[k])
            np.testing.assert_allclose(mean[k], o_mean, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(var[k], o_var, rtol=1e-12, atol=1e-15)

    def test_observed_must_cover_every_timestamp(self):
        with pytest.raises(ShapeMismatchError):
            pair_filter([0.0, 1.0], [0, 1], np.array([0]), np.zeros(1), np.ones(1), 0.1, np.zeros(1), np.ones(1))
        # priors must cover every observed column
        with pytest.raises(ShapeMismatchError):
            pair_filter([0.0, 1.0], [0, 1, 2], np.array([0, 2]), np.zeros(2), np.ones(2), 0.1,
                        np.zeros(2), np.ones(2))

    def test_state_is_one_float_shape_that_covers_every_column(self):
        """Two tracks observe columns 0 and 2; the state is filtered in place and nothing is returned."""
        pairs = ([0.0, 1.0], [0, 1, 2], np.array([0, 2]))
        for mean, var in [
            (np.zeros((2, 3)), np.ones((2, 4))),  # two shapes
            (np.zeros((2, 2)), np.ones((2, 2))),  # narrower than the columns
            (np.zeros(3), np.ones(3)),            # not beta_hat's two tracks
            (np.zeros((1, 3)), np.ones((1, 3))),
        ]:
            with pytest.raises(ShapeMismatchError):
                pair_filter(*pairs, np.ones((2, 2)), np.ones((2, 2)), 0.1, mean, var)
        for mean, var in [(np.zeros((2, 3), dtype=int), np.ones((2, 3))), (0.0, 1.0), ([0.0] * 3, np.ones(3))]:
            with pytest.raises(ParameterError):
                pair_filter(*pairs, np.ones((2, 2)), np.ones((2, 2)), 0.1, mean, var)
        mean, var = np.zeros((2, 4)), np.ones((2, 4))
        assert pair_filter(*pairs, np.ones((2, 2)), np.ones((2, 2)), 0.1, mean, var) is None
        np.testing.assert_allclose(mean, [[0.5, 0.0, 1.1 / 2.1, 0.0]] * 2, rtol=1e-15)
        np.testing.assert_allclose(var, [[0.6, 1.1, 1.1 / 2.1, 1.1]] * 2, rtol=1e-15)


class TestPairFilterAndSmoother:
    """The sparse pair filter and smoother against the dense ones at the observed cells, within 1e-10."""

    @staticmethod
    def observations(seed, steps=25, topics=3, words=12):
        """Irregular timestamps, a presence mask with every step observed, values and noise per cell.

        Column words - 3 is observed only at the first step, words - 2 only
        at the last and words - 1 never.
        """
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.uniform(0.01, 5.0, size=steps))
        present = rng.random((steps, words)) < 0.3
        present[np.arange(steps), rng.integers(0, words - 3, steps)] = True
        present[:, words - 3:] = False
        present[0, words - 3] = present[-1, words - 2] = True
        return ts, present, rng.normal(size=(steps, topics, words)), rng.uniform(0.05, 1.0, (steps, topics, words))

    @staticmethod
    def pair_layout(present):
        """(starts, columns, step of each pair) of the present cells, step-major."""
        steps, columns = np.nonzero(present)
        return np.searchsorted(steps, np.arange(present.shape[0] + 1)), columns, steps

    @pytest.mark.parametrize("v", [0.0, 0.2])
    def test_match_the_dense_passes_at_observed_cells(self, v):
        ts, present, values, noise = self.observations(int(v * 10))
        cfg = DriftConfig(v, prior_mean=-0.5, prior_variance=0.8)
        f_mean, f_var = forward_steps(ts, values, noise, present[:, None, :], cfg)
        s_mean, s_var = backward_steps(ts, f_mean, f_var, cfg)
        starts, columns, steps = self.pair_layout(present)
        means, variances = values[steps, :, columns].T.copy(), noise[steps, :, columns].T.copy()
        width = present.shape[1] - 1
        shape = (means.shape[0], width)
        terminal = np.full(shape, cfg.prior_mean), np.full(shape, cfg.prior_variance)
        pair_filter(ts, starts, columns, means, variances, v, *terminal)
        # the terminal state is the dense filter's last row; column words - 1 is never observed
        np.testing.assert_allclose(terminal[0], f_mean[-1, :, :width], rtol=1e-10, atol=0)
        np.testing.assert_allclose(terminal[1], f_var[-1, :, :width], rtol=1e-10, atol=0)
        np.testing.assert_allclose(means, f_mean[steps, :, columns].T, rtol=1e-10, atol=0)
        np.testing.assert_allclose(variances, f_var[steps, :, columns].T, rtol=1e-10, atol=0)
        out = pair_smoother(ts, starts, columns, means, variances, v)
        assert out[0] is means and out[1] is variances
        np.testing.assert_allclose(means, s_mean[steps, :, columns].T, rtol=1e-10, atol=0)
        np.testing.assert_allclose(variances, s_var[steps, :, columns].T, rtol=1e-10, atol=0)

    def test_last_observation_keeps_its_filtered_state(self):
        ts, present, values, noise = self.observations(3)
        starts, columns, steps = self.pair_layout(present)
        means, variances = values[steps, :, columns].T.copy(), noise[steps, :, columns].T.copy()
        pair_filter(ts, starts, columns, means, variances, 0.3,
                    np.zeros((means.shape[0], present.shape[1])), np.ones((means.shape[0], present.shape[1])))
        last = [np.flatnonzero(columns == w)[-1] for w in np.unique(columns)]
        filtered = means[:, last].copy(), variances[:, last].copy()
        pair_smoother(ts, starts, columns, means, variances, 0.3)
        assert (means[:, last] == filtered[0]).all() and (variances[:, last] == filtered[1]).all()

    def test_starts_must_bound_every_timestamp(self):
        for starts in ([0, 2], [0, 1, 3], [1, 1, 2], [0, 3, 2]):
            with pytest.raises(ShapeMismatchError):
                pair_filter([0.0, 1.0], starts, np.array([0, 1]), np.zeros(2), np.ones(2), 0.1, np.zeros(2), np.ones(2))


class TestPairLayout:
    def test_hand_built_batch(self):
        """Two documents share word 5 at t = 10, word 9 is seen at t = 10 and t = 20, and "c" has one word."""
        docs = [Document.from_counts("a", 10.0, {2: 1, 5: 3}), Document.from_counts("b", 10.0, {5: 1, 9: 2}),
                Document.from_counts("c", 20.0, {9: 1}), Document.from_counts("d", 20.0, {2: 4, 7: 1})]
        timestamps, starts, words, columns, doc_pairs = pair_layout(docs)
        np.testing.assert_array_equal(timestamps, [10.0, 20.0])
        np.testing.assert_array_equal(starts, [0, 3, 6])
        np.testing.assert_array_equal(words, [2, 5, 7, 9])
        np.testing.assert_array_equal(columns, [0, 1, 3, 0, 2, 3])  # (10, 2) (10, 5) (10, 9) (20, 2) (20, 7) (20, 9)
        np.testing.assert_array_equal(doc_pairs, [0, 1, 1, 2, 5, 3, 4])
        for got, want in zip((timestamps, starts, words, columns), inline_stage_layout(docs)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestOneTrackWrappers:
    """``kalman_forward``/``kalman_backward`` equal the dense passes they replaced, bit for bit."""

    @pytest.mark.parametrize("v", [0.0, 0.3])
    def test_equal_the_dense_passes(self, v):
        rng = np.random.default_rng(8)
        cfg = DriftConfig(v, prior_mean=0.4, prior_variance=1.3)
        for n in [1, 2, 3, 5, 8, 40] * 20:
            ts = np.cumsum(rng.uniform(0.01, 5.0, size=n))
            present = rng.random(n) < 0.6
            # absent values are never read, so nan there must not leak
            values = np.where(present, rng.normal(size=n), np.nan)
            track = make_track(ts, values, rng.uniform(0.05, 2.0, size=n), present)
            fwd = kalman_forward(track, cfg)
            dense = forward_steps(ts, track.beta_hat, track.obs_variance, present, cfg)
            assert all(np.array_equal(a, b) for a, b in zip(fwd, dense))
            given = [a.copy() for a in fwd]
            smoothed = kalman_backward(track, fwd, cfg)
            assert all(np.array_equal(a, b) for a, b in zip(smoothed, backward_steps(ts, *dense, cfg)))
            assert all(np.array_equal(a, b) for a, b in zip(fwd, given))


class TestSparseVsDense:
    def test_tracked_words_agree_with_materialized_vocabulary(self):
        """Tracks kept only for observed words equal the all-words run."""
        rng = np.random.default_rng(3)
        vocab, steps = 20, 10
        ts = np.cumsum(rng.uniform(0.1, 2.0, size=steps))
        observed = rng.random((steps, vocab)) < 0.3
        values = rng.normal(size=(steps, vocab))
        cfg = DriftConfig(0.15)

        for w in range(vocab):
            dense = make_track(ts, values[:, w], 0.25, present=observed[:, w])
            dense_post = kalman_posterior(dense, cfg)
            seen = observed[:, w]
            if not seen.any():
                # sparse side holds no track: state stays at the prior
                np.testing.assert_allclose(dense_post.forward_mean, cfg.prior_mean)
                continue
            sparse_steps = np.where(seen)[0]
            sparse = make_track(ts[sparse_steps], values[sparse_steps, w], 0.25)
            # the sparse prior sits at the first observation: fold in the
            # drift accumulated since the grid start
            sparse_cfg = DriftConfig(
                cfg.process_variance,
                prior_mean=cfg.prior_mean,
                prior_variance=cfg.prior_variance
                + cfg.process_variance * (ts[sparse_steps[0]] - ts[0]),
            )
            sparse_post = kalman_posterior(sparse, sparse_cfg)
            np.testing.assert_allclose(
                sparse_post.forward_mean, dense_post.forward_mean[sparse_steps], atol=1e-12
            )
            np.testing.assert_allclose(
                sparse_post.forward_var, dense_post.forward_var[sparse_steps], atol=1e-12
            )


def degenerate_posterior(n_steps, mean):
    m = np.full(n_steps, mean)
    return KalmanPosterior(m.copy(), np.zeros(n_steps), m.copy(), np.zeros(n_steps))


class TestLowerBound:
    def test_single_word_with_zero_variance_is_zero(self):
        ts = np.array([0.0, 1.0, 2.0])
        track = make_track(ts, [0.7, 0.7, 0.7], 0.1, present=[False, False, False])
        counts = np.array([4.0, 2.0, 9.0])
        post = degenerate_posterior(3, 0.7)
        bound = kalman_lower_bound(track, post, counts, DriftConfig(0.1))
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_absent_words_add_no_observation_terms(self):
        ts = np.array([0.0, 1.0])
        cfg = DriftConfig(0.1)
        # word 0 is seen at both steps, word 1 never
        present = [[True, True], [False, False]]
        track = make_track(ts, [[0.5, -0.5], [0.0, 0.0]], 0.2, present=present)
        post = kalman_posterior(track, cfg)
        counts = np.array([[3.0, 1.0], [0.0, 0.0]])
        with_silent = kalman_lower_bound(track, post, counts, cfg)
        # recompute after changing the silent track's values: nothing may move
        track2 = make_track(ts, [[0.5, -0.5], [9.0, -9.0]], 0.2, present=present)
        with_silent2 = kalman_lower_bound(track2, post, counts, cfg)
        assert with_silent == pytest.approx(with_silent2, abs=1e-12)

    def test_bound_below_monte_carlo_expectation(self):
        """Word term stays below E_q log p(w|beta); observation term matches MC."""
        rng = np.random.default_rng(4)
        ts = np.array([0.0, 1.0, 3.0])
        cfg = DriftConfig(0.2)
        track = make_track(ts, [[0.8, 0.2, -0.1], [-0.5, 0.1, 0.9]], 0.3)
        post = kalman_posterior(track, cfg)
        counts = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 4.0]])
        assert np.isfinite(kalman_lower_bound(track, post, counts, cfg))

        # steps x words, as the terms below are written
        n, totals = counts.T, counts.sum(axis=0)
        n_samples = 100_000
        sm, sv = post.smoothed_mean.T, post.smoothed_var.T
        draws = rng.normal(sm, np.sqrt(sv), size=(n_samples, 3, 2))
        log_norm = np.log(np.exp(draws).sum(axis=2))
        word_ll = (n[None] * draws).sum(axis=(1, 2)) - (totals[None] * log_norm).sum(axis=1)
        mc_mean = word_ll.mean()
        mc_se = word_ll.std(ddof=1) / math.sqrt(n_samples)

        word_term = float((n * sm).sum() - (totals * np.log(np.exp(sm + 0.5 * sv).sum(axis=1))).sum())
        assert word_term <= mc_mean + 3 * mc_se

        # closed-form expected observation log-density equals its MC estimate
        for w in (0, 1):
            obs_ll = (
                -0.5 * np.log(2 * np.pi * 0.3)
                - (track.beta_hat[w][None] - draws[:, :, w]) ** 2 / (2 * 0.3)
            ).sum(axis=1)
            closed = sum(
                -0.5 * math.log(2 * math.pi * 0.3)
                - ((track.beta_hat[w, t] - post.smoothed_mean[w, t]) ** 2 + post.smoothed_var[w, t])
                / (2 * 0.3)
                for t in range(3)
            )
            se = obs_ll.std(ddof=1) / math.sqrt(n_samples)
            assert closed == pytest.approx(obs_ll.mean(), abs=3 * se)

    def test_missing_posterior_rejected(self):
        """A posterior of one word for a stack of two."""
        ts = np.array([0.0, 1.0])
        track = make_track(ts, [[0.0, 0.0], [1.0, 1.0]], 0.1)
        post = kalman_posterior(make_track(ts, [0.0, 0.0], 0.1), DriftConfig(0.1))
        with pytest.raises(ShapeMismatchError):
            kalman_lower_bound(track, post, np.ones((2, 2)), DriftConfig(0.1))

    def test_counts_of_another_shape_or_negative_rejected(self):
        ts = np.array([0.0, 1.0])
        cfg = DriftConfig(0.1)
        track = make_track(ts, [[0.0, 0.0], [1.0, 1.0]], 0.1)
        post = kalman_posterior(track, cfg)
        for counts in (np.ones(2), np.ones((2, 3)), np.ones((2, 2)).T[:1], np.ones((1, 2, 2))):
            with pytest.raises(ShapeMismatchError):
                kalman_lower_bound(track, post, counts, cfg)
        for bad in (-1.0, np.nan):
            counts = np.ones((2, 2))
            counts[1, 0] = bad
            with pytest.raises(ParameterError, match="nonnegative"):
                kalman_lower_bound(track, post, counts, cfg)
        # a one-track posterior for a stack, or a posterior whose arrays disagree
        short = KalmanPosterior(post.forward_mean, post.forward_var, post.smoothed_mean[:, :1], post.smoothed_var)
        with pytest.raises(ShapeMismatchError):
            kalman_lower_bound(track, short, np.ones((2, 2)), cfg)


class TestStackedTracks:
    """A stack of tracks on one grid runs in one call, as each of its rows would alone."""

    @staticmethod
    def random_stack(rng):
        """1-6 words x 1-8 steps; some words are never present, and absent steps hold nan or inf."""
        words, steps = rng.integers(1, 7), rng.integers(1, 9)
        ts = np.cumsum(rng.uniform(0.01, 5.0, size=steps))
        present = rng.random((words, steps)) < 0.6
        present[rng.random(words) < 0.3] = False
        beta = np.where(present, rng.normal(size=(words, steps)), rng.choice([np.nan, np.inf, -np.inf], (words, steps)))
        obs_var = rng.uniform(0.05, 2.0, size=(words, steps))
        counts = np.where(rng.random((words, steps)) < 0.3, 0.0, rng.integers(1, 6, (words, steps)))
        return ObservationTrack(ts, beta, obs_var, present), counts

    @pytest.mark.parametrize("v", [0.0, 0.3])
    def test_posteriors_equal_each_row_and_the_bound_the_reference(self, v):
        rng = np.random.default_rng(9)
        cfg = DriftConfig(v, prior_mean=0.4, prior_variance=1.3)
        for _ in range(200):
            track, counts = self.random_stack(rng)
            post = kalman_posterior(track, cfg)
            tracks, posts = {}, {}
            for w in range(track.beta_hat.shape[0]):
                tracks[w] = ObservationTrack(track.timestamps, track.beta_hat[w], track.obs_variance[w],
                                             track.present[w])
                posts[w] = kalman_posterior(tracks[w], cfg)
                for name in ("forward_mean", "forward_var", "smoothed_mean", "smoothed_var"):
                    got, want = getattr(post, name)[w], getattr(posts[w], name)
                    assert got.tobytes() == want.tobytes(), name
            bound = kalman_lower_bound(track, post, counts, cfg)
            want = reference_kalman_lower_bound(tracks, posts, counts.T, cfg)
            assert bound == pytest.approx(want, rel=1e-12, abs=0)

    def test_leading_axes_beyond_one_are_words_too(self):
        """A (2, 3, S) stack gives the bound of the same six tracks as a (6, S) stack."""
        rng = np.random.default_rng(10)
        ts = np.array([0.0, 0.5, 2.0, 2.5])
        present = rng.random((2, 3, 4)) < 0.7
        beta = rng.normal(size=(2, 3, 4))
        counts = rng.integers(0, 4, (2, 3, 4)).astype(float)
        cfg = DriftConfig(0.2)
        deep = ObservationTrack(ts, beta, 0.3, present)
        flat = ObservationTrack(ts, beta.reshape(6, 4), 0.3, present.reshape(6, 4))
        a = kalman_lower_bound(deep, kalman_posterior(deep, cfg), counts, cfg)
        b = kalman_lower_bound(flat, kalman_posterior(flat, cfg), counts.reshape(6, 4), cfg)
        assert a == pytest.approx(b, rel=1e-14)

    def test_one_track_call_matches_the_reference(self):
        track = make_track([0.0, 1.0, 4.0, 4.5], [0.3, np.nan, -0.2, 0.5], 0.09, present=[True, False, True, True])
        cfg = DriftConfig(0.0625)
        post = kalman_posterior(track, cfg)
        counts = np.array([3.0, 0.0, 2.0, 1.0])
        bound = kalman_lower_bound(track, post, counts, cfg)
        assert bound == pytest.approx(reference_kalman_lower_bound({0: track}, {0: post}, counts[:, None], cfg),
                                      rel=1e-12, abs=0)

    def test_track_shapes_must_agree(self):
        with pytest.raises(ShapeMismatchError):
            ObservationTrack([0.0, 1.0], np.zeros((2, 3)), 0.1, np.ones((2, 3), dtype=bool))
        with pytest.raises(ShapeMismatchError):
            ObservationTrack([0.0, 1.0], np.zeros((2, 2)), 0.1, np.ones(2, dtype=bool))
        track = make_track([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], 0.1)
        with pytest.raises(ShapeMismatchError):
            kalman_backward(track, (np.zeros(2), np.ones(2)), DriftConfig(0.1))


class TestValidation:
    def test_negative_process_variance_rejected(self):
        with pytest.raises(ParameterError):
            DriftConfig(-0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"process_variance": math.nan}, "process_variance"),
        ({"process_variance": math.inf}, "process_variance"),
        ({"process_variance": 0.1, "prior_variance": math.nan}, "prior_variance"),
        ({"process_variance": 0.1, "prior_variance": math.inf}, "prior_variance"),
        ({"process_variance": 0.1, "prior_variance": 0.0}, "prior_variance"),
        ({"process_variance": 0.1, "prior_mean": math.nan}, "prior_mean"),
        ({"process_variance": 0.1, "prior_mean": -math.inf}, "prior_mean"),
    ])
    def test_non_finite_or_out_of_range_settings_rejected(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            DriftConfig(**kwargs)

    def test_zero_drift_is_allowed_and_static(self):
        track = make_track([0.0, 5.0, 9.0], [1.0, 1.0, 1.0], 0.1)
        cfg = DriftConfig(0.0)
        post = kalman_posterior(track, cfg)
        assert np.all(np.diff(post.smoothed_mean) == 0.0)

    @pytest.mark.parametrize("timestamps, obs_var, message", [
        ([0.0, math.nan, 2.0], 0.1, "timestamps"),
        ([0.0, 1.0, math.inf], 0.1, "timestamps"),
        ([-math.inf, 1.0, 2.0], 0.1, "timestamps"),
        ([0.0, 1.0, 2.0], math.nan, "obs_variance"),
        ([0.0, 1.0, 2.0], math.inf, "obs_variance"),
        ([0.0, 1.0, 2.0], [0.1, math.nan, 0.1], "obs_variance"),
    ])
    def test_non_finite_track_inputs_rejected(self, timestamps, obs_var, message):
        with pytest.raises(ParameterError, match=message):
            make_track(timestamps, [0.0, 0.0, 0.0], obs_var)

    def test_nonpositive_obs_variance_rejected(self):
        with pytest.raises(ParameterError):
            make_track([0.0, 1.0], [0.0, 0.0], 0.0)
