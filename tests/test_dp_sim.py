"""Dirichlet-process simulators: seating laws, sharing, drift, decay."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import exact_crp_shape_distribution
from topicdrift.dp_sim import (
    crfp_sample,
    crp_partition,
    dim_sum_sample,
    tdpm_decayed_counts,
)
from topicdrift.errors import ParameterError, ShapeMismatchError


class TestCrp:
    def test_first_customer_opens_a_table(self):
        part = crp_partition(1, 2.0, np.random.default_rng(0))
        assert part.num_tables == 1
        assert part.table_sizes == [1]

    def test_two_customer_split_probability(self):
        rng = np.random.default_rng(1)
        runs = 100_000
        two_tables = sum(crp_partition(2, 1.0, rng).num_tables == 2 for _ in range(runs))
        assert abs(two_tables / runs - 0.5) < 0.01

    def test_mean_table_count_follows_harmonic_sum(self):
        rng = np.random.default_rng(2)
        runs = 10_000
        mean_tables = np.mean([crp_partition(100, 1.0, rng).num_tables for _ in range(runs)])
        expected = sum(1.0 / i for i in range(1, 101))
        assert abs(mean_tables - expected) / expected < 0.02

    def test_sizes_account_for_everyone(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            part = crp_partition(40, 0.7, rng)
            assert sum(part.table_sizes) == 40
            assert all(s >= 1 for s in part.table_sizes)
            assert max(part.table_of_customer) == part.num_tables - 1

    def test_shape_distribution_matches_enumeration(self):
        """Empirical partition-shape law vs exact probabilities for small n."""
        for n, alpha, runs in ((5, 1.0, 30_000), (8, 1.0, 30_000)):
            exact = exact_crp_shape_distribution(n, alpha)
            assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
            rng = np.random.default_rng(100 + n)
            freq = {}
            for _ in range(runs):
                shape = tuple(sorted(crp_partition(n, alpha, rng).table_sizes))
                freq[shape] = freq.get(shape, 0) + 1
            for shape, p in exact.items():
                observed = freq.get(shape, 0) / runs
                se = math.sqrt(p * (1 - p) / runs)
                assert abs(observed - p) <= 3 * se + 1e-12, (shape, observed, p)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            crp_partition(0, 1.0, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            crp_partition(5, 0.0, np.random.default_rng(0))


class TestCrfp:
    def test_tiny_gamma_keeps_one_dish(self):
        state = crfp_sample([30, 30, 30], 1.0, 1e-9, np.random.default_rng(4))
        assert state.num_dishes == 1
        assert all(all(d == 0 for d in dishes) for dishes in state.dish_of_table)

    def test_tiny_alpha_keeps_one_table_per_restaurant(self):
        state = crfp_sample([30, 30, 30], 1e-9, 1.0, np.random.default_rng(5))
        assert all(r.num_tables == 1 for r in state.restaurants)

    def test_dish_usage_counts_tables(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            state = crfp_sample([50, 50, 50], 1.0, 1.0, rng)
            total_tables = sum(r.num_tables for r in state.restaurants)
            assert sum(state.dish_usage) == total_tables
            recount = [0] * state.num_dishes
            for dishes in state.dish_of_table:
                for d in dishes:
                    recount[d] += 1
            assert recount == state.dish_usage

    def test_restaurants_share_dishes_under_small_gamma(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = crfp_sample([20, 20], 1.0, 1e-6, rng)
            served = [set(d) for d in state.dish_of_table]
            assert served[0] & served[1]


class TestDimSum:
    def test_zero_drift_keeps_parameters_constant(self):
        traj = dim_sum_sample([10, 10, 10], [0.0, 1.0, 2.0], 1.0, 1.0, 0.0, 3,
                              np.random.default_rng(8))
        first = traj.dish_params[-1]
        for snapshot in traj.dish_params:
            k = snapshot.shape[0]
            np.testing.assert_array_equal(snapshot, first[:k])

    def test_zero_drift_seating_matches_crfp_under_same_seed(self):
        sizes = [15, 25, 10]
        traj = dim_sum_sample(sizes, [0.0, 3.0, 7.0], 0.8, 1.2, 0.0, 2,
                              np.random.default_rng(9))
        state = crfp_sample(sizes, 0.8, 1.2, np.random.default_rng(9))
        final = traj.final_state
        assert final.dish_usage == state.dish_usage
        assert final.dish_of_table == state.dish_of_table
        for mine, theirs in zip(final.restaurants, state.restaurants):
            assert mine.table_of_customer == theirs.table_of_customer

    def test_increment_variance_tracks_elapsed_time(self):
        drift_v, dt, dim = 0.7, 2.5, 4
        increments = []
        for seed in range(10_000):
            traj = dim_sum_sample([1, 1], [0.0, dt], 1.0, 1e9, drift_v, dim,
                                  np.random.default_rng(seed))
            increments.append(traj.dish_params[1][0] - traj.dish_params[0][0])
        var = np.asarray(increments).var()
        assert abs(var - drift_v * dt) / (drift_v * dt) < 0.05

    def test_single_customer_single_document(self):
        traj = dim_sum_sample([1], [0.0], 1.0, 1.0, 0.1, 2, np.random.default_rng(10))
        assert traj.final_state.num_dishes == 1
        assert traj.final_state.restaurants[0].num_tables == 1

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ShapeMismatchError):
            dim_sum_sample([1, 1], [0.0], 1.0, 1.0, 0.1, 2, np.random.default_rng(0))

    def test_usage_after_each_arrival_is_the_franchise_of_its_prefix(self):
        sizes = [12, 3, 20, 8, 15]
        traj = dim_sum_sample(sizes, [0.0, 1.0, 2.5, 4.0, 9.0], 0.9, 1.1, 0.3, 2, np.random.default_rng(4))
        assert len(traj.dish_usage) == len(traj.dish_params) == len(sizes)
        for d, (usage, params) in enumerate(zip(traj.dish_usage, traj.dish_params)):
            # seating consumes the generator as crfp_sample does, so a prefix seats alike
            assert usage == crfp_sample(sizes[: d + 1], 0.9, 1.1, np.random.default_rng(4)).dish_usage
            assert params.shape == (len(usage), 2)
        assert traj.dish_usage[-1] == traj.final_state.dish_usage
        assert len(traj.final_state.restaurants) == len(sizes)

    def test_memory_stays_linear_in_the_documents(self):
        # copying the franchise after every arrival peaked at 76 MB here
        tracemalloc.start()
        try:
            traj = dim_sum_sample([50] * 400, np.arange(400.0), 1.0, 1.0, 0.1, 2, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.dish_usage) == 400
        assert peak < 4e6


class TestTdpmDecay:
    def test_zero_width_gives_zeros(self):
        history = np.array([[3.0, 1.0], [2.0, 5.0]])
        np.testing.assert_array_equal(tdpm_decayed_counts(history, 0, 1.0), [0.0, 0.0])

    def test_huge_decay_constant_approaches_plain_sum(self):
        history = np.array([[3.0, 1.0], [2.0, 5.0], [4.0, 0.0]])
        out = tdpm_decayed_counts(history, 3, 1e9)
        np.testing.assert_allclose(out, history.sum(axis=0), rtol=1e-8)

    def test_hand_evaluated_two_epoch_decay(self):
        # most recent epoch count 4, one before 2
        history = np.array([[2.0], [4.0]])
        out = tdpm_decayed_counts(history, 2, 1.0)
        expected = 4.0 * math.exp(-1.0) + 2.0 * math.exp(-2.0)
        assert out[0] == pytest.approx(expected, abs=1e-9)

    def test_insufficient_history_rejected(self):
        with pytest.raises(ShapeMismatchError):
            tdpm_decayed_counts(np.array([[1.0]]), 2, 1.0)
