"""Generative simulators for the Dirichlet-process family.

Includes the Chinese restaurant process (CRP), the two-level Chinese
restaurant franchise (CRF), a franchise variant whose dish parameters
perform Brownian motion between document arrivals, and time-decayed
popularity weights for epoch-based mixtures.

Seating always uses the standard indexing: customer i joins an occupied
table k with probability n_k / (i - 1 + alpha) and opens a new table
with probability alpha / (i - 1 + alpha).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeMismatchError


@dataclass
class Partition:
    """Seating of n customers: table index per customer plus table sizes."""

    table_of_customer: list
    table_sizes: list

    @property
    def num_tables(self):
        return len(self.table_sizes)


@dataclass
class FranchiseState:
    """Seating across restaurants plus the shared menu bookkeeping.

    ``dish_usage[k]`` counts tables serving dish k across all
    restaurants.
    """

    restaurants: list = field(default_factory=list)
    dish_of_table: list = field(default_factory=list)
    dish_usage: list = field(default_factory=list)

    @property
    def num_dishes(self):
        return len(self.dish_usage)


@dataclass
class DimSumTrajectory:
    """The franchise after the last arrival, and the menu and drifting dish parameters after each."""

    arrival_times: np.ndarray
    final_state: FranchiseState
    dish_usage: list   # per arrival: tables serving each dish so far
    dish_params: list  # per arrival: (num_dishes_so_far, param_dim) array


def _pick(weights, new_weight, rng):
    """Index into weights, or len(weights) for the new-element mass."""
    u = rng.uniform(0.0, sum(weights) + new_weight)
    acc = 0.0
    for idx, w in enumerate(weights):
        acc += w
        if u < acc:
            return idx
    return len(weights)


def crp_partition(n, alpha, rng):
    """Seat n customers by the Chinese restaurant process."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0.0 < alpha < math.inf:  # also rejects nan
        raise ParameterError(f"alpha must be finite and > 0, got {alpha}")
    table_of_customer = [0]
    sizes = [1]
    for _ in range(2, n + 1):
        choice = _pick(sizes, alpha, rng)
        if choice == len(sizes):
            sizes.append(1)
        else:
            sizes[choice] += 1
        table_of_customer.append(choice)
    return Partition(table_of_customer, sizes)


def _check_franchise(doc_sizes, alpha, gamma):
    """The settings rule of both franchise samplers."""
    if any(s < 1 for s in doc_sizes):
        raise ParameterError("all doc_sizes must be >= 1")
    if not (0.0 < alpha < math.inf and 0.0 < gamma < math.inf):  # also rejects nan
        raise ParameterError(f"alpha and gamma must be finite and > 0, got {alpha} and {gamma}")


def _seat_document(state, size, alpha, gamma, rng):
    """Seat one restaurant's customers, drawing dishes from the shared menu."""
    table_of_customer = []
    sizes = []
    dishes = []
    for _ in range(size):
        choice = _pick(sizes, alpha, rng)
        if choice == len(sizes):
            sizes.append(1)
            dish = _pick(state.dish_usage, gamma, rng)
            if dish == state.num_dishes:
                state.dish_usage.append(1)
            else:
                state.dish_usage[dish] += 1
            dishes.append(dish)
        else:
            sizes[choice] += 1
        table_of_customer.append(choice)
    state.restaurants.append(Partition(table_of_customer, sizes))
    state.dish_of_table.append(dishes)


def crfp_sample(doc_sizes, alpha, gamma, rng):
    """Sample a Chinese restaurant franchise over the given document sizes."""
    _check_franchise(doc_sizes, alpha, gamma)
    state = FranchiseState()
    for size in doc_sizes:
        _seat_document(state, size, alpha, gamma, rng)
    return state


def dim_sum_sample(doc_sizes, arrival_times, alpha, gamma, drift_v, param_dim, rng):
    """Franchise sampling with dish parameters drifting between arrivals.

    Seating consumes the caller's generator exactly as ``crfp_sample``
    does; parameter initialization and drift use an independently
    spawned stream, so seating is unchanged by ``drift_v`` and
    ``param_dim``.  Dish parameters start from standard-normal draws and
    gain independent N(0, drift_v * dt) increments per coordinate
    between consecutive arrivals.  A table's dish never changes; only
    the dish parameters move.  One franchise is seated throughout; after
    each arrival only its dish usage and the parameters are recorded.
    """
    arrival_times = np.asarray(arrival_times, dtype=float)
    if arrival_times.shape != (len(doc_sizes),):
        raise ShapeMismatchError("arrival_times must align with doc_sizes")
    if not np.isfinite(arrival_times).all() or np.any(np.diff(arrival_times) <= 0.0):
        raise ParameterError("arrival_times must be finite and strictly increasing")
    _check_franchise(doc_sizes, alpha, gamma)
    if not 0.0 <= drift_v < math.inf:  # also rejects nan
        raise ParameterError(f"drift_v must be finite and >= 0, got {drift_v}")
    if param_dim < 1:
        raise ParameterError("param_dim must be >= 1")

    drift_rng = rng.spawn(1)[0]
    state = FranchiseState()
    params = np.zeros((0, param_dim))
    usage, snapshots = [], []
    for d, size in enumerate(doc_sizes):
        if d > 0:
            dt = arrival_times[d] - arrival_times[d - 1]
            if params.shape[0]:
                params = params + drift_rng.normal(0.0, np.sqrt(drift_v * dt), size=params.shape)
        _seat_document(state, size, alpha, gamma, rng)
        born = state.num_dishes - params.shape[0]
        if born:
            params = np.vstack([params, drift_rng.standard_normal((born, param_dim))])
        usage.append(list(state.dish_usage))
        snapshots.append(params.copy())
    return DimSumTrajectory(arrival_times, state, usage, snapshots)


def tdpm_decayed_counts(history, width_delta, decay_lambda):
    """Exponentially decayed component-usage weights over past epochs.

    ``history`` rows are past epochs in chronological order (last row is
    the most recent); the result is sum over offsets delta = 1..Delta of
    exp(-delta / lambda) times the usage counts delta epochs back.
    """
    history = np.asarray(history, dtype=float)
    if history.ndim != 2:
        raise ShapeMismatchError("history must be an epochs x components matrix")
    if not ((0.0 <= history) & (history < math.inf)).all():  # also rejects nan
        raise ParameterError("history counts must be finite and >= 0")
    if width_delta < 0:
        raise ParameterError("width_delta must be >= 0")
    if not 0.0 < decay_lambda < math.inf:  # also rejects nan
        raise ParameterError(f"decay_lambda must be finite and > 0, got {decay_lambda}")
    if width_delta > history.shape[0]:
        raise ShapeMismatchError(
            f"history holds {history.shape[0]} epochs, need {width_delta}"
        )
    out = np.zeros(history.shape[1])
    for delta in range(1, width_delta + 1):
        out += np.exp(-delta / decay_lambda) * history[-delta]
    return out
