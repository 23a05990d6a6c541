"""Data queues, virtual rate-floor queues, and the quadratic drift bound.

Each satellite keeps one data queue per flow (Mbit). A virtual queue per
flow accumulates the shortfall against that flow's minimum-rate floor;
keeping it stable is what enforces the floor in the long-term average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .scenario import ChannelModel, NetworkConfig


@dataclass(frozen=True)
class QueueState:
    """Queue occupancies at one slot boundary.

    data : (K, I) array, Mbit stored on satellite k for flow i.
    deficit : (I,) array, accumulated rate-floor shortfall per flow.
    """

    data: np.ndarray
    deficit: np.ndarray

    @classmethod
    def zeros(cls, config: NetworkConfig) -> "QueueState":
        return cls(
            data=np.zeros((config.num_eos, config.num_targets)),
            deficit=np.zeros(config.num_targets),
        )


@dataclass(frozen=True)
class DriftBound:
    """Finite constant bounding the quadratic terms of the one-slot drift."""

    gamma: float


def update_data_queues(state: QueueState, arrivals, services) -> QueueState:
    """Advance the data queues one slot: drain scheduled service from the
    current occupancy (never below zero), then add the slot's arrivals.

    ``arrivals`` and ``services`` are ``(k, i, volume)`` triples, at most
    one per queue in each; every other queue keeps its occupancy. Each
    queue becomes ``max(data - service, 0.0) + arrival``, the dense
    recursion with zero for a queue that has no triple.
    """
    if any(v < 0 for _, _, v in arrivals) or any(v < 0 for _, _, v in services):
        raise ParameterError("arrivals and services must be nonnegative")
    nxt = state.data.copy()
    for k, i, s in services:
        nxt[k, i] = max(nxt[k, i] - s, 0.0)
    for k, i, a in arrivals:
        nxt[k, i] += a
    return QueueState(data=nxt, deficit=state.deficit)


def update_virtual_queues(
    state: QueueState, flow_arrivals: np.ndarray, floors: np.ndarray
) -> QueueState:
    """Advance the virtual queues: each grows by its flow's floor and is
    credited by the flow's realized arrivals, clipped at zero."""
    flow_arrivals = np.asarray(flow_arrivals, dtype=float)
    if np.any(flow_arrivals < 0):
        raise ParameterError("flow arrivals must be nonnegative")
    nxt = np.maximum(state.deficit + np.asarray(floors, dtype=float) - flow_arrivals, 0.0)
    return QueueState(data=state.data, deficit=nxt)


def lyapunov_value(state: QueueState) -> float:
    """Quadratic scalar summarizing total congestion: half the sum of all
    squared queue occupancies, data and virtual."""
    return 0.5 * float(np.sum(state.data**2)) + 0.5 * float(np.sum(state.deficit**2))


def drift_bound_gamma(config: NetworkConfig, model: ChannelModel) -> DriftBound:
    """Static upper bound on the quadratic part of the one-slot drift.

    Evaluated at capacity extremes so one constant covers every slot:
    arrivals per pair are at most the largest ratio times the largest
    observation capacity, service per pair at most the largest
    transmission capacity, and each flow's floor mismatch is bounded by
    whichever endpoint of [0, max single-pair arrival] lies farther from
    the floor. Since at most one satellite observes a flow per slot, the
    flow's total arrival equals its single best pair arrival.
    """
    tau = config.slot_length
    b_max = max(model.obs_support) * tau
    c_max = max(model.trans_support) * tau
    arrive_max = config.compression_set[0] * b_max

    I, K = config.num_targets, config.num_eos
    pair_terms = I * K * (arrive_max**2 + c_max**2)
    floor_terms = sum(
        max(a, arrive_max - a) ** 2 for a in config.rate_floors
    )
    return DriftBound(gamma=0.5 * (pair_terms + floor_terms))


def stability_report(history) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean-rate-stability proxies: final occupancy divided by
    elapsed slots, per data queue and per virtual queue. Values near zero
    indicate stable queues; a slope of 1 means unit linear growth."""
    if len(history) < 2:
        raise ParameterError("need at least two queue snapshots")
    elapsed = len(history) - 1
    final = history[-1]
    return final.data / elapsed, final.deficit / elapsed
