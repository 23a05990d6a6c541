"""Slot-by-slot simulation loop, metrics, and experiment drivers.

A run samples channels, asks the chosen policy for a decision, validates
it, records realized volumes in the graph ledger, and advances the data
and virtual queues. The ledger is the run's one record: after the loop
every per-slot series is read from it and from the deficit-queue history,
and the data-queue history is ``ledger.store_volume`` itself. Channel
randomness is derived only from the run seed, so different policies
replayed with the same seed see identical channels (common random
numbers), which makes paired policy comparisons low variance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import dmrc
from .errors import ConfigError, DimensionError, ParameterError, ScheduleValidationError
from .eteg import Eteg, build_eteg, record_decision
from .queueing import QueueState, update_data_queues, update_virtual_queues
from .scenario import (
    ChannelModel, ChannelState, ContactPlan, NetworkConfig, _finite, _integer,
    sample_channels,
)

POLICIES = ("dmrc", "random", "fixed_cr")


@dataclass(frozen=True)
class MetricsSeries:
    """Per-slot series of one run, read from its ledger after the loop.

    utility : sum over flows of log(1 + arrival volume) each slot.
    backlog / virtual_backlog : total data / deficit queue occupancy at
        the end of each slot.
    flow_arrivals : (T, I) realized arrival volume per flow.
    delivered : (T, I) cumulative volume delivered to destinations.
    obs_used/avail, trans_used/avail : contacts carrying positive volume
        versus contacts present, per slot.
    """

    utility: np.ndarray
    backlog: np.ndarray
    virtual_backlog: np.ndarray
    flow_arrivals: np.ndarray
    delivered: np.ndarray
    obs_used: np.ndarray
    obs_avail: np.ndarray
    trans_used: np.ndarray
    trans_avail: np.ndarray

    def __post_init__(self):
        T = len(self.utility)
        for f in fields(self):
            if len(getattr(self, f.name)) != T:
                raise DimensionError(f"metrics series {f.name} has wrong length")


@dataclass(frozen=True)
class RunSummary:
    """Horizon averages of one run."""

    avg_utility: float
    avg_backlog: float
    avg_virtual_backlog: float
    avg_flow_rates: np.ndarray  # (I,) mean arrival volume per flow
    obs_utilization: float
    trans_utilization: float
    obs_avail_total: int
    trans_avail_total: int
    delivered_total: float


@dataclass(frozen=True)
class RunResult:
    metrics: MetricsSeries
    final_queues: QueueState
    ledger: Eteg
    # Populated only when record_history is requested. data_history is
    # ledger.store_volume itself, not a copy: mutating one mutates the other.
    data_history: np.ndarray | None = None      # (T+1, K, I)
    deficit_history: np.ndarray | None = None   # (T+1, I)
    service_history: np.ndarray | None = None   # (T, K, I) scheduled service


def _decide(policy, queues, state, config, params, rng, obs_mask, trans_mask):
    if policy == "dmrc":
        return dmrc.dmrc_step(queues, state, config, params)
    if policy == "random":
        return dmrc.random_schedule(queues, state, config, rng, obs_mask, trans_mask)
    return dmrc.fixed_cr_schedule(queues, state, config)  # run() checked the name


def run(
    config: NetworkConfig,
    plan: ContactPlan,
    model: ChannelModel,
    policy: str = "dmrc",
    seed: int | None = None,
    params: dmrc.SolverParams | None = None,
    record_history: bool = False,
) -> RunResult:
    """Simulate one policy over the full horizon.

    Deterministic given its inputs: the seed feeds two independent
    streams, one for channels and one for policy randomness, so the
    channel realization depends on the seed alone. Every decision is
    validated against the scheduling constraints before it is applied;
    a violation aborts the run naming the offending slot.
    """
    if plan.obs_visible.shape != (config.horizon, config.num_targets, config.num_eos):
        raise DimensionError("contact plan does not match the configuration")
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")
    seed = config.rng_seed if seed is None else seed
    seed = _integer(seed, "seed", 0, error=ParameterError)
    channel_ss, policy_ss = np.random.SeedSequence(seed).spawn(2)
    channel_rng = np.random.default_rng(channel_ss)
    policy_rng = np.random.default_rng(policy_ss)

    T, I = config.horizon, config.num_targets
    K = config.num_eos
    tau = config.slot_length
    floors = np.asarray(config.rate_floors)

    # The ledger keeps the only copy of the sampled capacities; each
    # slot's channel state is read back from it as views.
    ledger = build_eteg(
        plan, [sample_channels(plan, model, t, channel_rng, tau) for t in range(T)]
    )
    queues = QueueState.zeros(config)
    # The deficit queues are the one part of the run state the ledger
    # lacks; row 0 is the empty start, row t+1 the end of slot t.
    deficit = np.zeros((T + 1, I))
    service_hist = np.zeros((T, K, I)) if record_history else None

    for t in range(T):
        state = ChannelState(B=ledger.obs_capacity[t], C=ledger.trans_capacity[t])
        decision = _decide(
            policy, queues, state, config, params, policy_rng,
            plan.obs_visible[t], plan.trans_visible[t],
        )
        try:
            dmrc.validate_decision(
                decision, config, state, plan.obs_visible[t], plan.trans_visible[t]
            )
        except ScheduleValidationError as exc:
            raise ScheduleValidationError(f"slot {t}: {exc}") from exc

        # The slot's work reads only the picks and links. Delivered volume
        # is capped by what the queue actually holds; the queue recursion
        # itself uses the uncapped scheduled service. A target is imaged
        # by at most one satellite, and a satellite sends on at most one
        # link, so no two picks or links share a queue.
        data = queues.data
        served = [(k, f, s) for k, _, f, s in decision.links if f is not None]
        shipped = [
            0.0 if f is None else min(s, data[k, f]) for k, _, f, s in decision.links
        ]
        flow_arrivals = np.zeros(I)
        for i, _, _, a in decision.picks:
            flow_arrivals[i] = a
        next_data = update_data_queues(
            queues, [(k, i, a) for i, k, _, a in decision.picks], served
        )
        record_decision(ledger, t, decision, shipped, next_data.data)
        queues = update_virtual_queues(next_data, flow_arrivals, floors)
        deficit[t + 1] = queues.deficit
        if record_history:
            service_hist[t] = decision.service.sum(axis=1)

    return RunResult(
        metrics=_read_metrics(ledger, deficit),
        final_queues=queues,
        ledger=ledger,
        data_history=ledger.store_volume if record_history else None,
        deficit_history=deficit if record_history else None,
        service_history=service_hist,
    )


def _read_metrics(ledger: Eteg, deficit: np.ndarray) -> MetricsSeries:
    """Every per-slot series of a finished run, read from its ledger and
    its (T+1, I) deficit history. A target is imaged by at most one
    satellite per slot, so the per-flow arrival sums are exact."""
    flow_arrivals = ledger.joc_volume.sum(axis=2)  # (T, I)
    return MetricsSeries(
        utility=np.log1p(flow_arrivals).sum(axis=1),
        backlog=ledger.store_volume[1:].sum(axis=(1, 2)),
        virtual_backlog=deficit[1:].sum(axis=1),
        flow_arrivals=flow_arrivals,
        delivered=np.cumsum(ledger.fwd_volume.sum(axis=(1, 2)), axis=0),
        obs_used=np.count_nonzero(ledger.joc_volume > 0, axis=(1, 2)),
        obs_avail=np.count_nonzero(ledger.obs_visible, axis=(1, 2)),
        trans_used=np.count_nonzero(ledger.fwd_volume.any(axis=3), axis=(1, 2)),
        trans_avail=np.count_nonzero(ledger.trans_visible, axis=(1, 2)),
    )


def average_metrics(m: MetricsSeries) -> RunSummary:
    """Collapse a per-slot series into horizon averages; utilization is
    used contacts over available contacts (0 when none were available)."""

    def ratio(used, avail):
        total = int(avail.sum())
        return float(used.sum()) / total if total else 0.0

    return RunSummary(
        avg_utility=float(m.utility.mean()),
        avg_backlog=float(m.backlog.mean()),
        avg_virtual_backlog=float(m.virtual_backlog.mean()),
        avg_flow_rates=m.flow_arrivals.mean(axis=0),
        obs_utilization=ratio(m.obs_used, m.obs_avail),
        trans_utilization=ratio(m.trans_used, m.trans_avail),
        obs_avail_total=int(m.obs_avail.sum()),
        trans_avail_total=int(m.trans_avail.sum()),
        delivered_total=float(m.delivered[-1].sum()),
    )


# Seeds share the contact plan, so seed-averaged summaries report the
# contacts available over all seeds; every other field is a mean.
_SUMMED_OVER_SEEDS = ("obs_avail_total", "trans_avail_total")


def _seed_average(config, plan, model, policy, seeds, params) -> RunSummary:
    """Run ``policy`` once per seed and reduce the summaries field by
    field: contact counts are summed, every other field is averaged."""
    summaries = [
        average_metrics(run(config, plan, model, policy, seed, params).metrics)
        for seed in seeds
    ]
    reduced = {}
    for f in fields(RunSummary):
        values = [getattr(s, f.name) for s in summaries]
        if f.name in _SUMMED_OVER_SEEDS:
            reduced[f.name] = int(np.sum(values))
        else:
            mean = np.mean(values, axis=0)
            reduced[f.name] = mean if mean.ndim else float(mean)
    return RunSummary(**reduced)


@dataclass(frozen=True)
class SweepRow:
    v: float
    avg_utility: float
    avg_backlog: float


def sweep_v(
    config: NetworkConfig,
    plan: ContactPlan,
    model: ChannelModel,
    v_values,
    seeds,
    params: dmrc.SolverParams | None = None,
) -> list[SweepRow]:
    """Run DMRC at each control-factor value, averaging utility and
    backlog over the given seeds. Runs at different values share seeds,
    hence channels, so the slope in v is not buried in channel noise."""
    seeds = list(seeds)
    if not seeds:
        raise ParameterError("need at least one seed")
    # Every value is checked before the first run.
    v_values = [_finite(v, "control factor", ParameterError) for v in v_values]
    for v in v_values:
        if v <= 0:
            raise ParameterError(f"control factor must be positive, got {v}")
    rows = []
    for v in v_values:
        s = _seed_average(
            replace(config, control_factor=v), plan, model, "dmrc", seeds, params
        )
        rows.append(SweepRow(v=v, avg_utility=s.avg_utility, avg_backlog=s.avg_backlog))
    return rows


def compare_policies(
    config: NetworkConfig,
    plan: ContactPlan,
    model: ChannelModel,
    policies=POLICIES,
    seeds=(0,),
    params: dmrc.SolverParams | None = None,
) -> dict[str, RunSummary]:
    """Run each policy on identical channel realizations (same seeds) and
    return seed-averaged summaries keyed by policy name."""
    seeds = list(seeds)
    if not seeds:
        raise ParameterError("need at least one seed")
    return {
        policy: _seed_average(config, plan, model, policy, seeds, params)
        for policy in policies
    }
