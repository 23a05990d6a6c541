"""Slot-by-slot simulation loop, metrics, and experiment drivers.

A run samples channels, asks the chosen policy for a decision, validates
it, records realized volumes in the graph ledger, and advances the data
and virtual queues. Channel randomness is derived only from the run seed,
so different policies replayed with the same seed see identical channels
(common random numbers), which makes paired policy comparisons low
variance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import dmrc
from .errors import ConfigError, DimensionError, ParameterError, ScheduleValidationError
from .eteg import Eteg, build_eteg, record_decision
from .queueing import QueueState, update_data_queues, update_virtual_queues
from .scenario import (
    ChannelModel, ChannelState, ContactPlan, NetworkConfig, sample_channels
)

POLICIES = ("dmrc", "random", "fixed_cr")


@dataclass(frozen=True)
class MetricsSeries:
    """Per-slot series collected over one run.

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
    # Populated only when record_history is requested.
    data_history: np.ndarray | None = None      # (T+1, K, I)
    deficit_history: np.ndarray | None = None   # (T+1, I)
    service_history: np.ndarray | None = None   # (T, K, I) scheduled service


def _decide(policy, queues, state, config, params, rng, obs_mask, trans_mask):
    if policy == "dmrc":
        return dmrc.dmrc_step(queues, state, config, params)
    if policy == "random":
        return dmrc.random_schedule(queues, state, config, rng, obs_mask, trans_mask)
    if policy == "fixed_cr":
        return dmrc.fixed_cr_schedule(queues, state, config)
    raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")


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
    seed = config.rng_seed if seed is None else int(seed)
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

    utility = np.zeros(T)
    backlog = np.zeros(T)
    virtual_backlog = np.zeros(T)
    flow_arrivals = np.zeros((T, I))
    delivered = np.zeros((T, I))
    obs_used = np.zeros(T, dtype=int)
    obs_avail = np.zeros(T, dtype=int)
    trans_used = np.zeros(T, dtype=int)
    trans_avail = np.zeros(T, dtype=int)

    data_hist = np.zeros((T + 1, K, I)) if record_history else None
    deficit_hist = np.zeros((T + 1, I)) if record_history else None
    service_hist = np.zeros((T, K, I)) if record_history else None

    delivered_so_far = np.zeros(I)
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

        # Delivered volume is capped by what the queue actually holds;
        # the queue recursion itself uses the uncapped scheduled service.
        shipped = np.minimum(decision.service, queues.data[:, None, :])
        service = decision.service.sum(axis=1)  # (K, I)
        next_data = update_data_queues(queues, decision.arrivals, service)
        record_decision(ledger, t, decision, shipped, next_data.data)

        per_flow = decision.arrivals.sum(axis=0)  # (I,)
        queues = update_virtual_queues(next_data, per_flow, floors)

        utility[t] = float(np.sum(np.log1p(per_flow)))
        backlog[t] = float(queues.data.sum())
        virtual_backlog[t] = float(queues.deficit.sum())
        flow_arrivals[t] = per_flow
        delivered_so_far = delivered_so_far + shipped.sum(axis=(0, 1))
        delivered[t] = delivered_so_far
        obs_avail[t] = int(plan.obs_visible[t].sum())
        obs_used[t] = int(np.count_nonzero(decision.arrivals > 0))
        trans_avail[t] = int(plan.trans_visible[t].sum())
        trans_used[t] = int(np.count_nonzero(shipped.sum(axis=2) > 0))

        if record_history:
            data_hist[t + 1] = queues.data
            deficit_hist[t + 1] = queues.deficit
            service_hist[t] = service

    metrics = MetricsSeries(
        utility=utility,
        backlog=backlog,
        virtual_backlog=virtual_backlog,
        flow_arrivals=flow_arrivals,
        delivered=delivered,
        obs_used=obs_used,
        obs_avail=obs_avail,
        trans_used=trans_used,
        trans_avail=trans_avail,
    )
    return RunResult(
        metrics=metrics,
        final_queues=queues,
        ledger=ledger,
        data_history=data_hist,
        deficit_history=deficit_hist,
        service_history=service_hist,
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
    policy: str = "dmrc",
) -> list[SweepRow]:
    """Run the policy at each control-factor value, averaging utility and
    backlog over the given seeds. Runs at different values share seeds,
    hence channels, so the slope in v is not buried in channel noise."""
    seeds = list(seeds)
    if not seeds:
        raise ParameterError("need at least one seed")
    rows = []
    for v in v_values:
        if v <= 0:
            raise ParameterError(f"control factor must be positive, got {v}")
        cfg = replace(config, control_factor=float(v))
        s = _seed_average(cfg, plan, model, policy, seeds, params)
        rows.append(
            SweepRow(v=float(v), avg_utility=s.avg_utility, avg_backlog=s.avg_backlog)
        )
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
