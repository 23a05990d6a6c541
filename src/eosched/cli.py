"""Command-line front end: run, sweep-v, and compare.

Configuration is a flat JSON object carrying the NetworkConfig and
ChannelModel field names verbatim, a plan source, optional solver
parameters, seeds, and an output directory. Flags override file values.
Outputs are CSV files written atomically (temp file then rename), so a
failed run never leaves a partial file behind.

Exit codes: 0 success, 1 configuration error, 2 runtime or validation
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dmrc import SolverParams
from .errors import ConfigError, EoschedError, ParameterError, PlanFormatError
from .scenario import (
    ChannelModel,
    ContactPlan,
    NetworkConfig,
    generate_synthetic_plan,
    load_contact_plan,
)
from .simulator import POLICIES, average_metrics, compare_policies, run, sweep_v

_NETWORK_KEYS = (
    "num_targets",
    "num_eos",
    "num_destinations",
    "transceivers",
    "rate_floors",
    "compression_set",
    "control_factor",
    "slot_length",
    "horizon",
    "rng_seed",
)
_CHANNEL_KEYS = ("obs_support", "obs_probs", "trans_support", "trans_probs")
_OTHER_KEYS = ("plan_file", "plan_synthetic", "solver", "seeds", "output_dir")


def _columns(header: str, **renamed) -> tuple:
    """An output file's schema as (CSV column, source field) pairs; a
    column reads the field of its own name unless ``renamed`` maps it."""
    return tuple((column, renamed.get(column, column)) for column in header.split(","))


# Per-slot fields are MetricsSeries series plus the slot index ``t`` and
# the per-slot total of ``delivered``; summary fields are RunSummary and
# SweepRow fields plus ``policy`` and ``seed``.
_PER_SLOT_COLUMNS = _columns(
    "t,utility,backlog,virtual_backlog,delivered_total,"
    "obs_used,obs_avail,trans_used,trans_avail"
)
_RUN_SUMMARY_COLUMNS = _columns(
    "policy,seed,avg_utility,avg_backlog,avg_virtual_backlog,"
    "obs_utilization,trans_utilization,delivered_total"
)
_SWEEP_COLUMNS = _columns("v,avg_utility,avg_backlog")
_COMPARE_COLUMNS = _columns(
    "policy,avg_utility,avg_backlog,avg_virtual_backlog,obs_utilization,"
    "trans_utilization,obs_avail,trans_avail,delivered_total",
    obs_avail="obs_avail_total",
    trans_avail="trans_avail_total",
)
PER_SLOT_HEADER = ",".join(column for column, _ in _PER_SLOT_COLUMNS)


@dataclass(frozen=True)
class _Loaded:
    config: NetworkConfig
    model: ChannelModel
    plan: ContactPlan
    solver: SolverParams
    seeds: list[int]
    outdir: Path


def _load(path: str, args) -> _Loaded:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None

    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(raw) - set(_NETWORK_KEYS) - set(_CHANNEL_KEYS) - set(_OTHER_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    try:
        config = NetworkConfig(**{k: raw[k] for k in _NETWORK_KEYS if k in raw})
        model = ChannelModel(**{k: raw[k] for k in _CHANNEL_KEYS if k in raw})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from None

    if "plan_file" in raw and "plan_synthetic" in raw:
        raise ConfigError("specify plan_file or plan_synthetic, not both")
    if "plan_file" in raw:
        plan_path = Path(raw["plan_file"])
        if not plan_path.is_absolute():
            plan_path = Path(path).parent / plan_path
        if not plan_path.exists():
            raise ConfigError(f"contact-plan file not found: {plan_path}")
        plan = load_contact_plan(plan_path, config)
    elif "plan_synthetic" in raw:
        plan = _synthetic_plan(raw["plan_synthetic"], config)
    else:
        raise ConfigError("config needs plan_file or plan_synthetic")

    try:
        solver = SolverParams(**raw.get("solver", {}))
        seeds = [int(s) for s in raw.get("seeds", [config.rng_seed])]
        if args.seeds:
            seeds = [int(s) for s in args.seeds.split(",")]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver or seed value: {exc}") from None
    if not seeds:
        raise ConfigError("at least one seed is required")

    outdir = Path(args.out or raw.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    return _Loaded(config, model, plan, solver, seeds, outdir)


def _synthetic_plan(spec, config: NetworkConfig) -> ContactPlan:
    """Build a plan from `plan_synthetic`; `obs_period`/`obs_duty` and
    `trans_period`/`trans_duty` override the shared values per tensor,
    e.g. sparse imaging passes against near-continuous relay windows."""
    if not isinstance(spec, dict):
        raise ConfigError("plan_synthetic must be a JSON object")
    spec = dict(spec)
    period = spec.pop("period", None)
    duty = spec.pop("duty", None)
    seed = int(spec.pop("offset_seed", 0))
    obs_period = spec.pop("obs_period", period)
    obs_duty = spec.pop("obs_duty", duty)
    trans_period = spec.pop("trans_period", period)
    trans_duty = spec.pop("trans_duty", duty)
    if spec:
        raise ConfigError(f"unknown plan_synthetic keys: {sorted(spec)}")
    for name, value in (
        ("obs_period", obs_period),
        ("obs_duty", obs_duty),
        ("trans_period", trans_period),
        ("trans_duty", trans_duty),
    ):
        if value is None:
            raise ConfigError(f"plan_synthetic is missing {name} (or period/duty)")
    obs = generate_synthetic_plan(config, obs_period, obs_duty, seed)
    trans = generate_synthetic_plan(config, trans_period, trans_duty, seed + 1)
    return ContactPlan(obs_visible=obs.obs_visible, trans_visible=trans.trans_visible)


def _atomic_write(path: Path, lines) -> None:
    """Write lines to a temp file in the target directory, then rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(value)


def _table_lines(columns, rows):
    """A header line, then one line per row mapping, read column by column."""
    yield ",".join(column for column, _ in columns)
    for row in rows:
        yield ",".join(_cell(row[name]) for _, name in columns)


def _per_slot_lines(metrics):
    T = len(metrics.utility)
    series = {
        **vars(metrics),
        "t": range(T),
        "delivered_total": metrics.delivered.sum(axis=1),
    }
    return _table_lines(
        _PER_SLOT_COLUMNS,
        ({name: series[name][t] for _, name in _PER_SLOT_COLUMNS} for t in range(T)),
    )


def _cmd_run(args) -> int:
    loaded = _load(args.config, args)
    policy = args.policy or "dmrc"
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")

    rows = []
    for seed in loaded.seeds:
        # Keep only the metrics, so the run's ledger is freed before the
        # next seed runs.
        metrics = run(
            loaded.config, loaded.plan, loaded.model, policy, seed, loaded.solver
        ).metrics
        _atomic_write(
            loaded.outdir / f"run_{policy}_seed{seed}.csv", _per_slot_lines(metrics)
        )
        rows.append({**vars(average_metrics(metrics)), "policy": policy, "seed": seed})
    _atomic_write(
        loaded.outdir / f"run_{policy}_summary.csv",
        _table_lines(_RUN_SUMMARY_COLUMNS, rows),
    )
    return 0


def _cmd_sweep_v(args) -> int:
    loaded = _load(args.config, args)
    if not args.v_list:
        raise ConfigError("sweep-v requires --v-list")
    try:
        v_values = [float(v) for v in args.v_list.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --v-list: {exc}") from None
    if not v_values:
        raise ConfigError("--v-list is empty")
    if any(v <= 0 for v in v_values):
        raise ConfigError("control-factor values must be positive")

    rows = sweep_v(
        loaded.config, loaded.plan, loaded.model, v_values, loaded.seeds, loaded.solver
    )
    _atomic_write(
        loaded.outdir / "sweep_v.csv", _table_lines(_SWEEP_COLUMNS, map(vars, rows))
    )
    return 0


def _cmd_compare(args) -> int:
    loaded = _load(args.config, args)
    table = compare_policies(
        loaded.config,
        loaded.plan,
        loaded.model,
        POLICIES,
        loaded.seeds,
        loaded.solver,
    )
    rows = [{**vars(table[policy]), "policy": policy} for policy in POLICIES]
    _atomic_write(loaded.outdir / "compare.csv", _table_lines(_COMPARE_COLUMNS, rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eosched",
        description="Slotted-time scheduling simulator for Earth-observation "
        "satellite networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seeds", help="comma-separated seed list (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")

    p_run = sub.add_parser("run", help="simulate one policy over the horizon")
    common(p_run)
    p_run.add_argument("--policy", choices=POLICIES, help="default: dmrc")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep-v", help="sweep the control factor")
    common(p_sweep)
    p_sweep.add_argument("--v-list", help="comma-separated control-factor values")
    p_sweep.set_defaults(func=_cmd_sweep_v)

    p_cmp = sub.add_parser("compare", help="run all policies on shared channels")
    common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, PlanFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EoschedError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
