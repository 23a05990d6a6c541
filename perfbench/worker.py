"""Workload process of the benchmark.

run.py writes the inputs and starts this process; it runs one workload
through ``eosched.cli.main(["run", ...])``, one (policy, seed) simulation
per call, checks every run, and writes one result object as JSON.

Untimed warm-up: the first run, on the invocation's first seed. Timed
runs follow on seeds s0, s1, ... (s0 again, which doubles as the repeat
check) until the next one would end past ``--seconds``; at least two run.
With ``--trace 1`` the timed runs are replaced by one untraced reference
run and then traced runs, all on s0.
"""

import pin_threads  # noqa: F401  (must precede numpy)

import argparse
import dataclasses
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from workloads import (
    COMPRESSION_SET,
    CONTROL_FACTOR,
    RATE_FLOOR,
    WORKLOADS,
    run_seed,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_TIMED = 2
MIB = 2**20

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "decide_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "avg_utility": "utility/slot",
}

PER_LAYER = {
    "cli.config_load_s": "s",
    "cli.self_s": "s",
    "scenario.plan_s": "s",
    "scenario.sample_channels_us": "us",
    "simulator.run_self_s": "s",
    "dmrc.step_self_ms": "ms",
    "dmrc.josap_solve_self_ms": "ms",
    "dmrc.josap_iterations": "iter/slot",
    "dmrc.josap_converged_slots": "count",
    "dmrc.josap_below_exact_slots": "count",
    "dmrc.josap_gap_mean": "objective",
    "dmrc.josap_gap_max": "objective",
    "dmrc.observation_matching_calls": "count",
    "dmrc.ts_solve_self_ms": "ms",
    "dmrc.validate_decision_ms": "ms",
    "assignment.mwa_calls": "count",
    "assignment.mwa_self_us": "us",
    "assignment.lsa_per_mwa": "solves/call",
    "assignment.lsa_us": "us",
    "eteg.build_s": "s",
    "eteg.record_decision_us": "us",
    "eteg.audit_s": "s",
    "eteg.ledger_mb": "MB",
    "queueing.update_us": "us",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
}


@dataclasses.dataclass
class Op:
    """One (policy, seed) simulation through the CLI."""

    seed: int
    ok: bool = False
    run_s: float = 0.0
    wall_s: float = 0.0  # whole cycle including checks, to schedule the next run
    decide_ns: list = dataclasses.field(default_factory=list)
    avg_utility: float = 0.0
    series: dict = dataclasses.field(default_factory=dict)
    layers: dict = dataclasses.field(default_factory=dict)


class Bench:
    def __init__(self, w, config_path: Path, outdir: Path):
        self.w = w
        self.config_path = config_path
        self.outdir = outdir
        self.cli = importlib.import_module("eosched.cli")
        self.dmrc = importlib.import_module("eosched.dmrc")
        self.first_run_ns = None
        self.check_failed = False
        self.tracer = None
        self._result = None
        self._run_start = 0
        self._decide_ns: list = []
        self._josap: list = []
        self._ts: list = []
        self._install_probes()

    # -- probes present in every run: the run capture and the step timer --

    def _install_probes(self):
        run = self.cli.run

        def probe_run(*args, **kwargs):
            now = time.monotonic_ns()
            if self.first_run_ns is None:
                self.first_run_ns = now
            self._run_start = now
            self._result = run(*args, **kwargs)
            return self._result

        self.cli.run = probe_run
        for attr in ("dmrc_step", "fixed_cr_schedule"):
            setattr(self.dmrc, attr, self._step_timer(getattr(self.dmrc, attr)))

    def _step_timer(self, fn):
        def timed_step(*args, **kwargs):
            t = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            self._decide_ns.append(time.perf_counter_ns() - t)
            return out

        return timed_step

    def install_tracer(self):
        from tracing import Tracer

        tr = self.tracer = Tracer()
        mod = importlib.import_module
        cli, sim, dmrc = self.cli, mod("eosched.simulator"), self.dmrc
        for attr, name in (
            ("_load", "cli._load"),
            ("load_contact_plan", "scenario.load_contact_plan"),
            ("generate_synthetic_plan", "scenario.generate_synthetic_plan"),
            ("run", "simulator.run"),
        ):
            tr.wrap(cli, attr, name)
        for attr, name in (
            ("sample_channels", "scenario.sample_channels"),
            ("build_eteg", "eteg.build_eteg"),
            ("record_decision", "eteg.record_decision"),
            ("update_data_queues", "queueing.update_data_queues"),
            ("update_virtual_queues", "queueing.update_virtual_queues"),
        ):
            tr.wrap(sim, attr, name)
        for attr in ("dmrc_step", "fixed_cr_schedule", "validate_decision", "observation_matching"):
            tr.wrap(dmrc, attr, f"dmrc.{attr}")
        tr.wrap(dmrc, "josap_solve", "dmrc.josap_solve", self._record_josap)
        tr.wrap(dmrc, "ts_solve", "dmrc.ts_solve", self._record_ts)
        tr.wrap(dmrc, "max_weight_assignment", "assignment.max_weight_assignment")
        tr.wrap(mod("eosched.assignment"), "linear_sum_assignment",
                "assignment.linear_sum_assignment")

    def _record_josap(self, args, res):
        Q, P, B = args[:3]
        self._josap.append((Q, P, B, res.observe, res.arrivals, res.objective,
                            res.iterations, res.converged))

    def _record_ts(self, args, res):
        self._ts.append((args[0], args[1], res[0]))

    # -- one operation --

    def run_op(self, seed: int) -> Op:
        op = Op(seed)
        self._result, self._decide_ns, self._josap, self._ts = None, [], [], []
        argv = ["run", "--config", str(self.config_path), "--policy", self.w.policy,
                "--seeds", str(seed), "--out", str(self.outdir)]
        t0 = time.perf_counter_ns()
        lo = len(self.tracer.spans) if self.tracer else 0
        try:
            if self.tracer:
                with self.tracer.span("cli.main"):
                    rc = self.cli.main(argv)
            else:
                rc = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        end = time.monotonic_ns()
        result, self._result = self._result, None
        if rc != 0 or result is None:
            print(f"run failed: seed {seed}, exit {rc}", file=sys.stderr)
        else:
            op.run_s = (end - self._run_start) * 1e-9
            op.decide_ns = self._decide_ns
            try:
                self._check(op, result)
                if self.tracer:
                    self._check_traced(op, result, lo)
                op.ok = True
            except checks.CheckFailed as exc:
                print(f"check failed: seed {seed}: {exc}", file=sys.stderr)
                self.check_failed = True
        del result
        op.wall_s = (time.perf_counter_ns() - t0) * 1e-9
        print(f"run seed={seed} ok={op.ok} run_s={op.run_s:.4f} cycle_s={op.wall_s:.4f}",
              file=sys.stderr)
        return op

    def _check(self, op: Op, result) -> None:
        c, w = checks, self.w
        m, final = result.metrics, result.final_queues
        c.check_conservation(m.flow_arrivals, m.delivered[-1], final.data)
        if w.policy == "dmrc":
            floors = np.full(w.num_targets, RATE_FLOOR)
            c.check_floors(m.flow_arrivals, final.deficit, floors, w.horizon)
        text = (self.outdir / f"run_{w.policy}_seed{op.seed}.csv").read_text(encoding="utf-8")
        c.check_per_slot_csv(
            c.parse_per_slot_csv(text), w.horizon, w.num_targets, w.num_eos,
            w.total_transceivers, float(m.delivered[-1].sum()), float(final.data.sum()),
        )
        trx = np.full(w.num_destinations, w.transceivers)
        c.check_ledger_matchings(result.ledger.joc_volume, result.ledger.fwd_volume, trx)
        op.avg_utility = float(m.utility.mean())
        op.series = {f.name: getattr(m, f.name) for f in dataclasses.fields(m)}
        op.series["csv"] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)

    def _check_traced(self, op: Op, result, lo: int) -> None:
        c, w = checks, self.w
        eteg = importlib.import_module("eosched.eteg")
        with self.tracer.span("eteg.check_flow_conservation"):
            report = eteg.check_flow_conservation(result.ledger)
        if not report.ok:
            raise c.CheckFailed(f"ledger audit: {len(report.violations)} violations")
        gaps = [
            c.check_josap(Q, P, B, CONTROL_FACTOR, COMPRESSION_SET, x, a, obj)
            for Q, P, B, x, a, obj, _, _ in self._josap
        ]
        trx = np.full(w.num_destinations, w.transceivers)
        for Q, C, y in self._ts:
            c.check_ts(Q, C, trx, y)
        ledger = result.ledger
        ledger_bytes = sum(
            getattr(ledger, f.name).nbytes for f in dataclasses.fields(ledger)
        )
        op.layers = layer_metrics(
            self.tracer.totals(lo), w.horizon, op.run_s, self._josap, gaps, ledger_bytes
        )


def layer_metrics(tot, T, run_s, josap, gaps, ledger_bytes) -> dict:
    """Per-layer figures of one traced run from its span totals."""

    def get(name, key="total_s"):
        return tot.get(name, {}).get(key, 0)

    def per_call(name, key="total_s"):
        n = get(name, "count")
        return get(name, key) / n if n else 0.0

    mwa, lsa = "assignment.max_weight_assignment", "assignment.linear_sum_assignment"
    return {
        "cli.config_load_s": get("cli._load", "self_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "scenario.plan_s": get("scenario.load_contact_plan")
        + get("scenario.generate_synthetic_plan"),
        "scenario.sample_channels_us": per_call("scenario.sample_channels") * 1e6,
        "simulator.run_self_s": get("simulator.run", "self_s"),
        "dmrc.step_self_ms": (get("dmrc.dmrc_step", "self_s")
                              + get("dmrc.fixed_cr_schedule", "self_s")) / T * 1e3,
        "dmrc.josap_solve_self_ms": get("dmrc.josap_solve", "self_s") / T * 1e3,
        "dmrc.josap_iterations": statistics.fmean(j[6] for j in josap) if josap else 0.0,
        "dmrc.josap_converged_slots": sum(1 for j in josap if j[7]),
        "dmrc.josap_below_exact_slots": sum(1 for g in gaps if g > 0),
        "dmrc.josap_gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "dmrc.josap_gap_max": max(gaps, default=0.0),
        "dmrc.observation_matching_calls": get("dmrc.observation_matching", "count"),
        "dmrc.ts_solve_self_ms": get("dmrc.ts_solve", "self_s") / T * 1e3,
        "dmrc.validate_decision_ms": per_call("dmrc.validate_decision") * 1e3,
        "assignment.mwa_calls": get(mwa, "count"),
        "assignment.mwa_self_us": per_call(mwa, "self_s") * 1e6,
        "assignment.lsa_per_mwa": get(lsa, "count") / get(mwa, "count") if get(mwa, "count") else 0.0,
        "assignment.lsa_us": per_call(lsa) * 1e6,
        "eteg.build_s": get("eteg.build_eteg"),
        "eteg.record_decision_us": per_call("eteg.record_decision") * 1e6,
        "eteg.audit_s": get("eteg.check_flow_conservation"),
        "eteg.ledger_mb": ledger_bytes / MIB,
        "queueing.update_us": (get("queueing.update_data_queues")
                               + get("queueing.update_virtual_queues")) / T * 1e6,
        "trace.run_s": run_s,
    }


def _keep_going(ops, started: float, seconds: float, minimum: int) -> bool:
    if len(ops) < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(o.wall_s for o in ops) <= seconds


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def measure(bench: Bench, seed: int, seconds: float, t0_ns: int) -> tuple[list, dict]:
    """Warm-up, then timed runs; returns all ops and the end-to-end metrics."""
    s0 = run_seed(seed, 0)
    warm = bench.run_op(s0)
    setup_s = (bench.first_run_ns - t0_ns) * 1e-9 if bench.first_run_ns else None
    timed: list[Op] = []
    started = time.perf_counter()
    while _keep_going(timed, started, seconds, MIN_TIMED):
        timed.append(bench.run_op(run_seed(seed, len(timed))))
    _repeat_check(bench, warm, timed[0])

    good = [o for o in timed if o.ok]
    if setup_s is None or not good:
        return [warm, *timed], {}
    decide = [ns * 1e-6 for o in good for ns in o.decide_ns]
    # The p99 spreads too widely between invocations on a shared machine to
    # carry a bound (README.md); it is shown, not reported as a metric.
    print(f"decide_p99_ms={_percentile(decide, 99):.4f} over {len(decide)} slots",
          file=sys.stderr)
    first_two = [o.avg_utility for o in timed[:MIN_TIMED] if o.ok]
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(o.run_s for o in good),
        "decide_p50_ms": _percentile(decide, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
        "avg_utility": statistics.fmean(first_two) if len(first_two) == MIN_TIMED else None,
    }
    return [warm, *timed], values


def measure_traced(bench: Bench, seed: int, seconds: float) -> tuple[list, dict]:
    """Warm-up and one untraced reference run, then traced runs, all on
    the first seed so that their counts agree exactly."""
    s0 = run_seed(seed, 0)
    warm = bench.run_op(s0)
    ref = bench.run_op(s0)
    _repeat_check(bench, warm, ref)
    bench.install_tracer()
    traced: list[Op] = []
    started = time.perf_counter()
    while _keep_going(traced, started, seconds, 1):
        traced.append(bench.run_op(s0))
        _repeat_check(bench, warm, traced[-1])
    bench.tracer.restore()

    good = [o for o in traced if o.ok]
    if not ref.ok or not good:
        return [warm, ref, *traced], {}
    values = {
        name: statistics.median(o.layers[name] for o in good)
        for name in good[0].layers
    }
    values["trace.untraced_run_s"] = ref.run_s
    return [warm, ref, *traced], values


def _repeat_check(bench: Bench, a: Op, b: Op) -> None:
    if not (a.ok and b.ok):
        return
    try:
        checks.check_repeat(a.series, b.series)
    except checks.CheckFailed as exc:
        print(f"check failed: seed {b.seed}: {exc}", file=sys.stderr)
        bench.check_failed = True
        b.ok = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--t0-ns", type=int, required=True,
                   help="time.monotonic_ns() just before this process was started")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace-out", type=Path)
    args = p.parse_args(argv)

    if not (SRC / "eosched" / "__init__.py").is_file():
        print(f"error: no eosched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    eosched = importlib.import_module("eosched")
    if Path(eosched.__file__).resolve().parent != (SRC / "eosched").resolve():
        print(f"error: imported eosched from {eosched.__file__}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    bench = Bench(w, args.config, args.config.parent / "out")
    if args.trace:
        ops, values = measure_traced(bench, args.seed, args.seconds)
        units = PER_LAYER
    else:
        ops, values = measure(bench, args.seed, args.seconds, args.t0_ns)
        units = END_TO_END
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1

    if args.trace and args.trace_out:
        bench.tracer.dump(
            args.trace_out, workload=w.name, seed=args.seed,
            ops=[{"seed": o.seed, "ok": o.ok, "run_s": o.run_s} for o in ops],
            metrics=values,
        )
    doc = {
        "correct": not bench.check_failed,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o.ok),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    args.result.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
