"""Tests of the benchmark itself: every check passes on a real run and
fails on a deliberately corrupted one.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, config_dict, write_inputs  # noqa: E402

import eosched  # noqa: E402
from eosched import cli  # noqa: E402

SMALL = Workload("small_dmrc", "dmrc", 8, 12, 2, 2, 288, plan_file=False)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One CLI run of a short desk scenario: its result and per-slot CSV."""
    workdir = tmp_path_factory.mktemp("small")
    config = write_inputs(SMALL, 0, workdir)
    captured = []
    run = cli.run
    cli.run = lambda *a, **kw: captured.append(run(*a, **kw)) or captured[-1]
    try:
        rc = cli.main(["run", "--config", str(config), "--policy", "dmrc",
                       "--seeds", "0", "--out", str(workdir / "out")])
    finally:
        cli.run = run
    assert rc == 0
    text = (workdir / "out" / "run_dmrc_seed0.csv").read_text()
    return captured[0], text


def _csv_args(result):
    m, q = result.metrics, result.final_queues
    return (SMALL.horizon, SMALL.num_targets, SMALL.num_eos, SMALL.total_transceivers,
            float(m.delivered[-1].sum()), float(q.data.sum()))


def test_clean_run_passes(small_run):
    result, text = small_run
    m, q = result.metrics, result.final_queues
    checks.check_conservation(m.flow_arrivals, m.delivered[-1], q.data)
    checks.check_floors(m.flow_arrivals, q.deficit, np.full(8, 10.0), SMALL.horizon)
    checks.check_per_slot_csv(checks.parse_per_slot_csv(text), *_csv_args(result))
    checks.check_ledger_matchings(result.ledger.joc_volume, result.ledger.fwd_volume, [2, 2])


def test_conservation_fails_on_perturbed_final_queue(small_run):
    result, _ = small_run
    m = result.metrics
    data = result.final_queues.data.copy()
    data[0, 0] += 1e-3 * max(1.0, data.sum())
    with pytest.raises(CheckFailed, match="not conserved"):
        checks.check_conservation(m.flow_arrivals, m.delivered[-1], data)


def test_floors_fail_on_starved_flow(small_run):
    result, _ = small_run
    arrivals = result.metrics.flow_arrivals.copy()
    arrivals[:, 3] *= 0.5
    with pytest.raises(CheckFailed):
        checks.check_floors(arrivals, result.final_queues.deficit,
                            np.full(8, 10.0) * 20, SMALL.horizon)
    deficit = result.final_queues.deficit.copy()
    deficit[2] = SMALL.horizon * result.metrics.flow_arrivals[:, 2].mean()
    with pytest.raises(CheckFailed, match="deficit"):
        checks.check_floors(result.metrics.flow_arrivals, deficit, np.full(8, 10.0),
                            SMALL.horizon)


def _corrupt_row(text, row, column, value):
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[checks.PER_SLOT_COLUMNS.index(column)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: "\n".join(text.splitlines()[:-1]) + "\n",  # a row missing
        lambda text: _corrupt_row(text, 5, "t", "7"),
        lambda text: _corrupt_row(text, 200, "delivered_total", "0"),
        lambda text: _corrupt_row(text, 10, "obs_used", "9"),
        lambda text: _corrupt_row(text, 10, "trans_used", "5"),
        lambda text: _corrupt_row(text, 287, "backlog", "1e9"),
    ],
    ids=["row_missing", "slot_index", "delivered_drops", "obs_over_limit",
         "trans_over_transceivers", "final_backlog"],
)
def test_csv_check_fails_on_corruption(small_run, corrupt):
    result, text = small_run
    with pytest.raises(CheckFailed):
        checks.check_per_slot_csv(checks.parse_per_slot_csv(corrupt(text)), *_csv_args(result))


def test_ledger_check_fails_on_target_observed_twice(small_run):
    result, _ = small_run
    joc = result.ledger.joc_volume.copy()
    t, i, k = np.argwhere(joc > 0)[0]
    joc[t, i, (k + 1) % joc.shape[2]] = 1.0
    with pytest.raises(CheckFailed, match="target is observed twice"):
        checks.check_ledger_matchings(joc, result.ledger.fwd_volume, [2, 2])


def test_ledger_check_fails_on_transceiver_excess(small_run):
    result, _ = small_run
    fwd = result.ledger.fwd_volume.copy()
    fwd[0, 0:3, 0, 0] = 1.0
    with pytest.raises(CheckFailed, match="transceivers"):
        checks.check_ledger_matchings(result.ledger.joc_volume, fwd, [2, 2])


def test_repeat_check_fails_on_one_changed_bit(small_run):
    result, _ = small_run
    series = {"utility": result.metrics.utility}
    changed = result.metrics.utility.copy()
    changed[17] = np.nextafter(changed[17], np.inf)
    checks.check_repeat(series, {"utility": result.metrics.utility.copy()})
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_repeat(series, {"utility": changed})


@pytest.fixture(scope="module")
def slot_problem():
    """A mid-run slot of the desk scenario with every pair visible."""
    rng = np.random.default_rng(3)
    cfg = eosched.NetworkConfig(num_targets=8, num_eos=12, num_destinations=2,
                                transceivers=2, rate_floors=10.0)
    Q = rng.uniform(0, 4000, size=(12, 8))
    P = rng.uniform(0, 50, size=8)
    B = rng.choice([600.0, 800.0, 1000.0], size=(8, 12))
    C = rng.choice([0.0, 200.0, 400.0], size=(12, 2))
    return cfg, Q, P, B, C


def _josap_args(cfg, Q, P, B, res):
    return (Q, P, B, cfg.control_factor, cfg.compression_set,
            res.observe, res.arrivals, res.objective)


def test_josap_check_passes_on_exact_and_dual_solvers(slot_problem):
    cfg, Q, P, B, _ = slot_problem
    exact = eosched.josap_exact(Q, P, B, cfg)
    assert checks.check_josap(*_josap_args(cfg, Q, P, B, exact)) == 0.0
    assert checks.josap_exact_objective(
        Q, P, B, cfg.control_factor, cfg.compression_set
    ) == pytest.approx(exact.objective, rel=1e-12)
    dual = eosched.josap_solve(Q, P, B, cfg)
    assert checks.check_josap(*_josap_args(cfg, Q, P, B, dual)) >= 0.0


def test_josap_check_fails_on_objective_above_optimum(slot_problem):
    cfg, Q, P, B, _ = slot_problem
    exact = eosched.josap_exact(Q, P, B, cfg)
    args = list(_josap_args(cfg, Q, P, B, exact))
    args[-1] = exact.objective * (1 + 1e-6)
    with pytest.raises(CheckFailed, match="not its schedule's value"):
        checks.check_josap(*args)
    # Uncompressed arrivals on an empty network: a schedule whose own value
    # lies above the optimum over the allowed ratios.
    Q0, P0 = np.zeros_like(Q), np.zeros_like(P)
    x = eosched.josap_exact(Q0, P0, B, cfg).observe
    arrivals = (x * B).T
    raised = float(np.sum(cfg.control_factor * np.log1p(arrivals)))
    with pytest.raises(CheckFailed, match="above the exact optimum"):
        checks.check_josap(Q0, P0, B, cfg.control_factor, cfg.compression_set,
                           x, arrivals, raised)


def test_josap_check_fails_on_target_observed_twice(slot_problem):
    cfg, Q, P, B, _ = slot_problem
    exact = eosched.josap_exact(Q, P, B, cfg)
    x = exact.observe.copy()
    i, k = np.argwhere(x > 0)[0]
    x[i, (k + 1) % x.shape[1]] = 1
    with pytest.raises(CheckFailed, match="not a matching"):
        checks.check_josap(Q, P, B, cfg.control_factor, cfg.compression_set,
                           x, exact.arrivals, exact.objective)


def test_ts_check(slot_problem):
    cfg, Q, _, _, C = slot_problem
    y, _ = eosched.ts_solve(Q, C, cfg)
    checks.check_ts(Q, C, cfg.transceivers, y)
    weights = Q.max(axis=1)[:, None] * C
    dropped = y.copy()
    k, n = np.argwhere((y > 0) & (weights > 0))[0]
    dropped[k, n] = 0
    with pytest.raises(CheckFailed, match="differs from the optimum"):
        checks.check_ts(Q, C, cfg.transceivers, dropped)
    crowded = np.zeros_like(y)
    crowded[:3, 0] = 1
    with pytest.raises(CheckFailed, match="transceiver"):
        checks.check_ts(Q, C, cfg.transceivers, crowded)


def test_plan_file_describes_the_synthetic_plan(tmp_path):
    w = Workload("small_file", "fixed_cr", 5, 7, 3, 2, 200, plan_file=True)
    write_inputs(w, 4, tmp_path)
    cfg = config_dict(w, 4)
    net = eosched.NetworkConfig(**{k: cfg[k] for k in cli._NETWORK_KEYS})
    from_file = eosched.load_contact_plan(tmp_path / "plan.txt", net)
    spec = config_dict(dataclasses.replace(w, plan_file=False), 4)["plan_synthetic"]
    synthetic = cli._synthetic_plan(spec, net)
    assert np.array_equal(from_file.obs_visible, synthetic.obs_visible)
    assert np.array_equal(from_file.trans_visible, synthetic.trans_visible)


def test_tracer_self_time_and_parents():
    tr = Tracer()

    class Mod:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Mod.inner() + Mod.inner()

    tr.wrap(Mod, "inner", "inner")
    tr.wrap(Mod, "outer", "outer")
    with tr.span("root"):
        assert Mod.outer() == 2
    tr.restore()
    assert not hasattr(Mod.inner, "__wrapped__")
    names = [tr.names[s[0]] for s in tr.spans]
    assert names == ["root", "outer", "inner", "inner"]
    assert [s[1] for s in tr.spans] == [-1, 0, 1, 1]
    tot = tr.totals()
    dur = [s[3] - s[2] for s in tr.spans]
    assert tot["outer"]["self_s"] == pytest.approx((dur[1] - dur[2] - dur[3]) * 1e-9)
    assert tot["inner"]["count"] == 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_dmrc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
