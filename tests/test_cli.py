import argparse
import gc
import json
import os
import re
import weakref
from pathlib import Path

import pytest

from eosched import cli as cli_module
from eosched.cli import PER_SLOT_HEADER, _atomic_write, _fmt, _load, main
from eosched.simulator import (
    POLICIES, average_metrics, compare_policies, run, sweep_v
)


def write_config(tmp_path, **overrides):
    cfg = {
        "num_targets": 2,
        "num_eos": 3,
        "num_destinations": 1,
        "transceivers": 1,
        "rate_floors": 0.0,
        "compression_set": [2 / 3, 1 / 2, 1 / 3, 1 / 4],
        "control_factor": 8000.0,
        "slot_length": 1.0,
        "horizon": 12,
        "rng_seed": 0,
        "plan_synthetic": {"period": 4, "duty": 0.5, "offset_seed": 1},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunCommand:
    def test_success_writes_csvs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--policy", "dmrc"]) == 0
        out = tmp_path / "out"
        assert (out / "run_dmrc_seed0.csv").exists()
        assert (out / "run_dmrc_seed1.csv").exists()
        assert (out / "run_dmrc_summary.csv").exists()

    def test_per_slot_schema(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[4])
        assert main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "run_dmrc_seed4.csv").read_text().splitlines()
        assert lines[0] == PER_SLOT_HEADER
        assert len(lines) == 13  # header + one row per slot
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 9

    def test_default_policy_is_dmrc(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0])
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "run_dmrc_seed0.csv").exists()

    def test_seeds_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--seeds", "7"]) == 0
        out = tmp_path / "out"
        assert (out / "run_dmrc_seed7.csv").exists()
        assert not (out / "run_dmrc_seed0.csv").exists()

    def test_out_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, seeds=[0])
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", str(cfg), "--out", str(other)]) == 0
        assert (other / "run_dmrc_seed0.csv").exists()
        assert not (tmp_path / "out" / "run_dmrc_seed0.csv").exists()

    def test_bad_compression_set_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, compression_set=[1 / 4, 1 / 2])
        assert main(["run", "--config", str(cfg)]) == 1
        assert "compression_set" in capsys.readouterr().err

    def test_missing_plan_file_exits_one(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["plan_synthetic"]
        data["plan_file"] = "missing_plan.txt"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg)]) == 1

    def test_plan_file_source(self, tmp_path):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("obs,0,0,0,5\nobs,1,1,2,8\ntrans,0,0,0,11\ntrans,2,0,3,9\n")
        cfg = write_config(tmp_path, seeds=[0])
        data = json.loads(cfg.read_text())
        del data["plan_synthetic"]
        data["plan_file"] = "plan.txt"
        cfg.write_text(json.dumps(data))
        assert main(["run", "--config", str(cfg)]) == 0

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, typo_key=3)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    def test_split_synthetic_plan_densities(self, tmp_path):
        cfg = write_config(
            tmp_path,
            seeds=[0],
            plan_synthetic={
                "obs_period": 6, "obs_duty": 1 / 6,
                "trans_period": 4, "trans_duty": 1.0,
                "offset_seed": 2,
            },
        )
        assert main(["run", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "run_dmrc_seed0.csv").read_text().splitlines()
        header = lines[0].split(",")
        oa, ta = header.index("obs_avail"), header.index("trans_avail")
        obs_total = sum(int(l.split(",")[oa]) for l in lines[1:])
        trans_total = sum(int(l.split(",")[ta]) for l in lines[1:])
        assert obs_total == 12  # 2*3 pairs, 1 slot per 6, 12-slot horizon
        assert trans_total == 36  # always visible: 3 satellites x 1 dest x 12

    def test_incomplete_synthetic_plan_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, plan_synthetic={"obs_period": 6, "obs_duty": 0.5}
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert "trans_period" in capsys.readouterr().err


class TestSweepCommand:
    def test_nine_values_nine_rows(self, tmp_path):
        cfg = write_config(tmp_path, horizon=8, seeds=[0])
        vlist = "1000,2000,3000,4000,5000,6000,7000,8000,50000"
        assert main(["sweep-v", "--config", str(cfg), "--v-list", vlist]) == 0
        lines = (tmp_path / "out" / "sweep_v.csv").read_text().splitlines()
        assert lines[0] == "v,avg_utility,avg_backlog"
        assert len(lines) == 10

    def test_single_value(self, tmp_path):
        cfg = write_config(tmp_path, horizon=8, seeds=[0])
        assert main(["sweep-v", "--config", str(cfg), "--v-list", "800"]) == 0
        lines = (tmp_path / "out" / "sweep_v.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_nonpositive_v_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, horizon=8)
        assert main(["sweep-v", "--config", str(cfg), "--v-list", "0"]) == 1
        assert main(["sweep-v", "--config", str(cfg), "--v-list=-5,100"]) == 1

    def test_missing_v_list_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, horizon=8)
        assert main(["sweep-v", "--config", str(cfg)]) == 1


class TestCompareCommand:
    def test_three_policy_rows(self, tmp_path):
        cfg = write_config(tmp_path, horizon=20, seeds=[0, 1])
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
        assert len(lines) == 4
        policies = [line.split(",")[0] for line in lines[1:]]
        assert policies == ["dmrc", "random", "fixed_cr"]

    def test_shared_contact_counts(self, tmp_path):
        cfg = write_config(tmp_path, horizon=20, seeds=[0, 1])
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
        header = lines[0].split(",")
        oa, ta = header.index("obs_avail"), header.index("trans_avail")
        counts = {(row.split(",")[oa], row.split(",")[ta]) for row in lines[1:]}
        assert len(counts) == 1


def test_runtime_failure_exits_two(tmp_path, monkeypatch):
    from eosched import ScheduleValidationError

    def exploding_run(*args, **kwargs):
        raise ScheduleValidationError("slot 3: satellite observes two targets")

    monkeypatch.setattr(cli_module, "run", exploding_run)
    cfg = write_config(tmp_path, seeds=[0])
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_releases_each_result_before_the_next_seed(tmp_path, monkeypatch):
    refs, alive_at_call = [], []

    def tracking_run(*args, **kwargs):
        gc.collect()
        alive_at_call.append([ref() is not None for ref in refs])
        result = run(*args, **kwargs)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli_module, "run", tracking_run)
    cfg = write_config(tmp_path, seeds=[0, 1])
    assert main(["run", "--config", str(cfg)]) == 0
    assert alive_at_call == [[], [False]]


def load(cfg):
    return _load(str(cfg), argparse.Namespace(seeds=None, out=None))


def data_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestCsvContents:
    """Each summary CSV row carries the library's numbers, column by
    column; a nonzero rate floor keeps every column distinct."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_run_summary_rows(self, tmp_path, policy):
        cfg = write_config(tmp_path, rate_floors=30.0)
        assert main(["run", "--config", str(cfg), "--policy", policy]) == 0
        c = load(cfg)
        expected = []
        for seed in c.seeds:
            s = average_metrics(
                run(c.config, c.plan, c.model, policy, seed, c.solver).metrics
            )
            expected.append([
                policy,
                str(seed),
                _fmt(s.avg_utility),
                _fmt(s.avg_backlog),
                _fmt(s.avg_virtual_backlog),
                _fmt(s.obs_utilization),
                _fmt(s.trans_utilization),
                _fmt(s.delivered_total),
            ])
        out = tmp_path / "out" / f"run_{policy}_summary.csv"
        assert data_rows(out) == expected

    def test_compare_rows(self, tmp_path):
        cfg = write_config(tmp_path, rate_floors=30.0)
        assert main(["compare", "--config", str(cfg)]) == 0
        c = load(cfg)
        table = compare_policies(c.config, c.plan, c.model, POLICIES, c.seeds, c.solver)
        expected = [
            [
                policy,
                _fmt(s.avg_utility),
                _fmt(s.avg_backlog),
                _fmt(s.avg_virtual_backlog),
                _fmt(s.obs_utilization),
                _fmt(s.trans_utilization),
                str(s.obs_avail_total),
                str(s.trans_avail_total),
                _fmt(s.delivered_total),
            ]
            for policy, s in table.items()
        ]
        assert data_rows(tmp_path / "out" / "compare.csv") == expected

    def test_sweep_rows(self, tmp_path):
        cfg = write_config(tmp_path, rate_floors=30.0)
        argv = ["sweep-v", "--config", str(cfg), "--v-list", "1000,8000"]
        assert main(argv) == 0
        c = load(cfg)
        rows = sweep_v(c.config, c.plan, c.model, [1000.0, 8000.0], c.seeds, c.solver)
        expected = [[_fmt(r.v), _fmt(r.avg_utility), _fmt(r.avg_backlog)] for r in rows]
        assert data_rows(tmp_path / "out" / "sweep_v.csv") == expected


def test_readme_schemas_match_written_headers(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Output CSV schemas")[1].split("\n#")[0]
    documented = re.findall(r"`([a-z_]+(?:,[a-z_]+)+)`", section)

    cfg = write_config(tmp_path, horizon=4, seeds=[0])
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["sweep-v", "--config", str(cfg), "--v-list", "1000"]) == 0
    assert main(["compare", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    written = [
        (out / name).read_text().splitlines()[0]
        for name in (
            "run_dmrc_seed0.csv", "run_dmrc_summary.csv", "sweep_v.csv", "compare.csv"
        )
    ]
    assert documented == written


class TestAtomicWrite:
    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.csv"

        def exploding():
            yield "header"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            _atomic_write(target, exploding())
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_success_replaces_previous(self, tmp_path):
        target = tmp_path / "out.csv"
        _atomic_write(target, ["a", "b"])
        _atomic_write(target, ["c"])
        assert target.read_text() == "c\n"


def test_identical_invocations_bitwise_identical(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg1 = write_config(tmp_path / "a", seeds=[3], output_dir=str(tmp_path / "a" / "o"))
    cfg2 = write_config(tmp_path / "b", seeds=[3], output_dir=str(tmp_path / "b" / "o"))
    assert main(["run", "--config", str(cfg1)]) == 0
    assert main(["run", "--config", str(cfg2)]) == 0
    a = (tmp_path / "a" / "o" / "run_dmrc_seed3.csv").read_bytes()
    b = (tmp_path / "b" / "o" / "run_dmrc_seed3.csv").read_bytes()
    assert a == b
