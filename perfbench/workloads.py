"""Workload definitions and the input files each benchmark run reads.

The contact plan of a workload is fixed (offset seed 0, as in the desk
scenario of the test suite); the benchmark seed drives the channel
draws: the simulated runs use the seeds ``seed * 1000 + j`` for
j = 0, 1, 2, ...  Seed 0 therefore reproduces the reference figures in
README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Channel and control settings shared by every workload: the library's
# default channel model and the desk scenario of the test suite.
RATE_FLOOR = 10.0
COMPRESSION_SET = [2 / 3, 1 / 2, 1 / 3, 1 / 4]
CONTROL_FACTOR = 8000.0
CHANNEL = {
    "obs_support": [600.0, 800.0, 1000.0],
    "obs_probs": [1 / 3, 1 / 3, 1 / 3],
    "trans_support": [0.0, 200.0, 400.0],
    "trans_probs": [1 / 3, 1 / 3, 1 / 3],
}
SOLVER = {"epsilon": 1e-3, "max_iters": 40, "step_scale": 1.0, "dual_init": 0.0}

# Sparse single-slot imaging passes against near-continuous relay
# visibility, as in the desk scenario. The plan is the same for every
# benchmark seed, so that seeds vary the channels and not the geometry.
OBS_PERIOD, OBS_DUTY = 48, 1 / 48
TRANS_PERIOD, TRANS_DUTY = 96, 0.95
PLAN_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    num_targets: int
    num_eos: int
    num_destinations: int
    transceivers: int
    horizon: int
    plan_file: bool  # read the contact plan from a file, else plan_synthetic

    @property
    def total_transceivers(self) -> int:
        return self.num_destinations * self.transceivers


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_dmrc", "dmrc", 8, 12, 2, 2, 1440, plan_file=False),
        # 120 slots keep one run near seven seconds, so that several timed
        # runs fit in one invocation.
        Workload("constellation_dmrc", "dmrc", 30, 60, 6, 4, 120, plan_file=False),
        Workload("constellation_fixed_cr", "fixed_cr", 30, 60, 6, 4, 1440, plan_file=True),
    )
}


def run_seed(seed: int, j: int) -> int:
    """Seed of the j-th simulated run of a benchmark invocation."""
    return seed * 1000 + j


def config_dict(w: Workload, seed: int) -> dict:
    cfg = {
        "num_targets": w.num_targets,
        "num_eos": w.num_eos,
        "num_destinations": w.num_destinations,
        "transceivers": w.transceivers,
        "rate_floors": RATE_FLOOR,
        "compression_set": COMPRESSION_SET,
        "control_factor": CONTROL_FACTOR,
        "slot_length": 1.0,
        "horizon": w.horizon,
        "rng_seed": run_seed(seed, 0),
        **CHANNEL,
        "solver": SOLVER,
    }
    if w.plan_file:
        cfg["plan_file"] = "plan.txt"
    else:
        cfg["plan_synthetic"] = {
            "obs_period": OBS_PERIOD,
            "obs_duty": OBS_DUTY,
            "trans_period": TRANS_PERIOD,
            "trans_duty": TRANS_DUTY,
            "offset_seed": PLAN_SEED,
        }
    return cfg


def contact_phases(w: Workload) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair window phases, drawn as the CLI's ``plan_synthetic`` draws
    them for ``offset_seed=PLAN_SEED``, so the plan file and the synthetic
    plan describe the same contacts."""
    I, K, N = w.num_targets, w.num_eos, w.num_destinations
    obs_phase = np.random.default_rng(PLAN_SEED).integers(0, OBS_PERIOD, size=(I, K))
    rng = np.random.default_rng(PLAN_SEED + 1)
    rng.integers(0, TRANS_PERIOD, size=(I, K))  # the generator's obs draw
    trans_phase = rng.integers(0, TRANS_PERIOD, size=(K, N))
    return obs_phase, trans_phase


def _visibility(phase: np.ndarray, period: int, duty: float, horizon: int) -> np.ndarray:
    """(A, B, T) visibility of pairs with the given phases."""
    window = int(round(duty * period))
    ts = np.arange(horizon)
    return ((ts[None, None, :] + phase[:, :, None]) % period) < window


def _window_lines(kind: str, vis: np.ndarray):
    """One ``kind,a,b,t_start,t_end`` line per maximal run of visible
    slots, pairs in index order."""
    A, B, T = vis.shape
    padded = np.zeros((A, B, T + 2), dtype=np.int8)
    padded[:, :, 1:-1] = vis
    step = np.diff(padded, axis=2)
    starts = np.argwhere(step == 1)  # ordered by (a, b, t)
    ends = np.argwhere(step == -1)
    for (a, b, t0), (_, _, t1) in zip(starts, ends):
        yield f"{kind},{a},{b},{t0},{t1 - 1}"


def plan_lines(w: Workload):
    obs_phase, trans_phase = contact_phases(w)
    yield f"# {w.name} contact plan, offset seed {PLAN_SEED}, horizon {w.horizon}"
    yield from _window_lines("obs", _visibility(obs_phase, OBS_PERIOD, OBS_DUTY, w.horizon))
    yield from _window_lines(
        "trans", _visibility(trans_phase, TRANS_PERIOD, TRANS_DUTY, w.horizon)
    )


def write_inputs(w: Workload, seed: int, workdir: Path) -> Path:
    """Write the config (and plan file, if the workload reads one) into
    ``workdir`` and return the config path."""
    if w.plan_file:
        with open(workdir / "plan.txt", "w", encoding="utf-8") as fh:
            for line in plan_lines(w):
                fh.write(line + "\n")
    path = workdir / "config.json"
    path.write_text(json.dumps(config_dict(w, seed), indent=1), encoding="utf-8")
    return path
