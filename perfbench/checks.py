"""Checks on a run's outputs, computed apart from the program.

Each check raises ``CheckFailed`` with a reason. The inputs are plain
arrays and CSV text, so the benchmark's tests can hand them corrupted
results. The exact optima are computed here from the problem data and
one ``scipy.optimize.linear_sum_assignment``, not by the program's
solvers.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check_conservation(flow_arrivals, delivered_last, final_data) -> None:
    """Admitted volume equals delivered plus still-queued volume."""
    admitted = math.fsum(np.ravel(flow_arrivals))
    accounted = math.fsum(np.ravel(delivered_last)) + math.fsum(np.ravel(final_data))
    err = abs(admitted - accounted) / max(1.0, abs(admitted))
    _require(
        err <= REL_TOL,
        f"volume not conserved: admitted {admitted!r}, delivered+queued {accounted!r}",
    )


def check_floors(flow_arrivals, final_deficit, floors, horizon: int) -> None:
    """Each flow's mean arrival is at least 0.99 of its floor, and its
    final deficit per slot is at most 1% of its mean arrival."""
    mean = np.asarray(flow_arrivals, dtype=float).mean(axis=0)
    floors = np.asarray(floors, dtype=float)
    slope = np.asarray(final_deficit, dtype=float) / horizon
    low = np.nonzero(mean < 0.99 * floors)[0]
    _require(low.size == 0, f"flows {low.tolist()} below 0.99 of their rate floor")
    growing = np.nonzero(slope > 0.01 * mean)[0]
    _require(
        growing.size == 0,
        f"flows {growing.tolist()} end with deficit/horizon above 1% of mean arrival",
    )


PER_SLOT_COLUMNS = [
    "t", "utility", "backlog", "virtual_backlog", "delivered_total",
    "obs_used", "obs_avail", "trans_used", "trans_avail",
]


def parse_per_slot_csv(text: str) -> dict[str, np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == PER_SLOT_COLUMNS, "per-slot CSV header differs")
    body = rows[1:]
    _require(all(len(r) == len(PER_SLOT_COLUMNS) for r in body), "ragged per-slot CSV")
    cols = list(zip(*body)) if body else [()] * len(PER_SLOT_COLUMNS)
    return {
        name: np.array(col, dtype=float)
        for name, col in zip(PER_SLOT_COLUMNS, cols)
    }


def check_per_slot_csv(
    table: dict[str, np.ndarray],
    horizon: int,
    num_targets: int,
    num_eos: int,
    total_transceivers: int,
    delivered_last: float,
    final_backlog: float,
) -> None:
    """Row count and slot index, monotone delivery, contact counts within
    availability and matching limits, and final totals that agree with
    the run's own result."""
    t = table["t"]
    _require(len(t) == horizon, f"per-slot CSV has {len(t)} rows, expected {horizon}")
    _require(np.array_equal(t, np.arange(horizon)), "per-slot CSV slots are not 0..T-1")
    _require(
        bool(np.all(np.diff(table["delivered_total"]) >= 0)),
        "delivered_total decreases",
    )
    obs_used, trans_used = table["obs_used"], table["trans_used"]
    _require(bool(np.all(obs_used <= table["obs_avail"])), "obs_used exceeds obs_avail")
    _require(
        bool(np.all(obs_used <= min(num_targets, num_eos))),
        "obs_used exceeds min(targets, satellites)",
    )
    _require(
        bool(np.all(trans_used <= table["trans_avail"])), "trans_used exceeds trans_avail"
    )
    _require(
        bool(np.all(trans_used <= total_transceivers)),
        "trans_used exceeds the transceiver total",
    )
    for name, expected in (
        ("delivered_total", delivered_last),
        ("backlog", final_backlog),
    ):
        got = float(table[name][-1])
        _require(
            math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=REL_TOL),
            f"last {name} in CSV {got!r} differs from the run's {expected!r}",
        )


def check_ledger_matchings(joc_volume, fwd_volume, transceivers) -> None:
    """From the run's ledger: per slot, each target is imaged by at most
    one satellite and each satellite images at most one target; each
    satellite forwards to at most one destination and each destination
    receives on at most its transceiver count."""
    observed = np.asarray(joc_volume) > 0  # (T, I, K)
    _require(
        int(observed.sum(axis=2).max(initial=0)) <= 1, "a target is observed twice in a slot"
    )
    _require(
        int(observed.sum(axis=1).max(initial=0)) <= 1,
        "a satellite observes two targets in a slot",
    )
    links = np.asarray(fwd_volume).sum(axis=3) > 0  # (T, K, N)
    _require(
        int(links.sum(axis=2).max(initial=0)) <= 1,
        "a satellite forwards to two destinations in a slot",
    )
    _require(
        bool(np.all(links.sum(axis=1) <= np.asarray(transceivers)[None, :])),
        "a destination exceeds its transceivers",
    )


def check_repeat(first: dict[str, np.ndarray], second: dict[str, np.ndarray]) -> None:
    """Two runs of one seed give bitwise-identical series."""
    _require(first.keys() == second.keys(), "repeated run reports other series")
    for name in first:
        a, b = np.asarray(first[name]), np.asarray(second[name])
        _require(
            a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
            f"series {name} differs between two runs of one seed",
        )


def _matching_total(weights: np.ndarray, col_multiplicity) -> float:
    """Optimal total of an optional matching: columns replicated by their
    multiplicity, nonpositive weights never used."""
    w = np.repeat(np.asarray(weights, dtype=float), col_multiplicity, axis=1)
    if w.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(np.maximum(w, 0.0), maximize=True)
    return math.fsum(x for x in w[rows, cols] if x > 0)


def josap_exact_objective(Q, P, B, v: float, ratios) -> float:
    """Per-slot optimum of the observation/compression problem: the best
    per-pair gain over the ratio set (and idling), then one matching."""
    B = np.asarray(B, dtype=float)
    pressure = np.asarray(Q, dtype=float).T - np.asarray(P, dtype=float)[:, None]
    gains = np.zeros_like(B)
    for r in ratios:
        gains = np.maximum(gains, v * np.log1p(r * B) - pressure * (r * B))
    gains = np.where(B > 0, gains, 0.0)
    return _matching_total(gains, np.ones(B.shape[1], dtype=int))


def check_josap(Q, P, B, v: float, ratios, observe, arrivals, objective: float) -> float:
    """A JOSAP result is a matching on visible pairs, its reported
    objective is the value of its own schedule, and it is at most the
    exact optimum. Returns the shortfall against the optimum, 0 when it
    is within rounding."""
    x = np.asarray(observe)
    B = np.asarray(B, dtype=float)
    _require(
        int(x.sum(axis=1).max(initial=0)) <= 1 and int(x.sum(axis=0).max(initial=0)) <= 1,
        "JOSAP schedule is not a matching",
    )
    _require(not np.any((x > 0) & (B <= 0)), "JOSAP observes without capacity")
    a = np.asarray(arrivals, dtype=float).T  # (I, K)
    pressure = np.asarray(Q, dtype=float).T - np.asarray(P, dtype=float)[:, None]
    own = math.fsum((v * np.log1p(a) - pressure * a)[x > 0])
    scale = max(1.0, abs(objective))
    _require(
        abs(own - objective) <= REL_TOL * scale,
        f"JOSAP objective {objective!r} is not its schedule's value {own!r}",
    )
    best = josap_exact_objective(Q, P, B, v, ratios)
    tol = REL_TOL * max(1.0, abs(best))
    _require(
        objective <= best + tol,
        f"JOSAP objective {objective!r} above the exact optimum {best!r}",
    )
    gap = best - objective
    return gap if gap > tol else 0.0


def check_ts(Q, C, transceivers, transmit) -> None:
    """The transmission schedule is a matching within the transceiver
    limits whose weight (each satellite's largest backlog times link
    capacity) equals the optimum on the transceiver-replicated matrix."""
    y = np.asarray(transmit)
    C = np.asarray(C, dtype=float)
    trx = np.asarray(transceivers)
    _require(int(y.sum(axis=1).max(initial=0)) <= 1, "TS sends one satellite twice")
    _require(bool(np.all(y.sum(axis=0) <= trx)), "TS exceeds a transceiver limit")
    weights = np.asarray(Q, dtype=float).max(axis=1)[:, None] * C
    chosen = math.fsum(weights[y > 0])
    best = _matching_total(weights, trx)
    _require(
        math.isclose(chosen, best, rel_tol=REL_TOL, abs_tol=REL_TOL),
        f"TS matching weight {chosen!r} differs from the optimum {best!r}",
    )
