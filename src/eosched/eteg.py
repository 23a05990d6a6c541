"""Time-expanded graph ledger and flow-conservation audit.

One layer per slot. Observation and compression collapse into a single
joint edge per visible target-satellite pair carrying the compressed
volume; store edges connect each satellite's buffer across consecutive
slots (infinite buffer); forward edges carry delivered volume on visible
satellite-destination pairs. Stored volume is defined as the residual of
what entered a buffer minus what left it, so conservation holds by
construction and the audit catches any bookkeeping corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dmrc import SlotDecision
from .errors import ConsistencyError, DimensionError
from .scenario import ContactPlan


@dataclass
class Eteg:
    """Edge structure and realized per-flow volumes over the horizon.

    store_volume[s] is the volume carried across the boundary into slot
    s: index 0 is the empty pre-horizon boundary and index T holds
    whatever remains after the last slot.
    """

    obs_visible: np.ndarray     # (T, I, K) bool
    trans_visible: np.ndarray   # (T, K, N) bool
    obs_capacity: np.ndarray    # (T, I, K) Mbit/slot
    trans_capacity: np.ndarray  # (T, K, N)
    joc_volume: np.ndarray      # (T, I, K) compressed volume injected
    fwd_volume: np.ndarray      # (T, K, N, I) volume delivered per flow
    store_volume: np.ndarray    # (T+1, K, I) buffered volume per flow

    @property
    def horizon(self) -> int:
        return self.obs_visible.shape[0]

    def joc_edge_count(self) -> int:
        return int(self.obs_visible.sum())

    def fwd_edge_count(self) -> int:
        return int(self.trans_visible.sum())

    def total_injected(self) -> float:
        return float(self.joc_volume.sum())

    def total_delivered(self) -> float:
        return float(self.fwd_volume.sum())


@dataclass(frozen=True)
class ConservationReport:
    """Outcome of the per-(flow, satellite, slot) balance audit."""

    max_residual: float
    max_relative: float
    violations: list = field(default_factory=list)  # (i, k, t) triples

    @property
    def ok(self) -> bool:
        return not self.violations


def build_eteg(plan: ContactPlan, states) -> Eteg:
    """Assemble the graph for a contact plan and its sampled capacities.

    Edge sets mirror visibility exactly and share the plan's arrays; all
    realized volumes start at zero. ``states`` must provide one capacity
    pair per slot.
    """
    T, I, K = plan.obs_visible.shape
    N = plan.trans_visible.shape[2]
    if len(states) != T:
        raise DimensionError(
            f"expected {T} channel states, got {len(states)}"
        )
    obs_cap = np.stack([s.B for s in states])
    trans_cap = np.stack([s.C for s in states])
    if obs_cap.shape != (T, I, K) or trans_cap.shape != (T, K, N):
        raise DimensionError("channel state shapes do not match the plan")

    return Eteg(
        obs_visible=plan.obs_visible,
        trans_visible=plan.trans_visible,
        obs_capacity=obs_cap,
        trans_capacity=trans_cap,
        joc_volume=np.zeros((T, I, K)),
        fwd_volume=np.zeros((T, K, N, I)),
        store_volume=np.zeros((T + 1, K, I)),
    )


def record_decision(
    g: Eteg,
    t: int,
    decision: SlotDecision,
    shipped,
    stored: np.ndarray,
) -> None:
    """Write one slot's realized volumes into the ledger.

    ``shipped`` holds the physically delivered volume of each of the
    decision's links, in their order; it may be less than the scheduled
    service when a queue runs dry, and is 0 on a link without a flow.
    ``stored`` is the (K, I) buffer content carried into slot t+1. Only
    the picks' and links' cells of slot t are written, so each slot is
    recorded once, into the zeros ``build_eteg`` left.
    """
    if not (0 <= t < g.horizon):
        raise DimensionError(f"slot {t} outside horizon {g.horizon}")
    if len(shipped) != len(decision.links):
        raise DimensionError("expected one shipped volume per link")
    stored = np.asarray(stored, dtype=float)

    visible = g.obs_visible[t]
    for i, k, _, a in decision.picks:
        if a > 0 and not visible[i, k]:
            raise ConsistencyError(
                f"slot {t}: volume on nonexistent observation edge ({i},{k})"
            )
    visible = g.trans_visible[t]
    for (k, n, _, _), s in zip(decision.links, shipped):
        if s > 0 and not visible[k, n]:
            raise ConsistencyError(
                f"slot {t}: volume on nonexistent forward edge ({k},{n})"
            )
    if (stored < 0).any():
        raise ConsistencyError(f"slot {t}: negative stored volume")

    joc, fwd = g.joc_volume[t], g.fwd_volume[t]
    for i, k, _, a in decision.picks:
        joc[i, k] = a
    for (k, n, f, _), s in zip(decision.links, shipped):
        if f is not None:
            fwd[k, n, f] = s
    g.store_volume[t + 1] = stored


def check_flow_conservation(
    g: Eteg, tolerance: float | None = None
) -> ConservationReport:
    """Audit the balance at every (flow, satellite, slot):

        injected + stored_in == delivered + stored_out.

    The default tolerance is 1e-9 times the largest edge capacity.
    Returns the worst absolute residual, the residual relative to that
    capacity scale, and all (i, k, t) triples beyond tolerance.
    """
    T = g.horizon
    injected = np.transpose(g.joc_volume, (0, 2, 1))  # (T, K, I)
    delivered = g.fwd_volume.sum(axis=2)              # (T, K, I)
    residual = injected + g.store_volume[:T] - delivered - g.store_volume[1:]

    cap_scale = max(
        float(g.obs_capacity.max(initial=0.0)),
        float(g.trans_capacity.max(initial=0.0)),
        1.0,
    )
    tol = tolerance if tolerance is not None else 1e-9 * cap_scale
    max_residual = float(np.max(np.abs(residual))) if residual.size else 0.0

    violations = [
        (int(i), int(k), int(t))
        for t, k, i in np.argwhere(np.abs(residual) > tol)
    ]
    return ConservationReport(
        max_residual=max_residual,
        max_relative=max_residual / cap_scale,
        violations=violations,
    )


def write_edge_dump(g: Eteg, fh) -> None:
    """Write the ledger as text, one `type,t,endpoints,capacity,flow,volume`
    line per edge-flow pair of nonzero volume; store edges have unbounded
    capacity."""
    T = g.horizon
    for t in range(T):
        for i, k in np.argwhere(g.obs_visible[t]):
            vol = g.joc_volume[t, i, k]
            if vol:
                fh.write(
                    f"joc,{t},{i}-{k},{g.obs_capacity[t, i, k]:.12g},{i},{vol:.12g}\n"
                )
        for k, n in np.argwhere(g.trans_visible[t]):
            for i in range(g.fwd_volume.shape[3]):
                vol = g.fwd_volume[t, k, n, i]
                if vol:
                    fh.write(
                        f"fwd,{t},{k}-{n},{g.trans_capacity[t, k, n]:.12g},{i},{vol:.12g}\n"
                    )
    for s in range(T + 1):
        for k in range(g.store_volume.shape[1]):
            for i in range(g.store_volume.shape[2]):
                vol = g.store_volume[s, k, i]
                if vol:
                    fh.write(f"store,{s},{k},inf,{i},{vol:.12g}\n")
