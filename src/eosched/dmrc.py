"""Per-slot scheduling policies.

The DMRC policy greedily minimizes a drift-plus-penalty expression each
slot, which splits into two independent subproblems:

* observation scheduling with adaptive compression (JOSAP), solved by
  Lagrangian dual decomposition: a closed form gives each pair's ideal
  arrival volume, a max-weight matching picks the observation schedule,
  and a subgradient step updates the link-capacity multipliers;
* transmission scheduling (TS), a max-weight matching of satellites to
  destination transceivers weighted by backlog times link capacity.

Random and Fixed-CR baselines share the same decision format. An exact
JOSAP solver (separable gains plus one matching) serves as the quality
oracle for the dual loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .assignment import (
    AssignmentProblem,
    _assign,
    _star_forest,
    _star_matching,
    max_weight_assignment,
)
from .errors import ConfigError, ParameterError, ScheduleValidationError
from .scenario import ChannelState, NetworkConfig, _finite, _integer


@dataclass(frozen=True)
class SolverParams:
    """Dual-loop controls for the JOSAP solver.

    The step size at iteration l is ``step_scale / l``: square summable
    but not absolutely summable, as the subgradient method requires.
    ``epsilon`` stops the loop once no multiplier moves by more than it.
    """

    epsilon: float = 1e-3
    max_iters: int = 40
    step_scale: float = 1.0
    dual_init: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "step_scale", "dual_init"):
            object.__setattr__(
                self, name, _finite(getattr(self, name), name, ParameterError)
            )
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if self.step_scale <= 0:
            raise ParameterError("step_scale must be positive")
        if self.dual_init < 0:
            raise ParameterError("dual_init must be nonnegative")
        max_iters = _integer(self.max_iters, "max_iters", 1, error=ParameterError)
        object.__setattr__(self, "max_iters", max_iters)


def _view(shape, cells, dtype=float) -> np.ndarray:
    """A read-only dense array of zeros with each ``(index, value)`` cell
    added; a repeated index adds up, so a repeated pick reads as 2."""
    dense = np.zeros(shape, dtype=dtype)
    for index, value in cells:
        dense[index] += value
    dense.flags.writeable = False
    return dense


class _PickViews:
    """Dense read-only views of ``picks``, (target, satellite, ratio,
    arrival volume) tuples, over the (I, K) of ``shape[:2]``. Each view
    is built anew on every read."""

    @property
    def observe(self) -> np.ndarray:
        """(I, K) binary, target i imaged by satellite k."""
        return _view(self.shape[:2], (((i, k), 1) for i, k, _, _ in self.picks), int)

    @property
    def rho(self) -> np.ndarray:
        """(I, K) compression ratio on the picks, 0 elsewhere."""
        return _view(self.shape[:2], (((i, k), r) for i, k, r, _ in self.picks))

    @property
    def arrivals(self) -> np.ndarray:
        """(K, I) compressed volume entering each data queue."""
        I, K = self.shape[:2]
        return _view((K, I), (((k, i), a) for i, k, _, a in self.picks))


@dataclass(frozen=True)
class SlotDecision(_PickViews):
    """One slot's complete resource allocation, as sparse lists.

    picks : (target i, satellite k, ratio, arrival volume) per observed
        pair; the arrival volume is ratio * B[i, k].
    links : (satellite k, destination n, flow, scheduled volume) per
        transmission link; the flow is None where the link serves no
        flow, and its volume is then 0.
    shape : (I, K, N).

    ``observe``, ``rho``, ``arrivals``, ``transmit`` and ``service`` are
    dense read-only views of the lists, built on every read for callers
    that need arrays (tests, ``record_history``); the simulator's
    per-slot work reads only the lists.
    """

    picks: list
    links: list
    shape: tuple[int, int, int]

    @property
    def transmit(self) -> np.ndarray:
        """(K, N) binary, satellite k downlinks to destination n."""
        return _view(self.shape[1:], (((k, n), 1) for k, n, _, _ in self.links), int)

    @property
    def service(self) -> np.ndarray:
        """(K, N, I) volume scheduled for delivery per flow."""
        I, K, N = self.shape
        return _view((K, N, I), (
            ((k, n, f), s) for k, n, f, s in self.links if f is not None
        ))


@dataclass(frozen=True)
class JosapResult(_PickViews):
    """Observation schedule with compression choices from the dual loop:
    the best iteration's picks over the (I, K) ``shape``, with the dense
    views ``observe``, ``rho`` and ``arrivals``."""

    picks: list
    shape: tuple[int, int]
    objective: float
    iterations: int
    converged: bool
    duals: np.ndarray     # (I, K) final multipliers


@dataclass(frozen=True)
class JosapSolution(_PickViews):
    """Exact optimum of the per-slot observation/compression problem, as
    picks over the (I, K) ``shape`` with the same dense views."""

    picks: list
    shape: tuple[int, int]
    objective: float


def optimal_arrival(chi: float, v: float, cap: float) -> float:
    """Closed-form arrival volume maximizing ``v*ln(1+A) - chi*A`` over
    [0, cap].

    Zero when the marginal cost ``chi`` already exceeds the utility slope
    at A=0; the full cap when the slope at the cap still beats ``chi``;
    otherwise the interior stationary point ``v/chi - 1``.
    """
    if v <= 0:
        raise ParameterError("control factor must be positive")
    if cap < 0:
        raise ParameterError("cap must be nonnegative")
    return _arrival(chi, v, float(cap))


def _arrival(chi: float, v: float, cap: float) -> float:
    """``optimal_arrival`` for a valid ``v`` and a float ``cap``."""
    if chi >= v:
        return 0.0
    if chi <= v / (1.0 + cap):
        return cap
    # Here chi > v / (1 + cap) >= 0, so the division is safe.
    interior = v / chi - 1.0
    return 0.0 if interior < 0.0 else min(interior, cap)


def project_ratio(
    a_star: float, b: float, ratios, v: float, chi: float
) -> float:
    """Best discrete compression ratio for one matched pair.

    ``a_star`` is the continuous optimum that motivates the projection;
    the choice itself re-evaluates ``v*ln(1+rho*b) - chi*rho*b`` exactly
    over the allowed set plus 0, so it is never worse than rounding
    ``a_star/b`` to the nearest ratio. Ties go to the larger ratio.
    """
    if b <= 0:
        raise ParameterError("observation capacity must be positive")
    return _pick_ratio(_ratio_table(ratios, v, b), chi, b)[0]


def _ratio_table(ratios, v: float, b: float) -> list[tuple[float, float]]:
    """The ratios in ascending order with their terms ``v*log1p(rho*b)``."""
    return [(rho, v * math.log1p(rho * b)) for rho in sorted(ratios)]


def _pick_ratio(table, chi: float, b: float) -> tuple[float, float]:
    """``project_ratio``'s pick from a ``_ratio_table``, with its term."""
    best_rho = best_term = best_val = 0.0
    for rho, term in table:
        val = term - chi * rho * b
        if val >= best_val:
            best_rho, best_term, best_val = rho, term, val
    return best_rho, best_term


def observation_matching(alpha: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Binary observation schedule maximizing the multiplier-weighted
    capacity, with at most one satellite per target and one target per
    satellite."""
    weights = np.asarray(alpha, dtype=float) * np.asarray(B, dtype=float)
    problem = AssignmentProblem(weights, (1,) * weights.shape[1])
    matching, _ = max_weight_assignment(problem)
    x = np.zeros(weights.shape, dtype=int)
    for i, k in matching:
        x[i, k] = 1
    return x


def _pair_pressure(Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(I, K) marginal cost of admitting volume on each pair: backlog on
    the receiving queue minus that flow's rate-floor deficit credit."""
    return Q.T - P[:, None]


def josap_solve(
    Q: np.ndarray,
    P: np.ndarray,
    B: np.ndarray,
    config: NetworkConfig,
    params: SolverParams | None = None,
) -> JosapResult:
    """Dual-decomposition solver for joint observation scheduling and
    compression selection.

    Each iteration computes the closed-form arrivals for the current
    multipliers, re-solves the observation matching, and takes a
    subgradient step on the link-capacity multipliers (clipped at zero).
    Every iteration's matching is completed into a feasible schedule and
    scored; the best-scoring one is returned, so an oscillating dual
    still yields a good primal answer. ``converged`` reports whether the
    multiplier change dropped below ``epsilon`` before ``max_iters``.

    Only pairs with positive capacity take part. A pair with B == 0 has
    a cap of 0, a free arrival of 0 and a subgradient of 0, so its
    multiplier stays at ``dual_init``, and its weight of 0 is never
    matched. The loop therefore keeps the visible pairs' multipliers,
    arrivals and ratio tables (``_ratio_table``) as plain floats, in
    row-major order, updated in one pass per iteration. Pairs sharing no
    target and no satellite are matched where their weight is positive,
    stars by the matcher's closed form (``_star_matching``), and the rest
    by the matcher's core, ``_assign``, on the whole (I, K) matrix. A
    ``dual_init`` whose product with some capacity overflows is rejected
    before the first iteration.
    """
    params = params or SolverParams()
    v = config.control_factor
    ratios = config.compression_set
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if not ((B >= 0) & (B < math.inf)).all():
        raise ParameterError("observation capacities must be finite and nonnegative")

    # Flat (row-major) indices of the visible pairs, their rows and columns.
    visible = np.flatnonzero(B > 0)
    rows, cols = (index.tolist() for index in np.divmod(visible, B.shape[1]))
    b_vis = B.take(visible).tolist()
    pressure = _pair_pressure(Q, P).take(visible).tolist()
    caps = [ratios[0] * b for b in b_vis]
    # Products round monotonically, so the largest capacity gives the
    # largest initial weight.
    if params.dual_init * max(b_vis, default=0.0) == math.inf:
        raise ParameterError("dual_init times a capacity must be finite")
    alpha = [params.dual_init] * len(b_vis)
    # The matching weights alpha_j * B_j, the products the matcher sees.
    weights = [a * b for a, b in zip(alpha, b_vis)]
    tables = [_ratio_table(ratios, v, b) for b in b_vis]
    free = [_arrival(a + p, v, cap) for a, p, cap in zip(alpha, pressure, caps)]

    # The visible pairs' stars, or None where a pair shares its target and
    # satellite. The matcher sees the whole (I, K) matrix, as its first
    # solve is not invariant under zero padding on near-ties (`_assign`).
    ones = (1,) * B.shape[1]
    stars = _star_forest(rows, cols, ones)
    matrix, pairs = np.zeros(B.shape), list(zip(rows, cols))

    best_obj, best, converged = -math.inf, None, False
    for l in range(1, params.max_iters + 1):
        matched = [w > 0.0 for w in weights] if stars == [] else None
        if stars:
            matched = _star_matching(weights, stars)
        if matched is None:
            if math.inf in weights:
                raise ConfigError("weights must be finite")
            matrix.put(visible, weights)
            live = [w > 0.0 for w in weights]
            lr, lc = list(compress(rows, live)), list(compress(cols, live))
            lw, shape = list(compress(weights, live)), stars
            if not all(live):
                # Multipliers clipped to zero can leave the rest in stars.
                n_r, n_c = [0] * B.shape[0], [0] * B.shape[1]
                for r, c in zip(lr, lc):
                    n_r[r] += 1
                    n_c[c] += 1
                if all(n_r[r] < 2 or n_c[c] < 2 for r, c in zip(lr, lc)):
                    shape = _star_forest(lr, lc, ones)
            chosen = set(_assign(matrix, ones, lr, lc, lw, shape)[0])
            matched = list(map(chosen.__contains__, pairs))

        # One pass in row-major order: complete each matched pair into a
        # ratio choice scored with the true subproblem objective, and take
        # the subgradient step (clipped at zero) and the next arrival.
        step = params.step_scale / l
        picks = []
        obj = delta = 0.0
        for j, m in enumerate(matched):
            b, a_j, p_j = b_vis[j], alpha[j], pressure[j]
            if m:
                # Charging a_j per Mbit on top of the pressure sets the ratios' V trend.
                r, term = _pick_ratio(tables[j], a_j + p_j, b)
                volume = r * b
                picks.append((rows[j], cols[j], r, volume))
                obj += term - p_j * volume
            moved = a_j - step * ((b if m else 0.0) - free[j])
            moved = moved if moved > 0.0 else 0.0
            change = abs(moved - a_j)
            delta = change if change > delta else delta
            alpha[j] = moved
            weights[j] = moved * b
            free[j] = _arrival(moved + p_j, v, caps[j])
        if obj > best_obj:
            best_obj = obj
            best = picks
        if delta < params.epsilon:
            converged = True
            break

    duals = np.full_like(B, params.dual_init)
    duals.put(visible, alpha)
    return JosapResult(
        picks=best,
        shape=B.shape,
        objective=best_obj,
        iterations=l,
        converged=converged,
        duals=duals,
    )


def josap_exact(
    Q: np.ndarray, P: np.ndarray, B: np.ndarray, config: NetworkConfig
) -> JosapSolution:
    """Exact optimum of the observation/compression subproblem.

    Given the matching, the objective separates per pair, so each pair's
    gain is the best achievable over the discrete ratio set; one
    max-weight matching over those gains is then globally optimal.
    Polynomial in I*K*len(ratios), no enumeration needed.
    """
    v = config.control_factor
    B = np.asarray(B, dtype=float)
    pressure = _pair_pressure(np.asarray(Q, dtype=float), np.asarray(P, dtype=float))

    # Candidate ratios in descending order; ties prefer the larger ratio
    # and any positive ratio beats the idle 0 on equal value.
    cands = list(config.compression_set) + [0.0]
    vals = np.stack(
        [v * np.log1p(r * B) - pressure * (r * B) for r in cands], axis=0
    )
    pick = np.argmax(vals, axis=0)
    gains = np.take_along_axis(vals, pick[None], axis=0)[0]
    gains = np.where(B > 0, gains, 0.0)

    problem = AssignmentProblem(gains, (1,) * B.shape[1])
    matching, objective = max_weight_assignment(problem)

    picks = []
    for i, k in matching:
        r = cands[pick[i, k]]
        picks.append((i, k, r, r * B.item(i, k)))
    return JosapSolution(picks, B.shape, objective=objective)


def _transmission(
    weights: np.ndarray, Q: np.ndarray, C: np.ndarray, config: NetworkConfig
) -> list:
    """The links of a max-weight matching of satellites to destination
    transceivers, as ``SlotDecision.links``: each matched link serves its
    satellite's most backlogged flow (ties to the lowest flow index) at
    full capacity."""
    matching, _ = max_weight_assignment(AssignmentProblem(weights, config.transceivers))
    top_flow = np.argmax(Q, axis=1).tolist()
    return [(k, n, top_flow[k], C.item(k, n)) for k, n in matching]


def ts_solve(
    Q: np.ndarray, C: np.ndarray, config: NetworkConfig
) -> tuple[np.ndarray, list]:
    """The (K, N) binary transmission schedule and its links, as
    ``SlotDecision.links``.

    Each satellite offers its most backlogged flow; link weights are that
    backlog times the link capacity. A max-weight matching under the
    one-destination-per-satellite and per-destination transceiver limits
    is then optimal, and each matched link serves its offered flow at
    full capacity.
    """
    Q = np.asarray(Q, dtype=float)
    C = np.asarray(C, dtype=float)
    links = _transmission(Q.max(axis=1)[:, None] * C, Q, C, config)
    y = np.zeros(C.shape, dtype=int)
    for k, n, _, _ in links:
        y[k, n] = 1
    return y, links


def dmrc_step(
    queues,
    channels: ChannelState,
    config: NetworkConfig,
    params: SolverParams | None = None,
) -> SlotDecision:
    """One full DMRC decision: observation/compression via the dual
    solver, transmission via backlog-weighted matching."""
    j = josap_solve(queues.data, queues.deficit, channels.B, config, params)
    _, links = ts_solve(queues.data, channels.C, config)
    return SlotDecision(j.picks, links, channels.B.shape + channels.C.shape[1:])


def random_schedule(
    queues,
    channels: ChannelState,
    config: NetworkConfig,
    rng: np.random.Generator,
    obs_visible: np.ndarray | None = None,
    trans_visible: np.ndarray | None = None,
) -> SlotDecision:
    """Baseline: uniformly random feasible schedules.

    Rows are visited in random order; each picks uniformly among its
    still-feasible visible partners plus the "stay idle" option, blind to
    the realized capacities. Compression ratios are uniform over the
    allowed set, and each matched link serves one uniformly chosen flow
    with positive backlog. Without explicit visibility masks, positive
    capacity stands in for visibility.
    """
    B, C = channels.B, channels.C
    I, K = B.shape
    N = C.shape[1]
    if obs_visible is None:
        obs_visible = B > 0
    if trans_visible is None:
        trans_visible = C > 0

    ratios = config.compression_set
    picks = []
    used_eos = np.zeros(K, dtype=bool)
    for i in rng.permutation(I).tolist():
        options = [k for k in range(K) if obs_visible[i, k] and not used_eos[k]]
        pick = rng.integers(0, len(options) + 1)
        if pick < len(options):
            k = options[pick]
            used_eos[k] = True
            r = ratios[rng.integers(0, len(ratios))]
            picks.append((i, k, r, r * B.item(i, k)))

    links = []
    slots_left = list(config.transceivers)
    for k in rng.permutation(K).tolist():
        options = [n for n in range(N) if trans_visible[k, n] and slots_left[n] > 0]
        pick = rng.integers(0, len(options) + 1)
        if pick < len(options):
            n = options[pick]
            slots_left[n] -= 1
            backlogged = np.nonzero(queues.data[k] > 0)[0]
            if backlogged.size:
                i = int(backlogged[rng.integers(0, backlogged.size)])
                links.append((k, n, i, C.item(k, n)))
            else:
                links.append((k, n, None, 0.0))

    return SlotDecision(picks, links, (I, K, N))


def fixed_cr_schedule(
    queues, channels: ChannelState, config: NetworkConfig
) -> SlotDecision:
    """Baseline: max-weight matchings on raw capacities with the smallest
    allowed compression ratio on every matched pair (1/4 under the
    default ratio set). Service goes to each satellite's most backlogged
    flow, like DMRC's transmission stage."""
    B, C = channels.B, channels.C
    matching, _ = max_weight_assignment(AssignmentProblem(B, (1,) * B.shape[1]))
    fixed = config.compression_set[-1]
    picks = [(i, k, fixed, fixed * B.item(i, k)) for i, k in matching]
    # Raw capacities weigh the links, so not ts_solve, which weighs by backlog.
    links = _transmission(C, queues.data, C, config)
    return SlotDecision(picks, links, B.shape + C.shape[1:])


def validate_decision(
    decision: SlotDecision,
    config: NetworkConfig,
    channels: ChannelState,
    obs_visible: np.ndarray,
    trans_visible: np.ndarray,
) -> None:
    """Check every scheduling constraint; raise on the first violation.

    Reads only the decision's picks and links, in plain Python, so its
    time grows with their number and not with the (I, K, N) shape. The
    checks, in order: no pair picked and no link scheduled twice
    ("schedules must be binary"); picks and links on visible contacts;
    one target per satellite and vice versa; one destination per
    satellite; the per-destination transceiver limits; finite,
    nonnegative service within its link's capacity; ratios drawn from
    the allowed set; and arrival volumes equal to ratio times capacity.
    On the dense views each check raises exactly where the dense form of
    the same rule would, in the same order; a ratio on an unscheduled
    pair cannot be stated in picks.
    """
    picks, links = decision.picks, decision.links
    pairs = [(i, k) for i, k, _, _ in picks]
    edges = [(k, n) for k, n, _, _ in links]
    if len(set(pairs)) < len(pairs) or len(set(edges)) < len(edges):
        raise ScheduleValidationError("schedules must be binary")
    if not all(obs_visible[pair] for pair in pairs):
        raise ScheduleValidationError("observation scheduled outside a contact")
    if not all(trans_visible[edge] for edge in edges):
        raise ScheduleValidationError("transmission scheduled outside a contact")
    if len({k for _, k in pairs}) < len(pairs):
        raise ScheduleValidationError("satellite observes more than one target")
    if len({i for i, _ in pairs}) < len(pairs):
        raise ScheduleValidationError("target observed by more than one satellite")
    if len({k for k, _ in edges}) < len(edges):
        raise ScheduleValidationError("satellite transmits to more than one destination")
    destinations = [n for _, n in edges]
    if any(destinations.count(n) > config.transceivers[n] for n in destinations):
        raise ScheduleValidationError("destination transceiver limit exceeded")

    volumes = [s for _, _, _, s in links]
    if not all(map(math.isfinite, volumes)):
        raise ScheduleValidationError("non-finite service volume")
    if min(volumes, default=0.0) < 0:
        raise ScheduleValidationError("negative service volume")
    C = channels.C
    over = [(s, C[k, n]) for k, n, _, s in links if s > C[k, n]]
    # The slack reads all of C, so only once some link is over capacity.
    if over:
        slack = 1e-9 * max(1.0, float(C.max(initial=0.0)))
        if any(s > c + slack for s, c in over):
            raise ScheduleValidationError("service exceeds scheduled link capacity")

    # Both closeness tests are np.isclose's rule, |a - b| <= atol + rtol *
    # |b| (rtol 1e-5 for the ratios). The allowed ratios are finite and
    # nonnegative. A ratio of 0 is always allowed.
    allowed = config.compression_set + (0.0,)
    for _, _, r, _ in picks:
        if r != 0.0 and not any(abs(r - a) <= 1e-12 + 1e-5 * a for a in allowed):
            raise ScheduleValidationError("compression ratio outside the allowed set")

    B = channels.B
    for i, k, r, a in picks:
        expected = r * B[i, k]
        close = abs(a - expected) <= 1e-9 + 1e-9 * abs(expected)
        if not (close and math.isfinite(expected) or a == expected):
            raise ScheduleValidationError(
                "arrivals inconsistent with schedule, ratio and capacity"
            )
