import itertools
import math
import re
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eosched import dmrc
from eosched import (
    ChannelState,
    ParameterError,
    QueueState,
    ScheduleValidationError,
    SlotDecision,
    SolverParams,
    dmrc_step,
    fixed_cr_schedule,
    josap_exact,
    josap_solve,
    observation_matching,
    optimal_arrival,
    project_ratio,
    random_schedule,
    ts_solve,
    validate_decision,
)
from conftest import make_config

RATIOS = (2 / 3, 1 / 2, 1 / 3, 1 / 4)


def queues(q, p):
    return QueueState(data=np.asarray(q, dtype=float), deficit=np.asarray(p, dtype=float))


def grid_maximum(v, chi, cap, points=20_001, stages=3):
    """Independent check of the closed form: refining grid search over
    [0, cap], narrowing around the incumbent until the spacing makes the
    objective error negligible."""
    lo, hi = 0.0, cap
    best_a, best_f = 0.0, 0.0
    for _ in range(stages):
        a = np.linspace(lo, hi, points)
        f = v * np.log1p(a) - chi * a
        idx = int(np.argmax(f))
        best_a, best_f = float(a[idx]), float(f[idx])
        step = (hi - lo) / (points - 1)
        lo, hi = max(0.0, best_a - step), min(cap, best_a + step)
        if hi <= lo:
            break
    return best_a, best_f


class TestOptimalArrival:
    def test_high_cost_idles(self):
        assert optimal_arrival(8000.0, 8000.0, 400.0) == 0.0
        assert optimal_arrival(9500.0, 8000.0, 123.0) == 0.0

    def test_low_cost_saturates(self):
        # 10 <= 8000 / 401, so the cap is optimal.
        assert optimal_arrival(10.0, 8000.0, 400.0) == 400.0

    def test_interior_stationary_point(self):
        assert optimal_arrival(100.0, 8000.0, 400.0) == pytest.approx(79.0)

    def test_negative_cost_saturates(self):
        assert optimal_arrival(-250.0, 8000.0, 400.0) == 400.0

    def test_zero_cap(self):
        assert optimal_arrival(5.0, 8000.0, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            optimal_arrival(1.0, 0.0, 10.0)
        with pytest.raises(ParameterError):
            optimal_arrival(1.0, 10.0, -1.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            v = float(rng.uniform(100, 20000))
            chi = float(rng.uniform(-v, 2 * v))
            cap = float(rng.uniform(0, 1000))
            a = optimal_arrival(chi, v, cap)
            _, f_grid = grid_maximum(v, chi, cap)
            f_closed = v * math.log1p(a) - chi * a
            assert abs(f_closed - f_grid) <= 1e-6


class TestProjectRatio:
    def test_reference_case(self):
        # Discrete objectives: 25138 > 22426 > 15657 > 7952 > 0.
        assert project_ratio(79.0 / 600.0, 600.0, RATIOS, 8000.0, 100.0) == 0.25

    def test_idle_when_cost_dominates(self):
        assert project_ratio(0.0, 600.0, RATIOS, 8000.0, 9000.0) == 0.0

    def test_singleton_set_with_negative_cost(self):
        assert project_ratio(1.0, 600.0, (0.25,), 8000.0, -1e6) == 0.25

    def test_free_volume_takes_largest_ratio(self):
        assert project_ratio(1.0, 600.0, RATIOS, 8000.0, 0.0) == 2 / 3

    def test_ties_go_to_the_larger_ratio_and_over_idle(self):
        # At chi = 0 a pick's value is its term. Equal terms go to the
        # larger ratio, the later one in the ascending table, and a term
        # of 0.0 ties with idle and still takes its ratio.
        assert dmrc._pick_ratio([(0.25, 5.0), (0.5, 5.0)], 0.0, 600.0) == (0.5, 5.0)
        assert dmrc._pick_ratio([(0.25, 0.0)], 0.0, 600.0) == (0.25, 0.0)

    def test_requires_positive_capacity(self):
        with pytest.raises(ParameterError):
            project_ratio(0.0, 0.0, RATIOS, 8000.0, 1.0)

    def test_beats_nearest_value_rounding(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = float(rng.choice((600.0, 800.0, 1000.0)))
            chi = float(rng.uniform(-50, 200))
            v = 8000.0
            rho = project_ratio(0.0, b, RATIOS, v, chi)
            chosen = v * math.log1p(rho * b) - chi * rho * b
            for alt in RATIOS + (0.0,):
                alt_val = v * math.log1p(alt * b) - chi * alt * b
                assert chosen >= alt_val - 1e-9


class TestObservationMatching:
    def test_single_positive_pair(self):
        alpha = np.array([[2.0]])
        b = np.array([[500.0]])
        assert observation_matching(alpha, b)[0, 0] == 1

    def test_diagonal_instance(self):
        alpha = np.array([[3.0, 1.0], [1.0, 3.0]])
        b = np.ones((2, 2))
        x = observation_matching(alpha, b)
        assert np.array_equal(x, np.eye(2, dtype=int))

    def test_zero_multipliers_idle(self):
        x = observation_matching(np.zeros((3, 4)), np.full((3, 4), 800.0))
        assert x.sum() == 0

    def test_output_is_binary_with_row_col_limits(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            alpha = rng.uniform(0, 5, size=(4, 5))
            b = rng.choice((0.0, 600.0, 800.0), size=(4, 5))
            x = observation_matching(alpha, b)
            assert set(np.unique(x)) <= {0, 1}
            assert x.sum(axis=0).max() <= 1
            assert x.sum(axis=1).max() <= 1


def enumerate_josap(Q, P, B, config):
    """Exhaustive oracle: every feasible matching crossed with every ratio
    combination for its matched pairs."""
    I, K = B.shape
    v = config.control_factor
    best = 0.0

    def matchings(i, used):
        if i == I:
            yield []
            return
        for rest in matchings(i + 1, used):
            yield rest
        for k in range(K):
            if k not in used and B[i, k] > 0:
                for rest in matchings(i + 1, used | {k}):
                    yield [(i, k)] + rest

    for matching in matchings(0, frozenset()):
        if not matching:
            continue
        for combo in itertools.product(config.compression_set + (0.0,), repeat=len(matching)):
            total = 0.0
            for (i, k), rho in zip(matching, combo):
                a = rho * B[i, k]
                total += v * math.log1p(a) + (P[i] - Q[k, i]) * a
            best = max(best, total)
    return best


class TestJosapExact:
    def test_no_visibility_idles(self):
        cfg = make_config(num_targets=2, num_eos=2)
        sol = josap_exact(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), cfg)
        assert sol.observe.sum() == 0 and sol.objective == 0.0

    def test_deep_backlog_idles(self):
        cfg = make_config(num_targets=1, num_eos=1)
        sol = josap_exact(np.array([[50000.0]]), np.zeros(1), np.array([[600.0]]), cfg)
        assert sol.observe.sum() == 0
        assert sol.rho[0, 0] == 0.0

    def test_empty_queues_take_largest_ratio(self):
        cfg = make_config(num_targets=1, num_eos=1)
        sol = josap_exact(np.zeros((1, 1)), np.zeros(1), np.array([[600.0]]), cfg)
        assert sol.observe[0, 0] == 1
        assert sol.rho[0, 0] == pytest.approx(2 / 3)
        assert sol.objective == pytest.approx(8000 * math.log1p(400.0))

    def test_floor_deficit_encourages_arrivals(self):
        # At Q=9000 the backlog pressure idles the pair; a large enough
        # rate-floor deficit offsets it and the pair is matched again.
        cfg = make_config(num_targets=1, num_eos=1)
        idle_q = 9000.0
        no_deficit = josap_exact(np.array([[idle_q]]), np.zeros(1), np.array([[600.0]]), cfg)
        with_deficit = josap_exact(
            np.array([[idle_q]]), np.array([8900.0]), np.array([[600.0]]), cfg
        )
        assert no_deficit.observe.sum() == 0
        assert with_deficit.observe.sum() == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_full_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        I, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        cfg = make_config(num_targets=I, num_eos=K)
        B = rng.choice((0.0, 600.0, 800.0, 1000.0), size=(I, K))
        Q = rng.uniform(0, 15000, size=(K, I))
        P = rng.uniform(0, 8000, size=I)
        sol = josap_exact(Q, P, B, cfg)
        expected = enumerate_josap(Q, P, B, cfg)
        assert sol.objective == pytest.approx(expected, rel=1e-12, abs=1e-9)


def dense_josap_reference(Q, P, B, cfg, params):
    """The dual loop over the whole (I, K) matrices, one numpy step per
    formula, with one ``observation_matching`` call on the whole matrix
    every iteration: the reference that ``josap_solve`` must match bit
    for bit."""
    v, ratios = cfg.control_factor, cfg.compression_set
    cap = ratios[0] * B
    pressure = Q.T - P[:, None]
    alpha = np.full_like(B, params.dual_init)
    best_obj, best, converged = -math.inf, None, False
    for l in range(1, params.max_iters + 1):
        chi = alpha + pressure
        interior = np.clip(v / np.where(chi > 0, chi, 1.0) - 1.0, 0.0, cap)
        free = np.where(chi >= v, 0.0, np.where(chi <= v / (1.0 + cap), cap, interior))
        x = observation_matching(alpha, B)
        rho, arrivals, obj = np.zeros_like(B), np.zeros_like(B), 0.0
        for i, k in zip(*np.nonzero(x)):
            r = project_ratio(free[i, k] / B[i, k], B[i, k], ratios, v, chi[i, k])
            rho[i, k], arrivals[i, k] = r, r * B[i, k]
            obj += v * math.log1p(r * B[i, k]) - pressure[i, k] * (r * B[i, k])
        if obj > best_obj:
            best_obj, best = obj, (x, rho, arrivals)
        moved = np.maximum(alpha - params.step_scale / l * (x * B - free), 0.0)
        delta = float(np.max(np.abs(moved - alpha))) if alpha.size else 0.0
        alpha = moved
        if delta < params.epsilon:
            converged = True
            break
    x, rho, arrivals = best
    return x, rho, arrivals.T, best_obj, l, converged, alpha


@st.composite
def josap_slots(draw):
    """A small slot whose visible pairs are empty, pairwise disjoint (no
    shared target or satellite), stars (pairs that share only a target or
    only a satellite) or shared, with random queues, deficits and solver
    controls."""
    kind = draw(st.sampled_from(("empty", "disjoint", "stars", "shared")))
    I, K = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if kind in ("stars", "shared") and I == K == 1:
        K = 2
    capacity = st.sampled_from((600.0, 800.0, 1000.0))
    B = np.zeros((I, K))
    if kind == "disjoint":
        n = draw(st.integers(1, min(I, K)))
        rows = draw(st.permutations(range(I)))[:n]
        cols = draw(st.permutations(range(K)))[:n]
        for i, k in zip(rows, cols):
            B[i, k] = draw(capacity)
    elif kind == "stars":
        # Each star is one target with satellites of its own, or one
        # satellite with targets of its own; the first has two pairs or
        # more.
        rows = list(draw(st.permutations(range(I))))
        cols = list(draw(st.permutations(range(K))))
        least = 2
        while rows and cols and (least == 2 or draw(st.booleans())):
            if len(cols) >= least and (len(rows) < least or draw(st.booleans())):
                i, n = rows.pop(), draw(st.integers(least, len(cols)))
                pairs = [(i, cols.pop()) for _ in range(n)]
            else:
                k, n = cols.pop(), draw(st.integers(least, len(rows)))
                pairs = [(rows.pop(), k) for _ in range(n)]
            for pair in pairs:
                B[pair] = draw(capacity)
            least = 1
    elif kind == "shared":
        i, k = draw(st.integers(0, I - 1)), draw(st.integers(0, K - 1))
        # A second pair on the same target, or on the same satellite.
        if K > 1 and (I == 1 or draw(st.booleans())):
            other = (i, draw(st.sampled_from([c for c in range(K) if c != k])))
        else:
            other = (draw(st.sampled_from([r for r in range(I) if r != i])), k)
        extra = draw(st.sets(st.tuples(st.integers(0, I - 1), st.integers(0, K - 1))))
        for pair in {(i, k), other} | extra:
            B[pair] = draw(capacity)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = rng.uniform(0, 5000, (K, I))
    P = rng.uniform(0, 3000, I)
    params = SolverParams(
        epsilon=draw(st.sampled_from((1e-3, 10.0))),
        max_iters=draw(st.integers(1, 40)),
        step_scale=draw(st.sampled_from((0.5, 1.0, 3.0))),
        dual_init=draw(st.sampled_from((0.0, 0.25, 2.0))),
    )
    return kind, Q, P, B, params


def shares_a_target_or_satellite(B):
    rows, cols = np.nonzero(B > 0)
    return len(set(rows)) < rows.size or len(set(cols)) < cols.size


def shares_a_target_and_satellite(B):
    rows, cols = np.nonzero(B > 0)
    return bool(((np.bincount(rows)[rows] > 1) & (np.bincount(cols)[cols] > 1)).any())


def assert_matches_reference(res, Q, P, B, cfg, params):
    """``josap_solve``'s result against ``dense_josap_reference``: the
    schedule and objective of the full-length loop, bit for bit, and its
    iterations, convergence and duals where the loop was not certified.
    A certified loop stopped early, on a slot whose visible pairs are
    disjoint or stars, so its iterations and duals are those of the
    reference run with ``max_iters=res.iterations``."""
    x, rho, arrivals, obj, iters, converged, duals = dense_josap_reference(
        Q, P, B, cfg, params
    )
    for got, want in ((res.observe, x), (res.rho, rho), (res.arrivals, arrivals)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert res.objective == obj
    if res.certified:
        assert not res.converged and not shares_a_target_and_satellite(B)
        stopped = replace(params, max_iters=res.iterations)
        *_, iters, converged, duals = dense_josap_reference(Q, P, B, cfg, stopped)
    assert res.duals.dtype == duals.dtype and res.duals.tobytes() == duals.tobytes()
    assert (res.iterations, res.converged) == (iters, converged)


class TestJosapSolve:
    def test_empty_visibility_converges_immediately(self):
        cfg = make_config(num_targets=2, num_eos=2)
        res = josap_solve(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), cfg)
        assert res.observe.sum() == 0
        assert res.iterations == 1
        assert res.converged

    def test_single_pair_matches_exact(self):
        cfg = make_config(num_targets=1, num_eos=1)
        res = josap_solve(np.zeros((1, 1)), np.zeros(1), np.array([[600.0]]), cfg)
        assert res.observe[0, 0] == 1
        assert res.rho[0, 0] == pytest.approx(2 / 3)
        assert res.arrivals[0, 0] == pytest.approx(400.0)

    def test_duals_stay_nonnegative(self):
        cfg = make_config(num_targets=3, num_eos=3)
        rng = np.random.default_rng(2)
        B = rng.choice((0.0, 600.0, 1000.0), size=(3, 3))
        res = josap_solve(rng.uniform(0, 2000, (3, 3)), rng.uniform(0, 500, 3), B, cfg)
        assert np.all(res.duals >= 0)

    def test_arrivals_consistent_with_schedule(self):
        cfg = make_config(num_targets=3, num_eos=4)
        rng = np.random.default_rng(8)
        B = rng.choice((0.0, 600.0, 800.0), size=(3, 4))
        res = josap_solve(rng.uniform(0, 3000, (4, 3)), np.zeros(3), B, cfg)
        assert np.allclose(res.arrivals, (res.rho * res.observe * B).T)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_dense_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        I, K = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        cfg = make_config(num_targets=I, num_eos=K)
        B = rng.choice((0.0, 600.0, 800.0, 1000.0), size=(I, K))
        B[rng.random((I, K)) < 0.5] = 0.0
        Q = rng.uniform(0, 5000, (K, I))
        P = rng.uniform(0, 3000, I)  # deficits above backlog: negative pressure
        params = SolverParams(
            epsilon=float(rng.choice((1e-3, 10.0))),
            max_iters=int(rng.integers(1, 41)),
            step_scale=float(rng.choice((0.5, 1.0, 3.0))),
            dual_init=float(rng.choice((0.0, 0.25, 2.0))),
        )
        res = josap_solve(Q, P, B, cfg, params)
        assert_matches_reference(res, Q, P, B, cfg, params)

    @settings(max_examples=300, deadline=None)
    @given(josap_slots())
    def test_matches_full_matrix_reference_on_any_slot_structure(self, slot):
        kind, Q, P, B, params = slot
        assert shares_a_target_or_satellite(B) == (kind in ("stars", "shared"))
        if kind == "stars":
            assert not shares_a_target_and_satellite(B)
        cfg = make_config(num_targets=B.shape[0], num_eos=B.shape[1])
        res = josap_solve(Q, P, B, cfg, params)
        assert_matches_reference(res, Q, P, B, cfg, params)

    def test_disjoint_visible_pairs_need_no_matcher_call(self, monkeypatch):
        def no_matcher(*args):
            raise AssertionError("max_weight_assignment called")

        cfg = make_config(num_targets=3, num_eos=4)
        Q, P, params = np.zeros((4, 3)), np.zeros(3), SolverParams(dual_init=1.0)
        disjoint = np.array(
            [[600.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1000.0, 0.0]]
        )
        # Target 0 seen by satellites 0 and 1, and satellite 2 seeing
        # targets 1 and 2: stars, whose matchings have a closed form.
        stars = disjoint.copy()
        stars[0, 1] = stars[1, 2] = 800.0
        monkeypatch.setattr(dmrc, "_assign", no_matcher)
        res = josap_solve(Q, P, disjoint, cfg, params)
        assert res.observe.tolist() == (disjoint > 0).astype(int).tolist()
        josap_solve(Q, P, np.zeros((3, 4)), cfg)
        # The reference's matchings go through max_weight_assignment,
        # which the patch of dmrc's name leaves alone.
        res = josap_solve(Q, P, stars, cfg, params)
        assert_matches_reference(res, Q, P, stars, cfg, params)
        # Pair (0, 2) shares its target with (0, 0) and its satellite
        # with (2, 2): that needs the matcher.
        shared = disjoint.copy()
        shared[0, 2] = 800.0
        with pytest.raises(AssertionError, match="max_weight_assignment called"):
            josap_solve(Q, P, shared, cfg, params)

    def test_star_within_the_matchers_slack_calls_the_matcher(self, monkeypatch):
        # Target 0 sees satellites 0 and 1 with capacities 1e-10 apart,
        # so under equal multipliers the star rule cannot tell and the
        # iteration matches the whole matrix, as the reference does.
        cfg = make_config(num_targets=2, num_eos=3)
        Q, P, params = np.zeros((3, 2)), np.zeros(2), SolverParams(dual_init=1.0)
        B = np.array([[600.0, 600.0000000001, 0.0], [0.0, 0.0, 800.0]])
        calls = []
        real = dmrc._assign
        monkeypatch.setattr(dmrc, "_assign", lambda *a: calls.append(1) or real(*a))
        res = josap_solve(Q, P, B, cfg, params)
        # The same near-tie leaves the star without a margin: no certificate.
        assert 0 < len(calls) < res.iterations and not res.certified
        assert_matches_reference(res, Q, P, B, cfg, params)

    def test_disjoint_slot_stops_certified_at_the_exact_optimum(self):
        cfg = make_config(num_targets=2, num_eos=3)
        Q, P = np.zeros((3, 2)), np.zeros(2)
        B = np.array([[600.0, 0.0, 0.0], [0.0, 0.0, 800.0]])
        res = josap_solve(Q, P, B, cfg)
        assert res.certified and not res.converged
        assert 1 < res.iterations < SolverParams().max_iters
        assert res.objective == pytest.approx(josap_exact(Q, P, B, cfg).objective)
        assert_matches_reference(res, Q, P, B, cfg, SolverParams())

    @pytest.mark.parametrize("q", [250.0, 260.0])
    def test_star_whose_top_gains_tie_runs_the_full_loop(self, q):
        # Target 0 sees satellites 0 and 1 at equal capacity. With equal
        # backlogs their gains tie exactly, so the star has no margin
        # and the loop runs to its cap, although its best objective
        # reaches the sum of the top gains; a backlog of 260 on
        # satellite 1 breaks the tie, and the same schedule certifies.
        cfg = make_config(num_targets=2, num_eos=3)
        Q, P = np.array([[250.0, 0.0], [q, 0.0], [0.0, 0.0]]), np.zeros(2)
        B = np.array([[600.0, 600.0, 0.0], [0.0, 0.0, 800.0]])
        res = josap_solve(Q, P, B, cfg)
        assert res.picks == [(0, 0, 0.25, 150.0), (1, 2, 2 / 3, 2 / 3 * 800.0)]
        assert not res.converged
        if q == 250.0:
            assert not res.certified and res.iterations == SolverParams().max_iters
        else:
            assert res.certified and res.iterations < SolverParams().max_iters
        assert_matches_reference(res, Q, P, B, cfg, SolverParams())

    @pytest.mark.parametrize(
        "case", ["idle_pressure", "matched_at_ratio_0", "clipped_to_stars", "ratio_set"]
    )
    def test_matches_dense_reference_on_edge_cases(self, monkeypatch, case):
        rng = np.random.default_rng(31)
        B = rng.choice((600.0, 800.0, 1000.0), size=(3, 4))
        B[rng.random((3, 4)) < 0.3] = 0.0
        Q, P = rng.uniform(0, 3000, (4, 3)), np.zeros(3)
        cfg = make_config(num_targets=3, num_eos=4)
        params = SolverParams(dual_init=0.25)
        if case == "idle_pressure":
            # Backlogs at or above V: those pairs' arrivals are 0 and
            # every ratio loses to staying idle.
            Q[:2] = (8000.0, 9000.0, 20000.0)
        elif case == "matched_at_ratio_0":
            Q[:] = 9000.0
            params = SolverParams(dual_init=2.0)
        elif case == "ratio_set":
            # Given unsorted and with a duplicate, which a config rejects;
            # deficits above the backlogs make ratios worth picking.
            ratios = (1 / 4, 2 / 3, 1 / 2, 2 / 3)
            P = rng.uniform(2000, 3000, 3)
            cfg = types.SimpleNamespace(control_factor=8000.0, compression_set=ratios)
        assert shares_a_target_and_satellite(B)
        shapes = []
        real = dmrc._assign
        monkeypatch.setattr(
            dmrc, "_assign", lambda *a: shapes.append(a[-1]) or real(*a)
        )
        res = josap_solve(Q, P, B, cfg, params)
        assert_matches_reference(res, Q, P, B, cfg, params)
        if case == "idle_pressure":
            assert (Q.T[B > 0] >= cfg.control_factor).any()
        elif case == "matched_at_ratio_0":
            assert (res.observe & (res.rho == 0.0)).any()
        elif case == "clipped_to_stars":
            # Matched pairs' multipliers clip to 0 after the first step,
            # and the positive entries left no longer share.
            assert shapes[0] is None and any(s is not None for s in shapes)
        elif case == "ratio_set":
            assert res.rho.any()

    def test_pairs_without_capacity_keep_dual_init_and_are_never_observed(self):
        cfg = make_config(num_targets=4, num_eos=5)
        rng = np.random.default_rng(5)
        B = rng.choice((0.0, 600.0, 1000.0), p=(0.6, 0.2, 0.2), size=(4, 5))
        params = SolverParams(dual_init=0.75)
        res = josap_solve(
            rng.uniform(0, 3000, (5, 4)), rng.uniform(0, 500, 4), B, cfg, params
        )
        hidden = B == 0
        assert hidden.any() and res.observe.any()
        assert np.all(res.duals[hidden] == 0.75)
        assert np.any(res.duals[~hidden] != 0.75)
        assert not res.observe[hidden].any()
        assert not res.rho[hidden].any() and not res.arrivals.T[hidden].any()

    def test_zero_capacity_padding_changes_nothing(self):
        # Targets and satellites without capacity take no part in the
        # loop: embedding an instance among them gives the same result,
        # bit for bit, on its own rows and columns.
        cfg = make_config(num_targets=3, num_eos=4)
        rng = np.random.default_rng(11)
        B = rng.choice((0.0, 600.0, 800.0, 1000.0), size=(3, 4))
        Q = rng.uniform(0, 3000, (4, 3))
        P = rng.uniform(0, 500, 3)
        rows, cols = [0, 2, 5], [1, 2, 4, 6]
        big_B = np.zeros((6, 7))
        big_B[np.ix_(rows, cols)] = B
        big_Q = rng.uniform(0, 3000, (7, 6))
        big_Q[np.ix_(cols, rows)] = Q
        big_P = rng.uniform(0, 500, 6)
        big_P[rows] = P
        small = josap_solve(Q, P, B, cfg)
        big = josap_solve(
            big_Q, big_P, big_B, make_config(num_targets=6, num_eos=7)
        )
        block = np.ix_(rows, cols)
        assert small.observe.any()
        for name in ("observe", "rho", "duals"):
            assert np.array_equal(getattr(big, name)[block], getattr(small, name))
        assert np.array_equal(big.arrivals[np.ix_(cols, rows)], small.arrivals)
        assert big.observe.sum() == small.observe.sum()
        assert big.objective == small.objective
        assert (big.iterations, big.converged) == (small.iterations, small.converged)

    def test_negative_capacity_rejected(self):
        cfg = make_config(num_targets=1, num_eos=2)
        with pytest.raises(ParameterError):
            josap_solve(np.zeros((2, 1)), np.zeros(1), np.array([[600.0, -1.0]]), cfg)

    @pytest.mark.parametrize("capacity", [math.inf, math.nan])
    def test_non_finite_capacity_rejected(self, capacity):
        # A lone visible pair needs no matcher call, whose finiteness
        # check would otherwise be the one to catch an infinite weight.
        cfg = make_config(num_targets=1, num_eos=2)
        B = np.array([[capacity, 0.0]])
        with pytest.raises(ParameterError, match="finite"):
            josap_solve(np.zeros((2, 1)), np.zeros(1), B, cfg)

    @pytest.mark.parametrize(
        "B",
        [
            [[600.0, 0.0, 0.0], [0.0, 800.0, 0.0]],
            [[600.0, 800.0, 0.0], [0.0, 0.0, 1000.0]],
            [[600.0, 800.0, 0.0], [1000.0, 600.0, 0.0]],
        ],
        ids=["disjoint", "star", "shared"],
    )
    def test_overflowing_initial_weights_rejected(self, B):
        # dual_init * B overflows to inf: every slot kind rejects it
        # before the first iteration, with no numpy overflow warning.
        cfg = make_config(num_targets=2, num_eos=3)
        params = SolverParams(dual_init=1e306)
        with np.errstate(all="raise"):
            with pytest.raises(ParameterError, match="dual_init"):
                josap_solve(np.zeros((3, 2)), np.zeros(2), np.array(B), cfg, params)

    @pytest.mark.parametrize("field", ["epsilon", "step_scale", "dual_init"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_solver_params_must_be_finite(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            SolverParams(**{field: value})

    @pytest.mark.parametrize("field", ["epsilon", "step_scale", "dual_init"])
    @pytest.mark.parametrize("value", ["1", True, np.bool_(True), None])
    def test_solver_params_must_be_numeric(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            SolverParams(**{field: value})

    @pytest.mark.parametrize("value", [2.7, 0, -1, "3", True, math.nan])
    def test_max_iters_must_be_an_integer_of_at_least_one(self, value):
        # 2.7 used to be truncated to 2, and "3" and True were accepted.
        with pytest.raises(ParameterError, match="max_iters"):
            SolverParams(max_iters=value)

    def test_integral_max_iters_read_as_int(self):
        for value in (40.0, np.int64(40)):
            params = SolverParams(max_iters=value)
            assert params == SolverParams() and type(params.max_iters) is int

    def test_quality_against_exact(self):
        cfg_base = make_config()
        rng = np.random.default_rng(100)
        good = 0
        for _ in range(30):
            I, K = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            cfg = make_config(num_targets=I, num_eos=K)
            B = rng.choice((0.0, 600.0, 800.0, 1000.0), size=(I, K))
            Q = rng.uniform(0, 5000, size=(K, I))
            P = rng.uniform(0, 2000, size=I)
            res = josap_solve(Q, P, B, cfg)
            exact = josap_exact(Q, P, B, cfg)
            if res.objective >= 0.98 * exact.objective - 1e-9:
                good += 1
        assert good >= 27


class TestTsSolve:
    def test_no_links_no_schedule(self):
        cfg = make_config(num_eos=2, num_destinations=1)
        y, links = ts_solve(np.zeros((2, 2)), np.zeros((2, 1)), cfg)
        assert y.sum() == 0 and links == []

    def test_capacity_weighted_choice(self):
        # Weights 10*200 vs 6*400: the second satellite wins the one slot.
        cfg = make_config(num_targets=1, num_eos=2, num_destinations=1, transceivers=1)
        Q = np.array([[10.0], [6.0]])
        C = np.array([[200.0], [400.0]])
        y, links = ts_solve(Q, C, cfg)
        assert y[1, 0] == 1 and y[0, 0] == 0
        assert links == [(1, 0, 0, 400.0)]

    def test_two_transceivers_serve_both(self):
        cfg = make_config(num_targets=1, num_eos=2, num_destinations=1, transceivers=2)
        Q = np.array([[10.0], [6.0]])
        C = np.array([[200.0], [400.0]])
        y, _ = ts_solve(Q, C, cfg)
        assert y.sum() == 2

    def test_serves_most_backlogged_flow_lowest_index_on_ties(self):
        cfg = make_config(num_targets=3, num_eos=1, num_destinations=1, transceivers=1)
        Q = np.array([[5.0, 9.0, 9.0]])
        C = np.array([[300.0]])
        _, links = ts_solve(Q, C, cfg)
        assert links == [(0, 0, 1, 300.0)]

    def test_scaling_queues_leaves_matching_invariant(self):
        cfg = make_config(num_targets=2, num_eos=4, num_destinations=2, transceivers=1)
        rng = np.random.default_rng(4)
        Q = rng.uniform(1, 100, size=(4, 2))
        C = rng.choice((0.0, 200.0, 400.0), size=(4, 2))
        y1, _ = ts_solve(Q, C, cfg)
        y2, _ = ts_solve(1000.0 * Q, C, cfg)
        assert np.array_equal(y1, y2)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_schedule_search(self, seed):
        rng = np.random.default_rng(seed)
        K, N = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        mults = tuple(int(rng.integers(1, 3)) for _ in range(N))
        cfg = make_config(
            num_targets=2, num_eos=K, num_destinations=N, transceivers=mults
        )
        Q = rng.uniform(0, 50, size=(K, 2))
        C = rng.choice((0.0, 200.0, 400.0), size=(K, N))
        y, _ = ts_solve(Q, C, cfg)
        got = float(np.sum(np.max(Q, axis=1)[:, None] * y * C))

        best = 0.0
        top = np.max(Q, axis=1)
        for assign in itertools.product(range(N + 1), repeat=K):
            counts = [0] * N
            total = 0.0
            ok = True
            for k, choice in enumerate(assign):
                if choice == N:
                    continue
                counts[choice] += 1
                if counts[choice] > mults[choice]:
                    ok = False
                    break
                total += top[k] * C[k, choice]
            if ok:
                best = max(best, total)
        assert got == pytest.approx(best, rel=1e-12, abs=1e-9)


def random_state(cfg, seed, duty=0.7):
    rng = np.random.default_rng(seed)
    I, K, N = cfg.num_targets, cfg.num_eos, cfg.num_destinations
    obs_mask = rng.random((I, K)) < duty
    trans_mask = rng.random((K, N)) < duty
    B = np.where(obs_mask, rng.choice((600.0, 800.0, 1000.0), size=(I, K)), 0.0)
    C = np.where(trans_mask, rng.choice((0.0, 200.0, 400.0), size=(K, N)), 0.0)
    return ChannelState(B=B, C=C), obs_mask | (B > 0), trans_mask | (C > 0)


class TestPolicies:
    def test_random_schedule_feasible(self):
        cfg = make_config(num_targets=4, num_eos=5, num_destinations=2, transceivers=2)
        rng = np.random.default_rng(0)
        for seed in range(30):
            state, obs_mask, trans_mask = random_state(cfg, seed)
            q = queues(np.random.default_rng(seed).uniform(0, 100, (5, 4)), np.zeros(4))
            d = random_schedule(q, state, cfg, rng)
            validate_decision(d, cfg, state, obs_mask, trans_mask)

    def test_random_single_pair_matched_half_the_time(self):
        cfg = make_config(num_targets=1, num_eos=1, num_destinations=1)
        state = ChannelState(B=np.array([[800.0]]), C=np.array([[0.0]]))
        rng = np.random.default_rng(42)
        q = queues(np.zeros((1, 1)), np.zeros(1))
        hits = sum(
            random_schedule(q, state, cfg, rng).observe[0, 0] for _ in range(10000)
        )
        assert abs(hits / 10000 - 0.5) < 0.02

    def test_random_ratio_uniform_over_set(self):
        cfg = make_config(num_targets=1, num_eos=1)
        state = ChannelState(B=np.array([[800.0]]), C=np.array([[0.0]]))
        rng = np.random.default_rng(3)
        q = queues(np.zeros((1, 1)), np.zeros(1))
        seen = []
        for _ in range(8000):
            d = random_schedule(q, state, cfg, rng)
            if d.observe[0, 0]:
                seen.append(d.rho[0, 0])
        freqs = [np.mean(np.isclose(seen, r)) for r in cfg.compression_set]
        assert all(abs(f - 0.25) < 0.03 for f in freqs)

    def test_random_no_contacts_idles(self):
        cfg = make_config(num_targets=2, num_eos=2, num_destinations=1)
        state = ChannelState(B=np.zeros((2, 2)), C=np.zeros((2, 1)))
        q = queues(np.zeros((2, 2)), np.zeros(2))
        d = random_schedule(q, state, cfg, np.random.default_rng(0))
        assert d.observe.sum() == 0 and d.transmit.sum() == 0
        assert d.arrivals.sum() == 0 and d.service.sum() == 0

    def test_fixed_cr_transmission_matches_dmrc_under_equal_backlogs(self):
        # With every satellite's top queue equal, backlog-weighted link
        # weights are proportional to raw capacities, so both policies
        # pick the same transmission schedule.
        cfg = make_config(num_targets=2, num_eos=4, num_destinations=2, transceivers=1)
        rng = np.random.default_rng(12)
        for _ in range(10):
            C = rng.choice((0.0, 200.0, 400.0), size=(4, 2))
            Q = np.full((4, 2), 700.0)
            y_dmrc, _ = ts_solve(Q, C, cfg)
            state = ChannelState(B=np.zeros((2, 4)), C=C)
            d = fixed_cr_schedule(queues(Q, np.zeros(2)), state, cfg)
            assert np.array_equal(y_dmrc, d.transmit)

    def test_fixed_cr_always_quarter(self):
        cfg = make_config(num_targets=3, num_eos=4, num_destinations=2, transceivers=1)
        for seed in range(20):
            state, obs_mask, trans_mask = random_state(cfg, seed)
            q = queues(np.random.default_rng(seed).uniform(0, 100, (4, 3)), np.zeros(3))
            d = fixed_cr_schedule(q, state, cfg)
            validate_decision(d, cfg, state, obs_mask, trans_mask)
            assert np.all(d.rho[d.observe == 1] == 0.25)

    def test_fixed_cr_matches_every_available_contact_possible(self):
        cfg = make_config(num_targets=2, num_eos=2, num_destinations=1, transceivers=2)
        state = ChannelState(
            B=np.array([[600.0, 0.0], [0.0, 800.0]]),
            C=np.array([[200.0], [400.0]]),
        )
        q = queues(np.ones((2, 2)), np.zeros(2))
        d = fixed_cr_schedule(q, state, cfg)
        assert d.observe.sum() == 2
        assert d.transmit.sum() == 2

    def test_dmrc_step_no_contacts(self):
        cfg = make_config(num_targets=2, num_eos=2, num_destinations=1)
        state = ChannelState(B=np.zeros((2, 2)), C=np.zeros((2, 1)))
        q = queues(np.zeros((2, 2)), np.zeros(2))
        d = dmrc_step(q, state, cfg)
        assert d.observe.sum() == 0 and d.transmit.sum() == 0
        assert d.arrivals.sum() == 0 and d.service.sum() == 0

    def test_dmrc_step_single_contact_schedules_both(self):
        cfg = make_config(num_targets=1, num_eos=1, num_destinations=1)
        state = ChannelState(B=np.array([[600.0]]), C=np.array([[400.0]]))
        q = queues(np.array([[100.0]]), np.zeros(1))
        d = dmrc_step(q, state, cfg)
        assert d.observe[0, 0] == 1
        assert d.transmit[0, 0] == 1
        assert d.service[0, 0, 0] == 400.0
        assert d.arrivals[0, 0] > 0

    def test_dmrc_step_feasible_on_random_instances(self):
        cfg = make_config(num_targets=4, num_eos=6, num_destinations=2, transceivers=2)
        for seed in range(20):
            state, obs_mask, trans_mask = random_state(cfg, seed)
            q = queues(
                np.random.default_rng(seed).uniform(0, 2000, (6, 4)), np.zeros(4)
            )
            d = dmrc_step(q, state, cfg)
            validate_decision(d, cfg, state, obs_mask, trans_mask)


@st.composite
def policy_slots(draw):
    """A small slot: config, queues, channels and visibility masks.
    Transmission contacts may have zero capacity, as under the default
    channel model."""
    I, K, N = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    trx = tuple(draw(st.lists(st.integers(1, 2), min_size=N, max_size=N)))
    cfg = make_config(num_targets=I, num_eos=K, num_destinations=N, transceivers=trx)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs_mask = rng.random((I, K)) < draw(st.sampled_from((0.2, 0.5, 1.0)))
    trans_mask = rng.random((K, N)) < draw(st.sampled_from((0.2, 0.5, 1.0)))
    B = np.where(obs_mask, rng.choice((600.0, 800.0, 1000.0), size=(I, K)), 0.0)
    C = np.where(trans_mask, rng.choice((0.0, 200.0, 400.0), size=(K, N)), 0.0)
    # Some queues empty, so that ties and idle satellites occur.
    Q = np.where(rng.random((K, I)) < 0.3, 0.0, rng.uniform(0, 5000, (K, I)))
    P = rng.uniform(0, 3000, I)
    return cfg, queues(Q, P), ChannelState(B=B, C=C), obs_mask, trans_mask, rng


class TestPolicyDecisionsAreValid:
    @given(policy_slots(), st.sampled_from(("dmrc", "fixed_cr", "random")))
    @settings(max_examples=300, deadline=None)
    def test_validator_accepts_every_policy_decision(self, slot, policy):
        cfg, q, state, obs_mask, trans_mask, rng = slot
        if policy == "dmrc":
            d = dmrc_step(q, state, cfg)
        elif policy == "fixed_cr":
            d = fixed_cr_schedule(q, state, cfg)
        else:
            d = random_schedule(q, state, cfg, rng, obs_mask, trans_mask)
        validate_decision(d, cfg, state, obs_mask, trans_mask)


def dense_validate_reference(decision, config, channels, obs_visible, trans_visible):
    """``validate_decision`` as it read the dense (I, K), (K, N) and
    (K, N, I) arrays, here fed the decision's dense views, with the check
    for non-finite service volumes added before the negative one."""
    x, y = decision.observe, decision.transmit
    if not (((x == 0) | (x == 1)).all() and ((y == 0) | (y == 1)).all()):
        raise ScheduleValidationError("schedules must be binary")
    if np.any(x.astype(bool) & ~obs_visible):
        raise ScheduleValidationError("observation scheduled outside a contact")
    if np.any(y.astype(bool) & ~trans_visible):
        raise ScheduleValidationError("transmission scheduled outside a contact")
    if x.sum(axis=0).max(initial=0) > 1:
        raise ScheduleValidationError("satellite observes more than one target")
    if x.sum(axis=1).max(initial=0) > 1:
        raise ScheduleValidationError("target observed by more than one satellite")
    if y.sum(axis=1).max(initial=0) > 1:
        raise ScheduleValidationError("satellite transmits to more than one destination")
    over = y.sum(axis=0) > np.asarray(config.transceivers)
    if np.any(over):
        raise ScheduleValidationError("destination transceiver limit exceeded")

    service = decision.service
    if not np.isfinite(service).all():
        raise ScheduleValidationError("non-finite service volume")
    if np.any(service < 0):
        raise ScheduleValidationError("negative service volume")
    link_cap = y * channels.C
    slack = 1e-9 * max(1.0, float(channels.C.max(initial=0.0)))
    if np.any(service.sum(axis=2) > link_cap + slack):
        raise ScheduleValidationError("service exceeds scheduled link capacity")

    allowed = np.array(config.compression_set + (0.0,))
    rho = decision.rho
    set_ratios = rho[rho != 0.0]
    near = np.abs(set_ratios[:, None] - allowed) <= 1e-12 + 1e-5 * allowed
    if not near.any(axis=1).all():
        raise ScheduleValidationError("compression ratio outside the allowed set")
    if np.any((rho > 0) & (x == 0)):
        raise ScheduleValidationError("compression ratio set on an unscheduled pair")

    arrivals, expected = decision.arrivals, (rho * x * channels.B).T
    close = np.abs(arrivals - expected) <= 1e-9 + 1e-9 * np.abs(expected)
    if not (close & np.isfinite(expected) | (arrivals == expected)).all():
        raise ScheduleValidationError(
            "arrivals inconsistent with schedule, ratio and capacity"
        )


def validation_outcome(validate, decision, *context):
    """The message ``validate`` raises on ``decision``, or None."""
    try:
        validate(decision, *context)
    except ScheduleValidationError as exc:
        return str(exc)
    return None


@st.composite
def sparse_decisions(draw):
    """A small slot and a decision as picks and links, often broken:
    repeated or off-contact picks and links, off-set ratios and ratio 0,
    wrong arrival volumes, and service volumes that are over capacity,
    negative, NaN or infinite. A link without a flow carries volume 0."""
    I, K, N = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    trx = tuple(draw(st.lists(st.integers(1, 2), min_size=N, max_size=N)))
    cfg = make_config(num_targets=I, num_eos=K, num_destinations=N, transceivers=trx)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs_mask = rng.random((I, K)) < 0.8
    trans_mask = rng.random((K, N)) < 0.8
    B = np.where(obs_mask, rng.choice((600.0, 800.0, 1000.0), size=(I, K)), 0.0)
    C = np.where(trans_mask, rng.choice((0.0, 200.0, 400.0), size=(K, N)), 0.0)
    slack = 1e-9 * max(1.0, float(C.max()))

    def cells(rows, cols):
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return draw(st.lists(cell, max_size=3, unique=True))

    # Valid values are listed more than once, so that later checks are reached.
    ratios = cfg.compression_set * 2 + (
        0.0, 0.9, -0.25, 0.5 * (1 + 5e-6), 0.5 * (1 + 2e-5), 1e-13, math.nan, math.inf,
    )
    picks = []
    for i, k in cells(I, K):
        r = draw(st.sampled_from(ratios))
        a = r * B.item(i, k)
        a = draw(st.sampled_from((a, a, a, a * (1 + 1e-10), a + 1.0, 0.0, math.nan)))
        picks.append((i, k, r, a))
    links = []
    for k, n in cells(K, N):
        f = draw(st.none() | st.integers(0, I - 1))
        c = C.item(k, n)
        s = 0.0 if f is None else draw(st.sampled_from((
            c, c, c, 0.5 * c, 0.0, c + 0.5 * slack, c + 2 * slack, c + 1.0,
            -1.0, math.nan, math.inf, -math.inf,
        )))
        links.append((k, n, f, s))
    for listed in (picks, links):
        if listed and draw(st.integers(0, 5)) == 3:
            listed.append(draw(st.sampled_from(listed)))
    decision = SlotDecision(picks, links, (I, K, N))
    return decision, cfg, ChannelState(B=B, C=C), obs_mask, trans_mask


class TestSparseValidator:
    @given(sparse_decisions())
    @settings(max_examples=1500, deadline=None)
    def test_raises_what_the_dense_reference_raises(self, case):
        decision, *context = case
        assert validation_outcome(validate_decision, decision, *context) == (
            validation_outcome(dense_validate_reference, decision, *context)
        )

    def test_views_are_read_only(self):
        d = SlotDecision([(0, 0, 0.5, 400.0)], [(0, 0, None, 0.0)], (1, 1, 1))
        for view in (d.observe, d.rho, d.arrivals, d.transmit, d.service):
            with pytest.raises(ValueError):
                view[(0,) * view.ndim] = 7


class TestValidatorMessages:
    """Each check of ``validate_decision`` rejects a valid decision once
    its one constraint is broken, and names it."""

    CFG = make_config(num_targets=2, num_eos=3, num_destinations=2, transceivers=1)
    OBS_MASK = np.array([[1, 1, 0], [1, 1, 1]], dtype=bool)
    TRANS_MASK = np.array([[1, 1], [1, 0], [1, 1]], dtype=bool)
    STATE = ChannelState(
        B=np.where(OBS_MASK, 800.0, 0.0), C=np.where(TRANS_MASK, 400.0, 0.0)
    )

    def valid(self):
        """Target 0 imaged by satellite 0 and target 1 by satellite 1, at
        ratio 1/2; satellite 0 sends flow 0 to destination 0 and satellite
        2 sends flow 1 to destination 1."""
        return dict(
            picks=[self.pick(0, 0), self.pick(1, 1)],
            links=[(0, 0, 0, 400.0), (2, 1, 1, 200.0)],
        )

    def pick(self, i, k, r=0.5):
        return (i, k, r, r * self.STATE.B[i, k])

    def check(self, fields):
        validate_decision(
            SlotDecision(**fields, shape=(2, 3, 2)),
            self.CFG, self.STATE, self.OBS_MASK, self.TRANS_MASK,
        )

    def test_base_decision_is_valid(self):
        self.check(self.valid())

    def break_one(self, name):
        d = self.valid()
        picks, links = d["picks"], d["links"]
        if name == "binary":
            links += [(1, 0, None, 0.0)] * 2
        elif name == "observation contact":
            picks[0] = self.pick(0, 2)  # (0, 2) is no contact
        elif name == "transmission contact":
            links[1] = (1, 1, None, 0.0)  # (1, 1) is no contact
        elif name == "satellite observes two":
            picks[1] = self.pick(1, 0)
        elif name == "target observed twice":
            picks.append(self.pick(1, 2))
        elif name == "satellite sends to two":
            links[1] = (0, 1, 1, 200.0)
        elif name == "transceiver limit":
            links.append((1, 0, None, 0.0))
        elif name == "non-finite service":
            links[0] = (0, 0, 0, math.nan)
        elif name == "negative service":
            links[1] = (2, 1, 1, -1.0)
        elif name == "service over capacity":
            links[0] = (0, 0, 0, 401.0)
        elif name == "ratio outside set":
            picks[0] = self.pick(0, 0, 0.9)
        elif name == "arrivals":
            picks[0] = (0, 0, 0.5, 401.0)
        return d

    @pytest.mark.parametrize(
        "name, message",
        [
            ("binary", "schedules must be binary"),
            ("observation contact", "observation scheduled outside a contact"),
            ("transmission contact", "transmission scheduled outside a contact"),
            ("satellite observes two", "satellite observes more than one target"),
            ("target observed twice", "target observed by more than one satellite"),
            ("satellite sends to two",
             "satellite transmits to more than one destination"),
            ("transceiver limit", "destination transceiver limit exceeded"),
            ("negative service", "negative service volume"),
            ("service over capacity", "service exceeds scheduled link capacity"),
            ("ratio outside set", "compression ratio outside the allowed set"),
            ("arrivals", "arrivals inconsistent with schedule, ratio and capacity"),
            ("non-finite service", "non-finite service volume"),
        ],
    )
    def test_one_broken_constraint_is_named(self, name, message):
        with pytest.raises(ScheduleValidationError, match=f"^{re.escape(message)}$"):
            self.check(self.break_one(name))


class TestValidator:
    def base(self):
        cfg = make_config(num_targets=2, num_eos=2, num_destinations=1, transceivers=1)
        state = ChannelState(
            B=np.array([[600.0, 800.0], [1000.0, 600.0]]),
            C=np.array([[400.0], [200.0]]),
        )
        q = queues(np.full((2, 2), 50.0), np.zeros(2))
        d = dmrc_step(q, state, cfg)
        masks = np.ones((2, 2), dtype=bool), np.ones((2, 1), dtype=bool)
        return cfg, state, d, masks

    def test_valid_decision_passes(self):
        cfg, state, d, (om, tm) = self.base()
        validate_decision(d, cfg, state, om, tm)

    def test_double_observation_rejected(self):
        cfg, state, d, (om, tm) = self.base()
        picks = [(0, k, 0.25, 0.25 * state.B[0, k]) for k in (0, 1)]
        with pytest.raises(ScheduleValidationError):
            validate_decision(replace(d, picks=picks), cfg, state, om, tm)

    def test_transceiver_limit_enforced(self):
        cfg, state, d, (om, tm) = self.base()
        links = [(0, 0, None, 0.0), (1, 0, None, 0.0)]
        with pytest.raises(ScheduleValidationError):
            validate_decision(replace(d, links=links), cfg, state, om, tm)

    def test_service_over_capacity_rejected(self):
        cfg, state, d, (om, tm) = self.base()
        links = [(k, n, f, 2 * s) for k, n, f, s in d.links]
        assert any(s > 0 for *_, s in links)
        with pytest.raises(ScheduleValidationError):
            validate_decision(replace(d, links=links), cfg, state, om, tm)

    def with_ratio(self, d, state, r):
        """``d`` with its first pick's ratio, and so its arrival, changed."""
        i, k, _, _ = d.picks[0]
        return replace(d, picks=[(i, k, r, r * state.B[i, k]), *d.picks[1:]])

    def test_ratio_outside_set_rejected(self):
        cfg, state, d, (om, tm) = self.base()
        if not d.picks:
            pytest.skip("no matched pair in this instance")
        with pytest.raises(ScheduleValidationError):
            validate_decision(self.with_ratio(d, state, 0.9), cfg, state, om, tm)

    def test_ratio_tolerance_and_non_finite_ratio(self):
        cfg, state, d, (om, tm) = self.base()
        r = d.picks[0][2]
        validate_decision(self.with_ratio(d, state, r * (1 + 5e-6)), cfg, state, om, tm)
        for bad in (r * (1 + 2e-5), math.nan, -0.25):
            with pytest.raises(ScheduleValidationError, match="compression ratio"):
                validate_decision(self.with_ratio(d, state, bad), cfg, state, om, tm)

    def test_inconsistent_arrivals_rejected(self):
        cfg, state, d, (om, tm) = self.base()
        picks = [(i, k, r, a + 1.0) for i, k, r, a in d.picks]
        assert picks
        with pytest.raises(ScheduleValidationError):
            validate_decision(replace(d, picks=picks), cfg, state, om, tm)
