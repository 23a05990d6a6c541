import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from eosched import (
    AssignmentProblem,
    OracleSizeError,
    brute_force_assignment,
    max_weight_assignment,
)


def solve(weights, mults=None):
    w = np.asarray(weights, dtype=float)
    mults = mults or (1,) * w.shape[1]
    return max_weight_assignment(AssignmentProblem(w, tuple(mults)))


def oracle(weights, mults=None):
    w = np.asarray(weights, dtype=float)
    mults = mults or (1,) * w.shape[1]
    return brute_force_assignment(AssignmentProblem(w, tuple(mults)))


class TestOracle:
    def test_empty_problem(self):
        m, total = oracle(np.zeros((0, 0)))
        assert m == [] and total == 0.0

    def test_single_positive_entry(self):
        m, total = oracle([[7.0]])
        assert m == [(0, 0)] and total == 7.0

    def test_nonpositive_never_matched(self):
        m, total = oracle([[0.0, -3.0], [-1.0, 0.0]])
        assert m == [] and total == 0.0

    def test_size_cap(self):
        with pytest.raises(OracleSizeError):
            oracle(np.ones((9, 2)))
        with pytest.raises(OracleSizeError):
            oracle(np.ones((2, 3)), mults=(3, 3, 3))

    def test_known_optimum(self):
        m, total = oracle([[3.0, 1.0], [1.0, 3.0]])
        assert m == [(0, 0), (1, 1)] and total == 6.0


class TestSolver:
    def test_diagonal_dominant(self):
        m, total = solve([[3.0, 1.0], [1.0, 3.0]])
        assert m == [(0, 0), (1, 1)]
        assert total == 6.0

    def test_single_positive_entry_matched(self):
        m, total = solve([[0.0, 0.0], [0.0, 5.0]])
        assert m == [(1, 1)] and total == 5.0

    def test_zero_weights_leave_everything_unmatched(self):
        m, total = solve(np.zeros((3, 3)))
        assert m == [] and total == 0.0

    def test_negative_weights_excluded(self):
        m, total = solve([[-5.0, 2.0], [3.0, -1.0]])
        assert m == [(0, 1), (1, 0)] and total == 5.0

    def test_off_diagonal_forced(self):
        # Matching the big entry forces the other row to the off column.
        m, total = solve([[10.0, 9.0], [8.0, 1.0]])
        assert m == [(0, 1), (1, 0)] and total == 17.0

    def test_multiplicity_allows_column_reuse(self):
        m, total = solve([[4.0], [3.0], [2.0]], mults=(2,))
        assert m == [(0, 0), (1, 0)] and total == 7.0

    def test_lexicographic_tie_break(self):
        # Every assignment of two rows to two columns weighs the same.
        m, _ = solve(np.ones((2, 2)))
        assert m == [(0, 0), (1, 1)]

    def test_lexicographic_prefers_matching_early_rows(self):
        # Rows compete for one column slot; row 0 must win the tie.
        m, total = solve([[2.0], [2.0], [2.0]])
        assert m == [(0, 0)] and total == 2.0

    def test_deterministic_repeats(self):
        rng = np.random.default_rng(5)
        w = rng.integers(0, 9, size=(5, 5)).astype(float)
        first = solve(w)
        for _ in range(5):
            assert solve(w) == first


class TestSolverAgainstOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_unit_multiplicity_instances(self, seed):
        rng = np.random.default_rng(seed)
        R = int(rng.integers(1, 6))
        C = int(rng.integers(1, 6))
        w = rng.integers(-2, 12, size=(R, C)).astype(float)
        got_m, got_w = solve(w)
        exp_m, exp_w = oracle(w)
        assert got_w == exp_w
        assert got_m == exp_m

    @pytest.mark.parametrize("seed", range(40, 70))
    def test_multiplicity_instances(self, seed):
        rng = np.random.default_rng(seed)
        R = int(rng.integers(1, 7))
        C = int(rng.integers(1, 4))
        mults = [int(rng.integers(1, 4)) for _ in range(C)]
        while sum(mults) > 8:
            mults[int(rng.integers(0, C))] = 1
        w = rng.integers(0, 10, size=(R, C)).astype(float)
        got_m, got_w = solve(w, mults)
        exp_m, exp_w = oracle(w, mults)
        assert got_w == exp_w
        assert got_m == exp_m

    @pytest.mark.parametrize("seed", range(70, 90))
    def test_float_weight_instances(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 5, size=(5, 5))
        got_m, got_w = solve(w)
        exp_m, exp_w = oracle(w)
        assert got_w == exp_w
        assert got_m == exp_m


def test_multiplicity_equivalent_to_duplicated_columns():
    rng = np.random.default_rng(11)
    for _ in range(20):
        R, C = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        mults = tuple(int(rng.integers(1, 4)) for _ in range(C))
        w = rng.integers(0, 10, size=(R, C)).astype(float)

        m1, w1 = solve(w, mults)

        expanded_cols = [c for c, m in enumerate(mults) for _ in range(m)]
        w_exp = w[:, expanded_cols]
        m2, w2 = solve(w_exp, (1,) * len(expanded_cols))
        back = sorted((r, expanded_cols[c]) for r, c in m2)

        assert w1 == w2
        assert m1 == back


def test_problem_validation():
    from eosched import ConfigError

    with pytest.raises(ConfigError):
        AssignmentProblem(np.array([[np.inf]]), (1,))
    with pytest.raises(ConfigError):
        AssignmentProblem(np.ones((2, 2)), (1,))
    with pytest.raises(ConfigError):
        AssignmentProblem(np.ones((2, 2)), (1, 0))


@pytest.mark.parametrize("mults", [(1.9,), (True,), (np.True_,), ("2",), (2.5, 1)])
def test_non_integral_or_bool_multiplicity_rejected(mults):
    from eosched import ConfigError

    with pytest.raises(ConfigError, match="column multiplicities"):
        AssignmentProblem(np.ones((3, len(mults))), mults)


def test_numpy_and_integral_float_multiplicities_read_as_ints():
    p = AssignmentProblem(np.ones((3, 3)), (np.int64(2), 1, 2.0))
    assert p.col_multiplicity == (2, 1, 2)
    assert all(type(m) is int for m in p.col_multiplicity)


def solve_sparse(shape, entries, mults):
    w = np.zeros(shape)
    for (r, c), value in entries.items():
        w[r, c] = value
    return solve(w, mults)


def embed(rng, w, mults, extra_rows=4, extra_cols=4):
    """``w`` placed at sorted random rows and columns of a larger zero
    matrix, whose other columns get random multiplicities 1..2; returns
    the padded problem and the row and column maps."""
    R, C = w.shape
    rows = np.sort(rng.choice(R + extra_rows, size=R, replace=False))
    cols = np.sort(rng.choice(C + extra_cols, size=C, replace=False))
    padded = np.zeros((R + extra_rows, C + extra_cols))
    padded[np.ix_(rows, cols)] = w
    padded_mults = [int(rng.integers(1, 3)) for _ in range(C + extra_cols)]
    for c, m in zip(cols, mults):
        padded_mults[c] = m
    return padded, padded_mults, rows, cols


def shifted(result, rows, cols):
    matching, total = result
    return [(int(rows[r]), int(cols[c])) for r, c in matching], total


class TestNearTies:
    """Transmission matchings from desk DMRC runs whose optimum ties with
    another matching up to the last bits of the total. The expected
    results are the whole-problem matcher's, which the component split
    must reproduce bit for bit."""

    # Desk DMRC seed 0, matcher call 6394 (from 0): a solve of the
    # component alone comes back one unit in the last place short of the
    # whole-matrix solve.
    WHOLE_MATRIX = {
        (0, 0): 80000.0,
        (2, 0): 53333.33333333333,
        (2, 1): 106666.66666666666,
        (3, 0): 53333.3333333333,
        (3, 1): 26666.66666666665,
        (4, 0): 80000.0,
        (4, 1): 160000.0,
        (6, 0): 53333.33333333333,
        (6, 1): 53333.33333333333,
    }
    # Desk DMRC seed 1, matcher call 18366 (from 0): rows 9, 10 and 11
    # differ in the last bits; only the rounded total of the whole
    # matching decides the tie.
    WHOLE_TOTAL = {
        (0, 1): 106666.66666666666,
        (2, 1): 80000.0,
        (6, 0): 106666.66666666666,
        (9, 0): 53333.3333333333,
        (10, 0): 53333.3333333333,
        (11, 0): 53333.33333333333,
    }

    def test_incumbent_from_the_whole_matrix(self):
        got = solve_sparse((12, 2), self.WHOLE_MATRIX, (2, 2))
        assert got == ([(0, 0), (2, 1), (4, 1), (6, 0)], 400000.0)

    def test_tie_judged_on_the_whole_total(self):
        got = solve_sparse((12, 2), self.WHOLE_TOTAL, (2, 2))
        assert got == ([(0, 1), (2, 1), (6, 0), (9, 0)], 346666.6666666666)

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_padding_only_shifts_indices(self, seed):
        w = np.zeros((12, 2))
        for pair, value in self.WHOLE_TOTAL.items():
            w[pair] = value
        rng = np.random.default_rng(8000 + seed)
        padded, padded_mults, rows, cols = embed(rng, w, (2, 2))
        assert solve(padded, padded_mults) == shifted(solve(w, (2, 2)), rows, cols)

    def test_zero_padding_can_move_a_near_tie(self):
        # The first solve runs on the whole matrix, so the matcher is not
        # invariant under zero padding here: on the rows and columns that
        # hold an entry alone it settles on the other near-tie, one unit
        # in the last place short. This is why josap_solve matches on the
        # whole (I, K) matrix and not on the submatrix of its visible
        # pairs.
        rows = sorted({r for r, _ in self.WHOLE_MATRIX})
        w = np.zeros((len(rows), 2))
        for (r, c), value in self.WHOLE_MATRIX.items():
            w[rows.index(r), c] = value
        got = shifted(solve(w, (2, 2)), rows, [0, 1])
        assert got == ([(0, 0), (2, 1), (3, 0), (4, 1)], 399999.99999999994)
        assert got != solve_sparse((12, 2), self.WHOLE_MATRIX, (2, 2))


def shuffled_blocks(rng, blocks):
    """Block-diagonal integer weights 0..5 from (rows, cols, mult) block
    shapes, with rows and columns shuffled; returns weights and
    multiplicities."""
    R = sum(b[0] for b in blocks)
    mults = [m for _, cols, m in blocks for _ in range(cols)]
    w = np.zeros((R, len(mults)))
    r0 = c0 = 0
    for rows, cols, _ in blocks:
        w[r0 : r0 + rows, c0 : c0 + cols] = rng.integers(0, 6, size=(rows, cols))
        r0, c0 = r0 + rows, c0 + cols
    row_perm, col_perm = rng.permutation(R), rng.permutation(len(mults))
    return w[row_perm][:, col_perm], tuple(mults[c] for c in col_perm)


class TestComponentsAgainstOracle:
    """Instances that split into several components, which the dense
    random instances above almost never do."""

    @pytest.mark.parametrize("seed", range(40))
    def test_block_diagonal(self, seed):
        rng = np.random.default_rng(1000 + seed)
        blocks, rows, slots = [], 0, 0
        while True:
            shape = tuple(int(n) for n in rng.integers(1, (4, 4, 3)))
            if rows + shape[0] > 8 or slots + shape[1] * shape[2] > 8:
                break
            blocks.append(shape)
            rows, slots = rows + shape[0], slots + shape[1] * shape[2]
        w, mults = shuffled_blocks(rng, blocks)
        assert solve(w, mults) == oracle(w, mults)

    @pytest.mark.parametrize("seed", range(30))
    def test_trivial_components(self, seed):
        # A single edge, a single row over 2 columns, a single column of
        # multiplicity 2 or 3 over 2-3 rows, and one 2x2 block.
        rng = np.random.default_rng(2000 + seed)
        m = int(rng.integers(2, 4))
        blocks = [(1, 1, 1), (1, 2, 1), (int(rng.integers(2, 4)), 1, m), (2, 2, 1)]
        if m == 3:
            blocks.pop()  # keep the column slots within the oracle's cap
        w, mults = shuffled_blocks(rng, blocks)
        assert solve(w, mults) == oracle(w, mults)

    @pytest.mark.parametrize("seed", range(30))
    def test_sparse_ties(self, seed):
        rng = np.random.default_rng(3000 + seed)
        R, C = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        w = rng.integers(0, 6, size=(R, C)) * (rng.random((R, C)) < 0.35)
        assert solve(w) == oracle(w)

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_padding_only_shifts_indices(self, seed):
        rng = np.random.default_rng(4000 + seed)
        R, C = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        w = rng.integers(0, 6, size=(R, C)) * (rng.random((R, C)) < 0.5)
        mults = tuple(int(m) for m in rng.integers(1, 3, size=C))
        padded, padded_mults, rows, cols = embed(rng, w, mults)
        assert solve(padded, padded_mults) == shifted(solve(w, mults), rows, cols)


def whole_problem_matching(weights, mults):
    """Reference for instances beyond the oracle's cap: the plain
    lexicographic matcher, which re-solves all remaining rows for every
    candidate column and judges ties on fsum totals."""
    R, C = weights.shape
    caps = list(mults)

    def best(rows):
        cols = [c for c, k in enumerate(caps) for _ in range(k)]
        if not rows or not cols:
            return [], {}
        sub = np.maximum(weights[np.ix_(rows, cols)], 0.0)
        rr, cc = linear_sum_assignment(sub, maximize=True)
        pairs = [(rows[a], cols[b]) for a, b in zip(rr, cc) if sub[a, b] > 0]
        return [float(weights[p]) for p in pairs], dict(pairs)

    base_w, incumbent = best(list(range(R)))
    best_total = math.fsum(base_w)
    matching, fixed = [], []
    for r in range(R):
        kept = incumbent.pop(r, None)
        chosen = None
        for c in range(C if kept is None else kept):
            if caps[c] > 0 and weights[r, c] > 0:
                caps[c] -= 1
                tail_w, tail = best(list(range(r + 1, R)))
                if math.fsum(fixed + [float(weights[r, c])] + tail_w) == best_total:
                    chosen, incumbent = c, tail
                    break
                caps[c] += 1
        if chosen is None and kept is not None:
            chosen = kept
            caps[kept] -= 1
        if chosen is not None:
            matching.append((r, chosen))
            fixed.append(float(weights[r, chosen]))
    return matching, math.fsum(fixed)


# Weights that differ only in their last bits, as backlog-times-capacity
# products do.
NEAR_TIES = [53333.3333333333, 53333.33333333333, 26666.66666666665,
             26666.666666666664, 80000.0, 106666.66666666666, 160000.0]


def star_forest(rng, R, C, values):
    """An R x C matrix whose positive entries form stars on rows and
    columns of their own: one row with one or more columns, or one column
    with several rows. Some other entries are negative."""
    w = np.where(rng.random((R, C)) < 0.1, -1.0, 0.0)
    rows, cols = rng.permutation(R).tolist(), rng.permutation(C).tolist()
    while rows and cols:
        if rng.random() < 0.5:
            n = min(int(rng.integers(1, 4)), len(cols))
            w[rows.pop(), [cols.pop() for _ in range(n)]] = 1
        else:
            n = min(int(rng.integers(2, 5)), len(rows))
            w[[rows.pop() for _ in range(n)], cols.pop()] = 1
    return np.where(w > 0, rng.choice(values, (R, C)), w)


def counting_star_rule(monkeypatch):
    """Record what each call of the star rule returns."""
    import eosched.assignment as assignment

    results = []
    real = assignment._star_matching

    def counted(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(assignment, "_star_matching", counted)
    return results


class TestAgainstWholeProblemMatcher:
    @pytest.mark.parametrize("seed", range(40))
    def test_transmission_like(self, seed):
        # Seeds 0-14, backlog times capacity: every row's weights tie up
        # to a factor 2. Seeds 15-29, raw capacities, as Fixed-CR weighs
        # them: whole rows tie. Seeds 30-39, raw capacities (even) and
        # backlog times capacity (odd) at constellation scale, 60
        # satellites and 6 destinations of 4 transceivers.
        rng = np.random.default_rng(5000 + seed)
        R, C = (int(rng.integers(10, 30)), int(rng.integers(2, 6))) if seed < 30 else (60, 6)
        raw = 15 <= seed < 30 or seed >= 30 and seed % 2 == 0
        q = np.ones(R) if raw else rng.uniform(0, 500, R) / 3
        w = q[:, None] * rng.choice([0.0, 200.0, 400.0], size=(R, C))
        if seed < 30:
            mults = tuple(int(m) for m in rng.integers(1, 5, size=C))
        else:
            mults = (4,) * C
        assert solve(w, mults) == whole_problem_matching(w, mults)

    @pytest.mark.parametrize("seed", range(15))
    def test_observation_like(self, seed):
        # Sparse float weights: many components of a few rows each.
        rng = np.random.default_rng(6000 + seed)
        R, C = int(rng.integers(10, 30)), int(rng.integers(10, 60))
        w = np.where(rng.random((R, C)) < 0.06, rng.uniform(-5, 100, (R, C)), 0.0)
        assert solve(w) == whole_problem_matching(w, (1,) * C)

    @pytest.mark.parametrize("seed", range(30))
    def test_near_ties(self, seed):
        rng = np.random.default_rng(7000 + seed)
        R, C = int(rng.integers(4, 14)), int(rng.integers(1, 4))
        w = np.where(rng.random((R, C)) < 0.5, rng.choice(NEAR_TIES, (R, C)), 0.0)
        mults = tuple(int(m) for m in rng.integers(1, 3, size=C))
        assert solve(w, mults) == whole_problem_matching(w, mults)


    @pytest.mark.parametrize("seed", range(30))
    def test_star_forests(self, monkeypatch, seed):
        # No component has two rows and two columns, so the star rule
        # answers unless two weights sit within its slack.
        rng = np.random.default_rng(7500 + seed)
        R, C = int(rng.integers(4, 16)), int(rng.integers(2, 10))
        w = star_forest(rng, R, C, NEAR_TIES)
        mults = tuple(int(m) for m in rng.integers(1, 3, size=C))
        results = counting_star_rule(monkeypatch)
        assert solve(w, mults) == whole_problem_matching(w, mults)
        assert len(results) == 1

    def test_exact_ties_in_a_star_are_decided_in_closed_form(self, monkeypatch):
        # Equal weights go to the smaller index, as the row loop's
        # lexicographic rule has it, so no trial is left that could tie.
        w = np.zeros((4, 3))
        w[0, :2] = w[1:, 2] = 2.0
        results = counting_star_rule(monkeypatch)
        assert solve(w, (1, 1, 2)) == ([(0, 0), (1, 2), (2, 2)], 6.0)
        assert len(results) == 1 and results[0] is not None

    @pytest.mark.parametrize(
        "star", [[(0, 0), (0, 1)], [(0, 0), (1, 0)]], ids=["row", "column"]
    )
    def test_star_within_the_slack_takes_the_row_loop(self, monkeypatch, star):
        # The star's two weights differ in their last bits. Its closed
        # form takes the larger, the second; the rounded totals of the
        # whole matching tie, so the lexicographic answer is the first.
        # The rule leaves it to the row loop.
        w = np.zeros((3, 3))
        w[star[0]], w[star[1]] = NEAR_TIES[0], NEAR_TIES[1]
        w[2, 2] = 160000.0
        results = counting_star_rule(monkeypatch)
        got = solve(w, (1, 1, 1))
        assert results == [None]
        assert got[0][0] == star[0]
        assert got == whole_problem_matching(w, (1, 1, 1))


class TestCertificate:
    """The first solve is returned as it is when, under its dual prices,
    no row has a near-tight alternating path to a smaller column."""

    def counting(self, monkeypatch):
        import eosched.assignment as assignment

        counts = {"solves": 0, "components": 0}

        def solver(*args, **kwargs):
            counts["solves"] += 1
            return linear_sum_assignment(*args, **kwargs)

        def components(*args, **kwargs):
            counts["components"] += 1
            return real_components(*args, **kwargs)

        real_components = assignment._components
        monkeypatch.setattr(assignment, "linear_sum_assignment", solver)
        monkeypatch.setattr(assignment, "_components", components)
        return counts

    @pytest.mark.parametrize("seed", range(3))
    def test_lexmin_first_solve_returns_after_one_solve(self, monkeypatch, seed):
        # Raw capacities of 60 satellites to 6 destinations of 4
        # transceivers, as Fixed-CR's transmission matching weighs them.
        rng = np.random.default_rng(9000 + seed)
        w = rng.choice([0.0, 200.0, 400.0], size=(60, 6))
        counts = self.counting(monkeypatch)
        got = solve(w, (4,) * 6)
        assert counts == {"solves": 1, "components": 0}
        assert got == whole_problem_matching(w, (4,) * 6)

    def test_near_tie_in_a_smaller_column_keeps_the_row_loop(self, monkeypatch):
        # Row 0 alone sees columns 0 and 1, whose weights differ by less
        # than the slack: the first solve gives it the larger, column 1,
        # and its trial of column 0 stays open. In the rounded total of
        # the whole matching the two tie, so column 0 is the answer.
        rng = np.random.default_rng(9100)
        w = np.zeros((31, 6))
        w[0, 0], w[0, 1] = NEAR_TIES[0], NEAR_TIES[1]
        w[1:, 2:] = rng.choice(NEAR_TIES, size=(30, 4))
        mults = (1, 1, 8, 8, 8, 8)
        counts = self.counting(monkeypatch)
        got = solve(w, mults)
        assert counts["components"] == 1
        assert got[0][0] == (0, 0)
        assert got == whole_problem_matching(w, mults)

    def test_stars_beside_a_block_priced_by_the_row_loop(self, monkeypatch):
        # A 2x2 block whose two matchings tie up to the last bits, next
        # to four column stars of 25 rows and one row star: 107 positive
        # entries. The certificate cannot rule out the block's near-tie,
        # so the row loop prices the block from scratch, in Python.
        import eosched.assignment as assignment

        rng = np.random.default_rng(9200)
        w = np.zeros((103, 9))
        w[:2, :2] = [[NEAR_TIES[0], NEAR_TIES[1]], [NEAR_TIES[1], NEAR_TIES[0]]]
        w[np.arange(2, 102), 2 + np.arange(100) % 4] = rng.choice(NEAR_TIES, 100)
        w[102, 6:] = rng.choice(NEAR_TIES, 3)
        mults = (1, 1, 3, 3, 3, 3, 1, 1, 1)
        certified, priced = [], []
        real_certify, real_price = assignment._certify, assignment._Component.price

        def certify(*args):
            certified.append(real_certify(*args))
            return certified[-1]

        def price(comp, *args):
            priced.append((comp.rows, comp.cols))
            return real_price(comp, *args)

        monkeypatch.setattr(assignment, "_certify", certify)
        monkeypatch.setattr(assignment._Component, "price", price)
        got = solve(w, mults)
        assert certified == [False]
        assert priced and all(pair == ([0, 1], [0, 1]) for pair in priced)
        assert got == whole_problem_matching(w, mults)

    def test_core_leaves_the_callers_multiplicities_unchanged(self, monkeypatch):
        # The near-tie of test_near_tie_in_a_smaller_column_keeps_the_row_loop
        # takes the row loop, which decrements column capacities in place.
        # The core works on a copy, so one list of multiplicities can serve
        # call after call, as in the dual loop.
        import eosched.assignment as assignment

        rng = np.random.default_rng(9100)
        w = np.zeros((31, 6))
        w[0, 0], w[0, 1] = NEAR_TIES[0], NEAR_TIES[1]
        w[1:, 2:] = rng.choice(NEAR_TIES, size=(30, 4))
        mults = [1, 1, 8, 8, 8, 8]
        certified = []
        real_certify = assignment._certify

        def certify(*args):
            certified.append(real_certify(*args))
            return certified[-1]

        monkeypatch.setattr(assignment, "_certify", certify)
        want = solve(w, tuple(mults))
        rows, cols = np.nonzero(w > 0.0)
        entries = rows.tolist(), cols.tolist(), w[rows, cols].tolist()
        assert assignment._assign(w, mults, *entries, None) == want
        assert assignment._assign(w, mults, *entries, None) == want
        assert mults == [1, 1, 8, 8, 8, 8]
        assert certified == [False] * 3

    def test_near_tight_smaller_column_without_a_path(self, monkeypatch):
        # Row 0 ties between columns 0 and 1, but column 0 holds row 1,
        # which has nowhere else to go: one solve decides.
        w = [[5.0, 5.0], [5.0, 0.0]]
        counts = self.counting(monkeypatch)
        got = solve(w)
        assert counts == {"solves": 1, "components": 0}
        assert got == oracle(w) == ([(0, 1), (1, 0)], 10.0)

    def test_path_through_a_later_row_takes_the_row_loop(self, monkeypatch):
        # Row 0 can take column 0 if row 1 moves on to column 2, a
        # matching within the slack of the optimum: the row loop decides,
        # and the two totals differ in their last bits.
        a, b = NEAR_TIES[0], NEAR_TIES[1]
        w = np.array([[a, b, 0.0], [b, 0.0, a]])
        counts = self.counting(monkeypatch)
        got = solve(w)
        assert counts["components"] == 1
        assert got == whole_problem_matching(w, (1, 1, 1)) == oracle(w)

    def test_path_through_an_earlier_row_does_not_count(self, monkeypatch):
        # Row 1 could take column 0 only if row 0 moved on to column 2,
        # but row 0 comes first and keeps its column.
        a, b = NEAR_TIES[0], NEAR_TIES[1]
        w = [[b, 0.0, a], [b, b, 0.0]]
        counts = self.counting(monkeypatch)
        got = solve(w)
        assert counts == {"solves": 1, "components": 0}
        assert got == oracle(w) == ([(0, 0), (1, 1)], 2 * b)

    @pytest.fixture(params=["python", "numpy"])
    def certify(self, request, monkeypatch):
        """`_certify` on a given incumbent, with prices from either routine."""
        import eosched.assignment as assignment

        if request.param == "numpy":
            monkeypatch.setattr(assignment, "_VECTORIZE_FROM", 0)

        def certify(weights, incumbent, mults=None):
            w = np.asarray(weights, dtype=float)
            er, ec = np.nonzero(w > 0.0)
            rows = sorted(incumbent)
            cols = [incumbent[r] for r in rows]
            return assignment._certify(
                np.maximum(w, 0.0),
                (er.tolist(), ec.tolist(), w[er, ec].tolist()),
                (rows, cols),
                list(mults or (1,) * w.shape[1]),
                math.fsum(w[r, c] for r, c in zip(rows, cols)),
            )

        return certify

    def test_row_that_can_go_unmatched_ends_a_path(self, certify):
        # Both matchings weigh 2. Row 0 takes column 0 if row 1, whose
        # price is 0 as row 2 bids the same for column 0, goes unmatched.
        w = [[2.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        assert not certify(w, {0: 1, 1: 0})
        assert certify(w, {0: 0})
        assert solve(w) == oracle(w) == ([(0, 0)], 2.0)

    def test_gap_of_a_lighter_incumbent_widens_the_search(self, certify):
        # The incumbent leaves row 1 out and weighs 2; the matching that
        # gives row 0 the smaller column weighs 4, through an entry whose
        # reduced cost only the gap of 3 admits.
        assert not certify([[1.0, 2.0], [0.0, 3.0]], {0: 1})

    def test_prices_that_do_not_settle_prove_nothing(self, certify):
        # Swapping the two rows gains 4, so the prices rise on every pass;
        # no smaller matching exists, but only settled prices certify.
        assert not certify([[1.0, 3.0], [3.0, 1.0]], {0: 0, 1: 1})

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_answer_as_the_row_loop(self, data):
        import eosched.assignment as assignment

        R, C = data.draw(st.integers(2, 10)), data.draw(st.integers(2, 8))
        values = data.draw(
            st.sampled_from([[1.0, 2.0, 3.0, 4.0, 5.0], NEAR_TIES]), label="values"
        )
        cell = st.sampled_from(values) | st.just(0.0) | st.just(0.0)
        w = np.array([[data.draw(cell) for _ in range(C)] for _ in range(R)])
        mults = tuple(data.draw(st.integers(1, 3)) for _ in range(C))
        got = solve(w, mults)
        with mock.patch.object(assignment, "_certify", return_value=False):
            assert got == solve(w, mults)


def test_trials_on_pairs_off_the_dual_optimum_need_no_solve(monkeypatch):
    # The optimum is unique and every other pair has a positive reduced
    # cost, so the first solve is the only one; without the dual test,
    # row 0 would re-solve rows 1 and 2 for its smaller column 0.
    import eosched.assignment as assignment

    solves = []

    def counted(*args, **kwargs):
        solves.append(args[0].shape)
        return linear_sum_assignment(*args, **kwargs)

    monkeypatch.setattr(assignment, "linear_sum_assignment", counted)
    w = [[1.0, 9.0, 0.0], [0.0, 1.0, 9.0], [9.0, 0.0, 1.0]]
    assert solve(w) == ([(0, 1), (1, 2), (2, 0)], 27.0)
    assert len(solves) == 1


@st.composite
def multiplicities(draw):
    """1 to 4 columns of multiplicity 1 to 3, at most 8 slots in all
    (the oracle's cap)."""
    mults = []
    for left in range(draw(st.integers(1, 4)), 0, -1):
        room = 8 - sum(mults) - (left - 1)
        mults.append(draw(st.integers(1, min(3, room))))
    return tuple(mults)


NON_POSITIVE = st.sampled_from([0.0, -0.0, -1.0, -1e-9]) | st.floats(-100.0, 0.0)
POSITIVE = st.sampled_from([1.0, 2.0, 3.0]) | st.floats(1e-6, 1e6)


@st.composite
def positive_entries_form_a_matching(draw):
    """Zero and negative entries, plus at most one positive entry per
    row and at most col_multiplicity[c] of them in column c."""
    mults = draw(multiplicities())
    R, C = draw(st.integers(0, 8)), len(mults)
    w = np.array(
        [[draw(NON_POSITIVE) for _ in range(C)] for _ in range(R)], dtype=float
    ).reshape(R, C)
    caps = list(mults)
    for r in range(R):
        c = draw(st.none() | st.integers(0, C - 1))
        if c is not None and caps[c] > 0:
            caps[c] -= 1
            w[r, c] = draw(POSITIVE)
    return w, mults


@st.composite
def small_instances(draw):
    """Any signs and shapes within the oracle's cap; entries are halves,
    so sums are exact and ties are real ties."""
    mults = draw(multiplicities())
    R, C = draw(st.integers(0, 8)), len(mults)
    values = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    w = np.array([[draw(values) for _ in range(C)] for _ in range(R)], dtype=float)
    return w.reshape(R, C), mults


class TestEarlyReturn:
    @settings(max_examples=300, deadline=None)
    @given(positive_entries_form_a_matching())
    def test_agrees_with_oracle_without_a_solve(self, instance):
        w, mults = instance
        import eosched.assignment as assignment

        with mock.patch.object(
            assignment, "linear_sum_assignment", side_effect=AssertionError("solved")
        ):
            m, total = solve(w, mults)
        expected = oracle(w, mults)
        assert m == expected[0]
        assert total == expected[1]
        assert type(total) is float

    @settings(max_examples=300, deadline=None)
    @given(small_instances())
    def test_any_instance_agrees_with_oracle(self, instance):
        w, mults = instance
        assert solve(w, mults) == oracle(w, mults)

    def test_two_positive_entries_in_one_row_are_not_a_matching(self):
        assert solve([[2.0, 3.0], [0.0, 0.0]]) == ([(0, 1)], 3.0)

    def test_column_over_its_multiplicity_is_not_a_matching(self):
        w = [[1.0], [3.0], [2.0]]
        assert solve(w, (2,)) == ([(1, 0), (2, 0)], 5.0)
        assert solve(w, (3,)) == ([(0, 0), (1, 0), (2, 0)], 6.0)
