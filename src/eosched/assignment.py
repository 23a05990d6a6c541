"""Maximum-weight bipartite assignment with one-sided capacities.

Rows are matched at most once; column c may be matched up to
``col_multiplicity[c]`` times (a destination with m transceivers is m
interchangeable vertices). Matching is always optional: pairs with
nonpositive weight are never matched, since leaving them out is at least
as good. Among the optima by correctly rounded total, the solver returns
the lexicographically smallest by (row, col) that one alternating path
per row reaches, which keeps every caller deterministic; where sums are
exact, as of integers, it is the smallest.

`max_weight_assignment` hands a matrix's positive entries to its core,
`_assign`, which JOSAP's dual loop also calls. Where every component of
the positive entries is a star, a closed form (`_star_matching`)
answers. Otherwise one solve of the whole problem fixes the optimal
total, and its dual prices, from numpy (`_dual_prices`) or Python
(`_python_prices`), the near-tight entries: those of reduced cost within
the prices' gap plus twice the slack, 1e-9 of the total. Every matching
that weighs the total uses only those, so the tie-break (`_tie_break`)
moves rows, in index order, to smaller columns along alternating paths
of them, keeping an exchange only where the fsum of the whole new
matching equals the first solve's total.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, OracleSizeError

Matching = list[tuple[int, int]]

# Positive entries from which numpy prices a matching problem and rules
# out every row at once; Python prices the smaller ones. Both routines
# win on some workload: pricing ms per seed-0 run, Python vs numpy, were
# desk 12x2 9.4 vs 29.2, desk 8x12 14.2 vs 45.7, constellation 30x60
# 122.6 vs 200.8, constellation 60x6 10.3 vs 6.8, Fixed-CR 30x60 57.7 vs
# 91.4 and Fixed-CR 60x6 161.3 vs 71.7.
_VECTORIZE_FROM = 100


@dataclass(frozen=True)
class AssignmentProblem:
    """weights[r, c] is the gain of matching row r to column c;
    col_multiplicity[c] is how many rows column c can absorb."""

    weights: np.ndarray
    col_multiplicity: tuple[int, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ConfigError("weights must be a 2-D matrix")
        if not np.isfinite(w).all():
            raise ConfigError("weights must be finite")
        object.__setattr__(self, "weights", w)
        mult = tuple(self.col_multiplicity)
        if not {int}.issuperset(map(type, mult)):
            # numpy integers and integral floats become ints; fractions
            # and bools are rejected instead of truncated. Imported here
            # so that the callers' plain ints pay nothing for it.
            from .scenario import _integer

            mult = tuple(_integer(m, "column multiplicities") for m in mult)
        if len(mult) != w.shape[1]:
            raise ConfigError("col_multiplicity must have one entry per column")
        if mult and min(mult) < 1:
            raise ConfigError("column multiplicities must be positive")
        object.__setattr__(self, "col_multiplicity", mult)


def _dual_prices(w: np.ndarray, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and row prices (v, u) for the clamped weights `w` and a
    matching `held`: each row's column, or w.shape[1] where unmatched.

    Any v >= 0 with u_r = max(0, max_c w[r, c] - v_c) is feasible for the
    dual of the matching LP, so no matching weighs more than sum(u) +
    sum(caps_c v_c), and each entry of one that weighs the total of
    `held` has a reduced cost u_r + v_c - w[r, c] within that bound's
    gap. Prices rise along alternating paths of `held` (longest paths,
    Bellman-Ford) until every held pair is tight, closing the gap where
    `held` is optimal; where a cycle gains a rounding error they do not
    settle and are returned after one pass per column, still feasible,
    their wider gap only widening the tie-break's search. Zero entries
    count as pairs of weight 0, whose constraints an optimal `held`
    meets, and elsewhere any prices are feasible.
    """
    free = held == w.shape[1]
    # An unmatched row has u_r = 0, so each of its weights bounds v.
    v = w[free].max(axis=0, initial=0.0)
    # A row matched to c keeps u_r = w[r, c] - v_c only if moving it to
    # c2 gains nothing: v_c2 >= v_c - w[r, c] + w[r, c2].
    cols, moves = held[~free], w[~free]
    own = moves[np.arange(cols.size), cols]
    for _ in range(w.shape[1]):
        raised = np.maximum(
            v, ((v[cols] - own)[:, None] + moves).max(axis=0, initial=0.0)
        )
        if (raised == v).all():
            break
        v = raised
    return v, (w - v).max(axis=1, initial=0.0)


def _python_prices(
    entries: list[tuple[int, int, float]], held: dict, caps: list[int]
) -> tuple[list[float], dict[int, float], float]:
    """`_dual_prices` in Python, over `entries`, positive (row, column,
    weight) triples, where row r holds column held.get(r): column prices
    by index, row prices by row, and the dual objective under capacities
    `caps` minus the weight held."""
    v, u, own = [0.0] * len(caps), {}, {}
    for r, c, w in entries:
        u[r] = 0.0
        h = held.get(r)
        if h is None and w > v[c]:
            v[c] = w
        elif h == c:
            own[r] = w
    moves = [(held[r], c, w - own[r]) for r, c, w in entries if c != held.get(r, c)]
    for _ in caps:
        raised = False
        for h, c, d in moves:
            if v[h] + d > v[c]:
                v[c] = v[h] + d
                raised = True
        if not raised:
            break
    for r, c, w in entries:
        if w - v[c] > u[r]:
            u[r] = w - v[c]
    gap = sum(u.values()) + sum(map(operator.mul, caps, v)) - sum(own.values())
    return v, u, gap


def _solve(
    clamped: np.ndarray, caps: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An optimal matching of the clamped weights with column c taking up
    to caps[c] rows, as ascending rows, their columns and their weights.
    Columns are repeated per their capacity: a plain rectangular solve
    then yields the optional-matching optimum."""
    col_ids = np.repeat(np.arange(clamped.shape[1]), caps)
    full = clamped[:, col_ids]
    rr, cc = linear_sum_assignment(full, maximize=True)
    picked = full[rr, cc]
    keep = picked > 0.0
    return rr[keep], col_ids[cc[keep]], picked[keep]


def _near_tight(
    clamped: np.ndarray, positive, held: dict[int, int], caps: list[int], total: float
):
    """The near-tight entries of `held`, a first solve of weight `total`,
    as (row, column) pairs in row-major order, with the row prices u,
    column prices v and slack delta; or None when no row has a
    near-tight column below its own (any, if unmatched) that a later row
    could free. `positive` holds the positive entries' rows, columns and
    weights in row-major order.

    With the prices' gap g = sum(u) + sum(caps v) - total and a slack of
    1e-9 of the total, far above the rounding of the solver and the
    prices, a matching within one slack of `total` uses only entries of
    reduced cost at most delta = g + 2 slack, and leaves a row unmatched
    or a column short only where its price is at most delta.
    """
    slack = 1e-9 * total
    if len(positive[0]) >= _VECTORIZE_FROM:
        R, C = clamped.shape
        held_cols = np.full(R, C)
        held_cols[list(held)] = list(held.values())
        v, u = _dual_prices(clamped, held_cols)
        delta = u.sum() + np.dot(caps, v) - total + 2 * slack
        tight = (clamped > 0.0) & (u[:, None] + v - clamped <= delta)
        # Done if no smaller column has room once the earlier rows keep theirs.
        order = np.arange(C)
        room = np.cumsum(held_cols[:, None] == order, axis=0) < caps
        if not (tight & (order < held_cols[:, None]) & room).any():
            return None
        near = zip(*(index.tolist() for index in np.nonzero(tight)))
        return near, u.tolist(), v.tolist(), float(delta)
    entries = list(zip(*positive))
    v, u, gap = _python_prices(entries, held, caps)
    delta = gap + 2 * slack
    near = [(r, c) for r, c, w in entries if u[r] + v[c] - w <= delta]
    if all(c >= held.get(r, math.inf) for r, c in near):
        return None
    return near, u, v, delta


def _tie_break(
    clamped: np.ndarray, held: dict[int, int], weight: dict[int, float],
    tight, caps: list[int], total: float,
) -> None:
    """Move the rows of `held`, an optimal matching of `clamped` of weight
    `total` whose rows weigh `weight`, to smaller columns, in place,
    given `tight`, the near-tight entries, prices and slack of
    `_near_tight`: every matching that weighs `total` uses only those.

    Rows are taken in index order, each fixed once taken. Row r moves to its
    smallest near-tight column below its own (any, if unmatched) from which
    an alternating path of later rows reaches r's own column, or the
    absorbing node Z where r is unmatched: x leads to c2 where a later
    holder of x has a near-tight entry in c2; x to Z where it has room or a
    later holder may go unmatched (u <= delta); Z to y where v_y <= delta or
    a later unmatched row has a near-tight entry in y. Columns that reach no
    target stay dead for the row. A path counts only where the math.fsum of
    the whole new matching is `total`, which its exact change in weight
    decides. After a reject the search enters each node once per exact
    change of the paths to it; a path passes each column once, and Z, which
    takes any number of rows, as often as it needs. Where sums are exact, as
    on integers, the answer is the lexicographically smallest optimal
    matching; where they round, the smallest that one path per row reaches.
    """
    near, u, v, delta = tight
    graph: dict[int, list[int]] = {}
    holders: dict[int, list[int]] = {}
    for r, c in near:
        graph.setdefault(r, []).append(c)
    for r, c in held.items():
        holders.setdefault(c, []).append(r)
    Z, gains = -1, {}

    def change(move):
        # A move's exact change in weight, in units of 2**-1074.
        if move not in gains:
            row, col = move
            new = 0.0 if col is None else float(clamped[row, col])
            n, d = new.as_integer_ratio()
            n0, d0 = weight.get(row, 0.0).as_integer_ratio()
            gains[move] = (n << 1075 - d.bit_length()) - (n0 << 1075 - d0.bit_length())
        return gains[move]

    def search(r, start, target, dead, exact=False):
        # A route holds (node, move) pairs: the move, (row, column or None)
        # or None, by which it reached the node.
        stack = [(((start, (r, start)),), change((r, start)) if exact else 0)]
        seen, rejected = {(start, stack[0][1])}, False
        while stack:
            route, gain = stack.pop()
            x = route[-1][0]
            if x == Z:
                out = [(y, None) for y, price in enumerate(v) if price <= delta]
                taken = held.keys() | {m[0] for _, m in route if m}
                joins = [r3 for r3 in graph if r3 > r and r3 not in taken]
                out += [(y, (r3, y)) for r3 in joins for y in graph[r3]]
            else:
                full = holders.get(x, [])
                later = full[bisect.bisect_right(full, r):]
                out = [(c2, (r2, c2)) for r2 in later for c2 in graph[r2] if c2 != x]
                if len(full) < caps[x]:
                    out.append((Z, None))
                out += [(Z, (r2, None)) for r2 in later if u[r2] <= delta]
            for y, move in out:
                if y == target:
                    moves = [m for _, m in route + ((y, move),) if m is not None]
                    trial = dict(weight)
                    for row, col in moves:
                        trial[row] = 0.0 if col is None else float(clamped[row, col])
                    if math.fsum(trial.values()) == total:
                        return moves, trial
                    rejected = True
                    if y != Z:
                        continue
                if y not in dead:
                    key = (y, gain + change(move) if exact and move else gain)
                    if key not in seen and (y == Z or all(n != y for n, _ in route)):
                        seen.add(key)
                        stack.append((route + ((y, move),), key[1]))
        if not rejected:
            dead.update(y for y, _ in seen)
        return None

    for r, row in graph.items():
        own, dead = held.get(r), set()
        for start in row:
            if own is not None and start >= own:
                break
            full = holders.get(start, [])
            # A full column of earlier rows has no way out.
            if start in dead or len(full) >= caps[start] and full[-1] < r:
                continue
            found = search(r, start, Z if own is None else own, dead)
            if found is None and start not in dead:  # rejected, not a dead end
                found = search(r, start, Z if own is None else own, dead, exact=True)
            if found is not None:
                moves, weight = found
                gains.clear()
                for moved, col in moves:
                    old = held.pop(moved, None)
                    if old is not None:
                        holders[old].remove(moved)
                    if col is not None:
                        held[moved] = col
                        bisect.insort(holders.setdefault(col, []), moved)
                break


def _star_forest(
    rows: list[int], cols: list[int], mults
) -> list[tuple[int, list[int]]] | None:
    """The stars of the entries at (rows[j], cols[j]), given in row-major
    order, as `_star_matching` takes them, or None when some entry shares
    its row and its column with other entries.

    A star is a row's entries, which that row can match once, or a
    column's entries beyond its multiplicity mults[c]; an entry in
    neither is matched whenever its weight is positive.
    """
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for j, (r, c) in enumerate(zip(rows, cols)):
        by_row.setdefault(r, []).append(j)
        by_col.setdefault(c, []).append(j)
    stars = [(1, star) for star in by_row.values() if len(star) > 1]
    in_rows = {j for _, star in stars for j in star}
    for c, star in by_col.items():
        if len(star) > 1:
            if not in_rows.isdisjoint(star):
                return None
            if len(star) > mults[c]:
                stars.append((mults[c], star))
    return stars


def _star_matching(
    weights: list[float], stars: list[tuple[int, list[int]]]
) -> list[bool] | None:
    """Which entries max_weight_assignment matches when the positive
    entries form stars, or None where this closed form cannot tell.

    `weights` are the entries in row-major order, of any sign, and
    `stars` their grouping by `_star_forest`. Each component of the
    positive entries is then one row or one column, and its optimum
    takes each star's top m positive entries by (weight descending,
    index ascending). A lexicographically smaller matching can only tie
    its rounded total by an exchange: a row's smaller column, of lower
    weight, or a column's row outside the top m that comes before a top
    row, in place of the weakest top row after it. Each exchange falls
    short of the total by that difference in weight. Where one is within
    the matcher's slack, far above the rounding of a correctly rounded
    sum, the answer is None and the caller solves the problem.
    """
    matched = [w > 0.0 for w in weights]
    if not stars:
        return matched
    gap = math.inf
    for m, star in stars:
        live = [j for j in star if matched[j]]
        if len(live) <= m:
            continue
        # sorted is stable under reverse, so equal weights keep index order.
        for j in sorted(live, key=weights.__getitem__, reverse=True)[m:]:
            matched[j] = False
        weakest = math.inf
        for j in reversed(live):
            if matched[j]:
                weakest = min(weakest, weights[j])
            else:
                gap = min(gap, weakest - weights[j])
    if gap < math.inf and gap <= 1e-9 * math.fsum(
        w for w, m in zip(weights, matched) if m
    ):
        return None
    return matched


def max_weight_assignment(p: AssignmentProblem) -> tuple[Matching, float]:
    """Optimal partial matching of `p`, by the module's tie rule, from `_assign`."""
    weights = p.weights
    er, ec = np.nonzero(weights > 0.0)
    rows, cols, values = er.tolist(), ec.tolist(), weights[er, ec].tolist()
    # A component has 2 rows and 2 columns when some positive entry
    # shares its row and its column with others.
    shared = (
        (np.bincount(er, minlength=weights.shape[0])[er] > 1)
        & (np.bincount(ec, minlength=weights.shape[1])[ec] > 1)
    ).any()
    stars = None if shared else _star_forest(rows, cols, p.col_multiplicity)
    clamped = np.maximum(weights, 0.0)
    return _assign(clamped, p.col_multiplicity, rows, cols, values, stars)


def _assign(
    clamped: np.ndarray, mults, rows: list[int], cols: list[int],
    values: list[float], stars: list[tuple[int, list[int]]] | None,
) -> tuple[Matching, float]:
    """The matcher's core, on the whole clamped matrix whose positive
    entries are (rows[j], cols[j]) of weight values[j] in row-major
    order, column c taking up to mults[c] rows; `stars` is their
    `_star_forest`, or None where an entry shares its row and column.

    One of two paths answers. Where no component of the positive entries
    has 2 rows and 2 columns, `_star_matching` does in closed form,
    unless two of its matchings come within the slack, 1e-9 of the
    total. Otherwise one solve of the whole clamped, column-replicated
    matrix fixes the optimal total and a first matching, which is the
    answer unless `_near_tight` finds a row with a near-tight smaller
    column that a later row could free; then `_tie_break` moves rows
    along alternating paths of the near-tight entries, keeping an
    exchange only where the fsum of the whole matching equals the first
    solve's total. The solve runs on the whole matrix, as a solve of
    part of it can come back one unit in the last place short and so
    change which matching ties.
    """
    # A column never takes more rows than there are, so capping its
    # multiplicity there is exact; the caller's list is never changed.
    R = clamped.shape[0]
    caps = list(mults) if max(mults, default=R) <= R else [min(m, R) for m in mults]
    if stars is not None:
        matched = _star_matching(values, stars)
        if matched is not None:
            matching = [(r, c) for r, c, m in zip(rows, cols, matched) if m]
            return matching, math.fsum(w for w, m in zip(values, matched) if m)
    rr, cc, picked = _solve(clamped, caps)
    matched_rows, picked = rr.tolist(), picked.tolist()
    held, total = dict(zip(matched_rows, cc.tolist())), math.fsum(picked)
    tight = _near_tight(clamped, (rows, cols, values), held, caps, total)
    if tight is None:
        return list(held.items()), total
    _tie_break(clamped, held, dict(zip(matched_rows, picked)), tight, caps, total)
    return sorted(held.items()), total


def brute_force_assignment(p: AssignmentProblem) -> tuple[Matching, float]:
    """Exact optimum by depth-first enumeration of all partial assignments.

    Test oracle only: refuses problems with more than 8 rows or more than
    8 column slots (multiplicities included). Rows are explored in index
    order and columns in ascending order before "unmatched", so the first
    optimum encountered is the lexicographically smallest; subtrees that
    cannot strictly beat the incumbent are pruned.
    """
    weights = p.weights
    R, C = weights.shape
    expanded = sum(p.col_multiplicity)
    if R > 8 or expanded > 8:
        raise OracleSizeError(
            f"oracle capped at 8 rows / 8 column slots, got {R} rows and "
            f"{expanded} slots"
        )

    # Upper bound on what rows r.. can still add, ignoring capacities.
    row_best = [max(0.0, float(weights[r].max())) if C else 0.0 for r in range(R)]
    suffix = [0.0] * (R + 1)
    for r in range(R - 1, -1, -1):
        suffix[r] = suffix[r + 1] + row_best[r]

    caps = list(p.col_multiplicity)
    best: Matching = []
    best_total = 0.0
    current: Matching = []

    def descend(r: int, total: float):
        nonlocal best, best_total
        # DFS visits candidates in lex order, so a subtree that can at most
        # tie the incumbent cannot improve on it and is skipped.
        if total + suffix[r] <= best_total:
            return
        if r == R:
            best = list(current)
            best_total = total
            return
        for c in range(C):
            if caps[c] > 0 and weights[r, c] > 0.0:
                caps[c] -= 1
                current.append((r, c))
                descend(r + 1, total + float(weights[r, c]))
                current.pop()
                caps[c] += 1
        descend(r + 1, total)

    descend(0, 0.0)
    return best, math.fsum(weights[r, c] for r, c in best)
