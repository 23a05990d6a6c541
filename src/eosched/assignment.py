"""Maximum-weight bipartite assignment with one-sided capacities.

Rows are matched at most once; column c may be matched up to
``col_multiplicity[c]`` times (a destination with m transceivers is m
interchangeable vertices). Matching is always optional: pairs with
nonpositive weight are never matched, since leaving them out is at least
as good. Among equal-weight optima the solver returns the
lexicographically smallest matching by (row, col), which keeps every
caller deterministic.

`max_weight_assignment` answers by one of three paths: a closed form
where every component of the positive entries is a star
(`_star_matching`), a certificate that proves one solve of the whole
problem is the answer (`_certify`), and otherwise a row loop that
commits rows in index order (`_Component`). Both the certificate and
the row loop skip trials by dual prices, each with its own routine:
`_dual_prices` prices a whole matrix in a few dozen numpy calls, which
pays only on large problems, while `_Component.price` runs the same
recurrence over one component's edge maps in Python. Most components
that the row loop prices are small, where Python costs less; a numpy
branch for the few large ones did not pay for its lines on the matcher
calls of the benchmark workloads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, OracleSizeError

Matching = list[tuple[int, int]]

# Positive entries from which numpy prices a matching problem: below
# this, its fixed cost per call exceeds the Python loops it replaces.
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

    Any column prices v >= 0, with row prices u_r = max(0, max_c w[r, c]
    - v_c), are feasible for the dual of the matching LP, so by weak
    duality a matching that gives row r column c weighs at most
    sum(u) + sum(caps_c v_c) - (u_r - w[r, c] + v_c). Prices are raised
    along alternating paths of `held` (longest paths, Bellman-Ford)
    until every held pair is tight, which makes the bound exact where
    `held` is optimal. Zero entries count as pairs of weight 0: where
    `held` is optimal their constraints are already met, and elsewhere
    any prices are still feasible.
    """
    free = held == w.shape[1]
    # An unmatched row has u_r = 0, so each of its weights bounds v.
    v = w[free].max(axis=0, initial=0.0)
    # A row matched to c keeps u_r = w[r, c] - v_c only if moving it to
    # c2 gains nothing: v_c2 >= v_c - w[r, c] + w[r, c2].
    cols = held[~free]
    moves = w[~free]
    own = moves[np.arange(cols.size), cols]
    for _ in range(w.shape[1]):
        raised = np.maximum(
            v, ((v[cols] - own)[:, None] + moves).max(axis=0, initial=0.0)
        )
        if (raised == v).all():
            break
        v = raised
    return v, (w - v).max(axis=1, initial=0.0)


class _Component:
    """One connected component of the positive-weight bipartite graph.

    `rows` and `cols` are ascending indices; `edges` maps each row to its
    positive weights by column. A component with at least 2 rows and 2
    columns is the only shape that needs the solver; its clamped weights
    are built on first use, and it keeps the dual prices that decide
    which trials can still tie (see `_dual_prices`).
    """

    def __init__(
        self,
        rows: list[int],
        cols: list[int],
        edges: dict[int, dict[int, float]],
        weights: np.ndarray,
    ):
        self.rows, self.cols, self.edges, self.weights = rows, cols, edges, weights
        self.solves = len(rows) > 1 and len(cols) > 1
        self.col_prices: dict[int, float] | None = None

    @functools.cached_property
    def clamped(self) -> np.ndarray:
        return np.maximum(self.weights[self.rows][:, self.cols], 0.0)

    def price(
        self, i: int, kept: int | None, incumbent: dict[int, int], caps: list[int]
    ) -> None:
        """Dual prices for this component's columns and for rows[i:],
        where row i holds `kept` and later rows follow `incumbent`, by
        the recurrence of `_dual_prices` run over the edge maps; `gap` is
        the dual objective of that subproblem under capacities `caps`
        minus the weight held."""
        rows, edges = self.rows[i:], self.edges
        held = [kept] + [incumbent.get(r) for r in rows[1:]]
        v = dict.fromkeys(self.cols, 0.0)
        for r, c in zip(rows, held):
            if c is None:
                for c2, w in edges[r].items():
                    v[c2] = max(v[c2], w)
        matched = [(edges[r], c) for r, c in zip(rows, held) if c is not None]
        for _ in range(len(self.cols)):
            raised = False
            for row, c in matched:
                base = v[c] - row[c]
                for c2, w in row.items():
                    if base + w > v[c2]:
                        v[c2] = base + w
                        raised = True
            if not raised:
                break
        u = {r: max(0.0, max(w - v[c] for c, w in edges[r].items())) for r in rows}
        own = sum(row[c] for row, c in matched)
        self.col_prices, self.row_prices = v, u
        self.gap = sum(u.values()) + sum(caps[c] * v[c] for c in self.cols) - own

    def viable(
        self, r: int, row: dict[int, float], options: list[int], slack: float
    ) -> list[int]:
        """The options of row r whose trial can still reach the
        incumbent's total, by the dual bound of `_dual_prices`."""
        floor = self.row_prices[r] - self.gap - slack
        return [c for c in options if row[c] - self.col_prices[c] >= floor]

    def commit(self, r: int, chosen: int | None, kept: int | None) -> None:
        """Carry the prices past row r: they stay feasible, and the gap
        moves by what row r takes out of the dual and the incumbent.
        A trial that replaced the incumbent makes them stale."""
        if self.col_prices is None:
            return
        if chosen != kept:
            self.col_prices = None
            return
        self.gap -= self.row_prices[r]
        if kept is not None:
            self.gap += self.edges[r][kept] - self.col_prices[kept]

    def completion(
        self, start: int, caps: list[int]
    ) -> tuple[list[float], dict[int, int]]:
        """Optimal matching of rows[start:] into this component's columns
        with remaining capacities `caps`: the matched weights and a
        row -> column map."""
        rows, edges = self.rows[start:], self.edges
        if not rows:
            return [], {}
        if len(self.cols) == 1:
            # One column of capacity m takes the top m rows by weight.
            c = self.cols[0]
            top = sorted(rows, key=lambda r: (-edges[r][c], r))[: caps[c]]
            return [edges[r][c] for r in top], dict.fromkeys(top, c)
        if len(rows) == 1:
            # One row takes the smallest column of maximal weight.
            row = edges[rows[0]]
            options = [c for c in row if caps[c] > 0]
            if not options:
                return [], {}
            c = max(options, key=lambda c: (row[c], -c))
            return [row[c]], {rows[0]: c}
        local = [caps[c] for c in self.cols]
        if not any(local):
            return [], {}
        rr, cc, picked = _solve(self.clamped[start:], local)
        matched_rows = [self.rows[start + a] for a in rr.tolist()]
        matched_cols = [self.cols[b] for b in cc.tolist()]
        return picked.tolist(), dict(zip(matched_rows, matched_cols))


def _components(
    edges: dict[int, dict[int, float]], weights: np.ndarray
) -> list[_Component]:
    """Connected components of the graph whose edges are `edges`, in
    order of their first row."""
    col_rows: dict[int, list[int]] = {}
    for r, row in edges.items():
        for c in row:
            col_rows.setdefault(c, []).append(r)
    seen: set[int] = set()
    components = []
    for first in edges:
        if first in seen:
            continue
        seen.add(first)
        rows, cols, stack = [first], set(), [first]
        while stack:
            for c in edges[stack.pop()]:
                if c not in cols:
                    cols.add(c)
                    for r in col_rows[c]:
                        if r not in seen:
                            seen.add(r)
                            rows.append(r)
                            stack.append(r)
        components.append(_Component(sorted(rows), sorted(cols), edges, weights))
    return components


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


def _certify(
    clamped: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    caps: list[int],
    slack: float,
) -> bool:
    """Whether the optimal matching of `rows` to `cols` is proved the
    lexicographically smallest optimum by its dual prices (see
    `_dual_prices`).

    It is when no option of the row loop passes `_Component.viable`'s
    test: a positive entry of row r in a column smaller than its own
    (any column if r is unmatched) with capacity left after the earlier
    rows keep theirs. A matching that first leaves the incumbent there
    weighs at most the optimal total plus the gap left at row r minus
    the entry's reduced cost, and so falls short of it by more than
    `slack`.
    """
    R, C = clamped.shape
    held = np.full(R, C)
    held[rows] = cols
    v, u = _dual_prices(clamped, held)
    # The gap left at row r once the rows before it keep their column,
    # as _Component.commit carries it: what rows r.. add to the dual
    # beyond their own weight, spent_r = u_r - (w[r, held_r] - v_held_r),
    # plus the price of idle capacity.
    tight = np.zeros(R)
    tight[rows] = clamped[rows, cols] - v[cols]
    spent = u - tight
    idle = np.dot(caps, v) - v[cols].sum()
    floor = tight - (spent.sum() - np.cumsum(spent)) - (idle + slack)
    order = np.arange(C)
    options = (
        (clamped > 0.0)
        & (order < held[:, None])
        & (np.cumsum(held[:, None] == order, axis=0) < caps)
    )
    return not (options & (clamped - v >= floor[:, None])).any()


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
    positive entries is then one row or one column, and its incumbent
    (`_Component.completion`) takes each star's top m positive entries
    by (weight descending, index ascending). The row loop leaves that
    only for a trial whose rounded total ties: a row's smaller column,
    of lower weight, or a column's row outside the top m that comes
    before a top row, in place of the weakest top row after it. Each
    trial falls short of the total by that difference in weight. Where
    one is within the loop's slack, far above the rounding of a
    correctly rounded sum, the answer is None and the caller runs the
    matcher.
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
    """Globally optimal partial matching, lexicographically smallest
    among ties, by one of three paths.

    Only positive weights can be matched, so the problem splits into the
    connected components of its positive-weight bipartite graph.

    1. Stars. When no component has 2 rows and 2 columns, every
       component is a star around one row or one column, and
       `_star_matching` gives the answer in closed form unless a trial
       could tie. With no star at all the positive entries already form
       a matching, the only optimum.
    2. Certificate. Otherwise a first solve on the whole clamped,
       column-replicated matrix fixes the optimal total and an incumbent
       matching. With at least _VECTORIZE_FROM positive entries, one set
       of dual prices for that incumbent (`_certify`) is tested against
       every pair the row loop below would try; if none can reach the
       optimal total, the incumbent is the lexicographically smallest
       optimum and is returned at once. Below that size numpy's fixed
       cost per call exceeds what the test can save.
    3. Row loop. Else rows are committed in index order: a row keeps the
       smallest column that still completes to the optimal total,
       verified by re-solving the remaining rows of its own component
       only; the incumbent's column is committed without a solve when
       no smaller one works. Components of a single row or a single
       column need no solve (`_Component.completion`). Trials that LP
       duality rules out are skipped (`_Component.viable`): the loop
       prices a component when it first needs the prices, and again
       after a trial has replaced its incumbent.

    Totals are compared as correctly-rounded sums (math.fsum) over the
    whole matching, so the equality test is exact for any weight
    multiset. Two parts stay global because float near-ties can differ
    by less than one unit in the last place of the total. A trial's
    total sums the committed weights, the other components' incumbent
    weights, the candidate and the component's re-solved tail, and is
    compared with the first solve's total; comparing per-component
    totals instead accepts different near-ties. And the first solve
    runs on the whole matrix: a solve of a component alone can come
    back one unit in the last place short and so change which matching
    ties.
    """
    weights = p.weights
    er, ec = np.nonzero(weights > 0.0)
    rows, cols, values = er.tolist(), ec.tolist(), weights[er, ec].tolist()
    caps = list(p.col_multiplicity)
    first = None
    # _certify costs a few dozen numpy calls whatever the size; what it
    # can save, the edge maps, the component search and the row loop,
    # costs about a microsecond per positive entry. A component has 2
    # rows and 2 columns when some positive entry shares its row and its
    # column with others.
    if len(rows) >= _VECTORIZE_FROM and (
        (np.bincount(er, minlength=weights.shape[0])[er] > 1)
        & (np.bincount(ec, minlength=weights.shape[1])[ec] > 1)
    ).any():
        clamped = np.maximum(weights, 0.0)
        inc_rows, inc_cols, picked = first = _solve(clamped, caps)
        total = math.fsum(picked.tolist())
        if _certify(clamped, inc_rows, inc_cols, caps, 1e-9 * total):
            return list(zip(inc_rows.tolist(), inc_cols.tolist())), total

    edges: dict[int, dict[int, float]] = {}
    for r, c, w in zip(rows, cols, values):
        edges.setdefault(r, {})[c] = w
    components = _components(edges, weights)
    if not any(comp.solves for comp in components):
        matched = _star_matching(values, _star_forest(rows, cols, caps))
        if matched is not None:
            matching = [(r, c) for r, c, m in zip(rows, cols, matched) if m]
            return matching, math.fsum(w for w, m in zip(values, matched) if m)
    elif first is None:
        first = _solve(np.maximum(weights, 0.0), caps)
    position = {r: (comp, i) for comp in components for i, r in enumerate(comp.rows)}
    if first is None:
        incumbent = {}
        for comp in components:
            incumbent.update(comp.completion(0, caps)[1])
    else:
        incumbent = dict(zip(first[0].tolist(), first[1].tolist()))
    best_total = math.fsum(edges[r][c] for r, c in incumbent.items())
    # Margin of the dual skip test: far above the rounding error of the
    # solver and of the prices, far below any weight gap it must catch.
    slack = 1e-9 * best_total

    matching: Matching = []
    fixed_w: list[float] = []
    for r, row in edges.items():
        comp, i = position[r]
        kept = incumbent.pop(r, None)
        options = [c for c in row if caps[c] > 0 and (kept is None or c < kept)]
        if options and comp.solves:
            if comp.col_prices is None:
                comp.price(i, kept, incumbent, caps)
            options = comp.viable(r, row, options, slack)
        chosen = None
        if options:
            others = fixed_w + [
                edges[r2][c2]
                for r2, c2 in incumbent.items()
                if position[r2][0] is not comp
            ]
            for c in options:
                caps[c] -= 1
                tail_w, tail_map = comp.completion(i + 1, caps)
                if math.fsum(others + [row[c]] + tail_w) == best_total:
                    chosen = c
                    for r2 in comp.rows[i + 1 :]:
                        incumbent.pop(r2, None)
                    incumbent.update(tail_map)
                    break
                caps[c] += 1
        if chosen is None and kept is not None:
            # No smaller column works; the incumbent's choice is lex-minimal.
            chosen = kept
            caps[chosen] -= 1
        comp.commit(r, chosen, kept)
        if chosen is not None:
            matching.append((r, chosen))
            fixed_w.append(row[chosen])

    return matching, math.fsum(fixed_w)


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
