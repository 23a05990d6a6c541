"""Maximum-weight bipartite assignment with one-sided capacities.

Rows are matched at most once; column c may be matched up to
``col_multiplicity[c]`` times (a destination with m transceivers is m
interchangeable vertices). Matching is always optional: pairs with
nonpositive weight are never matched, since leaving them out is at least
as good. Among equal-weight optima the solver returns the
lexicographically smallest matching by (row, col), which keeps every
caller deterministic.

`max_weight_assignment` hands a matrix's positive entries to its core,
`_assign`, which JOSAP's dual loop also calls, and which answers by one
of three paths: a closed form where every component of the positive
entries is a star (`_star_matching`), a certificate that proves one
solve of the whole problem is the answer (`_certify`), and otherwise a
row loop that commits rows in index order (`_Component`). Both rest on
dual prices from one recurrence, run in numpy (`_dual_prices`) from
_VECTORIZE_FROM positive entries up and in Python (`_python_prices`) on
smaller problems and the row loop's components. Numpy's few dozen calls
cost less than Python loops only on large problems, such as a
constellation's transmission matchings, where they also rule out most
trials before any graph is built in Python.
"""

from __future__ import annotations

import functools
import math
import operator
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


def _dual_prices(
    w: np.ndarray, held: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Column and row prices (v, u) for the clamped weights `w` and a
    matching `held`: each row's column, or w.shape[1] where unmatched;
    None when they have not settled after one pass per column.

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
            return v, (w - v).max(axis=1, initial=0.0)
        v = raised
    return None


def _python_prices(
    entries: list[tuple[int, int, float]], held: dict, caps: list[int]
) -> tuple[list[float], dict[int, float], float, bool]:
    """`_dual_prices` in Python, over `entries`, positive (row, column,
    weight) triples, where row r holds column held.get(r): column prices
    by index, row prices by row, the dual objective under capacities
    `caps` minus the weight held, and whether the prices settled."""
    v = [0.0] * len(caps)
    u, own = {}, {}
    for r, c, w in entries:
        u[r] = 0.0
        h = held.get(r)
        if h is None:
            if w > v[c]:
                v[c] = w
        elif h == c:
            own[r] = w
    moves = [(held[r], c, w - own[r]) for r, c, w in entries if c != held.get(r, c)]
    raised = False
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
    return v, u, gap, not raised


class _Component:
    """One connected component of the positive-weight bipartite graph.

    `rows` and `cols` are ascending indices; `edges` maps each row to its
    positive weights by column. A component with at least 2 rows and 2
    columns is the only shape that needs the solver; its block of the
    clamped `weights` is taken on first use, and it keeps the dual
    prices that decide which trials can still tie (see `_dual_prices`).
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
        self.col_prices: list[float] | None = None

    @functools.cached_property
    def clamped(self) -> np.ndarray:
        return self.weights[self.rows][:, self.cols]

    def price(
        self, i: int, kept: int | None, incumbent: dict[int, int], caps: list[int]
    ) -> None:
        """Dual prices (`_python_prices`) for rows[i:], where row i holds
        `kept` and later rows follow `incumbent`; `gap` is the dual
        objective of that subproblem under capacities `caps` minus the
        weight held."""
        entries = [(r, c, w) for r in self.rows[i:] for c, w in self.edges[r].items()]
        held = incumbent if kept is None else {**incumbent, self.rows[i]: kept}
        prices = _python_prices(entries, held, caps)
        self.col_prices, self.row_prices, self.gap, _ = prices

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
    positive: tuple[list[int], list[int], list[float]],
    matched: tuple[list[int], list[int]],
    caps: list[int],
    total: float,
) -> bool:
    """Whether no matching within slack of `total`, or heavier, is
    lexicographically smaller than the incumbent, rows matched[0] to
    columns matched[1] of weight `total`: for an optimal incumbent, that
    it is the row loop's answer. `positive` holds the positive entries'
    rows, columns and weights in row-major order.

    Take feasible prices (v, u) for the incumbent, their gap g = sum(u)
    + sum(caps v) - total, and delta = g + 2 slack, one slack a margin
    for rounding. Such a matching uses only entries of reduced cost
    u_r + v_c - w[r, c] <= delta and leaves a row unmatched only if
    u_r <= delta. From its first row r that differs, taking column c (a
    smaller one, or any if r is unmatched), it holds an alternating path
    that leaves each full column by a later row's near-tight entry and
    ends at a column with room, at r's own column or at a later row with
    u <= delta. Without any such path the certificate holds; prices that
    have not settled fail it.
    """
    slack = 1e-9 * total
    held = dict(zip(*matched))
    if len(positive[0]) >= _VECTORIZE_FROM:
        held_cols = np.full(clamped.shape[0], clamped.shape[1])
        held_cols[matched[0]] = matched[1]
        prices = _dual_prices(clamped, held_cols)
        if prices is None:
            return False
        v, u = prices
        delta = u.sum() + np.dot(caps, v) - total + 2 * slack
        tight = (clamped > 0.0) & (u[:, None] + v - clamped <= delta)
        # Done if no smaller column has room once the earlier rows keep theirs.
        order = np.arange(clamped.shape[1])
        room = np.cumsum(held_cols[:, None] == order, axis=0) < caps
        if not (tight & (order < held_cols[:, None]) & room).any():
            return True
        near = list(zip(*(index.tolist() for index in np.nonzero(tight))))
        u = u.tolist()
    else:
        entries = list(zip(*positive))
        v, u, gap, settled = _python_prices(entries, held, caps)
        if not settled:
            return False
        delta = gap + 2 * slack
        near = [(r, c) for r, c, w in entries if u[r] + v[c] - w <= delta]
    starts = [(r, c) for r, c in near if c < held.get(r, math.inf)]
    if not starts:
        return True
    graph: dict[int, list[int]] = {}
    for r, c in near:
        graph.setdefault(r, []).append(c)
    holders: dict[int, list[int]] = {}
    for r, c in held.items():
        holders.setdefault(c, []).append(r)
    for r, c in starts:
        own, stack, seen = held.get(r), [c], set()
        while stack:
            c = stack.pop()
            full = holders.get(c, [])
            later = [r2 for r2 in full if r2 > r]
            if c == own or len(full) < caps[c] or any(u[r2] <= delta for r2 in later):
                return False
            seen.add(c)
            stack += [c2 for r2 in later for c2 in graph.get(r2, []) if c2 not in seen]
    return True


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
    """Lexicographically smallest optimal partial matching of `p`, by `_assign`."""
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

    Only positive weights can be matched, so the problem splits into the
    connected components of its positive-weight bipartite graph, and the
    answer comes by one of three paths.

    1. Stars. When no component has 2 rows and 2 columns, every
       component is a star around one row or one column, and
       `_star_matching` gives the answer in closed form unless a trial
       could tie. With no star at all the positive entries already form
       a matching, the only optimum.
    2. Certificate. Otherwise a first solve on the whole clamped,
       column-replicated matrix fixes the optimal total and an incumbent
       matching. It is returned at once if `_certify` proves it the
       lexicographically smallest optimum: under its dual prices no row
       has a near-tight alternating path to a smaller column.
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
    # A column never takes more rows than there are, so capping its
    # multiplicity there is exact; the row loop decrements this copy.
    R = clamped.shape[0]
    caps = list(mults) if max(mults, default=R) <= R else [min(m, R) for m in mults]
    incumbent = None
    if stars is None:
        rr, cc, picked = _solve(clamped, caps)
        first, total = (rr.tolist(), cc.tolist()), math.fsum(picked.tolist())
        if _certify(clamped, (rows, cols, values), first, caps, total):
            return list(zip(*first)), total
        incumbent = dict(zip(*first))
    else:
        matched = _star_matching(values, stars)
        if matched is not None:
            matching = [(r, c) for r, c, m in zip(rows, cols, matched) if m]
            return matching, math.fsum(w for w, m in zip(values, matched) if m)

    edges: dict[int, dict[int, float]] = {}
    for r, c, w in zip(rows, cols, values):
        edges.setdefault(r, {})[c] = w
    components = _components(edges, clamped)
    position = {r: (comp, i) for comp in components for i, r in enumerate(comp.rows)}
    if incumbent is None:
        incumbent = {}
        for comp in components:
            incumbent.update(comp.completion(0, caps)[1])
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
