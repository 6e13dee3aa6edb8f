"""Workflow partitioning: exact ancestor-closed min-cut, the recursive
probability-improving method, and the single-split baselines.

Partitions must execute as a precedence chain, so only cuts whose source
side is ancestor-closed are valid.  The min-cut here augments the DAG with
infinite-capacity reverse edges, which makes every residual-reachable
source side ancestor-closed by construction and equal to the optimum over
all ancestor-closed bisections; the returned side is the inclusion-minimal
one, so ties resolve to the smallest source side deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alloc import CompletionModel
from .dist import prob_on_time
from .model import Request, WorkflowSpec

_SOURCE = "__source__"
_SINK = "__sink__"
# residual capacity at or below this is saturated (float dust of a push)
_RESIDUAL_TOL = 1e-12

METHODS = ("no_partition", "min_cut", "least_data", "propart")


@dataclass(frozen=True, eq=False)
class CutResult:
    """One bisection: ``side_s`` holds the entries, ``side_t`` the exits."""

    side_s: frozenset[str]
    side_t: frozenset[str]
    cut_edges: tuple[tuple[str, str], ...]
    cut_weight: float


@dataclass(frozen=True)
class PartitionConfig:
    alpha: float = 0.5
    method: str = "propart"

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {METHODS}"
            )


@dataclass(frozen=True, eq=False)
class SplitDecision:
    """One node of the recursion: a parent evaluated against its two sides."""

    parent_vertices: tuple[str, ...]
    parent_p: float
    side_s: tuple[str, ...]
    side_t: tuple[str, ...]
    p_s: float
    p_t: float
    accepted: bool


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Ordered partitions plus the decision trace that produced them.

    ``root_p`` is the whole-workflow on-time probability on the receiving
    fog (NaN for methods that never evaluate probabilities); ``est_success``
    holds each final partition's estimate the same way.
    """

    method: str
    alpha: float
    root_p: float
    partitions: tuple[WorkflowSpec, ...]
    est_success: tuple[float, ...]
    must_run_local: tuple[bool, ...]
    trace: tuple[SplitDecision, ...] = ()


def _pinned_flags(parts: tuple[WorkflowSpec, ...]) -> tuple[bool, ...]:
    return tuple(
        any(v.location_pinned for v in p.vertices) for p in parts
    )


# -------------------------------------------------------------------- min cut


def min_cut(
    w: WorkflowSpec, weights: dict[tuple[str, str], float]
) -> CutResult:
    """Minimum-weight ancestor-closed bisection.

    Reverse infinite edges forbid cuts with back-edges, so the max-flow
    min-cut equals the minimum over ancestor-closed bisections.  The max
    flow comes from Edmonds-Karp (shortest augmenting paths, Edmonds & Karp,
    JACM 1972); the vertices its last, failed search reaches form the
    inclusion-minimal optimum, whichever augmenting paths were taken.
    """
    if len(w.vertices) < 2:
        raise ValueError("cannot cut a single-vertex workflow")
    # residual[u][v]: capacity left on arc u -> v; every arc has its reverse
    residual: dict[str, dict[str, float]] = {v.id: {} for v in w.vertices}
    residual[_SOURCE], residual[_SINK] = {}, {}

    def arc(u: str, v: str, cap: float) -> None:
        residual[u][v] = residual[u].get(v, 0.0) + cap
        residual[v].setdefault(u, 0.0)

    for e in w.edges:
        try:
            cap = weights[(e.src, e.dst)]
        except KeyError:
            raise KeyError(f"no weight for edge ({e.src}, {e.dst})") from None
        if cap <= 0:
            raise ValueError(f"weight must be positive: ({e.src}, {e.dst})")
        arc(e.src, e.dst, cap)
        arc(e.dst, e.src, math.inf)
    for entry in w.entries():
        arc(_SOURCE, entry, math.inf)
    for exit_ in w.exits():
        arc(exit_, _SINK, math.inf)
    cut_value = 0.0
    while True:
        parent = _bfs_tree(residual)
        if _SINK not in parent:
            break
        path = []
        v = _SINK
        while v != _SOURCE:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        if push == math.inf:
            raise ValueError("an entry-to-exit path has infinite capacity")
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        cut_value += push
    side_s = frozenset(parent) - {_SOURCE}
    side_t = frozenset(v.id for v in w.vertices) - side_s
    if any(e.src not in side_s and e.dst in side_s for e in w.edges):
        raise RuntimeError(
            f"min-cut side {sorted(side_s)} is not ancestor-closed"
        )
    cut_edges = tuple(
        sorted(
            (e.src, e.dst)
            for e in w.edges
            if e.src in side_s and e.dst in side_t
        )
    )
    weight = sum(weights[e] for e in cut_edges)
    if not math.isclose(weight, cut_value, rel_tol=1e-9, abs_tol=1e-9):
        raise RuntimeError(
            f"cut weight {weight} differs from max-flow value {cut_value}"
        )
    return CutResult(side_s, side_t, cut_edges, weight)


def _bfs_tree(residual: dict[str, dict[str, float]]) -> dict[str, str]:
    """Breadth-first parents over live arcs, from the source to the sink."""
    parent = {_SOURCE: _SOURCE}
    frontier = [_SOURCE]
    for u in frontier:
        for v, cap in residual[u].items():
            if cap > _RESIDUAL_TOL and v not in parent:
                parent[v] = u
                if v == _SINK:
                    return parent
                frontier.append(v)
    return parent


def _data_weights(w: WorkflowSpec) -> dict[tuple[str, str], float]:
    # min-cut needs positive capacities; floor tiny payloads
    return {(e.src, e.dst): max(e.data_mb, 1e-6) for e in w.edges}


# ------------------------------------------------------------ success models


def _best_prob(
    model: CompletionModel, types: tuple[str, ...], deadline_rel: float
) -> float:
    """Highest Eq.-2 on-time probability of the chain over the federation.

    Computation latencies only; no transfer or queueing term.
    """
    return max(
        prob_on_time(model.end_to_end(types, fog_id, 0), deadline_rel)
        for fog_id in model.etc.fog_ids()
    )


# ------------------------------------------------------------------- methods


def _unscored_plan(
    method: str, parts: tuple[WorkflowSpec, ...]
) -> PartitionPlan:
    """The plan of a method that evaluates no probability."""
    return PartitionPlan(
        method=method,
        alpha=math.nan,
        root_p=math.nan,
        partitions=parts,
        est_success=(math.nan,) * len(parts),
        must_run_local=_pinned_flags(parts),
    )


def no_partition(w: WorkflowSpec) -> PartitionPlan:
    return _unscored_plan("no_partition", (w,))


def baseline_mincut(w: WorkflowSpec) -> PartitionPlan:
    """Single unit-weight bisection; no probability evaluation."""
    if len(w.vertices) < 2:
        return _unscored_plan("min_cut", (w,))
    weights = {(e.src, e.dst): 1.0 for e in w.edges}
    cut = min_cut(w, weights)
    return _unscored_plan(
        "min_cut", (w.induced(cut.side_s), w.induced(cut.side_t))
    )


def baseline_least_data(w: WorkflowSpec) -> PartitionPlan:
    """Bisect at the topological prefix with the least crossing data.

    Every prefix of a topological order is ancestor-closed; ties go to the
    shortest prefix.
    """
    if len(w.vertices) < 2:
        return _unscored_plan("least_data", (w,))
    order = w.topo_order

    def crossing(k: int) -> float:
        head = set(order[:k])
        return sum(
            e.data_mb for e in w.edges if e.src in head and e.dst not in head
        )

    best_k = min(range(1, len(order)), key=crossing)
    parts = (
        w.induced(frozenset(order[:best_k])),
        w.induced(frozenset(order[best_k:])),
    )
    return _unscored_plan("least_data", parts)


def propart(
    w: WorkflowSpec,
    model: CompletionModel,
    request: Request,
    cfg: PartitionConfig,
) -> PartitionPlan:
    """Recursive probability-improving partitioning.

    The whole workflow is kept intact when its local on-time probability
    already clears ``cfg.alpha``.  Otherwise it is bisected at the
    data-weighted min-cut; a split is kept only when both sides beat the
    parent's probability (sides judged by their best fog, computation
    latencies only), and the recursion continues on kept sides.  A side
    with a vertex that is both an entry and an exit has no bisection (the
    vertex would belong to both sides), so it is kept whole, as a rejected
    split is.
    """
    slacks = request.slacks
    types = w.topo_order
    root_p = prob_on_time(
        model.end_to_end(types, request.origin_fog, 0),
        sum(slacks[v] for v in types),
    )
    if root_p >= cfg.alpha or len(w.vertices) == 1:
        return PartitionPlan(
            method="propart",
            alpha=cfg.alpha,
            root_p=root_p,
            partitions=(w,),
            est_success=(root_p,),
            must_run_local=_pinned_flags((w,)),
        )
    trace: list[SplitDecision] = []
    parts: list[WorkflowSpec] = []
    est_success: list[float] = []

    # Depth first, side s before side t.  A loop rather than a nested
    # recursive function: that function's closure would refer to itself,
    # and the reference cycle would keep the completion model, with every
    # PMF it caches, alive until the cyclic collector runs.
    pending = [(w, root_p)]
    while pending:
        sub, parent_p = pending.pop()
        if set(sub.entries()).intersection(sub.exits()):
            parts.append(sub)
            est_success.append(parent_p)
            continue
        cut = min_cut(sub, _data_weights(sub))
        order = sub.topo_order
        side_s = tuple(v for v in order if v in cut.side_s)
        side_t = tuple(v for v in order if v in cut.side_t)
        p_s = _best_prob(model, side_s, sum(slacks[v] for v in side_s))
        p_t = _best_prob(model, side_t, sum(slacks[v] for v in side_t))
        accepted = p_s > parent_p and p_t > parent_p
        trace.append(
            SplitDecision(
                parent_vertices=order,
                parent_p=parent_p,
                side_s=side_s,
                side_t=side_t,
                p_s=p_s,
                p_t=p_t,
                accepted=accepted,
            )
        )
        if not accepted:
            parts.append(sub)
            est_success.append(parent_p)
            continue
        pending.append((sub.induced(frozenset(side_t)), p_t))
        pending.append((sub.induced(frozenset(side_s)), p_s))
    return PartitionPlan(
        method="propart",
        alpha=cfg.alpha,
        root_p=root_p,
        partitions=tuple(parts),
        est_success=tuple(est_success),
        must_run_local=_pinned_flags(tuple(parts)),
        trace=tuple(trace),
    )


def build_plan(
    cfg: PartitionConfig,
    w: WorkflowSpec,
    model: CompletionModel,
    request: Request,
) -> PartitionPlan:
    """Dispatch on the configured method."""
    if cfg.method == "no_partition":
        return no_partition(w)
    if cfg.method == "min_cut":
        return baseline_mincut(w)
    if cfg.method == "least_data":
        return baseline_least_data(w)
    return propart(w, model, request, cfg)


# ----------------------------------------------------------------- validation


def validate_plan(plan: PartitionPlan, w: WorkflowSpec) -> list[str]:
    """Contract check used by tests and the in-run tallies."""
    issues: list[str] = []
    seen: set[str] = set()
    for p in plan.partitions:
        ids = {v.id for v in p.vertices}
        if ids & seen:
            issues.append("partitions overlap")
        seen |= ids
    if seen != {v.id for v in w.vertices}:
        issues.append("partitions do not cover the vertex set")
    index_of = {
        v.id: i for i, p in enumerate(plan.partitions) for v in p.vertices
    }
    for e in w.edges:
        if index_of[e.src] > index_of[e.dst]:
            issues.append(
                f"edge ({e.src}, {e.dst}) crosses partitions backwards"
            )
    for i, p in enumerate(plan.partitions):
        has_pin = any(v.location_pinned for v in p.vertices)
        if has_pin != plan.must_run_local[i]:
            issues.append(f"partition {i} pin flag wrong")
    for d in plan.trace:
        improves = d.p_s > d.parent_p and d.p_t > d.parent_p
        if d.accepted and not improves:
            issues.append("accepted split does not improve both sides")
        if not d.accepted and improves:
            issues.append("rolled-back split actually improves both sides")
    if plan.method == "propart":
        if not math.isnan(plan.root_p) and plan.root_p >= plan.alpha:
            if len(plan.partitions) != 1 or plan.trace:
                issues.append("alpha gate passed but plan still split")
    return issues
