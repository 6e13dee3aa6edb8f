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
from dataclasses import dataclass, replace

import networkx as nx

from .dist import LatencyPmf, convolve, prob_on_time
from .federation import EtcMatrix
from .model import Request, WorkflowSpec, topological_order

_SOURCE = "__source__"
_SINK = "__sink__"

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
    min-cut equals the minimum over ancestor-closed bisections and the
    residual-reachable source side is the inclusion-minimal optimum.
    """
    if len(w.vertices) < 2:
        raise ValueError("cannot cut a single-vertex workflow")
    g = nx.DiGraph()
    for v in w.vertices:
        g.add_node(v.id)
    for e in w.edges:
        try:
            cap = weights[(e.src, e.dst)]
        except KeyError:
            raise KeyError(f"no weight for edge ({e.src}, {e.dst})") from None
        if cap <= 0:
            raise ValueError(f"weight must be positive: ({e.src}, {e.dst})")
        g.add_edge(e.src, e.dst, capacity=cap)
        g.add_edge(e.dst, e.src, capacity=math.inf)
    for entry in w.entries():
        g.add_edge(_SOURCE, entry, capacity=math.inf)
    for exit_ in w.exits():
        g.add_edge(exit_, _SINK, capacity=math.inf)
    cut_value, flow = nx.maximum_flow(g, _SOURCE, _SINK)
    reach = _residual_reachable(g, flow)
    side_s = frozenset(reach - {_SOURCE})
    side_t = frozenset(v.id for v in w.vertices) - side_s
    if _violates_closure(w, side_s):
        return _prefix_fallback(w, weights)
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


def _residual_reachable(g: nx.DiGraph, flow: dict) -> set:
    """Source side of the minimal min cut: BFS over net-flow residuals.

    Net flow cancels any circulation the solver left behind, so the
    reachable set is the inclusion-minimal optimum regardless of which
    maximum flow was found.
    """
    reach = {_SOURCE}
    stack = [_SOURCE]
    while stack:
        u = stack.pop()
        for v in set(g.successors(u)) | set(g.predecessors(u)):
            if v in reach:
                continue
            cap = g[u][v]["capacity"] if g.has_edge(u, v) else 0.0
            net = flow.get(u, {}).get(v, 0.0) - flow.get(v, {}).get(u, 0.0)
            if cap - net > 1e-12:
                reach.add(v)
                stack.append(v)
    return reach


def _violates_closure(w: WorkflowSpec, side_s: frozenset[str]) -> bool:
    return any(e.src not in side_s and e.dst in side_s for e in w.edges)


def _prefix_fallback(
    w: WorkflowSpec, weights: dict[tuple[str, str], float]
) -> CutResult:
    """Cheapest topological prefix cut; always ancestor-closed."""
    order = topological_order(w)
    best: "CutResult | None" = None
    for k in range(1, len(order)):
        side_s = frozenset(order[:k])
        if _violates_closure(w, side_s):
            continue
        side_t = frozenset(order[k:])
        cut_edges = tuple(
            sorted(
                (e.src, e.dst)
                for e in w.edges
                if e.src in side_s and e.dst in side_t
            )
        )
        weight = sum(weights[e] for e in cut_edges)
        if best is None or weight < best.cut_weight:
            best = CutResult(side_s, side_t, cut_edges, weight)
    if best is None:
        raise ValueError("workflow has no ancestor-closed prefix cut")
    return best


def _data_weights(w: WorkflowSpec) -> dict[tuple[str, str], float]:
    # min-cut needs positive capacities; floor tiny payloads
    return {(e.src, e.dst): max(e.data_mb, 1e-6) for e in w.edges}


# ------------------------------------------------------------ success models


class EtcSuccessEstimator:
    """Eq.-2 style on-time probabilities from computation latencies only.

    Chain PMFs are memoized per (type prefix, fog); prefixes shared by
    partitions of the same template are reused across calls.
    """

    def __init__(self, etc: EtcMatrix):
        self.etc = etc
        self._chains: dict[tuple[tuple[str, ...], int], LatencyPmf] = {}

    def chain_pmf(self, types: tuple[str, ...], fog_id: int) -> LatencyPmf:
        if not types:
            raise ValueError("empty chain")
        key = (types, fog_id)
        hit = self._chains.get(key)
        if hit is not None:
            return hit
        if len(types) == 1:
            pmf = self.etc.pmf(types[0], fog_id)
        else:
            pmf = convolve(
                self.chain_pmf(types[:-1], fog_id),
                self.etc.pmf(types[-1], fog_id),
            )
        self._chains[key] = pmf
        return pmf

    def prob_on_fog(
        self, types: tuple[str, ...], deadline_rel: float, fog_id: int
    ) -> float:
        return prob_on_time(self.chain_pmf(types, fog_id), deadline_rel)

    def best_prob(
        self, types: tuple[str, ...], deadline_rel: float
    ) -> tuple[float, int]:
        """Highest achievable probability over the federation (ties: lower id)."""
        best_p, best_fog = -1.0, -1
        for fog_id in self.etc.fog_ids():
            p = self.prob_on_fog(types, deadline_rel, fog_id)
            if p > best_p:
                best_p, best_fog = p, fog_id
        return best_p, best_fog


# ------------------------------------------------------------------- methods


def no_partition(w: WorkflowSpec) -> PartitionPlan:
    return PartitionPlan(
        method="no_partition",
        alpha=math.nan,
        root_p=math.nan,
        partitions=(w,),
        est_success=(math.nan,),
        must_run_local=_pinned_flags((w,)),
    )


def baseline_mincut(w: WorkflowSpec) -> PartitionPlan:
    """Single unit-weight bisection; no probability evaluation."""
    if len(w.vertices) < 2:
        return replace(no_partition(w), method="min_cut")
    weights = {(e.src, e.dst): 1.0 for e in w.edges}
    cut = min_cut(w, weights)
    parts = (w.induced(cut.side_s), w.induced(cut.side_t))
    return PartitionPlan(
        method="min_cut",
        alpha=math.nan,
        root_p=math.nan,
        partitions=parts,
        est_success=(math.nan, math.nan),
        must_run_local=_pinned_flags(parts),
    )


def baseline_least_data(w: WorkflowSpec) -> PartitionPlan:
    """Bisect at the topological prefix with the least crossing data."""
    if len(w.vertices) < 2:
        return replace(no_partition(w), method="least_data")
    order = topological_order(w)
    best_k, best_mb = None, math.inf
    for k in range(1, len(order)):
        head = set(order[:k])
        crossing = sum(
            e.data_mb for e in w.edges if e.src in head and e.dst not in head
        )
        back = any(e.src not in head and e.dst in head for e in w.edges)
        if back:
            continue
        if crossing < best_mb:
            best_k, best_mb = k, crossing
    if best_k is None:
        raise ValueError("workflow has no ancestor-closed prefix cut")
    parts = (
        w.induced(frozenset(order[:best_k])),
        w.induced(frozenset(order[best_k:])),
    )
    return PartitionPlan(
        method="least_data",
        alpha=math.nan,
        root_p=math.nan,
        partitions=parts,
        est_success=(math.nan, math.nan),
        must_run_local=_pinned_flags(parts),
    )


def propart(
    w: WorkflowSpec,
    etc: EtcMatrix,
    request: Request,
    cfg: PartitionConfig,
    estimator: "EtcSuccessEstimator | None" = None,
) -> PartitionPlan:
    """Recursive probability-improving partitioning.

    The whole workflow is kept intact when its local on-time probability
    already clears ``cfg.alpha``.  Otherwise it is bisected at the
    data-weighted min-cut; a split is kept only when both sides beat the
    parent's probability (sides judged by their best fog, computation
    latencies only), and the recursion continues on kept sides.
    """
    est = estimator if estimator is not None else EtcSuccessEstimator(etc)
    slacks = {
        vid: dl - request.arrival_ms
        for vid, dl in request.per_service_deadlines.items()
    }
    types = w.topo_order
    delta = request.workflow_deadline - request.arrival_ms
    root_p = est.prob_on_fog(types, delta, request.origin_fog)
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

    def descend(sub: WorkflowSpec, parent_p: float) -> None:
        if len(sub.vertices) == 1:
            parts.append(sub)
            est_success.append(parent_p)
            return
        cut = min_cut(sub, _data_weights(sub))
        order = topological_order(sub)
        side_s = tuple(v for v in order if v in cut.side_s)
        side_t = tuple(v for v in order if v in cut.side_t)
        p_s, _ = est.best_prob(side_s, sum(slacks[v] for v in side_s))
        p_t, _ = est.best_prob(side_t, sum(slacks[v] for v in side_t))
        accepted = p_s > parent_p and p_t > parent_p
        trace.append(
            SplitDecision(
                parent_vertices=tuple(order),
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
            return
        descend(sub.induced(frozenset(side_s)), p_s)
        descend(sub.induced(frozenset(side_t)), p_t)

    descend(w, root_p)
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
    etc: "EtcMatrix | None" = None,
    request: "Request | None" = None,
    estimator: "EtcSuccessEstimator | None" = None,
) -> PartitionPlan:
    """Dispatch on the configured method."""
    if cfg.method == "no_partition":
        return no_partition(w)
    if cfg.method == "min_cut":
        return baseline_mincut(w)
    if cfg.method == "least_data":
        return baseline_least_data(w)
    if etc is None and estimator is None or request is None:
        raise ValueError("propart needs an ETC matrix and a request")
    return propart(w, etc, request, cfg, estimator)


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
