"""Workflow models: micro-service graphs, built-in app templates, deadlines.

The four built-in applications are linear chains.  Per-vertex work is the
application's total profile split across stages; the split fractions are
documented template constants (heavy DNN stages carry most of the mean,
content-dependent early stages carry most of the variance).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

from .dist import NormalSpec, left_sum


@dataclass(frozen=True)
class MicroServiceSpec:
    """One stage of a workflow.

    ``id`` doubles as the micro-service type key into the computation and
    transfer time matrices.  ``work`` is in millions of instructions,
    ``output_data`` in MB.  A pinned vertex can only ever execute on the fog
    that received the request (e.g. the stage reading a local camera).
    """

    id: str
    name: str
    app: str
    work: NormalSpec
    output_data: float
    location_pinned: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.output_data < math.inf:
            raise ValueError(
                f"output_data must be non-negative and finite: {self.id}"
            )


@dataclass(frozen=True)
class Edge:
    """Precedence edge; ``data_mb`` is the payload handed downstream."""

    src: str
    dst: str
    data_mb: float

    def __post_init__(self) -> None:
        if not 0 <= self.data_mb < math.inf:
            raise ValueError(
                f"edge data must be non-negative and finite: {self}"
            )


@dataclass(frozen=True)
class WorkflowSpec:
    """A DAG of micro-services; built-in templates are chains.

    ``input_mb`` is the payload that must reach the entry vertex before it
    can start (the raw sensor/video segment for the built-in apps).  Edges
    given as bare ``(src, dst)`` pairs pick up the source vertex's
    output_data; explicit ``Edge`` values keep their own payload.
    """

    app: str
    vertices: tuple[MicroServiceSpec, ...]
    edges: tuple[Edge, ...]
    input_mb: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.input_mb < math.inf:
            raise ValueError(
                f"input_mb must be non-negative and finite: {self.input_mb}"
            )
        by_id = {}
        for v in self.vertices:
            by_id[v.id] = v
        normalized = []
        for e in self.edges:
            if isinstance(e, Edge):
                normalized.append(e)
            else:
                src, dst = e[0], e[1]
                if len(e) > 2:
                    normalized.append(Edge(src, dst, float(e[2])))
                else:
                    data = by_id[src].output_data if src in by_id else 0.0
                    normalized.append(Edge(src, dst, data))
        object.__setattr__(self, "edges", tuple(normalized))
        issues = structural_issues(self.vertices, self.edges)
        if issues:
            raise ValueError("invalid workflow: " + "; ".join(issues))

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        """``topological_order`` of this spec, computed once per instance."""
        return tuple(topological_order(self))

    def vertex(self, vid: str) -> MicroServiceSpec:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)

    def successors(self, vid: str) -> list[str]:
        return sorted(e.dst for e in self.edges if e.src == vid)

    def entries(self) -> list[str]:
        has_in = {e.dst for e in self.edges}
        return [v.id for v in self.vertices if v.id not in has_in]

    def exits(self) -> list[str]:
        has_out = {e.src for e in self.edges}
        return [v.id for v in self.vertices if v.id not in has_out]

    def induced(self, subset: "set[str] | frozenset[str]") -> "WorkflowSpec":
        """Subgraph on ``subset``, keeping internal edges only."""
        keep = [v for v in self.vertices if v.id in subset]
        if len(keep) != len(subset):
            missing = set(subset) - {v.id for v in keep}
            raise KeyError(f"unknown vertices: {sorted(missing)}")
        edges = tuple(
            e for e in self.edges if e.src in subset and e.dst in subset
        )
        return WorkflowSpec(self.app, tuple(keep), edges, self.input_mb)


def structural_issues(
    vertices: tuple[MicroServiceSpec, ...], edges: tuple[Edge, ...]
) -> list[str]:
    """Hard structural problems that make a graph unusable."""
    issues: list[str] = []
    ids = [v.id for v in vertices]
    if not ids:
        return ["no vertices"]
    if len(set(ids)) != len(ids):
        issues.append("duplicate vertex ids")
    known = set(ids)
    clean: list[Edge] = []
    for e in edges:
        if e.src not in known or e.dst not in known:
            issues.append(f"edge ({e.src}, {e.dst}) references unknown vertex")
        elif e.src == e.dst:
            issues.append(f"self-loop on {e.src}")
        else:
            clean.append(e)
    if len(_kahn(known, clean)) != len(known):
        issues.append("cycle detected")
    return issues


def _kahn(ids: Iterable[str], edges: Iterable[Edge]) -> list[str]:
    """Kahn's algorithm; ties resolved by ascending vertex id.

    The vertices of a cycle, and those downstream of one, are left out.
    """
    indeg = {i: 0 for i in ids}
    adj: dict[str, list[str]] = {i: [] for i in ids}
    for e in edges:
        indeg[e.dst] += 1
        adj[e.src].append(e.dst)
    heap = [i for i, k in indeg.items() if k == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        n = heapq.heappop(heap)
        order.append(n)
        for m in adj[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(heap, m)
    return order


def topological_order(w: WorkflowSpec) -> list[str]:
    """Kahn's algorithm; ties resolved by ascending vertex id."""
    order = _kahn([v.id for v in w.vertices], w.edges)
    if len(order) != len(w.vertices):
        raise ValueError("cycle detected")
    return order


# ------------------------------------------------------------------ templates

# Application work profiles in millions of instructions.  Calibrated so a
# 2000 MIPS reference fog reproduces the benchmarked GPU-class means.
APP_PROFILES: dict[str, NormalSpec] = {
    "fire": NormalSpec(2699.0, 837.8),
    "har": NormalSpec(1.02, 0.012),
    "oil": NormalSpec(131.96, 0.94),
    "aie": NormalSpec(15.1, 0.08),
}

APP_NAMES = ("fire", "har", "oil", "aie")

# Stage tables: (short id, display name, mean fraction, variance fraction).
# Fire: the content-dependent pre-processing stage carries nearly all the
# variance (clip complexity drives it), the detection DNN dominates the
# mean but is near-deterministic.  Keeping each stage's std below its mean
# stops the non-negative truncation from distorting the calibrated totals.
_FIRE_STAGES = (
    ("capture", "video capture", 0.020, 0.0005),
    ("preprocess", "content pre-processing", 0.320, 0.9850),
    ("noise", "noise removal", 0.015, 0.0005),
    ("features", "feature extraction", 0.020, 0.0005),
    ("detect", "fire detection", 0.540, 0.0090),
    ("locate", "location mapping", 0.050, 0.0030),
    ("alert", "alert generation", 0.035, 0.0015),
)
# Edge payloads (MB): raw video shrinks to features, everything after the
# detector is alert-sized metadata.  The raw clip itself is heavy enough
# that shipping an entire unprocessed request over one 300 Mbps hop always
# overshoots its latency budget; only the post-capture stages travel well.
_FIRE_EDGE_MB = (10.0, 5.0, 1.0, 0.1, 0.1, 0.1)
_FIRE_INPUT_MB = 80.0

_PLAIN_STAGES: dict[str, tuple[tuple[str, str], ...]] = {
    "oil": (
        ("preprocess", "data pre-processing"),
        ("darkspot", "dark spot detection"),
        ("features", "feature extraction"),
        ("classify", "classification"),
        ("segment", "segmentation"),
    ),
    "har": (
        ("preprocess", "data pre-processing"),
        ("features", "feature extraction"),
        ("classify", "classification"),
        ("recognize", "activity recognition"),
    ),
    "aie": (
        ("preprocess", "data pre-processing"),
        ("model", "initial model development"),
        ("invert", "inversion"),
        ("estimate", "impedance estimation"),
    ),
}
_PLAIN_EDGE_MB = 1.0
_PLAIN_INPUT_MB = 1.0
# Payload of the terminal stage (result handed back to the requester).
_EXIT_MB = 0.1


def builtin_app(name: str, *, pin_entry: "bool | None" = None) -> WorkflowSpec:
    """Return a built-in application template.

    ``pin_entry=None`` keeps the per-app default: only the fire camera stage
    is pinned.  Pass True/False to override for a scenario.
    """
    key = name.lower()
    if key not in APP_NAMES:
        raise KeyError(f"unknown app {name!r}; choose from {APP_NAMES}")
    profile = APP_PROFILES[key]
    if key == "fire":
        stages = _FIRE_STAGES
        edge_mb = _FIRE_EDGE_MB
        input_mb = _FIRE_INPUT_MB
        default_pin = True
    else:
        plain = _PLAIN_STAGES[key]
        n = len(plain)
        stages = tuple((sid, label, 1.0 / n, 1.0 / n) for sid, label in plain)
        edge_mb = tuple(_PLAIN_EDGE_MB for _ in range(n - 1))
        input_mb = _PLAIN_INPUT_MB
        default_pin = False
    pin = default_pin if pin_entry is None else pin_entry
    var_total = profile.std**2
    vertices = []
    for i, (sid, label, mean_frac, var_frac) in enumerate(stages):
        out_mb = edge_mb[i] if i < len(edge_mb) else _EXIT_MB
        vertices.append(
            MicroServiceSpec(
                id=f"{key}.{sid}",
                name=label,
                app=key,
                work=NormalSpec(
                    profile.mean * mean_frac, math.sqrt(var_total * var_frac)
                ),
                output_data=out_mb,
                location_pinned=pin and i == 0,
            )
        )
    edges = tuple(
        Edge(vertices[i].id, vertices[i + 1].id, vertices[i].output_data)
        for i in range(len(vertices) - 1)
    )
    return WorkflowSpec(key, tuple(vertices), edges, input_mb)


def to_monolithic(w: WorkflowSpec) -> WorkflowSpec:
    """Collapse a workflow into one unit: means add, variances add.

    The collapsed vertex keeps the exit's output payload and is pinned if
    any component was pinned.
    """
    mean = left_sum(v.work.mean for v in w.vertices)
    var = left_sum(v.work.std**2 for v in w.vertices)
    exit_ids = w.exits()
    out_mb = max(w.vertex(e).output_data for e in exit_ids)
    pinned = any(v.location_pinned for v in w.vertices)
    vertex = MicroServiceSpec(
        id=f"{w.app}.mono",
        name=f"{w.app} (monolithic)",
        app=w.app,
        work=NormalSpec(mean, math.sqrt(var)),
        output_data=out_mb,
        location_pinned=pinned,
    )
    return WorkflowSpec(w.app, (vertex,), (), w.input_mb)


def incoming_data_mb(w: WorkflowSpec) -> dict[str, float]:
    """Payload that must move for each vertex to start on another fog.

    Entries receive the workflow input; other vertices receive their
    heaviest incoming edge payload.
    """
    sizes: dict[str, float] = {v.id: 0.0 for v in w.vertices}
    has_in = set()
    for e in w.edges:
        has_in.add(e.dst)
        sizes[e.dst] = max(sizes[e.dst], e.data_mb)
    for v in w.vertices:
        if v.id not in has_in:
            sizes[v.id] = w.input_mb
    return sizes


# ------------------------------------------------------------------ deadlines


@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-service deadline parameters.

    Each stage gets its mean execution time plus a constant slack
    (``epsilon_ms``) plus the mean one-hop communication delay
    (``mean_comm_ms``); the workflow deadline is the sum over stages.
    """

    epsilon_ms: float = 50.0
    mean_comm_ms: float = 20.0

    def __post_init__(self) -> None:
        for term in (self.epsilon_ms, self.mean_comm_ms):
            # written so that a NaN fails it
            if not 0 <= term < math.inf:
                raise ValueError(
                    "deadline slack terms must be non-negative and finite, "
                    f"got {term}"
                )


def service_slacks(
    w: WorkflowSpec, policy: DeadlinePolicy, mean_exec: dict[str, float]
) -> dict[str, float]:
    """Arrival-relative budget each stage contributes to the deadline."""
    out: dict[str, float] = {}
    for v in w.vertices:
        try:
            e = mean_exec[v.id]
        except KeyError:
            raise KeyError(f"no mean execution time for {v.id}") from None
        # written so that a NaN fails it
        if not e > 0:
            raise ValueError(f"mean execution time must be positive: {v.id}")
        out[v.id] = e + policy.epsilon_ms + policy.mean_comm_ms
    return out


# --------------------------------------------------------------- requests


@dataclass(slots=True, eq=False)
class Request:
    """One arriving unit of work, already stamped with its deadline.

    ``workflow_deadline`` is absolute.  Each stage's arrival-relative
    budget belongs to the shape, not the request: the run's context
    derives it from ``spec`` (see ``sim.Context.shape_slacks``).  Slotted
    rather than frozen, since a run builds one per arrival; never changed
    after it is built.
    """

    id: int
    arrival_ms: float
    kind: str  # "workflow" | "monolithic"
    spec: WorkflowSpec
    origin_fog: int
    workflow_deadline: float

    def __post_init__(self) -> None:
        if self.kind not in ("workflow", "monolithic"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        # written so that a NaN fails them
        if not self.arrival_ms >= 0:
            raise ValueError(
                f"arrival must be non-negative, got {self.arrival_ms}"
            )
        if not self.workflow_deadline > self.arrival_ms:
            raise ValueError("workflow deadline must exceed the arrival time")


def assign_deadlines(
    w: WorkflowSpec,
    arrival_ms: float,
    slacks: Mapping[str, float],
    *,
    request_id: int = 0,
    origin_fog: int = 0,
    kind: str = "workflow",
) -> Request:
    """Stamp a workflow with its deadlines at its arrival.

    ``slacks`` is the shape's ``service_slacks``: every stage gets the slack
    E_i + epsilon + d_c.  The workflow deadline is the arrival plus every
    stage's slack, so the end-to-end budget grows with the number of
    stages.
    """
    # id, arrival_ms, kind, spec, origin_fog, workflow_deadline
    return Request(
        request_id,
        arrival_ms,
        kind,
        w,
        origin_fog,
        arrival_ms + left_sum(slacks.values()),
    )
