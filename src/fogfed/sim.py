"""Deterministic discrete-event simulation of a fog federation.

One engine instance per run.  Requests arrive at a gateway fog, get
partitioned (memoized per workflow shape) and allocated, then execute as
micro-service instances on FIFO-queued fog nodes.  Actual execution and
transfer durations are sampled from the same PMFs the estimators use, so
there is no model mismatch unless a scenario injects one.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .alloc import (
    AllocationDecision,
    CompletionModel,
    QueueEstimate,
    allocate_mcc,
    allocate_mect,
    allocate_mr,
    allocate_no_federation,
    validate_mr_decision,
)
from .dist import sample
from .federation import (
    EtcMatrix,
    EttMatrix,
    FederationTopology,
    hop_distance,
    mean_exec_profile,
)
from .model import (
    DeadlinePolicy,
    Request,
    WorkflowSpec,
    assign_deadlines,
    to_monolithic,
)
from .partition import (
    PartitionConfig,
    PartitionPlan,
    build_plan,
    validate_plan,
)

ALLOC_METHODS = ("mr", "mect", "mcc", "nofed")

_ARRIVAL, _TRANSFER, _EXEC_DONE = 0, 1, 2


@dataclass(frozen=True)
class WorkloadSpec:
    """How many requests, what fraction monolithic, over which window."""

    total_requests: int
    mix: float = 0.0
    window_ms: float = 100_000.0

    def __post_init__(self) -> None:
        if self.total_requests < 1:
            raise ValueError("need at least one request")
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError("mix must lie in [0, 1]")
        if self.window_ms <= 0:
            raise ValueError("window must be positive")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything one run needs; immutable and shareable across seeds."""

    scenario: str
    method: str
    topo: FederationTopology
    etc: EtcMatrix
    ett: EttMatrix
    templates: tuple[WorkflowSpec, ...]
    workload: WorkloadSpec
    policy: DeadlinePolicy
    partition_cfg: PartitionConfig
    alloc_method: str
    origin_fog: int = 0
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if self.alloc_method not in ALLOC_METHODS:
            raise ValueError(
                f"unknown allocation method {self.alloc_method!r}"
            )
        self.topo.fog(self.origin_fog)
        if not self.templates:
            raise ValueError("need at least one application template")


@dataclass(frozen=True, eq=False)
class SimReport:
    scenario: str
    method: str
    requests: int
    mix: float
    degree: int
    seed: int
    meet_rate: float
    avg_makespan_ms: float
    met: int
    missed: int
    remote_assignments: int
    mr_violations: int
    plan_violations: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.meet_rate <= 1.0:
            raise ValueError("meet rate out of range")
        if self.avg_makespan_ms < 0:
            raise ValueError("negative makespan")


def generate_workload(
    spec: WorkloadSpec,
    seed: int,
    *,
    templates: tuple[WorkflowSpec, ...],
    policy: DeadlinePolicy,
    mean_exec: dict[str, float],
    origin_fog: int = 0,
) -> list[Request]:
    """Seeded Poisson arrivals over the window; apps round-robin.

    Conditioned on the request count, Poisson arrival times are uniform
    order statistics, so the window is filled with sorted uniform draws.
    The monolithic flag interleaves deterministically at the given mix.
    """
    rng = np.random.default_rng([seed, 0])
    arrivals = np.sort(rng.uniform(0.0, spec.window_ms, spec.total_requests))
    monos = {w.app: to_monolithic(w) for w in templates}
    requests = []
    for i in range(spec.total_requests):
        template = templates[i % len(templates)]
        is_mono = math.floor((i + 1) * spec.mix) > math.floor(i * spec.mix)
        shape = monos[template.app] if is_mono else template
        requests.append(
            assign_deadlines(
                shape,
                float(arrivals[i]),
                policy,
                mean_exec,
                request_id=i,
                origin_fog=origin_fog,
                kind="monolithic" if is_mono else "workflow",
            )
        )
    return requests


def partition_deadlines(
    plan: PartitionPlan, request: Request
) -> tuple[float, ...]:
    """Arrival-relative budget of each partition: sum of member slacks."""
    slacks = {
        vid: dl - request.arrival_ms
        for vid, dl in request.per_service_deadlines.items()
    }
    return tuple(
        sum(slacks[v.id] for v in p.vertices) for p in plan.partitions
    )


@dataclass(frozen=True, eq=False)
class _Wiring:
    """How one plan's requests instantiate: the same for every request.

    ``vertices`` holds, in spec order, each vertex's id, partition index,
    predecessor count and sorted successors.
    """

    vertices: tuple[tuple[str, int, int, tuple[str, ...]], ...]
    exits: int


def _wiring(plan: PartitionPlan, spec: WorkflowSpec) -> _Wiring:
    part_of = {
        v.id: i for i, p in enumerate(plan.partitions) for v in p.vertices
    }
    n_preds = {v.id: 0 for v in spec.vertices}
    for e in spec.edges:
        n_preds[e.dst] += 1
    return _Wiring(
        tuple(
            (v.id, part_of[v.id], n_preds[v.id], tuple(spec.successors(v.id)))
            for v in spec.vertices
        ),
        len(spec.exits()),
    )


@dataclass(eq=False)
class _Instance:
    request: Request
    vertex_id: str
    fog: int
    mean_ms: float
    missing: int
    successors: tuple[str, ...]


@dataclass(eq=False)
class _FogRuntime:
    busy_until: list
    queue: deque = field(default_factory=deque)
    pending_mean_ms: float = 0.0


class _Engine:
    def __init__(
        self,
        cfg: RunConfig,
        seed: int,
        trace_sink=None,
        model: "CompletionModel | None" = None,
        plan_cache: "dict | None" = None,
    ):
        self.cfg = cfg
        self.rng = np.random.default_rng([seed, 1])
        self.trace = trace_sink
        self.model = model if model is not None else CompletionModel(
            cfg.etc, cfg.ett
        )
        self.runtimes = {
            f.id: _FogRuntime(busy_until=[None] * f.node_count)
            for f in cfg.topo.fogs
        }
        # (plan, wiring) keyed (partition config, workflow shape, origin);
        # shareable across runs because plans depend only on load-independent
        # inputs
        self._plans = plan_cache if plan_cache is not None else {}
        # (id(spec), origin) -> (spec, (plan, wiring)): spares hashing the
        # whole spec per request; holding the spec keeps its id unique
        self._plan_of: dict[tuple[int, int], tuple] = {}
        # gateway -> (fog id, runtime) of the fogs its allocators read
        self._watched: dict[int, list] = {}
        self._validated: set = set()
        self._heap: list = []
        self._seq = 0
        self._now = 0.0
        self._instances: dict[tuple[int, str], _Instance] = {}
        self._exits_left: dict[int, int] = {}
        self._completions: dict[int, float] = {}
        self.remote_assignments = 0
        self.mr_violations = 0
        self.plan_violations = 0

    # ------------------------------------------------------------- plumbing

    def _push(self, time: float, kind: int, payload) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1

    def _queue_snapshot(self, gateway: int) -> QueueEstimate:
        """Expected waits on the gateway and its neighbours.

        Those are the only fogs an allocator reads.  A busy node's ``u`` is
        never before now, since its completion event is still queued.
        """
        watched = self._watched.get(gateway)
        if watched is None:
            fogs = (gateway, *self.cfg.topo.neighbors(gateway))
            watched = [(fid, self.runtimes[fid]) for fid in fogs]
            self._watched[gateway] = watched
        now = self._now
        waits = {}
        for fid, rt in watched:
            running = sum(u - now for u in rt.busy_until if u is not None)
            backlog = rt.pending_mean_ms + running
            waits[fid] = backlog / len(rt.busy_until)
        return QueueEstimate(waits)

    def _plan_for(self, request: Request) -> tuple[PartitionPlan, _Wiring]:
        memo = (id(request.spec), request.origin_fog)
        seen = self._plan_of.get(memo)
        if seen is not None:
            return seen[1]
        key = (self.cfg.partition_cfg, request.spec, request.origin_fog)
        hit = self._plans.get(key)
        if hit is None:
            plan = build_plan(
                self.cfg.partition_cfg,
                request.spec,
                etc=self.cfg.etc,
                request=request,
                estimator=self.model.estimator,
            )
            hit = (plan, _wiring(plan, request.spec))
            self._plans[key] = hit
        if key not in self._validated:
            self.plan_violations += len(validate_plan(hit[0], request.spec))
            self._validated.add(key)
        self._plan_of[memo] = (request.spec, hit)
        return hit

    def _allocate(
        self, plan: PartitionPlan, request: Request
    ) -> list[AllocationDecision]:
        queues = self._queue_snapshot(request.origin_fog)
        deadlines = partition_deadlines(plan, request)
        origin = request.origin_fog
        if self.cfg.alloc_method == "mr":
            decisions = allocate_mr(
                plan,
                origin,
                self.cfg.topo,
                self.cfg.etc,
                self.cfg.ett,
                queues,
                deadlines,
                self.cfg.ci_level,
                model=self.model,
            )
        else:
            decisions = []
            for idx, part in enumerate(plan.partitions):
                pinned = plan.must_run_local[idx]
                if self.cfg.alloc_method == "mect":
                    d = allocate_mect(
                        part,
                        origin,
                        self.cfg.topo,
                        self.cfg.etc,
                        queues,
                        pinned=pinned,
                        partition_index=idx,
                        model=self.model,
                    )
                elif self.cfg.alloc_method == "mcc":
                    d = allocate_mcc(
                        part,
                        origin,
                        self.cfg.topo,
                        self.cfg.etc,
                        queues,
                        deadlines[idx],
                        pinned=pinned,
                        partition_index=idx,
                        model=self.model,
                    )
                else:
                    d = allocate_no_federation(
                        part,
                        origin,
                        queues=queues,
                        partition_index=idx,
                        model=self.model,
                    )
                decisions.append(d)
        for d in decisions:
            self.mr_violations += len(validate_mr_decision(d))
            if d.chosen != request.origin_fog:
                self.remote_assignments += 1
            if self.trace is not None:
                self.trace(_decision_record(self._now, request, d))
        return decisions

    # --------------------------------------------------------------- events

    def _on_arrival(self, request: Request) -> None:
        plan, wiring = self._plan_for(request)
        decisions = self._allocate(plan, request)
        origin = request.origin_fog
        self._exits_left[request.id] = wiring.exits
        for vid, part_idx, n_preds, successors in wiring.vertices:
            fog = decisions[part_idx].chosen
            entry_needs_transfer = n_preds == 0 and fog != origin
            inst = _Instance(
                request=request,
                vertex_id=vid,
                fog=fog,
                mean_ms=self.cfg.etc.pmf(vid, fog).mean,
                missing=n_preds + int(entry_needs_transfer),
                successors=successors,
            )
            self._instances[(request.id, vid)] = inst
            self.runtimes[fog].pending_mean_ms += inst.mean_ms
            if entry_needs_transfer:
                hops = hop_distance(self.cfg.topo, origin, fog)
                dur = sample(self.cfg.ett.pmf(vid, hops), self.rng)
                self._push(self._now + dur, _TRANSFER, inst)
            elif n_preds == 0:
                self._enqueue(inst)

    def _on_transfer(self, inst: _Instance) -> None:
        inst.missing -= 1
        if inst.missing == 0:
            self._enqueue(inst)

    def _enqueue(self, inst: _Instance) -> None:
        if inst.missing != 0:
            raise RuntimeError(
                f"instance {inst.vertex_id!r} of request {inst.request.id} "
                f"enqueued with {inst.missing} inputs missing"
            )
        rt = self.runtimes[inst.fog]
        rt.queue.append(inst)
        self._dispatch(inst.fog)

    def _dispatch(self, fog: int) -> None:
        rt = self.runtimes[fog]
        while rt.queue:
            try:
                node = rt.busy_until.index(None)
            except ValueError:
                return
            inst = rt.queue.popleft()
            dur = sample(self.cfg.etc.pmf(inst.vertex_id, fog), self.rng)
            until = self._now + dur
            if rt.busy_until[node] is not None:
                raise RuntimeError(f"fog {fog} node {node} dispatched twice")
            rt.busy_until[node] = until
            rt.pending_mean_ms = max(0.0, rt.pending_mean_ms - inst.mean_ms)
            self._push(until, _EXEC_DONE, (fog, node, inst))

    def _on_exec_done(self, fog: int, node: int, inst: _Instance) -> None:
        rt = self.runtimes[fog]
        rt.busy_until[node] = None
        request = inst.request
        if not inst.successors:
            self._exits_left[request.id] -= 1
            if self._exits_left[request.id] == 0:
                self._completions[request.id] = self._now
        for succ in inst.successors:
            nxt = self._instances[(request.id, succ)]
            if nxt.fog == fog:
                nxt.missing -= 1
                if nxt.missing == 0:
                    self._enqueue(nxt)
            else:
                hops = hop_distance(self.cfg.topo, fog, nxt.fog)
                dur = sample(self.cfg.ett.pmf(succ, hops), self.rng)
                self._push(self._now + dur, _TRANSFER, nxt)
        self._dispatch(fog)

    # ------------------------------------------------------------------ run

    def run(self, requests: list[Request], seed: int) -> SimReport:
        for r in requests:
            self._push(r.arrival_ms, _ARRIVAL, r)
        last = -math.inf
        while self._heap:
            time, _, kind, payload = heapq.heappop(self._heap)
            if time < last:
                raise RuntimeError(
                    f"event at {time} ms popped after one at {last} ms"
                )
            last = self._now = time
            if kind == _ARRIVAL:
                self._on_arrival(payload)
            elif kind == _TRANSFER:
                self._on_transfer(payload)
            else:
                self._on_exec_done(*payload)
        total = len(requests)
        if len(self._completions) != total:
            raise RuntimeError("simulation ended with unfinished requests")
        met = sum(
            1
            for r in requests
            if self._completions[r.id] <= r.workflow_deadline
        )
        makespans = [self._completions[r.id] - r.arrival_ms for r in requests]
        return SimReport(
            scenario=self.cfg.scenario,
            method=self.cfg.method,
            requests=total,
            mix=self.cfg.workload.mix,
            degree=self.cfg.topo.degree(self.cfg.origin_fog),
            seed=seed,
            meet_rate=met / total,
            avg_makespan_ms=float(np.mean(makespans)),
            met=met,
            missed=total - met,
            remote_assignments=self.remote_assignments,
            mr_violations=self.mr_violations,
            plan_violations=self.plan_violations,
        )


def _decision_record(now: float, request: Request, d: AllocationDecision):
    return {
        "time_ms": round(now, 3),
        "request": request.id,
        "app": request.spec.app,
        "kind": request.kind,
        "method": d.method,
        "partition": d.partition_index,
        "local_fog": d.local_fog,
        "chosen": d.chosen,
        "reason": d.reason,
        "candidates": [
            {
                "fog": r.fog,
                "hops": r.hops,
                "mean_ms": round(r.mean_ms, 3),
                "p": None if math.isnan(r.p) else round(r.p, 6),
                "ci": None if r.ci is None else [r.ci.lo, r.ci.hi],
                "in_f": r.in_f,
                "blocked": r.blocked,
            }
            for r in d.candidates
        ],
    }


def simulate_requests(
    cfg: RunConfig,
    requests: list[Request],
    seed: int,
    trace_sink=None,
    *,
    model: "CompletionModel | None" = None,
    plan_cache: "dict | None" = None,
) -> SimReport:
    """Run the engine on an explicit request list (testing entry point)."""
    engine = _Engine(cfg, seed, trace_sink, model=model, plan_cache=plan_cache)
    return engine.run(requests, seed)


def run(
    cfg: RunConfig,
    seed: int,
    trace_sink=None,
    *,
    model: "CompletionModel | None" = None,
    plan_cache: "dict | None" = None,
) -> SimReport:
    """Generate the seeded workload and simulate it to quiescence."""
    mean_exec = {
        t: mean_exec_profile(cfg.etc, t) for t in cfg.etc.types()
    }
    requests = generate_workload(
        cfg.workload,
        seed,
        templates=cfg.templates,
        policy=cfg.policy,
        mean_exec=mean_exec,
        origin_fog=cfg.origin_fog,
    )
    return simulate_requests(
        cfg, requests, seed, trace_sink, model=model, plan_cache=plan_cache
    )


def aggregate(reports: list[SimReport]) -> list[dict]:
    """Mean and 95% CI half-width per (scenario, method, load) cell."""
    cells: dict[tuple, list[SimReport]] = {}
    for r in reports:
        key = (r.scenario, r.method, r.requests, r.mix, r.degree)
        cells.setdefault(key, []).append(r)
    rows = []
    for key in sorted(cells):
        group = cells[key]
        if len(group) < 2:
            raise ValueError(
                f"cell {key} has {len(group)} run(s); need at least 2"
            )
        meets = np.array([g.meet_rate for g in group])
        spans = np.array([g.avg_makespan_ms for g in group])
        n = len(group)
        rows.append(
            {
                "scenario": key[0],
                "method": key[1],
                "requests": key[2],
                "mix": key[3],
                "degree": key[4],
                "n": n,
                "meet_rate_mean": float(meets.mean()),
                "meet_rate_ci": float(
                    1.96 * meets.std(ddof=1) / math.sqrt(n)
                ),
                "makespan_mean": float(spans.mean()),
                "makespan_ci": float(
                    1.96 * spans.std(ddof=1) / math.sqrt(n)
                ),
            }
        )
    return rows
