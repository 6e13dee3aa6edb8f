"""Deterministic discrete-event simulation of a fog federation.

One engine instance per run.  Requests arrive at a gateway fog, get
partitioned (memoized per workflow shape) and allocated, then execute as
micro-service instances on FIFO-queued fog nodes.  Actual execution and
transfer durations are sampled from the same PMFs the estimators use, and
no scenario field can inject a mismatch between the two yet, so every
allocator decides with exact knowledge of the distributions it meets.

Only the work a run's events cause is paid per event.  Arrivals are an
exogenous stream known in advance, so they are merged in time order from
the sorted request list instead of sitting in the event heap, which then
holds only the few in-flight transfers and executions.  Each request's
instances are linked to their successors when it arrives, and each carries
its execution PMF, so no event looks an instance or a PMF up again.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from types import MappingProxyType

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
from .dist import LatencyPmf, sample
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
    service_slacks,
    to_monolithic,
)
from .partition import (
    PartitionConfig,
    PartitionPlan,
    build_plan,
    validate_plan,
)

ALLOC_METHODS = ("mr", "mect", "mcc", "nofed")

_TRANSFER, _EXEC_DONE = 0, 1


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
        if not self.window_ms > 0:
            raise ValueError("window must be positive")


@dataclass(frozen=True, eq=False)
class Context:
    """One (scenario, degree) cell: its federation, tables and shared caches.

    Built once per cell and read by every run of it.  The constructor
    derives the completion model, each type's mean exec time (the E_i of
    deadlines), each template's (workflow, monolithic) shape pair and the
    plan cache.  ``plans`` maps a partition config to
    ``{(id(spec), origin): (spec, plan, wiring)}``; plans depend only on
    load-independent inputs, and holding the spec keeps its id unique.
    ``slacks`` maps ``id(spec)`` to ``(spec, read-only slacks)`` the same
    way; see ``shape_slacks``.
    """

    topo: FederationTopology
    etc: EtcMatrix
    ett: EttMatrix
    templates: tuple[WorkflowSpec, ...]
    policy: DeadlinePolicy
    origin_fog: int = 0
    model: CompletionModel = field(init=False)
    mean_exec: dict[str, float] = field(init=False)
    shapes: tuple[tuple[WorkflowSpec, WorkflowSpec], ...] = field(init=False)
    slacks: dict = field(init=False)
    plans: dict = field(init=False)

    def __post_init__(self) -> None:
        self.topo.fog(self.origin_fog)
        if not self.templates:
            raise ValueError("need at least one application template")
        derived = {
            "model": CompletionModel(self.etc, self.ett),
            "mean_exec": {
                t: mean_exec_profile(self.etc, t) for t in self.etc.types()
            },
            "shapes": tuple((w, to_monolithic(w)) for w in self.templates),
            "slacks": {},
            "plans": {},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def shape_slacks(self, spec: WorkflowSpec) -> MappingProxyType:
        """Read-only ``service_slacks`` of ``spec``, computed once.

        Computed on first use rather than in the constructor: a context
        may hold a shape its ETC has no entry for, such as a monolithic
        shape no request takes.
        """
        hit = self.slacks.get(id(spec))
        if hit is None:
            slacks = service_slacks(spec, self.policy, self.mean_exec)
            hit = (spec, MappingProxyType(slacks))
            self.slacks[id(spec)] = hit
        return hit[1]


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One cell's run settings; immutable and shareable across seeds."""

    scenario: str
    method: str
    ctx: Context
    workload: WorkloadSpec
    partition_cfg: PartitionConfig
    alloc_method: str
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        if self.alloc_method not in ALLOC_METHODS:
            raise ValueError(
                f"unknown allocation method {self.alloc_method!r}"
            )


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
        if not self.avg_makespan_ms >= 0:
            raise ValueError(
                f"makespan must be non-negative, got {self.avg_makespan_ms}"
            )


def generate_workload(
    spec: WorkloadSpec, seed: int, ctx: Context
) -> list[Request]:
    """Seeded Poisson arrivals over the window; apps round-robin.

    Conditioned on the request count, Poisson arrival times are uniform
    order statistics, so the window is filled with sorted uniform draws.
    The monolithic flag interleaves deterministically at the given mix.
    Requests of one shape share the context's slacks mapping.
    """
    rng = np.random.default_rng([seed, 0])
    arrivals = np.sort(rng.uniform(0.0, spec.window_ms, spec.total_requests))
    shapes = ctx.shapes
    # (shape, slacks, kind) per (template, monolithic) slot, filled on first
    # use: a context may hold a shape its ETC lacks, such as a monolithic
    # shape no request takes at mix 0
    stamps = [None] * (2 * len(shapes))
    requests = []
    for i, arrival in enumerate(arrivals.tolist()):
        is_mono = math.floor((i + 1) * spec.mix) > math.floor(i * spec.mix)
        slot = 2 * (i % len(shapes)) + is_mono
        stamp = stamps[slot]
        if stamp is None:
            shape = shapes[slot // 2][is_mono]
            stamp = stamps[slot] = (
                shape,
                ctx.shape_slacks(shape),
                "monolithic" if is_mono else "workflow",
            )
        requests.append(
            assign_deadlines(
                stamp[0],
                arrival,
                stamp[1],
                request_id=i,
                origin_fog=ctx.origin_fog,
                kind=stamp[2],
            )
        )
    return requests


def partition_deadlines(
    plan: PartitionPlan, request: Request
) -> tuple[float, ...]:
    """Arrival-relative budget of each partition: sum of member slacks."""
    slacks = request.slacks
    return tuple(
        sum(slacks[v.id] for v in p.vertices) for p in plan.partitions
    )


@dataclass(frozen=True, eq=False)
class _Wiring:
    """How one plan's requests instantiate: the same for every request.

    ``vertices`` holds, in spec order, each vertex's id, partition index
    and predecessor count.  ``links`` holds ``(i, successor indices)`` of
    each vertex with successors, indices into ``vertices`` in sorted
    successor order.
    """

    vertices: tuple[tuple[str, int, int], ...]
    links: tuple[tuple[int, tuple[int, ...]], ...]
    exits: int


def _wiring(plan: PartitionPlan, spec: WorkflowSpec) -> _Wiring:
    part_of = {
        v.id: i for i, p in enumerate(plan.partitions) for v in p.vertices
    }
    index = {v.id: i for i, v in enumerate(spec.vertices)}
    n_preds = {v.id: 0 for v in spec.vertices}
    for e in spec.edges:
        n_preds[e.dst] += 1
    links = []
    for v in spec.vertices:
        successors = spec.successors(v.id)
        if successors:
            links.append((index[v.id], tuple(index[s] for s in successors)))
    return _Wiring(
        tuple((v.id, part_of[v.id], n_preds[v.id]) for v in spec.vertices),
        tuple(links),
        len(spec.exits()),
    )


@dataclass(slots=True, eq=False)
class _Instance:
    """One vertex of one request, placed on ``fog``.

    ``successors`` are the instances its output feeds, so links point
    forward along the workflow's edges only and a finished request's
    instances are freed by reference counting.  ``node`` is the node it
    runs on once dispatched.
    """

    request: Request
    vertex_id: str
    fog: int
    pmf: LatencyPmf
    missing: int
    successors: Sequence[_Instance] = ()
    node: int = -1


@dataclass(slots=True, eq=False)
class _FogRuntime:
    busy_until: list
    free: int
    queue: deque = field(default_factory=deque)
    pending_mean_ms: float = 0.0


class _Engine:
    def __init__(self, cfg: RunConfig, seed: int, trace_sink=None):
        self.cfg = cfg
        self.ctx = cfg.ctx
        self.rng = np.random.default_rng([seed, 1])
        self.trace = trace_sink
        self._stamp = _trace_stamp(cfg.scenario, cfg.method, seed)
        self.runtimes = {
            f.id: _FogRuntime([None] * f.node_count, f.node_count)
            for f in self.ctx.topo.fogs
        }
        self._plans = self.ctx.plans.setdefault(cfg.partition_cfg, {})
        # plan keys validated in this run: plan_violations counts per run
        self._validated: set = set()
        # (plan key, id(slacks)) -> (slacks, partition budgets); holding
        # the slacks keeps its id unique for the run
        self._budgets: dict = {}
        # gateway -> (fog id, runtime, node count) of the fogs its
        # allocators read
        self._watched: dict[int, list] = {}
        # the plain function: a bound method held by its own engine is a
        # reference cycle, which keeps each finished run's engine and its
        # instances alive until the cyclic collector runs
        self._decide = _Engine._DECIDERS[cfg.alloc_method]
        self._heap: list = []
        self._seq = 0
        self._now = 0.0
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
        never before now, since its completion event is still queued.  An
        idle fog has no running work to sum; otherwise the busy nodes are
        summed in node order.
        """
        watched = self._watched.get(gateway)
        if watched is None:
            fogs = (gateway, *self.ctx.topo.neighbors(gateway))
            watched = [
                (fid, self.runtimes[fid], len(self.runtimes[fid].busy_until))
                for fid in fogs
            ]
            self._watched[gateway] = watched
        now = self._now
        waits = {}
        for fid, rt, n in watched:
            if rt.free == n:
                waits[fid] = rt.pending_mean_ms / n
                continue
            running = sum([u - now for u in rt.busy_until if u is not None])
            waits[fid] = (rt.pending_mean_ms + running) / n
        return QueueEstimate(waits)

    def _plan_for(self, request: Request) -> tuple:
        """(spec, plan, wiring) of the request's shape at its origin."""
        key = (id(request.spec), request.origin_fog)
        hit = self._plans.get(key)
        if hit is None:
            plan = build_plan(
                self.cfg.partition_cfg,
                request.spec,
                model=self.ctx.model,
                request=request,
            )
            hit = (request.spec, plan, _wiring(plan, request.spec))
            self._plans[key] = hit
        if key not in self._validated:
            self.plan_violations += len(validate_plan(hit[1], request.spec))
            self._validated.add(key)
        return hit

    def _deadlines(
        self, plan: PartitionPlan, request: Request
    ) -> tuple[float, ...]:
        """``partition_deadlines``, once per plan and slacks mapping a run."""
        slacks = request.slacks
        key = (id(request.spec), request.origin_fog, id(slacks))
        hit = self._budgets.get(key)
        if hit is None:
            hit = (slacks, partition_deadlines(plan, request))
            self._budgets[key] = hit
        return hit[1]

    def _allocate(
        self, plan: PartitionPlan, request: Request
    ) -> list[AllocationDecision]:
        queues = self._queue_snapshot(request.origin_fog)
        decisions = self._decide(self, plan, request, queues)
        for d in decisions:
            if d.chosen != request.origin_fog:
                self.remote_assignments += 1
            if self.trace is not None:
                self.trace(
                    _decision_line(self._now, request, d, self._stamp)
                )
        return decisions

    # The allocators are looked up in this module's namespace at each call,
    # so a replaced ``fogfed.sim.allocate_*`` is the one that runs.

    def _decide_mr(self, plan, request, queues):
        ctx = self.ctx
        decisions = allocate_mr(
            plan,
            request.origin_fog,
            ctx.topo,
            ctx.etc,
            ctx.ett,
            queues,
            self._deadlines(plan, request),
            self.cfg.ci_level,
            model=ctx.model,
        )
        # the contract check of the other methods is empty by definition
        for d in decisions:
            self.mr_violations += len(validate_mr_decision(d))
        return decisions

    def _decide_mect(self, plan, request, queues):
        ctx = self.ctx
        return [
            allocate_mect(
                part,
                request.origin_fog,
                ctx.topo,
                ctx.etc,
                queues,
                pinned=pinned,
                partition_index=idx,
                model=ctx.model,
            )
            for idx, (part, pinned) in enumerate(
                zip(plan.partitions, plan.must_run_local)
            )
        ]

    def _decide_mcc(self, plan, request, queues):
        ctx = self.ctx
        deadlines = self._deadlines(plan, request)
        return [
            allocate_mcc(
                part,
                request.origin_fog,
                ctx.topo,
                ctx.etc,
                queues,
                deadlines[idx],
                pinned=pinned,
                partition_index=idx,
                model=ctx.model,
            )
            for idx, (part, pinned) in enumerate(
                zip(plan.partitions, plan.must_run_local)
            )
        ]

    def _decide_nofed(self, plan, request, queues):
        return [
            allocate_no_federation(
                part,
                request.origin_fog,
                queues=queues,
                partition_index=idx,
                model=self.ctx.model,
            )
            for idx, part in enumerate(plan.partitions)
        ]

    _DECIDERS = {
        "mr": _decide_mr,
        "mect": _decide_mect,
        "mcc": _decide_mcc,
        "nofed": _decide_nofed,
    }

    # --------------------------------------------------------------- events

    def _on_arrival(self, request: Request) -> None:
        _spec, plan, wiring = self._plan_for(request)
        decisions = self._allocate(plan, request)
        origin = request.origin_fog
        etc = self.ctx.etc
        self._exits_left[request.id] = wiring.exits
        insts = []
        for vid, part_idx, n_preds in wiring.vertices:
            fog = decisions[part_idx].chosen
            entry_needs_transfer = n_preds == 0 and fog != origin
            pmf = etc.pmf(vid, fog)
            inst = _Instance(
                request, vid, fog, pmf, n_preds + entry_needs_transfer
            )
            insts.append(inst)
            self.runtimes[fog].pending_mean_ms += pmf.mean
            if entry_needs_transfer:
                hops = hop_distance(self.ctx.topo, origin, fog)
                dur = sample(self.ctx.ett.pmf(vid, hops), self.rng)
                self._push(self._now + dur, _TRANSFER, inst)
            elif n_preds == 0:
                self._enqueue(inst)
        # no event of this request has run yet, so linking last is safe
        for i, succ in wiring.links:
            insts[i].successors = [insts[j] for j in succ]

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
        while rt.queue and rt.free:
            # the lowest free node, so snapshot sums keep their order
            node = rt.busy_until.index(None)
            inst = rt.queue.popleft()
            dur = sample(inst.pmf, self.rng)
            until = self._now + dur
            if rt.busy_until[node] is not None:
                raise RuntimeError(f"fog {fog} node {node} dispatched twice")
            rt.busy_until[node] = until
            rt.free -= 1
            rt.pending_mean_ms = max(0.0, rt.pending_mean_ms - inst.pmf.mean)
            inst.node = node
            self._push(until, _EXEC_DONE, inst)

    def _on_exec_done(self, inst: _Instance) -> None:
        fog = inst.fog
        rt = self.runtimes[fog]
        rt.busy_until[inst.node] = None
        rt.free += 1
        if not inst.successors:
            rid = inst.request.id
            self._exits_left[rid] -= 1
            if self._exits_left[rid] == 0:
                self._completions[rid] = self._now
        for nxt in inst.successors:
            if nxt.fog == fog:
                nxt.missing -= 1
                if nxt.missing == 0:
                    self._enqueue(nxt)
            else:
                hops = hop_distance(self.ctx.topo, fog, nxt.fog)
                dur = sample(self.ctx.ett.pmf(nxt.vertex_id, hops), self.rng)
                self._push(self._now + dur, _TRANSFER, nxt)
        self._dispatch(fog)

    # ------------------------------------------------------------------ run

    def run(self, requests: list[Request], seed: int) -> SimReport:
        """Simulate ``requests`` to quiescence.

        Arrivals are taken in time order from the list, sorted stably, and
        come before a heap event at the same time, as if each had been
        pushed before the run started.
        """
        arrivals = sorted(requests, key=attrgetter("arrival_ms"))
        heap = self._heap
        i, n = 0, len(arrivals)
        last = -math.inf
        while True:
            if i < n and (not heap or arrivals[i].arrival_ms <= heap[0][0]):
                request = arrivals[i]
                i += 1
                time, kind = request.arrival_ms, None
            elif heap:
                time, _, kind, inst = heapq.heappop(heap)
            else:
                break
            if time < last:
                raise RuntimeError(
                    f"event at {time} ms popped after one at {last} ms"
                )
            last = self._now = time
            if kind is None:
                self._on_arrival(request)
            elif kind == _TRANSFER:
                self._on_transfer(inst)
            else:
                self._on_exec_done(inst)
        return self._report(requests, seed)

    def _report(self, requests: list[Request], seed: int) -> SimReport:
        """The finished run's report; every request must have completed."""
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
            degree=self.ctx.topo.degree(self.ctx.origin_fog),
            seed=seed,
            meet_rate=met / total,
            avg_makespan_ms=float(np.mean(makespans)),
            met=met,
            missed=total - met,
            remote_assignments=self.remote_assignments,
            mr_violations=self.mr_violations,
            plan_violations=self.plan_violations,
        )


# json.dumps spells these floats differently from float.__repr__
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x) -> str:
    """``json.dumps(x)`` of an int or float."""
    if not isinstance(x, float):
        return int.__repr__(x)
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def _trace_stamp(scenario: str, method: str, seed: int) -> str:
    """The run's fields of every trace line, from ``run_method`` on."""
    return ', "run_method": %s, "scenario": %s, "seed": %d, "time_ms": ' % (
        _json_str(method),
        _json_str(scenario),
        seed,
    )


def _candidate_json(r) -> str:
    return (
        '{"blocked": %s, "ci": %s, "fog": %d, "hops": %d, "in_f": %s, '
        '"mean_ms": %s, "p": %s}'
        % (
            "true" if r.blocked else "false",
            "null"
            if r.ci is None
            else "[%s, %s]" % (_json_number(r.ci.lo), _json_number(r.ci.hi)),
            r.fog,
            r.hops,
            "true" if r.in_f else "false",
            _json_number(round(r.mean_ms, 3)),
            "null" if math.isnan(r.p) else _json_number(round(r.p, 6)),
        )
    )


def _exact_decision_line(
    now: float, request: Request, d: AllocationDecision, stamp: str
) -> str:
    """``_decision_line`` for any record, non-finite numbers included."""
    return (
        '{"app": %s, "candidates": [%s], "chosen": %d, "kind": %s, '
        '"local_fog": %d, "method": %s, "partition": %d, "reason": %s, '
        '"request": %d%s%s}\n'
        % (
            _json_str(request.spec.app),
            ", ".join([_candidate_json(r) for r in d.candidates]),
            d.chosen,
            _json_str(request.kind),
            d.local_fog,
            _json_str(d.method),
            d.partition_index,
            _json_str(d.reason),
            request.id,
            stamp,
            _json_number(round(now, 3)),
        )
    )


_BOOL = ("false", "true")
_CANDIDATE = (
    '{"blocked": %s, "ci": [%r, %r], "fog": %d, "hops": %d, "in_f": %s, '
    '"mean_ms": %r, "p": %s}'
)
_CANDIDATE_NO_CI = (
    '{"blocked": %s, "ci": null, "fog": %d, "hops": %d, "in_f": %s, '
    '"mean_ms": %r, "p": %s}'
)
# line template per candidate shape: one ``ci is None`` flag per candidate
_LINE_TEMPLATES: dict[tuple[bool, ...], str] = {}


def _line_template(shape: tuple[bool, ...]) -> str:
    return (
        '{"app": %s, "candidates": ['
        + ", ".join([_CANDIDATE_NO_CI if n else _CANDIDATE for n in shape])
        + '], "chosen": %d, "kind": %s, "local_fog": %d, "method": %s, '
        '"partition": %d, "reason": %s, "request": %d%s%r}\n'
    )


def _decision_line(
    now: float, request: Request, d: AllocationDecision, stamp: str
) -> str:
    """One decision's trace line, newline included.

    Byte for byte ``json.dumps(record, sort_keys=True)`` of the record
    whose keys are written here in sorted order: the time rounded to 1 µs,
    the request, the decision with each candidate's mean rounded to 1 µs
    and its on-time probability to 1e-6 (``null`` when it has none), and
    the run's ``stamp`` (see ``_trace_stamp``).

    The line is one ``%`` of the template of its candidate shape.  Floats
    go through ``%r`` after ``float()``, which spells a finite float as
    ``json.dumps`` does; a probability of exactly 0 or 1 needs no rounding.
    ``%r`` spells a non-finite float ``inf`` or ``nan``, so a line holding
    either text is encoded again by ``_exact_decision_line``.
    """
    cands = d.candidates
    shape = tuple([r.ci is None for r in cands])
    template = _LINE_TEMPLATES.get(shape)
    if template is None:
        template = _LINE_TEMPLATES[shape] = _line_template(shape)
    args = [_json_str(request.spec.app)]
    for r in cands:
        ci = r.ci
        if ci is None:
            args.append(_BOOL[r.blocked])
        else:
            args += (_BOOL[r.blocked], float(ci.lo), float(ci.hi))
        p = r.p
        if p != p:
            p = "null"
        elif p == 0.0 or p == 1.0:
            p = float(p)
        else:
            p = float(round(p, 6))
        args += (r.fog, r.hops, _BOOL[r.in_f], float(round(r.mean_ms, 3)), p)
    args += (
        d.chosen,
        _json_str(request.kind),
        d.local_fog,
        _json_str(d.method),
        d.partition_index,
        _json_str(d.reason),
        request.id,
        stamp,
        float(round(now, 3)),
    )
    line = template % tuple(args)
    if "inf" in line or "nan" in line:
        return _exact_decision_line(now, request, d, stamp)
    return line


def simulate_requests(
    cfg: RunConfig, requests: list[Request], seed: int, trace_sink=None
) -> SimReport:
    """Run the engine on an explicit request list (testing entry point)."""
    return _Engine(cfg, seed, trace_sink).run(requests, seed)


def run(cfg: RunConfig, seed: int, trace_sink=None) -> SimReport:
    """Generate the seeded workload and simulate it to quiescence.

    ``trace_sink``, when given, is called with each allocation decision's
    JSON trace line (see ``_decision_line``), in decision order.
    """
    requests = generate_workload(cfg.workload, seed, cfg.ctx)
    return simulate_requests(cfg, requests, seed, trace_sink)


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
