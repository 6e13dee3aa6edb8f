"""Deterministic discrete-event simulation of a fog federation.

One engine instance per run.  Requests arrive at a gateway fog, get
partitioned (one plan per shape and gateway) and allocated, then execute
as micro-service instances on FIFO-queued fog nodes.  Actual execution
and transfer durations are sampled from the same PMFs the estimators
use, and no scenario field can inject a mismatch between the two yet, so
every allocator decides with exact knowledge of the distributions it
meets.  Each execution and transfer time takes the next uniform of the
run's one ``[seed, 1]`` stream, in event order; the stream is read in
blocks (see ``_Uniforms``), which changes no draw.  So two methods whose
events come in different orders draw different times: giving every
method the same draws (common random numbers) is a separate change, and
it moves every digest.

Only the work a run's events cause is paid per event.  Arrivals are an
exogenous stream known in advance, so they are merged in time order from
the sorted request list instead of sitting in the event heap, which then
holds only the few in-flight transfers and executions.  Each request's
instances are linked to their successors when it arrives, and each carries
its execution PMF and its fog's runtime, so no event looks an instance, a
PMF or a fog up again.  Hop counts come from the context's table, heap
pushes are written where they happen, and the per-arrival and per-decision
code builds its lists in plain loops: before CPython 3.12 every
comprehension is a nested function call.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
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
from .dist import LatencyPmf, left_sum, sample
from .federation import (
    EtcMatrix,
    EttMatrix,
    FederationTopology,
    hop_distance,
    mean_exec_profile,
)
# generate_workload stamps each request itself, so nothing here calls
# assign_deadlines; it is imported because perfbench/traced.py wraps it
# under this name.
from .model import (  # noqa: F401
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

_TRANSFER, _EXEC_DONE = 0, 1

# uniforms drawn per refill of a run's stream
_BLOCK = 512


def _uniform_blocks(rng: np.random.Generator):
    while True:
        yield from rng.random(_BLOCK).tolist()


class _Uniforms:
    """A generator's ``random()`` stream, drawn ``_BLOCK`` doubles at a time.

    ``rng.random(n).tolist()`` holds exactly the doubles that ``n`` calls
    of ``rng.random()`` return, in order, so reading blocks changes no
    draw; it only replaces one numpy call per draw with one per block.
    ``random`` is all that ``sample`` needs of a stream.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        self.random = _uniform_blocks(rng).__next__


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

    Built once per cell and read by every run of it.  The constructor derives
    the completion model, each type's mean exec time (the E_i of deadlines),
    each template's (workflow, monolithic) shape pair, the hop table
    (``hops[a][b]`` is ``hop_distance`` from fog ``a`` to fog ``b``) and the
    plan cache.  The context alone owns slacks, which depend only on the
    shape, the deadline policy and the ETC.  ``slacks`` maps ``id(spec)`` to
    ``(spec, read-only slacks)``; see ``shape_slacks``.  ``plans`` maps a
    partition config to ``{(id(spec), origin): _PlanEntry}``: a ``propart``
    plan weighs its splits against the shape's slacks, and no plan depends on
    the load.  ``slacks`` holds every planned spec, which keeps the ids of
    both caches unique.  ``memo`` is the sweep memo (see ``fogfed.dist``) the
    completion model convolves through; a context built without one gets a
    private one.
    """

    topo: FederationTopology
    etc: EtcMatrix
    ett: EttMatrix
    templates: tuple[WorkflowSpec, ...]
    policy: DeadlinePolicy
    origin_fog: int = 0
    memo: "dict | None" = field(default=None, repr=False)
    model: CompletionModel = field(init=False)
    mean_exec: dict[str, float] = field(init=False)
    shapes: tuple[tuple[WorkflowSpec, WorkflowSpec], ...] = field(init=False)
    hops: tuple[tuple[int, ...], ...] = field(init=False)
    slacks: dict = field(init=False)
    plans: dict = field(init=False)

    def __post_init__(self) -> None:
        self.topo.fog(self.origin_fog)
        if not self.templates:
            raise ValueError("need at least one application template")
        fogs = self.topo.fog_ids()
        memo = {} if self.memo is None else self.memo
        derived = {
            "memo": memo,
            "model": CompletionModel(self.etc, self.ett, memo),
            "mean_exec": {
                t: mean_exec_profile(self.etc, t) for t in self.etc.types()
            },
            "shapes": tuple((w, to_monolithic(w)) for w in self.templates),
            "hops": tuple(
                tuple(hop_distance(self.topo, a, b) for b in fogs)
                for a in fogs
            ),
            "slacks": {},
            "plans": {},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def shape_slacks(self, spec: WorkflowSpec) -> Mapping[str, float]:
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
        # written so that a NaN fails it
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(
                f"ci_level must lie in (0, 1), got {self.ci_level}"
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
        # written so that a NaN fails them
        if not self.requests >= 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError(f"mix must be in [0, 1], got {self.mix}")
        if not self.degree >= 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.meet_rate <= 1.0:
            raise ValueError("meet rate out of range")
        if not 0 <= self.avg_makespan_ms < math.inf:
            raise ValueError(
                "makespan must be finite and non-negative, "
                f"got {self.avg_makespan_ms}"
            )


def generate_workload(
    spec: WorkloadSpec, seed: int, ctx: Context
) -> list[Request]:
    """Seeded Poisson arrivals over the window; apps round-robin.

    Conditioned on the request count, Poisson arrival times are uniform
    order statistics, so the window is filled with sorted uniform draws.
    The monolithic flag interleaves deterministically at the given mix:
    request ``i`` is monolithic when ``floor((i + 1) * mix)`` exceeds
    ``floor(i * mix)``, the previous request's upper floor.  Each deadline
    is the arrival plus the total of the shape's ``shape_slacks``, as in
    ``assign_deadlines``; a request carries no slacks of its own.  A drawn
    shape whose types the context's ETC lacks (a context built for another
    mix) raises ``ValueError`` naming the first of them.
    """
    rng = np.random.default_rng([seed, 0])
    arrivals = np.sort(rng.uniform(0.0, spec.window_ms, spec.total_requests))
    shapes = ctx.shapes
    n_shapes = len(shapes)
    mix = spec.mix
    origin = ctx.origin_fog
    # (kind, shape, slack total) per (template, monolithic) slot,
    # filled on first use: a context may hold a shape its ETC lacks, such
    # as a monolithic shape no request takes at mix 0
    stamps = [None] * (2 * n_shapes)
    requests = []
    floor = math.floor
    below = 0  # floor(i * mix)
    for i, arrival in enumerate(arrivals.tolist()):
        above = floor((i + 1) * mix)
        is_mono = above > below
        below = above
        slot = 2 * (i % n_shapes) + is_mono
        stamp = stamps[slot]
        if stamp is None:
            shape = shapes[slot // 2][is_mono]
            kind = "monolithic" if is_mono else "workflow"
            for v in shape.vertices:
                if v.id not in ctx.mean_exec:
                    raise ValueError(
                        f"workload mix {mix} draws {kind} shapes, but the "
                        f"context's ETC has no entry for {v.id!r}"
                    )
            total = left_sum(ctx.shape_slacks(shape).values())
            stamp = stamps[slot] = (kind, shape, total)
        kind, shape, total = stamp
        # id, arrival_ms, kind, spec, origin_fog, workflow_deadline
        requests.append(
            Request(i, arrival, kind, shape, origin, arrival + total)
        )
    return requests


def partition_deadlines(
    plan: PartitionPlan, slacks: Mapping[str, float]
) -> tuple[float, ...]:
    """Arrival-relative budget of each partition: sum of member slacks."""
    return tuple(
        left_sum(slacks[v.id] for v in p.vertices)
        for p in plan.partitions
    )


@dataclass(frozen=True, eq=False)
class _PlanEntry:
    """One plan of ``Context.plans`` and what every request of it reads.

    ``plan`` and ``budgets`` (its ``partition_deadlines``) weigh the
    shape's ``shape_slacks``; ``issues`` is the number of its
    ``validate_plan`` issues.  ``vertices`` holds, in spec
    order, each vertex's id, partition index and predecessor count.
    ``links`` holds ``(i, successor indices)`` of each vertex with
    successors, indices into ``vertices`` in sorted successor order.
    """

    plan: PartitionPlan
    budgets: tuple[float, ...]
    issues: int
    vertices: tuple[tuple[str, int, int], ...]
    links: tuple[tuple[int, tuple[int, ...]], ...]
    exits: int


def _plan_entry(
    cfg: PartitionConfig, ctx: Context, spec: WorkflowSpec, origin: int
) -> _PlanEntry:
    slacks = ctx.shape_slacks(spec)
    plan = build_plan(cfg, spec, model=ctx.model, origin=origin, slacks=slacks)
    issues = len(validate_plan(plan, spec))
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
    return _PlanEntry(
        plan,
        partition_deadlines(plan, slacks),
        issues,
        tuple((v.id, part_of[v.id], n_preds[v.id]) for v in spec.vertices),
        tuple(links),
        len(spec.exits()),
    )


@dataclass(slots=True, eq=False)
class _Instance:
    """One vertex of one request, placed on ``fog``, whose runtime is ``rt``.

    ``successors`` are the instances its output feeds, so links point
    forward along the workflow's edges only and a finished request's
    instances are freed by reference counting.
    """

    request: Request
    vertex_id: str
    fog: int
    pmf: LatencyPmf
    missing: int
    rt: _FogRuntime
    successors: Sequence[_Instance] = ()


@dataclass(slots=True, eq=False)
class _FogRuntime:
    """One fog as counters: ``free`` of its ``nodes`` are idle.

    ``busy_sum`` sums its running instances' completion times (``_dispatch``
    adds each, ``_on_exec_done`` takes it out) and is exactly 0 when idle.
    """

    nodes: int
    free: int
    queue: deque = field(default_factory=deque)
    pending_mean_ms: float = 0.0
    busy_sum: float = 0.0


class _Engine:
    def __init__(self, cfg: RunConfig, seed: int, trace_sink=None):
        self.cfg = cfg
        self.ctx = cfg.ctx
        self.uniforms = _Uniforms(np.random.default_rng([seed, 1]))
        self.trace = trace_sink
        self._stamp = _trace_stamp(cfg.scenario, cfg.method, seed)
        # indexed by fog id: a topology's ``fogs[i].id`` is ``i``
        self.runtimes = [
            _FogRuntime(f.node_count, f.node_count)
            for f in self.ctx.topo.fogs
        ]
        self._plans = self.ctx.plans.setdefault(cfg.partition_cfg, {})
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

    def _queue_snapshot(self, gateway: int) -> QueueEstimate:
        """Expected waits on the gateway and its neighbours.

        Those are the only fogs an allocator reads.  A fog's wait is
        ``(pending + running) / nodes``, ``running`` being ``busy_sum`` less
        ``now`` per busy node.  No completion time is before now (its event
        is still queued), so a negative ``running`` is rounding and reads
        as 0, and an idle fog reads exactly ``pending / nodes``.
        """
        watched = self._watched.get(gateway)
        if watched is None:
            watched = []
            for fid in (gateway, *self.ctx.topo.neighbors(gateway)):
                rt = self.runtimes[fid]
                watched.append((fid, rt, rt.nodes))
            self._watched[gateway] = watched
        now = self._now
        waits = {}
        for fid, rt, n in watched:
            running = rt.busy_sum - (n - rt.free) * now
            pending = rt.pending_mean_ms
            waits[fid] = (pending + running if running > 0.0 else pending) / n
        return QueueEstimate(waits)

    def _plan_for(self, request: Request) -> _PlanEntry:
        """The plan entry of the request's shape and gateway.

        Every arrival counts its plan's issues, as every ``mr`` decision
        counts its own.
        """
        key = (id(request.spec), request.origin_fog)
        entry = self._plans.get(key)
        if entry is None:
            entry = self._plans[key] = _plan_entry(
                self.cfg.partition_cfg, self.ctx, request.spec, key[1]
            )
        self.plan_violations += entry.issues
        return entry

    def _allocate(
        self, entry: _PlanEntry, request: Request
    ) -> list[AllocationDecision]:
        queues = self._queue_snapshot(request.origin_fog)
        decisions = self._decide(self, entry, request, queues)
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

    def _decide_mr(self, entry, request, queues):
        ctx = self.ctx
        decisions = allocate_mr(
            entry.plan,
            request.origin_fog,
            ctx.topo,
            ctx.etc,
            ctx.ett,
            queues,
            entry.budgets,
            self.cfg.ci_level,
            model=ctx.model,
        )
        # the contract check of the other methods is empty by definition
        for d in decisions:
            self.mr_violations += len(validate_mr_decision(d))
        return decisions

    def _decide_mect(self, entry, request, queues):
        ctx = self.ctx
        plan = entry.plan
        decisions = []
        for idx, (part, pinned) in enumerate(
            zip(plan.partitions, plan.must_run_local)
        ):
            decisions.append(
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
            )
        return decisions

    def _decide_mcc(self, entry, request, queues):
        ctx = self.ctx
        plan = entry.plan
        deadlines = entry.budgets
        decisions = []
        for idx, (part, pinned) in enumerate(
            zip(plan.partitions, plan.must_run_local)
        ):
            decisions.append(
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
            )
        return decisions

    def _decide_nofed(self, entry, request, queues):
        decisions = []
        for idx, part in enumerate(entry.plan.partitions):
            decisions.append(
                allocate_no_federation(
                    part,
                    request.origin_fog,
                    queues=queues,
                    partition_index=idx,
                    model=self.ctx.model,
                )
            )
        return decisions

    _DECIDERS = {
        "mr": _decide_mr,
        "mect": _decide_mect,
        "mcc": _decide_mcc,
        "nofed": _decide_nofed,
    }

    # --------------------------------------------------------------- events
    #
    # A heap event is ``(time, seq, kind, instance)``; ``seq`` counts the
    # run's pushes, so events at one time pop in push order.

    def _on_arrival(self, request: Request) -> None:
        entry = self._plan_for(request)
        decisions = self._allocate(entry, request)
        origin = request.origin_fog
        ctx = self.ctx
        etc = ctx.etc
        hops = ctx.hops[origin]
        runtimes = self.runtimes
        self._exits_left[request.id] = entry.exits
        insts = []
        for vid, part_idx, n_preds in entry.vertices:
            fog = decisions[part_idx].chosen
            entry_needs_transfer = n_preds == 0 and fog != origin
            pmf = etc.pmf(vid, fog)
            rt = runtimes[fog]
            inst = _Instance(
                request, vid, fog, pmf, n_preds + entry_needs_transfer, rt
            )
            insts.append(inst)
            rt.pending_mean_ms += pmf.mean
            if entry_needs_transfer:
                dur = sample(ctx.ett.pmf(vid, hops[fog]), self.uniforms)
                heappush(
                    self._heap, (self._now + dur, self._seq, _TRANSFER, inst)
                )
                self._seq += 1
            elif n_preds == 0:
                rt.queue.append(inst)
                if rt.free:
                    self._dispatch(rt)
        # no event of this request has run yet, so linking last is safe
        for i, succ in entry.links:
            insts[i].successors = list(map(insts.__getitem__, succ))

    def _on_transfer(self, inst: _Instance) -> None:
        inst.missing -= 1
        if inst.missing == 0:
            rt = inst.rt
            rt.queue.append(inst)
            if rt.free:
                self._dispatch(rt)

    def _dispatch(self, rt: _FogRuntime) -> None:
        """Start queued instances on free nodes; a no-op when either is none."""
        queue = rt.queue
        while queue and rt.free:
            inst = queue.popleft()
            until = self._now + sample(inst.pmf, self.uniforms)
            rt.busy_sum += until
            rt.free -= 1
            pending = rt.pending_mean_ms - inst.pmf.mean
            rt.pending_mean_ms = pending if pending > 0.0 else 0.0
            heappush(self._heap, (until, self._seq, _EXEC_DONE, inst))
            self._seq += 1

    def _on_exec_done(self, inst: _Instance) -> None:
        rt = inst.rt
        rt.free += 1
        # now is the ``until`` that _dispatch added; an idle fog resets to 0,
        # so rounding never outlives a busy period
        rt.busy_sum = 0.0 if rt.free == rt.nodes else rt.busy_sum - self._now
        if not inst.successors:
            rid = inst.request.id
            self._exits_left[rid] -= 1
            if self._exits_left[rid] == 0:
                self._completions[rid] = self._now
        for nxt in inst.successors:
            if nxt.rt is rt:
                nxt.missing -= 1
                if nxt.missing == 0:
                    rt.queue.append(nxt)
                    if rt.free:
                        self._dispatch(rt)
            else:
                ctx = self.ctx
                dur = sample(
                    ctx.ett.pmf(nxt.vertex_id, ctx.hops[inst.fog][nxt.fog]),
                    self.uniforms,
                )
                heappush(
                    self._heap, (self._now + dur, self._seq, _TRANSFER, nxt)
                )
                self._seq += 1
        # a same-fog successor's dispatch may have taken the freed node
        if rt.queue and rt.free:
            self._dispatch(rt)

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
                time, _, kind, inst = heappop(heap)
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
        completions = self._completions
        met = 0
        makespans = []
        for r in requests:
            done = completions[r.id]
            if done <= r.workflow_deadline:
                met += 1
            makespans.append(done - r.arrival_ms)
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


ALLOC_METHODS = tuple(_Engine._DECIDERS)


def _trace_stamp(scenario: str, method: str, seed: int) -> str:
    """The run's fields of every trace line, from ``run_method`` on."""
    return ', "run_method": %s, "scenario": %s, "seed": %d, "time_ms": ' % (
        _json_str(method),
        _json_str(scenario),
        seed,
    )


_BOOL = ("false", "true")
_INF = math.inf
_CANDIDATE = (
    '{"blocked": %s, "ci": [%s, %s], "fog": %d, "hops": %d, "in_f": %s, '
    '"mean_ms": %s, "p": %s}'
)
_CANDIDATE_NO_CI = (
    '{"blocked": %s, "ci": null, "fog": %d, "hops": %d, "in_f": %s, '
    '"mean_ms": %s, "p": %s}'
)
_HEAD = '{"app": %s, "candidates": ['
_TAIL = (
    '], "chosen": %d, "kind": %s, "local_fog": %d, "method": %s, '
    '"partition": %d, "reason": %s, "request": %d%s%s}\n'
)


def _json_number(arg):
    """``arg``, or ``json.dumps``'s spelling of it if it is a non-finite
    float: ``NaN``, ``Infinity`` or ``-Infinity``."""
    if isinstance(arg, float) and not math.isfinite(arg):
        return "NaN" if arg != arg else "Infinity" if arg > 0 else "-Infinity"
    return arg


def _decision_line(
    now: float, request: Request, d: AllocationDecision, stamp: str
) -> str:
    """One decision's trace line, newline included.

    Byte for byte ``json.dumps(record, sort_keys=True)`` of the record
    whose keys are written here in sorted order: the time rounded to 1 µs,
    the request, the decision with each candidate's mean rounded to 1 µs
    and its on-time probability to 1e-6 (``null`` when it has none), and
    the run's ``stamp`` (see ``_trace_stamp``).

    The line is one ``%`` of a template built with its arguments: one
    fragment per candidate, with or without a CI, joined between a fixed
    head and tail.

    Each rounded number is converted once, inline: ``"%.3f" % x`` (``"%.6f"``
    for a probability) with its trailing zeros trimmed, one ``0`` kept
    after the point.  That is ``json.dumps(round(x, 3))`` wherever
    ``-1e12 < x < 1e12`` (``round(p, 6)`` wherever ``1e-4 <= p < 1e9``):
    ``%f`` and ``round`` take the same correctly rounded decimal; inside the
    guards it has at most 15 significant digits, so no other decimal of at
    most that many reads back as the same double, and it is the shortest
    ``repr`` of ``round``'s result; and ``repr`` writes an exponent only
    below 1e-4, hence the lower guard of ``p``, or from 1e16 on.  Outside
    the guards a number goes through ``round(float(x), n)``, and ``%s``
    spells the result as ``repr`` does.  A probability of exactly 1
    is the constant ``"1.0"``; one of exactly 0 needs no rounding, and
    ``float`` keeps the sign of ``-0.0``.  NaN fails every comparison, so
    it is tested last.

    ``%s`` spells a non-finite float ``inf`` or ``nan``, where JSON wants
    ``Infinity`` or ``NaN``.  Only the CI bounds and the numbers that fell
    back to ``round`` can be non-finite, so each is checked as it is
    converted, and a line holding one is filled with every argument passed
    through ``_json_number``.
    """
    fragments = []
    args = [_json_str(request.spec.app)]
    finite = True
    for r in d.candidates:
        ci = r.ci
        if ci is None:
            fragments.append(_CANDIDATE_NO_CI)
            args.append(_BOOL[r.blocked])
        else:
            fragments.append(_CANDIDATE)
            lo = float(ci.lo)
            hi = float(ci.hi)
            # false for NaN too; bounds out of order cost only a refill
            if not -_INF < lo <= hi < _INF:
                finite = False
            args += (_BOOL[r.blocked], lo, hi)
        mean = r.mean_ms
        if -1e12 < mean < 1e12:
            mean = ("%.3f" % mean).rstrip("0")
            if mean[-1] == ".":
                mean += "0"
        else:
            mean = round(float(mean), 3)
            if not -_INF < mean < _INF:
                finite = False
        p = r.p
        if p == 1.0:
            p = "1.0"
        elif 1e-4 <= p < 1e9:
            p = ("%.6f" % p).rstrip("0")
            if p[-1] == ".":
                p += "0"
        elif p == 0.0:
            p = float(p)
        elif p != p:
            p = "null"
        else:
            p = round(float(p), 6)
            if not -_INF < p < _INF:
                finite = False
        args += (r.fog, r.hops, _BOOL[r.in_f], mean, p)
    if -1e12 < now < 1e12:
        now = ("%.3f" % now).rstrip("0")
        if now[-1] == ".":
            now += "0"
    else:
        now = round(float(now), 3)
        if not -_INF < now < _INF:
            finite = False
    args += (
        d.chosen,
        _json_str(request.kind),
        d.local_fog,
        _json_str(d.method),
        d.partition_index,
        _json_str(d.reason),
        request.id,
        stamp,
        now,
    )
    template = _HEAD + ", ".join(fragments) + _TAIL
    if finite:
        return template % tuple(args)
    return template % tuple(map(_json_number, args))


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
    """Mean and 95% CI half-width per (scenario, method, load) cell.

    The half-width is the normal approximation 1.96 s / sqrt(n), with s
    the sample standard deviation of the cell's n runs.  At few runs it is
    narrower than a Student-t interval, whose multiplier is 12.71 at n = 2
    and 2.045 at n = 30.

    Each run counts once: a second report of the same cell and seed is an
    error, not another repetition.
    """
    cells: dict[tuple, list[SimReport]] = {}
    seen = set()
    for r in reports:
        key = (r.scenario, r.method, r.requests, r.mix, r.degree)
        if (key, r.seed) in seen:
            raise ValueError(f"run {key} with seed {r.seed} appears twice")
        seen.add((key, r.seed))
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
