"""Resource allocation: the probability-maximizing method with its
confidence-interval overlap gate, plus the MECT, MCC, and no-federation
baselines.

All methods see the same load signal: a deterministic expected queue wait
per fog (backlog mean divided by node count).  The probability-based
method shifts completion PMFs by that wait; the mean-based baselines add
the same scalar to their expected completions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

# shift, central_ci, prob_on_time and mean are not called here any more
# (``Completion.candidate`` reproduces them); they stay importable from this
# module because perfbench/traced.py times them under these names.
from .dist import (  # noqa: F401
    CiInterval,
    LatencyPmf,
    central_ci,
    ci_bins,
    ci_disjoint,
    convolve,
    left_sum,
    mean,
    memo_convolve,
    prob_on_time,
    prob_on_time_at,
    shift,
)
from .federation import EtcMatrix, EttMatrix, FederationTopology, hop_distance
from .model import WorkflowSpec

if TYPE_CHECKING:
    from .partition import PartitionPlan

REASONS = (
    "local_default",
    "local_higher_p",
    "remote_ci_disjoint",
    "forced_local_pinned",
    "min_expected_completion",
    "max_certainty",
    "local_no_positive_certainty",
)

# The records below are built once per request or per examined candidate,
# so they are slotted rather than frozen (a frozen constructor sets each
# field through ``object.__setattr__``).  ``allocate_mr`` sets ``in_f`` on
# the records in F and ``blocked`` on those the CI gate rejects before it
# builds their decision; nothing changes a record after that.  The
# allocators pass a record's fields by position: a sweep builds tens of
# thousands of them, and binding keyword arguments costs more per call.


@dataclass(slots=True, eq=False)
class QueueEstimate:
    """Expected wait in ms per fog before a new task reaches a node."""

    waits: dict[int, float]

    def __post_init__(self) -> None:
        # The values alone are checked, with no fog ids to unpack; only a
        # map holding a bad wait is walked again by fog, to name the first.
        inf = math.inf
        for w in self.waits.values():
            if not 0 <= w < inf:
                break
        else:
            return
        for fog, w in self.waits.items():
            if not 0 <= w < inf:
                raise ValueError(
                    f"queue wait for fog {fog} is {w}, not finite and >= 0"
                )

    def wait(self, fog_id: int) -> float:
        return self.waits.get(fog_id, 0.0)


@dataclass(slots=True, eq=False)
class CandidateRecord:
    """One examined fog: bookkeeping for traces and contract checks."""

    fog: int
    hops: int
    mean_ms: float
    p: float = math.nan
    ci: "CiInterval | None" = None
    in_f: bool = False
    blocked: bool = False
    certainty: float = math.nan


@dataclass(slots=True, eq=False)
class AllocationDecision:
    method: str
    partition_index: int
    local_fog: int
    chosen: int
    reason: str
    candidates: tuple[CandidateRecord, ...]

    def __post_init__(self) -> None:
        if self.reason not in REASONS:
            raise ValueError(f"unknown reason {self.reason!r}")


class Completion:
    """Load-independent facts of one base completion PMF at one CI level.

    A queue wait only moves a PMF's grid origin, so the on-time probability,
    confidence interval and mean of the shifted PMF follow from the base's
    origin, width, CDF, CI bin indices and mean by offset arithmetic.

    A wait under half a bin moves nothing (``k == 0`` in ``candidate``), and
    most candidates see an idle fog, so the unshifted record's mean and
    interval are computed once, by ``candidate``'s own expressions at
    ``k = 0``, and its on-time probability once per deadline (``p0``).
    """

    __slots__ = (
        "origin", "width", "cdf", "lo", "hi", "level", "mean",
        "mean0", "ci0", "p0",
    )

    def __init__(self, d: LatencyPmf, level: float):
        self.origin = d.origin
        self.width = d.bin_width
        self.cdf = d.cdf_list
        self.lo, self.hi = ci_bins(d, level)
        self.level = level
        self.mean = d.mean
        w = self.width
        o = self.origin + 0 * w
        self.mean0 = self.mean + 0 * w
        # built through the checking constructor, and shared by every
        # unshifted record: nothing changes an interval once built
        self.ci0 = CiInterval(o + w * self.lo, o + w * self.hi, level)
        self.p0: dict[float, float] = {}

    def candidate(
        self, fog: int, hops: int, wait: float, deadline: float
    ) -> CandidateRecord:
        """The record of the base PMF shifted by ``wait`` (see ``shift``).

        Its p and CI bounds equal ``prob_on_time``/``central_ci`` of the
        shifted PMF bit for bit; its mean agrees to float rounding.
        """
        w = self.width
        k = round(wait / w) if wait else 0
        if k:
            o = self.origin + k * w
            # fog, hops, mean_ms, p, ci
            return CandidateRecord(
                fog,
                hops,
                self.mean + k * w,
                prob_on_time_at(self.cdf, o, w, deadline),
                CiInterval(o + w * self.lo, o + w * self.hi, self.level),
            )
        p = self.p0.get(deadline)
        if p is None:
            p = self.p0[deadline] = prob_on_time_at(
                self.cdf, self.origin + 0 * w, w, deadline
            )
        return CandidateRecord(fog, hops, self.mean0, p, self.ci0)


class CompletionModel:
    """The one cache of load-independent completion facts per context.

    Entries live in a single dict under five key shapes:

    - ``(types, fog, hops, ci_level)``: a ``Completion`` of the end-to-end
      PMF, which ``allocate_mr`` evaluates per queue wait without building
      a shifted PMF;
    - ``(types, fog, hops)``: the end-to-end PMF itself.  With ``hops == 0``
      it is the chain of ``types`` on ``fog``, which the partitioner's
      on-time estimates read too; chains are built by prefix, so partitions
      of one template share their leading convolutions;
    - ``(types, fog)``: the sum of the chain's per-type mean exec times;
    - ``("mr", types, local, origin, ci_level)``: the candidate table of an
      ``mr`` decision at gateway ``local`` whose transfer leaves ``origin``
      (see ``mr_candidates``);
    - ``("mean", types, local)``: the candidate table of a MECT or MCC
      decision at gateway ``local`` (see ``mean_candidates``).

    Nothing is keyed by queue wait or request, so the cache is bounded by
    the partitions, fogs and hop counts a context can see.  The candidate
    tables are keyed without the topology, so a model serves one: the
    first table binds it, and a table asked for under another topology
    raises ``ValueError``.

    Every convolution goes through ``memo``, a sweep memo (see
    ``fogfed.dist``): the models of one sweep's contexts share it, so a
    chain that several contexts build from the same PMFs is convolved
    once.  Without one, the model keeps a private memo.
    """

    def __init__(
        self,
        etc: EtcMatrix,
        ett: "EttMatrix | None" = None,
        memo: "dict | None" = None,
    ):
        self.etc = etc
        self.ett = ett
        self._memo = {} if memo is None else memo
        self._cache: dict = {}
        self._topo: "FederationTopology | None" = None

    def _bind(self, topo: FederationTopology) -> None:
        if self._topo is not None:
            raise ValueError(
                "completion model already serves another topology"
            )
        self._topo = topo

    def end_to_end(
        self, types: tuple[str, ...], fog_id: int, hops: int
    ) -> LatencyPmf:
        """Completion PMF of ``types`` on ``fog_id`` after ``hops`` of transfer.

        ``hops == 0`` gives the bare chain, built by prefix; otherwise the
        chain is convolved with the entry payload transfer over ``hops``.
        """
        key = (types, fog_id, hops)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not types:
            raise ValueError("empty chain")
        if hops:
            if self.ett is None:
                raise ValueError(
                    "transfer matrix required for remote estimates"
                )
            hit = memo_convolve(
                self._memo,
                self.end_to_end(types, fog_id, 0),
                self.ett.pmf(types[0], hops),
                convolve,
            )
        elif len(types) == 1:
            hit = self.etc.pmf(types[0], fog_id)
        else:
            hit = memo_convolve(
                self._memo,
                self.end_to_end(types[:-1], fog_id, 0),
                self.etc.pmf(types[-1], fog_id),
                convolve,
            )
        self._cache[key] = hit
        return hit

    def completion(
        self, types: tuple[str, ...], fog_id: int, hops: int, ci_level: float
    ) -> Completion:
        key = (types, fog_id, hops, ci_level)
        hit = self._cache.get(key)
        if hit is None:
            hit = Completion(self.end_to_end(types, fog_id, hops), ci_level)
            self._cache[key] = hit
        return hit

    def mean_exec_sum(self, types: tuple[str, ...], fog_id: int) -> float:
        key = (types, fog_id)
        hit = self._cache.get(key)
        if hit is None:
            hit = left_sum(self.etc.pmf(t, fog_id).mean for t in types)
            self._cache[key] = hit
        return hit

    def mr_candidates(
        self,
        types: tuple[str, ...],
        local: int,
        origin: int,
        ci_level: float,
        topo: FederationTopology,
    ) -> tuple[tuple[int, int, Completion], ...]:
        """``(fog, hops, Completion)`` of ``local``, then its neighbours.

        The gateway's row has no transfer term (``hops`` 0).  The neighbours
        follow in adjacency order; their ``hops`` counts the entry transfer
        from ``origin``, the fog of the previous partition.
        """
        if topo is not self._topo:
            self._bind(topo)
        key = ("mr", types, local, origin, ci_level)
        hit = self._cache.get(key)
        if hit is None:
            hit = ((local, 0, self.completion(types, local, 0, ci_level)),)
            hit += tuple(
                (g, hops, self.completion(types, g, hops, ci_level))
                for g in topo.neighbors(local)
                for hops in (hop_distance(topo, origin, g),)
            )
            self._cache[key] = hit
        return hit

    def mean_candidates(
        self, types: tuple[str, ...], local: int, topo: FederationTopology
    ) -> tuple[tuple[int, int, float], ...]:
        """``(fog, hops, mean_exec_sum)`` of ``local``, then its neighbours.

        ``hops`` is 0 for ``local`` and 1 for a neighbour: the mean-based
        baselines do not see transfers.
        """
        if topo is not self._topo:
            self._bind(topo)
        key = ("mean", types, local)
        hit = self._cache.get(key)
        if hit is None:
            hit = tuple(
                (g, 0 if g == local else 1, self.mean_exec_sum(types, g))
                for g in (local, *topo.neighbors(local))
            )
            self._cache[key] = hit
        return hit


def _f_order(r: CandidateRecord) -> tuple[float, int]:
    """Examination order of F: descending on-time probability, then fog id."""
    return -r.p, r.fog


def allocate_mr(
    plan: PartitionPlan,
    local: int,
    topo: FederationTopology,
    etc: EtcMatrix,
    ett: EttMatrix,
    queues: QueueEstimate,
    deadlines_rel: tuple[float, ...],
    ci_level: float = 0.95,
    *,
    model: CompletionModel,
) -> list[AllocationDecision]:
    """Walk the partitions in precedence order, assigning each a fog.

    Per partition: the local completion PMF (no transfer term) is compared
    against each adjacent fog's end-to-end PMF (chain plus entry payload
    transfer from the previous partition's fog, plus the candidate's queue
    wait).  Fogs beating the local on-time probability are examined in
    descending order; the first whose confidence interval is disjoint from
    the local one wins, otherwise the partition stays local.

    Every row of the partition's candidate table, the gateway's first, is
    evaluated by ``Completion.candidate``.  A pinned partition reads only the
    gateway's row.  The per-partition lists are built in loops: before
    CPython 3.12 a comprehension costs a nested function call.
    ``etc`` and ``ett`` go unused; perfbench's allocator replay passes them.
    """
    if len(deadlines_rel) != len(plan.partitions):
        raise ValueError("one deadline per partition required")
    waits = queues.waits
    decisions: list[AllocationDecision] = []
    origin = local
    for idx, part in enumerate(plan.partitions):
        delta = deadlines_rel[idx]
        types = part.topo_order
        pinned = plan.must_run_local[idx]
        if pinned:
            rows = ((local, 0, model.completion(types, local, 0, ci_level)),)
        else:
            rows = model.mr_candidates(types, local, origin, ci_level, topo)
        records = []
        for g, hops, c in rows:
            records.append(c.candidate(g, hops, waits.get(g, 0.0), delta))
        local_rec = records[0]
        p_r = local_rec.p
        f = []
        for rec in records:
            if rec.p > p_r:
                rec.in_f = True
                f.append(rec)
        if len(f) > 1:
            f.sort(key=_f_order)
        chosen = local
        if pinned:
            reason = "forced_local_pinned"
        else:
            reason = "local_higher_p" if len(records) > 1 else "local_default"
        for rec in f:
            if ci_disjoint(rec.ci, local_rec.ci):
                chosen = rec.fog
                reason = "remote_ci_disjoint"
                break
            rec.blocked = True
        decisions.append(
            AllocationDecision("mr", idx, local, chosen, reason, tuple(records))
        )
        origin = chosen
    return decisions


def allocate_mect(
    unit: WorkflowSpec,
    local: int,
    topo: FederationTopology,
    etc: EtcMatrix,
    queues: QueueEstimate,
    *,
    pinned: bool = False,
    partition_index: int = 0,
    model: CompletionModel,
) -> AllocationDecision:
    """Minimum expected completion: queue wait plus chain exec means.

    Communication costs are invisible to this method; ties prefer local,
    then the lower fog id.
    ``etc`` goes unused; perfbench's allocator replay passes it.
    """
    waits = queues.waits
    rows = model.mean_candidates(unit.topo_order, local, topo)
    records = []
    best_fog, best_ms = local, math.inf
    for g, hops, exec_ms in rows[:1] if pinned else rows:
        ms = waits.get(g, 0.0) + exec_ms
        # fog, hops, mean_ms
        records.append(CandidateRecord(g, hops, ms))
        if ms < best_ms:
            best_fog, best_ms = g, ms
    if pinned:
        reason = "forced_local_pinned"
    elif best_fog == local:
        reason = "local_default"
    else:
        reason = "min_expected_completion"
    return AllocationDecision(
        "mect", partition_index, local, best_fog, reason, tuple(records)
    )


def allocate_mcc(
    unit: WorkflowSpec,
    local: int,
    topo: FederationTopology,
    etc: EtcMatrix,
    queues: QueueEstimate,
    deadline_rel: float,
    *,
    pinned: bool = False,
    partition_index: int = 0,
    model: CompletionModel,
) -> AllocationDecision:
    """Maximum completion certainty: deadline headroom over the ETC mean.

    Certainty is the deadline minus the fog's mean execution estimate, so
    the ranking always names the fastest viable rating and keeps piling
    work on that one fog.  The single top-ranked fog then gets one sanity
    check against its backlog; if even it cannot promise completion the
    unit stays local rather than trying the runner-up.  Ties prefer local,
    then the lower fog id.
    ``etc`` goes unused; perfbench's allocator replay passes it.
    """
    waits = queues.waits
    rows = model.mean_candidates(unit.topo_order, local, topo)
    records = []
    best_fog, best_c, best_ms = None, -math.inf, math.inf
    for g, hops, exec_ms in rows[:1] if pinned else rows:
        ms = waits.get(g, 0.0) + exec_ms
        c = deadline_rel - exec_ms
        # fog, hops, mean_ms, p, ci, in_f, blocked, certainty
        records.append(
            CandidateRecord(g, hops, ms, math.nan, None, False, False, c)
        )
        if c > 0 and c > best_c:
            best_fog, best_c, best_ms = g, c, ms
    if pinned:
        best_fog, reason = local, "forced_local_pinned"
    elif best_fog is None or deadline_rel - best_ms <= 0:
        best_fog, reason = local, "local_no_positive_certainty"
    elif best_fog == local:
        reason = "local_default"
    else:
        reason = "max_certainty"
    return AllocationDecision(
        "mcc", partition_index, local, best_fog, reason, tuple(records)
    )


def allocate_no_federation(
    unit: WorkflowSpec,
    local: int,
    *,
    queues: QueueEstimate,
    partition_index: int = 0,
    model: CompletionModel,
) -> AllocationDecision:
    """Everything runs where it arrived."""
    ms = queues.wait(local) + model.mean_exec_sum(unit.topo_order, local)
    # fog, hops, mean_ms
    rec = CandidateRecord(local, 0, ms)
    return AllocationDecision(
        "nofed", partition_index, local, local, "local_default", (rec,)
    )


def validate_mr_decision(d: AllocationDecision) -> list[str]:
    """Re-check the allocation contract from the logged records.

    The issues come in a fixed order.  The record lists are built in loops,
    as in ``allocate_mr``.
    """
    issues: list[str] = []
    if d.method != "mr":
        return issues
    local_recs = []
    remotes = []
    for r in d.candidates:
        if r.fog == d.local_fog:
            local_recs.append(r)
        else:
            remotes.append(r)
    if len(local_recs) != 1:
        return ["decision log missing the local record"]
    local = local_recs[0]
    if d.reason == "forced_local_pinned":
        if d.chosen != d.local_fog:
            issues.append("pinned partition assigned remotely")
        return issues
    for r in remotes:
        if r.in_f != (r.p > local.p):
            issues.append(f"fog {r.fog} F-membership mislabeled")
    if d.reason == "remote_ci_disjoint":
        win = None
        for r in remotes:
            if r.fog == d.chosen:
                win = r
                break
        if win is None:
            return ["chosen fog missing from the log"]
        if not win.p > local.p:
            issues.append("remote assignment without a probability gain")
        if win.ci is None or local.ci is None or not ci_disjoint(win.ci, local.ci):
            issues.append("remote assignment with overlapping intervals")
        for r in remotes:
            better = r.p > win.p or (r.p == win.p and r.fog < win.fog)
            if r.in_f and better and not r.blocked:
                issues.append("candidate order skipped a higher probability")
    else:
        if d.chosen != d.local_fog:
            issues.append(f"local reason {d.reason!r} but chosen remotely")
        for r in remotes:
            if r.in_f and not r.blocked:
                issues.append("qualifying candidate never examined")
    return issues
