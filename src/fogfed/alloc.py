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

# shift, central_ci, prob_on_time and mean are not called here any more
# (``Completion.at`` reproduces them); they stay importable from this module
# because perfbench/traced.py times them under these names.
from .dist import (  # noqa: F401
    CiInterval,
    LatencyPmf,
    central_ci,
    ci_bins,
    ci_disjoint,
    convolve,
    mean,
    prob_on_time,
    prob_on_time_at,
    shift,
)
from .federation import EtcMatrix, EttMatrix, FederationTopology, hop_distance
from .model import WorkflowSpec
from .partition import EtcSuccessEstimator, PartitionPlan

REASONS = (
    "local_default",
    "local_higher_p",
    "remote_ci_disjoint",
    "forced_local_pinned",
    "min_expected_completion",
    "max_certainty",
    "local_no_positive_certainty",
)


@dataclass(frozen=True, eq=False)
class QueueEstimate:
    """Expected wait in ms per fog before a new task reaches a node."""

    waits: dict[int, float]

    def __post_init__(self) -> None:
        for fog, w in self.waits.items():
            if w < 0:
                raise ValueError(f"negative queue wait for fog {fog}")

    def wait(self, fog_id: int) -> float:
        return self.waits.get(fog_id, 0.0)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    """

    __slots__ = ("origin", "width", "cdf", "lo", "hi", "level", "mean")

    def __init__(self, d: LatencyPmf, level: float):
        self.origin = d.origin
        self.width = d.bin_width
        self.cdf = d.cdf_list
        self.lo, self.hi = ci_bins(d, level)
        self.level = level
        self.mean = d.mean

    def at(self, wait: float, deadline: float) -> tuple[float, CiInterval, float]:
        """(p, CI, mean) of the base PMF shifted by ``wait`` (see ``shift``).

        p and the CI bounds equal ``prob_on_time``/``central_ci`` of the
        shifted PMF bit for bit; the mean agrees to float rounding.
        """
        w = self.width
        k = round(wait / w)
        o = self.origin + k * w
        p = prob_on_time_at(self.cdf, o, w, deadline)
        ci = CiInterval(o + w * self.lo, o + w * self.hi, self.level)
        return p, ci, self.mean + k * w


class CompletionModel:
    """The one cache of load-independent completion facts per context.

    Entries live in a single dict under three key shapes:

    - ``(types, fog, hops, ci_level)``: a ``Completion`` of the end-to-end
      PMF (the chain on ``fog`` plus, for ``hops > 0``, the entry payload
      transfer), which ``allocate_mr`` evaluates per queue wait without
      building a shifted PMF;
    - ``(types, fog, hops)``: that end-to-end PMF itself, for ``hops > 0``;
    - ``(types, fog)``: the sum of the chain's per-type mean exec times.

    Nothing is keyed by queue wait or request, so the cache is bounded by
    the partitions, fogs and hop counts a context can see.  Chain PMFs come
    from the partitioner's ``EtcSuccessEstimator``, shared with plan builds.
    """

    def __init__(self, etc: EtcMatrix, ett: "EttMatrix | None" = None):
        self.etc = etc
        self.ett = ett
        self.estimator = EtcSuccessEstimator(etc)
        self._cache: dict = {}

    def chain(self, types: tuple[str, ...], fog_id: int) -> LatencyPmf:
        return self.estimator.chain_pmf(types, fog_id)

    def end_to_end(
        self, types: tuple[str, ...], fog_id: int, hops: int
    ) -> LatencyPmf:
        """Chain on ``fog_id`` plus the entry payload transfer over ``hops``."""
        if hops == 0:
            return self.chain(types, fog_id)
        if self.ett is None:
            raise ValueError("transfer matrix required for remote estimates")
        key = (types, fog_id, hops)
        hit = self._cache.get(key)
        if hit is None:
            hit = convolve(
                self.chain(types, fog_id), self.ett.pmf(types[0], hops)
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
            hit = sum(self.etc.pmf(t, fog_id).mean for t in types)
            self._cache[key] = hit
        return hit


def allocate_mr(
    plan: PartitionPlan,
    local: int,
    topo: FederationTopology,
    etc: EtcMatrix,
    ett: EttMatrix,
    queues: QueueEstimate,
    deadlines_rel: tuple[float, ...],
    ci_level: float = 0.95,
    model: "CompletionModel | None" = None,
) -> list[AllocationDecision]:
    """Walk the partitions in precedence order, assigning each a fog.

    Per partition: the local completion PMF (no transfer term) is compared
    against each adjacent fog's end-to-end PMF (chain plus entry payload
    transfer from the previous partition's fog, plus the candidate's queue
    wait).  Fogs beating the local on-time probability are examined in
    descending order; the first whose confidence interval is disjoint from
    the local one wins, otherwise the partition stays local.
    """
    if len(deadlines_rel) != len(plan.partitions):
        raise ValueError("one deadline per partition required")
    m = model if model is not None else CompletionModel(etc, ett)
    decisions: list[AllocationDecision] = []
    origin = local
    for idx, part in enumerate(plan.partitions):
        delta = deadlines_rel[idx]
        types = part.topo_order
        p_r, ci_r, mean_r = m.completion(types, local, 0, ci_level).at(
            queues.wait(local), delta
        )
        local_rec = CandidateRecord(
            fog=local, hops=0, mean_ms=mean_r, p=p_r, ci=ci_r
        )
        if plan.must_run_local[idx]:
            decisions.append(
                AllocationDecision(
                    "mr", idx, local, local, "forced_local_pinned", (local_rec,)
                )
            )
            origin = local
            continue
        remotes = []
        for g in topo.neighbors(local):
            hops = hop_distance(topo, origin, g)
            p_g, ci_g, mean_g = m.completion(types, g, hops, ci_level).at(
                queues.wait(g), delta
            )
            remotes.append((g, hops, mean_g, p_g, ci_g))
        chosen = local
        reason = "local_default" if not remotes else "local_higher_p"
        blocked = set()
        f_ordered = sorted(
            (r for r in remotes if r[3] > p_r), key=lambda r: (-r[3], r[0])
        )
        for g, _hops, _mean, _p, ci_g in f_ordered:
            if ci_disjoint(ci_g, ci_r):
                chosen = g
                reason = "remote_ci_disjoint"
                break
            blocked.add(g)
        records = [local_rec] + [
            CandidateRecord(
                fog=g,
                hops=hops,
                mean_ms=mean_g,
                p=p_g,
                ci=ci_g,
                in_f=p_g > p_r,
                blocked=g in blocked,
            )
            for g, hops, mean_g, p_g, ci_g in remotes
        ]
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
    model: "CompletionModel | None" = None,
) -> AllocationDecision:
    """Minimum expected completion: queue wait plus chain exec means.

    Communication costs are invisible to this method; ties prefer local,
    then the lower fog id.
    """
    m = model if model is not None else CompletionModel(etc)
    types = unit.topo_order
    if pinned:
        rec = CandidateRecord(
            fog=local,
            hops=0,
            mean_ms=queues.wait(local) + m.mean_exec_sum(types, local),
        )
        return AllocationDecision(
            "mect", partition_index, local, local, "forced_local_pinned", (rec,)
        )
    order = [local, *topo.neighbors(local)]
    records = []
    best_fog, best_ms = local, math.inf
    for g in order:
        ms = queues.wait(g) + m.mean_exec_sum(types, g)
        records.append(CandidateRecord(fog=g, hops=0 if g == local else 1,
                                       mean_ms=ms))
        if ms < best_ms:
            best_fog, best_ms = g, ms
    reason = "local_default" if best_fog == local else "min_expected_completion"
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
    model: "CompletionModel | None" = None,
) -> AllocationDecision:
    """Maximum completion certainty: deadline headroom over the ETC mean.

    Certainty is the deadline minus the fog's mean execution estimate, so
    the ranking always names the fastest viable rating and keeps piling
    work on that one fog.  The single top-ranked fog then gets one sanity
    check against its backlog; if even it cannot promise completion the
    unit stays local rather than trying the runner-up.  Ties prefer local,
    then the lower fog id.
    """
    m = model if model is not None else CompletionModel(etc)
    types = unit.topo_order
    if pinned:
        exec_ms = m.mean_exec_sum(types, local)
        rec = CandidateRecord(
            fog=local,
            hops=0,
            mean_ms=queues.wait(local) + exec_ms,
            certainty=deadline_rel - exec_ms,
        )
        return AllocationDecision(
            "mcc", partition_index, local, local, "forced_local_pinned", (rec,)
        )
    order = [local, *topo.neighbors(local)]
    records = []
    best_fog, best_c, best_ms = None, -math.inf, math.inf
    for g in order:
        exec_ms = m.mean_exec_sum(types, g)
        ms = queues.wait(g) + exec_ms
        c = deadline_rel - exec_ms
        records.append(
            CandidateRecord(
                fog=g, hops=0 if g == local else 1, mean_ms=ms, certainty=c
            )
        )
        if c > 0 and c > best_c:
            best_fog, best_c, best_ms = g, c, ms
    if best_fog is None or deadline_rel - best_ms <= 0:
        return AllocationDecision(
            "mcc",
            partition_index,
            local,
            local,
            "local_no_positive_certainty",
            tuple(records),
        )
    reason = "local_default" if best_fog == local else "max_certainty"
    return AllocationDecision(
        "mcc", partition_index, local, best_fog, reason, tuple(records)
    )


def allocate_no_federation(
    unit: WorkflowSpec,
    local: int,
    *,
    etc: "EtcMatrix | None" = None,
    queues: "QueueEstimate | None" = None,
    partition_index: int = 0,
    model: "CompletionModel | None" = None,
) -> AllocationDecision:
    """Everything runs where it arrived."""
    ms = math.nan
    if etc is not None or model is not None:
        m = model if model is not None else CompletionModel(etc)
        wait = queues.wait(local) if queues is not None else 0.0
        ms = wait + m.mean_exec_sum(unit.topo_order, local)
    rec = CandidateRecord(fog=local, hops=0, mean_ms=ms)
    return AllocationDecision(
        "nofed", partition_index, local, local, "local_default", (rec,)
    )


def validate_mr_decision(d: AllocationDecision) -> list[str]:
    """Re-check the allocation contract from the logged records."""
    issues: list[str] = []
    if d.method != "mr":
        return issues
    local_recs = [r for r in d.candidates if r.fog == d.local_fog]
    if len(local_recs) != 1:
        return ["decision log missing the local record"]
    local = local_recs[0]
    remotes = [r for r in d.candidates if r.fog != d.local_fog]
    if d.reason == "forced_local_pinned":
        if d.chosen != d.local_fog:
            issues.append("pinned partition assigned remotely")
        return issues
    for r in remotes:
        if r.in_f != (r.p > local.p):
            issues.append(f"fog {r.fog} F-membership mislabeled")
    if d.reason == "remote_ci_disjoint":
        winner = [r for r in remotes if r.fog == d.chosen]
        if not winner:
            return ["chosen fog missing from the log"]
        win = winner[0]
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
