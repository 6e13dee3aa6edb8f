"""Traced child process of the benchmark: per-layer spans from outside.

fogfed modules call one another through module attributes (``fogfed.sim``
calls ``allocate_mr`` through its own namespace, ``fogfed.cli`` calls
``run`` and ``build_etc`` through its own).  Replacing those attributes
with timing wrappers measures each layer without touching the program.
Each span records its name, start, end, parent span and run id; spans stay
in memory and are written when the run ends.  Every wrapped attribute is
restored before the allocator replay and the metric computation.

    python3 traced.py sweep CONFIG RESULT CSV SPANS
        run_sweep in this process without a decision trace, then write_csv
    python3 traced.py cli CONFIG RESULT CSV SPANS
        fogfed.cli.main("simulate --parallel 1 --trace") in this process,
        so every span lands in one process
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time

# module -> attributes wrapped in it; a span is named "<module>.<attr>"
WRAPPED = {
    "fogfed.sim": (
        "allocate_mr",
        "allocate_mect",
        "allocate_mcc",
        "allocate_no_federation",
        "build_plan",
        "validate_plan",
        "validate_mr_decision",
        "sample",
        "generate_workload",
        "assign_deadlines",
    ),
    "fogfed.alloc": ("shift", "central_ci", "prob_on_time", "mean", "convolve"),
    "fogfed.cli": (
        "run",
        "run_sweep",
        "write_csv",
        "build_grid",
        "build_etc",
        "build_ett",
    ),
    "fogfed.partition": ("min_cut",),
}

ALLOCATORS = ("mr", "mect", "mcc", "nofed")
_ALLOC_SPANS = {
    "sim.allocate_mr": "mr",
    "sim.allocate_mect": "mect",
    "sim.allocate_mcc": "mcc",
    "sim.allocate_no_federation": "nofed",
}
# the PMF operations an mr decision performs per candidate fog
_PMF_OPS = ("alloc.shift", "alloc.central_ci", "alloc.prob_on_time", "alloc.mean")


class Tracer:
    """In-memory span recorder that wraps and later restores attributes."""

    def __init__(self) -> None:
        # one (name, start_ns, end_ns, parent_index, run_id) per span
        self.spans: list = []
        self._stack: list[int] = []
        self._run_id = 0
        self._runs = 0
        self._installed: list[tuple] = []

    def wrap(self, module, attr: str, observe=None) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        opens_run = name == "cli.run"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if opens_run:
                self._runs += 1
                self._run_id = self._runs
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._run_id)
                if opens_run:
                    self._run_id = 0
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        return all(
            getattr(module, attr) is original
            for module, attr, original in self._installed
        )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Observations:
    """What crosses the wrapped boundaries, kept for checks and replay."""

    def __init__(self) -> None:
        self.reports: list = []
        self.decisions: dict[str, list] = {m: [] for m in ALLOCATORS}
        self.mr_calls: list = []
        self.plans: list = []
        self.plan_issues = 0
        self.mr_issues = 0

    def hooks(self) -> dict:
        def on_run(args, kwargs, report):
            self.reports.append(report)

        def on_alloc(method):
            def hook(args, kwargs, result):
                batch = result if isinstance(result, list) else [result]
                self.decisions[method].extend(batch)
                if method == "mr":
                    self.mr_calls.append((args, kwargs, result))
            return hook

        def on_plan(args, kwargs, plan):
            self.plans.append(plan)

        def on_plan_check(args, kwargs, issues):
            self.plan_issues += len(issues)

        def on_mr_check(args, kwargs, issues):
            self.mr_issues += len(issues)

        hooks = {
            "cli.run": on_run,
            "sim.build_plan": on_plan,
            "sim.validate_plan": on_plan_check,
            "sim.validate_mr_decision": on_mr_check,
        }
        for span, method in _ALLOC_SPANS.items():
            hooks[span] = on_alloc(method)
        return hooks


def install(tracer: Tracer, observations: Observations) -> None:
    hooks = observations.hooks()
    for module_name, attrs in WRAPPED.items():
        module = importlib.import_module(module_name)
        short = module_name.rsplit(".", 1)[-1]
        for attr in attrs:
            tracer.wrap(module, attr, hooks.get(f"{short}.{attr}"))


# ------------------------------------------------------------------ replay


def _decision_key(d) -> tuple:
    """Everything a decision records; floats by repr so NaN compares equal."""
    return (
        d.method,
        d.partition_index,
        d.local_fog,
        d.chosen,
        d.reason,
        tuple(
            (
                c.fog,
                c.hops,
                repr(c.mean_ms),
                repr(c.p),
                None if c.ci is None else (c.ci.lo, c.ci.hi, c.ci.level),
                c.in_f,
                c.blocked,
                repr(c.certainty),
            )
            for c in d.candidates
        ),
    )


def replay(mr_calls: list) -> dict:
    """Feed every recorded sim->alloc input to all four allocators.

    The inputs are the plan, the ``QueueEstimate`` snapshot and the
    partition deadlines the engine passed to ``allocate_mr``, so every
    method decides on the same queue states.  Each allocator is invoked the
    way the engine invokes it; a sample is the time to allocate every
    partition of one request.  The methods run in rotating order so that no
    method always runs first.
    """
    import fogfed.alloc as alloc

    signature = inspect.signature(alloc.allocate_mr)
    clock = time.perf_counter_ns
    samples: dict[str, list[int]] = {m: [] for m in ALLOCATORS}
    mismatches = 0
    for k, (args, kwargs, recorded) in enumerate(mr_calls):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        plan, local, queues = a["plan"], a["local"], a["queues"]
        topo, etc, model = a["topo"], a["etc"], a["model"]
        deadlines = a["deadlines_rel"]
        parts = list(enumerate(zip(plan.partitions, plan.must_run_local)))
        calls = {
            "mr": lambda: alloc.allocate_mr(
                plan, local, topo, etc, a["ett"], queues, deadlines,
                a["ci_level"], model=model,
            ),
            "mect": lambda: [
                alloc.allocate_mect(
                    part, local, topo, etc, queues, pinned=pin,
                    partition_index=i, model=model,
                )
                for i, (part, pin) in parts
            ],
            "mcc": lambda: [
                alloc.allocate_mcc(
                    part, local, topo, etc, queues, deadlines[i], pinned=pin,
                    partition_index=i, model=model,
                )
                for i, (part, pin) in parts
            ],
            "nofed": lambda: [
                alloc.allocate_no_federation(
                    part, local, queues=queues, partition_index=i, model=model
                )
                for i, (part, _pin) in parts
            ],
        }
        order = ALLOCATORS[k % 4:] + ALLOCATORS[:k % 4]
        for method in order:
            start = clock()
            result = calls[method]()
            samples[method].append(clock() - start)
            if method == "mr" and (
                [_decision_key(d) for d in result]
                != [_decision_key(d) for d in recorded]
            ):
                mismatches += 1
    return {"samples": samples, "mismatches": mismatches, "n": len(mr_calls)}


# ----------------------------------------------------------------- metrics


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; ``values`` must be non-empty."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(tracer: Tracer, obs: Observations, rep: dict) -> dict:
    """Per-layer metrics (name -> value) from the spans and observations."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durs: dict[str, list[int]] = {}
    selfs: dict[str, list[int]] = {}
    pmf_ops_mr = 0
    for i, (name, start, end, parent, _run) in enumerate(spans):
        durs.setdefault(name, []).append(end - start)
        selfs.setdefault(name, []).append(end - start - child_ns[i])
        if name in _PMF_OPS and parent >= 0 and spans[parent][0] == "sim.allocate_mr":
            pmf_ops_mr += 1

    def count(name):
        return len(durs.get(name, ()))

    def total_ms(name):
        return sum(durs.get(name, ())) / 1e6

    def mean_us(name):
        d = durs.get(name)
        return sum(d) / len(d) / 1e3 if d else 0.0

    requests = sum(r.requests for r in obs.reports)
    run_ns = durs.get("cli.run", [])
    events = requests + count("sim.sample")
    decisions = [d for m in ALLOCATORS for d in obs.decisions[m]]
    mr_decisions = obs.decisions["mr"]
    in_f = sum(c.in_f for d in mr_decisions for c in d.candidates)
    blocked = sum(c.blocked for d in mr_decisions for c in d.candidates)
    splits = [s for p in obs.plans for s in p.trace]
    alloc_ns = sum(sum(durs.get(s, ())) for s in _ALLOC_SPANS)

    out = {
        "cli.write_csv_s": total_ms("cli.write_csv") / 1e3,
        "federation.build_etc_ms": total_ms("cli.build_etc"),
        "federation.build_ett_ms": total_ms("cli.build_ett"),
        "federation.contexts": count("cli.build_etc"),
        "partition.plan_build_ms": total_ms("sim.build_plan"),
        "partition.plans_built": count("sim.build_plan"),
        "partition.min_cut_calls": count("partition.min_cut"),
        "partition.split_accept_ratio": (
            sum(s.accepted for s in splits) / len(splits) if splits else 0.0
        ),
        "alloc.decisions": len(decisions),
        "alloc.share": alloc_ns / sum(run_ns) if run_ns else 0.0,
        "alloc.remote_ratio": (
            sum(d.chosen != d.local_fog for d in decisions) / len(decisions)
            if decisions else 0.0
        ),
        "alloc.ci_block_ratio": blocked / in_f if in_f else 0.0,
        "alloc.validate_us": mean_us("sim.validate_mr_decision"),
        "dist.pmf_ops_per_decision.mr": (
            pmf_ops_mr / len(mr_decisions) if mr_decisions else 0.0
        ),
        "dist.central_ci_us": mean_us("alloc.central_ci"),
        "dist.shift_us": mean_us("alloc.shift"),
        "dist.mean_us": mean_us("alloc.mean"),
        "dist.convolve_calls": count("alloc.convolve"),
        "dist.sample_us": mean_us("sim.sample"),
        "dist.sample_calls": count("sim.sample"),
        "sim.runs": len(run_ns),
        "sim.run_ms.p50": statistics.median(run_ns) / 1e6 if run_ns else 0.0,
        "sim.run_ms.p90": _quantile(run_ns, 0.9) / 1e6 if run_ns else 0.0,
        "sim.self_ms": (
            statistics.median(selfs["cli.run"]) / 1e6 if run_ns else 0.0
        ),
        "sim.events": events,
        "sim.events_per_request": events / requests if requests else 0.0,
        "sim.events_per_s": events / (sum(run_ns) / 1e9) if run_ns else 0.0,
        "sim.workload_gen_ms": (
            statistics.median(durs["sim.generate_workload"]) / 1e6
            if count("sim.generate_workload") else 0.0
        ),
        "model.assign_deadlines_us": mean_us("sim.assign_deadlines"),
    }
    for method in ALLOCATORS:
        us = [ns / 1e3 for ns in rep["samples"][method]]
        out[f"alloc.decision_us.{method}.p50"] = (
            statistics.median(us) if us else 0.0
        )
        out[f"alloc.decision_us.{method}.p99"] = (
            _quantile(us, 0.99) if us else 0.0
        )
    return out


def main(argv: list[str]) -> int:
    mode, config_path, result_path, csv_path, spans_path = argv[:5]
    stamps = {"start": time.monotonic()}
    import fogfed.cli as cli

    stamps["imported"] = time.monotonic()
    tracer, obs = Tracer(), Observations()
    install(tracer, obs)
    try:
        stamps["work_start"] = time.monotonic()
        if mode == "sweep":
            with open(config_path) as fh:
                scenario = cli.scenario_from_config(json.load(fh))
            reports, _ = cli.run_sweep(scenario, parallel=1, trace=False)
            cli.write_csv(csv_path, reports)
        elif mode == "cli":
            code = cli.main(
                ["simulate", "--config", config_path, "--out", csv_path,
                 "--parallel", "1", "--trace"]
            )
            if code != 0:
                return code
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        work_end_ns = time.perf_counter_ns()
        stamps["work_end"] = time.monotonic()
    finally:
        restored = tracer.restore()
    rep = replay(obs.mr_calls)
    metrics = layer_metrics(tracer, obs, rep)
    metrics["cli.import_s"] = stamps["imported"] - stamps["start"]
    trace_write_s = None
    metrics["cli.trace_bytes"] = 0
    if mode == "cli":
        # after the CSV, the simulate command only writes the trace file
        csv_end = max(
            end for name, _s, end, _p, _r in tracer.spans
            if name == "cli.write_csv"
        )
        trace_write_s = (work_end_ns - csv_end) / 1e9
        metrics["cli.trace_bytes"] = os.path.getsize(csv_path + ".trace.jsonl")
    result = {
        "fogfed_file": cli.__file__,
        "stamps": stamps,
        "metrics": metrics,
        "trace_write_s": trace_write_s,
        "restored": restored,
        "runs": len(obs.reports),
        "bad_runs": sum(
            1 for r in obs.reports if r.mr_violations or r.plan_violations
        ),
        "plan_issues": obs.plan_issues,
        "mr_issues": obs.mr_issues,
        "replayed": rep["n"],
        "replay_mismatches": rep["mismatches"],
    }
    tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
