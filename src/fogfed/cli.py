"""Scenario-driven experiment front end.

``fogfed simulate`` runs a sweep (methods x loads x degrees x repetitions)
to CSV, ``fogfed report`` aggregates a result CSV into means with 95%
confidence intervals plus pairwise method deltas, and ``fogfed suites``
lists the built-in experiment grids.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .alloc import CompletionModel
from .federation import (
    LinkProfile,
    build_etc,
    build_ett,
    build_grid,
    override_mips,
    slowest_fog,
)
from .dist import NormalSpec
from .model import (
    APP_NAMES,
    DeadlinePolicy,
    builtin_app,
    incoming_data_mb,
    to_monolithic,
)
from .partition import PartitionConfig
from .sim import RunConfig, SimReport, WorkloadSpec, aggregate, run

CSV_HEADER = (
    "scenario",
    "method",
    "requests",
    "mix",
    "degree",
    "seed",
    "meet_rate",
    "avg_makespan_ms",
)

PARALLEL_ENV = "FOGFED_PARALLEL"

# method label on the sweep axis -> (partitioning, allocator)
PARTITION_AXIS = {
    "none": ("no_partition", "mr"),
    "mincut": ("min_cut", "mr"),
    "leastdata": ("least_data", "mr"),
    "propart": ("propart", "mr"),
}
ALLOC_AXIS = {
    "mr": ("propart", "mr"),
    "mect": ("propart", "mect"),
    "mcc": ("propart", "mcc"),
    "nofed": ("propart", "nofed"),
}

# degree -> (grid width, grid height, origin fog id)
DEGREE_GRIDS = {1: (2, 1, 0), 2: (3, 1, 1), 3: (3, 2, 1), 4: (3, 3, 4)}


@dataclass(frozen=True)
class Scenario:
    """One experiment grid; every field is a plain value so runs pickle."""

    name: str
    compare: str = "alloc"
    methods: tuple[str, ...] = ("mr", "mect", "mcc", "nofed")
    loads: tuple[int, ...] = (100, 200, 300, 400)
    degrees: tuple[int, ...] = ()
    repetitions: int = 30
    master_seed: int = 1234
    width: int = 3
    height: int = 3
    node_count: int = 8
    bandwidth_mbps: float = 300.0
    hop_mean_ms: float = 20.0
    hop_std_ms: float = 5.0
    bin_width_ms: float = 1.0
    reference_mips: float = 2000.0
    origin_mips: "float | None" = None
    neighbor_mips: "float | None" = None
    mix: float = 0.0
    window_ms: float = 4000.0
    epsilon_ms: float = 15.0
    comm_ms: float = 20.0
    alpha: float = 0.5
    ci_level: float = 0.95
    pin_entry: "bool | None" = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.loads or any(l < 1 for l in self.loads):
            raise ValueError("loads must be non-empty positive counts")
        axis = PARTITION_AXIS if self.compare == "partition" else ALLOC_AXIS
        if self.compare not in ("partition", "alloc"):
            raise ValueError(f"unknown compare axis {self.compare!r}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for m in self.methods:
            if m not in axis:
                raise ValueError(
                    f"method {m!r} not valid for compare={self.compare!r}"
                )
        for d in self.degrees:
            if d not in DEGREE_GRIDS:
                raise ValueError(f"degree {d} outside {sorted(DEGREE_GRIDS)}")
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError("mix must lie in [0, 1]")
        if self.origin_mips is not None and self.origin_mips <= 0:
            raise ValueError("origin_mips must be positive")
        if self.neighbor_mips is not None and self.neighbor_mips <= 0:
            raise ValueError("neighbor_mips must be positive")


# Workflow suites run against a lightly provisioned gateway so the local
# success probability sits below alpha and partitioning engages; monolithic
# suites give the gateway the reference rating so holding work local stays
# a live option for the allocators to weigh.
_WORKFLOW_GRID = dict(
    compare="partition",
    methods=("none", "mincut", "leastdata", "propart"),
    loads=(100, 200, 300, 400),
    mix=0.0,
    window_ms=20_000.0,
    epsilon_ms=15.0,
    origin_mips=1500.0,
)
_MONO_GRID = dict(
    compare="alloc",
    methods=("mr", "mect", "mcc", "nofed"),
    loads=(400, 600, 800, 1000),
    mix=1.0,
    window_ms=12_000.0,
    epsilon_ms=150.0,
    origin_mips=2000.0,
    pin_entry=False,
)

SUITES: dict[str, dict] = {
    "fig5_partitioning": dict(_WORKFLOW_GRID),
    "fig6_alloc_workflows": dict(
        _WORKFLOW_GRID,
        compare="alloc",
        methods=("mr", "mect", "mcc", "nofed"),
    ),
    "fig7_alloc_monolithic": dict(_MONO_GRID),
    "fig8_mixed": dict(_MONO_GRID, mix=0.5),
    # same grids as fig5/fig7; these names select the makespan column
    "fig9_makespan_workflows": dict(_WORKFLOW_GRID),
    "fig10_makespan_monolithic": dict(_MONO_GRID),
    # scaling runs shrink the arrival window so federation size, not the
    # gateway alone, is the binding capacity
    "fig11_scaling_workflows": dict(
        _WORKFLOW_GRID,
        compare="alloc",
        methods=("mr",),
        degrees=(1, 2, 3, 4),
        window_ms=10_500.0,
        neighbor_mips=2400.0,
    ),
    "fig12_scaling_monolithic": dict(
        _MONO_GRID,
        methods=("mr", "mect", "mcc"),
        loads=(1000,),
        degrees=(1, 2, 3, 4),
        window_ms=10_500.0,
        neighbor_mips=2400.0,
    ),
}

_FIELD_NAMES = {f.name for f in fields(Scenario)}

# Offsets applied to pinned neighbor ratings, in neighbor id order.  The
# spread mirrors a typical uniform draw: mostly fast fogs plus one clearly
# slower one.  Identical pins would be pathological twice over: mean-based
# rankings tie on every candidate at once, and a uniformly fast ring gives
# heavy monolithic work no reason to spare any neighbor, which starves the
# lightweight requests of a quiet queue.
_NEIGHBOR_STAGGER = (0.0, -550.0, 50.0, -150.0)


def scenario_from_config(doc: dict) -> Scenario:
    """Build a scenario from a JSON document, optionally based on a suite."""
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    doc = dict(doc)
    base: dict = {}
    suite = doc.pop("suite", None)
    if suite is not None:
        if suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
            )
        base = dict(SUITES[suite])
        base["name"] = suite
    grid = doc.pop("grid", None)
    if grid is not None:
        base["width"] = int(grid["width"])
        base["height"] = int(grid["height"])
    link = doc.pop("link", None)
    if link is not None:
        base["bandwidth_mbps"] = float(link["bandwidth_mbps"])
        base["hop_mean_ms"] = float(link["hop_mean_ms"])
        base["hop_std_ms"] = float(link["hop_std_ms"])
    if "seed" in doc:
        base["master_seed"] = int(doc.pop("seed"))
    unknown = set(doc) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for key in ("methods", "loads", "degrees"):
        if key in doc:
            doc[key] = tuple(doc[key])
    base.update(doc)
    if "name" not in base:
        raise ValueError("config needs a 'name' or a 'suite'")
    return Scenario(**base)


def run_seed(scenario: Scenario, method: str, load: int, degree: int,
             rep: int) -> int:
    """Injective per-run seed from the cell coordinates."""
    key = (
        f"{scenario.name}|{scenario.master_seed}|{method}|{load}"
        f"|{scenario.mix}|{degree}|{rep}"
    )
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------- sweep execution


def _build_context(scenario: Scenario, degree: int | None):
    """Topology, matrices and templates for one (possibly per-degree) cell."""
    if degree is None:
        topo = build_grid(
            scenario.width,
            scenario.height,
            scenario.master_seed,
            node_count=scenario.node_count,
        )
        origin = slowest_fog(topo)
    else:
        w, h, origin = DEGREE_GRIDS[degree]
        topo = build_grid(
            w, h, scenario.master_seed, node_count=scenario.node_count
        )
    if scenario.origin_mips is not None:
        topo = override_mips(topo, origin, scenario.origin_mips)
    if scenario.neighbor_mips is not None:
        # pin the gateway's whole neighborhood; the scaling suites compare
        # degrees, so the adjacent ratings must not depend on draw luck.
        # Stagger the pins slightly: identical ratings would make every
        # mean-based ranking tie on all of them at once.
        for i, n in enumerate(sorted(topo.neighbors(origin))):
            step = _NEIGHBOR_STAGGER[i % len(_NEIGHBOR_STAGGER)]
            topo = override_mips(topo, n, scenario.neighbor_mips + step)
    templates = tuple(
        builtin_app(n, pin_entry=scenario.pin_entry) for n in APP_NAMES
    )
    scale = scenario.reference_mips / 2000.0
    profiles = {}
    data = {}
    for t in templates:
        for shape in (t, to_monolithic(t)):
            for v in shape.vertices:
                profiles[v.id] = v.work.scaled(scale)
            data.update(incoming_data_mb(shape))
    etc = build_etc(topo, profiles, scenario.bin_width_ms)
    link = LinkProfile(
        scenario.bandwidth_mbps,
        NormalSpec(scenario.hop_mean_ms, scenario.hop_std_ms),
    )
    ett = build_ett(topo, link, data, scenario.bin_width_ms)
    policy = DeadlinePolicy(scenario.epsilon_ms, scenario.comm_ms)
    return {
        "topo": topo,
        "etc": etc,
        "ett": ett,
        "templates": templates,
        "origin": origin,
        "policy": policy,
        "model": CompletionModel(etc, ett),
        "plans": {},
    }


def _cell_config(scenario: Scenario, ctx: dict, method: str,
                 load: int) -> RunConfig:
    axis = PARTITION_AXIS if scenario.compare == "partition" else ALLOC_AXIS
    part_method, alloc_method = axis[method]
    return RunConfig(
        scenario=scenario.name,
        method=method,
        topo=ctx["topo"],
        etc=ctx["etc"],
        ett=ctx["ett"],
        templates=ctx["templates"],
        workload=WorkloadSpec(load, scenario.mix, scenario.window_ms),
        policy=ctx["policy"],
        partition_cfg=PartitionConfig(
            alpha=scenario.alpha, method=part_method
        ),
        alloc_method=alloc_method,
        origin_fog=ctx["origin"],
        ci_level=scenario.ci_level,
    )


def sweep_tasks(scenario: Scenario) -> list[tuple]:
    """(method, load, degree-or-None, rep) in deterministic write order."""
    degrees = scenario.degrees or (None,)
    return [
        (method, load, degree, rep)
        for method in scenario.methods
        for load in scenario.loads
        for degree in degrees
        for rep in range(scenario.repetitions)
    ]


class _Runner:
    """Per-process state: contexts and caches shared across tasks."""

    def __init__(self, scenario: Scenario, trace: bool):
        self.scenario = scenario
        self.trace = trace
        self._contexts: dict = {}

    def context(self, degree: int | None) -> dict:
        ctx = self._contexts.get(degree)
        if ctx is None:
            ctx = _build_context(self.scenario, degree)
            self._contexts[degree] = ctx
        return ctx

    def execute(self, task: tuple) -> tuple[SimReport, "list | None"]:
        method, load, degree, rep = task
        ctx = self.context(degree)
        cfg = _cell_config(self.scenario, ctx, method, load)
        seed = run_seed(self.scenario, method, load, degree or 0, rep)
        records: "list | None" = [] if self.trace else None
        sink = records.append if records is not None else None
        report = run(
            cfg,
            seed,
            trace_sink=sink,
            model=ctx["model"],
            plan_cache=ctx["plans"],
        )
        return report, records


_WORKER: "_Runner | None" = None


def _init_worker(scenario: Scenario, trace: bool) -> None:
    global _WORKER
    _WORKER = _Runner(scenario, trace)


def _run_task(indexed_task: tuple) -> tuple[int, SimReport, "list | None"]:
    idx, task = indexed_task
    report, records = _WORKER.execute(task)
    return idx, report, records


def run_sweep(
    scenario: Scenario, parallel: int = 1, trace: bool = False
) -> tuple[list[SimReport], list]:
    """All runs of the sweep, in deterministic task order."""
    tasks = sweep_tasks(scenario)
    results: dict[int, tuple[SimReport, "list | None"]] = {}
    if parallel <= 1 or len(tasks) == 1:
        runner = _Runner(scenario, trace)
        for idx, task in enumerate(tasks):
            results[idx] = runner.execute(task)
    else:
        with ProcessPoolExecutor(
            max_workers=parallel,
            initializer=_init_worker,
            initargs=(scenario, trace),
        ) as pool:
            for idx, report, records in pool.map(
                _run_task, enumerate(tasks), chunksize=4
            ):
                results[idx] = (report, records)
    reports = []
    trace_records = []
    for idx in range(len(tasks)):
        report, records = results[idx]
        reports.append(report)
        if records:
            for rec in records:
                rec = dict(rec)
                rec["scenario"] = report.scenario
                rec["run_method"] = report.method
                rec["seed"] = report.seed
                trace_records.append(rec)
    return reports, trace_records


# ------------------------------------------------------------------ csv I/O


def csv_row(r: SimReport) -> tuple:
    return (
        r.scenario,
        r.method,
        r.requests,
        f"{r.mix:g}",
        r.degree,
        r.seed,
        f"{r.meet_rate:.6f}",
        f"{r.avg_makespan_ms:.3f}",
    )


def write_csv(path: str, reports: list[SimReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(csv_row(r))


def read_csv(path: str) -> list[SimReport]:
    reports = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ValueError(f"unexpected CSV header: {header}")
        for lineno, row in enumerate(reader, start=2):
            try:
                reports.append(
                    SimReport(
                        scenario=row[0],
                        method=row[1],
                        requests=int(row[2]),
                        mix=float(row[3]),
                        degree=int(row[4]),
                        seed=int(row[5]),
                        meet_rate=float(row[6]),
                        avg_makespan_ms=float(row[7]),
                        met=0,
                        missed=0,
                        remote_assignments=0,
                        mr_violations=0,
                        plan_violations=0,
                    )
                )
            except (IndexError, ValueError) as exc:
                raise ValueError(f"bad CSV row {lineno}: {exc}") from None
    return reports


def method_deltas(rows: list[dict]) -> list[dict]:
    """Pairwise mean differences inside each (scenario, load, degree) cell.

    When ``mr`` is present every delta is anchored on it (mr minus other);
    otherwise pairs are enumerated alphabetically.
    """
    cells: dict[tuple, dict[str, dict]] = {}
    for row in rows:
        key = (row["scenario"], row["requests"], row["mix"], row["degree"])
        cells.setdefault(key, {})[row["method"]] = row
    out = []
    for key in sorted(cells):
        methods = sorted(cells[key])
        if len(methods) < 2:
            continue
        if "mr" in methods:
            pairs = [("mr", m) for m in methods if m != "mr"]
        else:
            pairs = [
                (a, b)
                for i, a in enumerate(methods)
                for b in methods[i + 1:]
            ]
        for a, b in pairs:
            ra, rb = cells[key][a], cells[key][b]
            out.append(
                {
                    "scenario": key[0],
                    "requests": key[1],
                    "mix": key[2],
                    "degree": key[3],
                    "pair": f"{a}-{b}",
                    "meet_rate_delta": ra["meet_rate_mean"]
                    - rb["meet_rate_mean"],
                    "makespan_delta": ra["makespan_mean"]
                    - rb["makespan_mean"],
                }
            )
    return out


def format_report(rows: list[dict], deltas: list[dict]) -> str:
    lines = [
        f"{'scenario':<26} {'method':<10} {'req':>5} {'mix':>4} {'deg':>3} "
        f"{'n':>3} {'meet':>7} {'+/-':>7} {'mksp_ms':>10} {'+/-':>9}"
    ]
    for r in rows:
        lines.append(
            f"{r['scenario']:<26} {r['method']:<10} {r['requests']:>5} "
            f"{r['mix']:>4g} {r['degree']:>3} {r['n']:>3} "
            f"{r['meet_rate_mean']:>7.4f} {r['meet_rate_ci']:>7.4f} "
            f"{r['makespan_mean']:>10.1f} {r['makespan_ci']:>9.1f}"
        )
    if deltas:
        lines.append("")
        lines.append(
            f"{'scenario':<26} {'pair':<14} {'req':>5} {'mix':>4} {'deg':>3} "
            f"{'meet_delta':>11} {'mksp_delta':>11}"
        )
        for d in deltas:
            lines.append(
                f"{d['scenario']:<26} {d['pair']:<14} {d['requests']:>5} "
                f"{d['mix']:>4g} {d['degree']:>3} "
                f"{d['meet_rate_delta']:>+11.4f} {d['makespan_delta']:>+11.1f}"
            )
    return "\n".join(lines)


def write_aggregate_csv(path: str, rows: list[dict]) -> None:
    cols = (
        "scenario",
        "method",
        "requests",
        "mix",
        "degree",
        "n",
        "meet_rate_mean",
        "meet_rate_ci",
        "makespan_mean",
        "makespan_ci",
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in rows:
            writer.writerow([r[c] for c in cols])


# ---------------------------------------------------------------- commands


def _default_parallel() -> int:
    env = os.environ.get(PARALLEL_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{PARALLEL_ENV} must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        scenario = scenario_from_config(doc)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        parallel = args.parallel if args.parallel else _default_parallel()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports, trace_records = run_sweep(scenario, parallel, args.trace)
    write_csv(args.out, reports)
    if args.trace:
        trace_path = args.out + ".trace.jsonl"
        with open(trace_path, "w") as fh:
            for rec in trace_records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        print(f"wrote {len(trace_records)} decision records to {trace_path}")
    print(f"wrote {len(reports)} rows to {args.out}")
    return 0


def cmd_report(args) -> int:
    try:
        reports = read_csv(getattr(args, "in"))
        rows = aggregate(reports)
    except (OSError, ValueError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    deltas = method_deltas(rows)
    print(format_report(rows, deltas))
    if args.out:
        write_aggregate_csv(args.out, rows)
    return 0


def cmd_suites(_args) -> int:
    for name in sorted(SUITES):
        preset = SUITES[name]
        scenario = Scenario(name=name, **preset)
        axes = [
            f"methods={','.join(scenario.methods)}",
            f"loads={','.join(str(l) for l in scenario.loads)}",
        ]
        if scenario.degrees:
            axes.append(
                f"degrees={','.join(str(d) for d in scenario.degrees)}"
            )
        axes.append(f"mix={scenario.mix:g}")
        print(f"{name}: {'; '.join(axes)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fogfed",
        description="Fog federation workflow scheduling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario sweep to CSV")
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="CSV output path")
    p_sim.add_argument(
        "--parallel",
        type=int,
        default=0,
        help=f"worker processes (default: ${PARALLEL_ENV} or core count)",
    )
    p_sim.add_argument(
        "--trace",
        action="store_true",
        help="write allocation decisions to <out>.trace.jsonl",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="aggregate a result CSV")
    p_rep.add_argument("--in", required=True, help="CSV produced by simulate")
    p_rep.add_argument("--out", default="", help="optional aggregate CSV path")
    p_rep.set_defaults(func=cmd_report)

    p_ls = sub.add_parser("suites", help="list built-in experiment suites")
    p_ls.set_defaults(func=cmd_suites)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
