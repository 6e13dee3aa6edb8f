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
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields

from .federation import (
    MIPS_HI,
    MIPS_LO,
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
from .sim import Context, RunConfig, SimReport, WorkloadSpec, aggregate, run

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

# method label on the sweep axis -> (partitioning, allocator): the
# partitioners allocate with mr, the allocators run on propart plans
METHODS = {
    "none": ("no_partition", "mr"),
    "mincut": ("min_cut", "mr"),
    "leastdata": ("least_data", "mr"),
    "propart": ("propart", "mr"),
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
    methods: tuple[str, ...] = ("mr", "mect", "mcc", "nofed")
    loads: tuple[int, ...] = (100, 200, 300, 400)
    degrees: tuple[int, ...] = ()
    repetitions: int = 30
    seed: int = 1234
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
        for name, (valid, what) in _FIELD_RULES.items():
            value = getattr(self, name)
            if not valid(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        _check_items(
            "methods",
            self.methods,
            lambda m: isinstance(m, str) and m in METHODS,
            f"the methods {sorted(METHODS)}",
        )
        _check_items(
            "loads", self.loads, lambda n: _is_int(n) and n >= 1,
            "integers >= 1",
        )
        _check_items(
            "degrees",
            self.degrees,
            lambda d: _is_int(d) and d in DEGREE_GRIDS,
            f"the degrees {sorted(DEGREE_GRIDS)}",
            empty_ok=True,
        )
        if self.neighbor_mips is not None:
            # the pins _build_context applies around a gateway of the
            # largest degree the sweep uses.  Without degrees the gateway
            # is the slowest drawn fog, so allow for the most neighbours
            # any fog of the grid has, whatever the seed.
            if self.degrees:
                count = max(self.degrees)
            else:
                count = min(self.width - 1, 2) + min(self.height - 1, 2)
            steps = _NEIGHBOR_STAGGER[:count]
            if not _is_real(self.neighbor_mips) or not all(
                MIPS_LO <= self.neighbor_mips + step <= MIPS_HI
                for step in steps
            ):
                raise ValueError(
                    f"neighbor_mips must be null or a rating whose staggered "
                    f"pins {steps} stay in [{MIPS_LO:g}, {MIPS_HI:g}], got "
                    f"{self.neighbor_mips!r}"
                )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite int or float; bools and ints beyond float range are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_items(name, value, valid, what, empty_ok=False) -> None:
    if (
        not isinstance(value, tuple)
        or not (value or empty_ok)
        or not all(map(valid, value))
    ):
        size = "a" if empty_ok else "a non-empty"
        raise ValueError(
            f"{name} must be {size} list of {what}, got {value!r}"
        )


def _at_least(lo: int):
    return (lambda v: _is_int(v) and v >= lo, f"an integer >= {lo}")


_POSITIVE = (lambda v: _is_real(v) and v > 0, "a positive number")
_NON_NEGATIVE = (lambda v: _is_real(v) and v >= 0, "a non-negative number")
_UNIT = (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]")

# Scenario field -> (test, what a valid value is), for every scalar field
_FIELD_RULES = {
    "name": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "repetitions": _at_least(1),
    "seed": _at_least(0),
    "width": _at_least(1),
    "height": _at_least(1),
    "node_count": _at_least(1),
    "bandwidth_mbps": _POSITIVE,
    "hop_mean_ms": _POSITIVE,
    "hop_std_ms": _NON_NEGATIVE,
    "bin_width_ms": _POSITIVE,
    "reference_mips": _POSITIVE,
    "origin_mips": (
        lambda v: v is None or _is_real(v) and MIPS_LO <= v <= MIPS_HI,
        f"null or a rating in [{MIPS_LO:g}, {MIPS_HI:g}]",
    ),
    "mix": _UNIT,
    "window_ms": _POSITIVE,
    "epsilon_ms": _NON_NEGATIVE,
    "comm_ms": _NON_NEGATIVE,
    "alpha": _UNIT,
    "ci_level": (lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)"),
    "pin_entry": (
        lambda v: v is None or isinstance(v, bool), "null, true or false"
    ),
}


# Workflow suites run against a lightly provisioned gateway so the local
# success probability sits below alpha and partitioning engages; monolithic
# suites give the gateway the reference rating so holding work local stays
# a live option for the allocators to weigh.
_WORKFLOW_GRID = dict(
    methods=("none", "mincut", "leastdata", "propart"),
    loads=(100, 200, 300, 400),
    mix=0.0,
    window_ms=20_000.0,
    epsilon_ms=15.0,
    origin_mips=1500.0,
)
_MONO_GRID = dict(
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
        methods=("mr", "mect", "mcc", "nofed"),
    ),
    "fig7_alloc_monolithic": dict(_MONO_GRID),
    "fig8_mixed": dict(_MONO_GRID, mix=0.5),
    # scaling runs shrink the arrival window so federation size, not the
    # gateway alone, is the binding capacity
    "fig11_scaling_workflows": dict(
        _WORKFLOW_GRID,
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

# The makespan figures read the fig5/fig7 runs: an alias config takes its
# target's name, so it gets the target's seeds and writes the target's CSV.
SUITE_ALIASES = {
    "fig9_makespan_workflows": "fig5_partitioning",
    "fig10_makespan_monolithic": "fig7_alloc_monolithic",
}
SUITES.update({a: SUITES[t] for a, t in SUITE_ALIASES.items()})

_FIELD_NAMES = {f.name for f in fields(Scenario)}

# Offsets applied to pinned neighbor ratings, in neighbor id order.  The
# spread mirrors a typical uniform draw: mostly fast fogs plus one clearly
# slower one.  Identical pins would be pathological twice over: mean-based
# rankings tie on every candidate at once, and a uniformly fast ring gives
# heavy monolithic work no reason to spare any neighbor, which starves the
# lightweight requests of a quiet queue.
_NEIGHBOR_STAGGER = (0.0, -550.0, 50.0, -150.0)


def scenario_from_config(doc: dict) -> Scenario:
    """Build a scenario from a JSON document, optionally based on a suite.

    Every field is type- and range-checked here, so a bad document fails
    with a ``ValueError`` before any run starts.
    """
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    doc = dict(doc)
    base: dict = {}
    suite = doc.pop("suite", None)
    if suite is not None:
        if not isinstance(suite, str) or suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
            )
        base = dict(SUITES[suite])
        base["name"] = SUITE_ALIASES.get(suite, suite)
    unknown = set(doc) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    for key in ("methods", "loads", "degrees"):
        if key in doc:
            if not isinstance(doc[key], list):
                raise ValueError(f"{key} must be a list, got {doc[key]!r}")
            doc[key] = tuple(doc[key])
    base.update(doc)
    if "name" not in base:
        raise ValueError("config needs a 'name' or a 'suite'")
    return Scenario(**base)


def run_seed(scenario: Scenario, method: str, load: int, degree: int,
             rep: int) -> int:
    """Injective per-run seed from the cell coordinates.

    ``mix`` enters as a float, so equal scenarios (``"mix": 1`` and
    ``"mix": 1.0``) get equal seeds.
    """
    key = (
        f"{scenario.name}|{scenario.seed}|{method}|{load}"
        f"|{float(scenario.mix)}|{degree}|{rep}"
    )
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------- sweep execution


def _build_context(
    scenario: Scenario, degree: int | None, binned: "dict | None" = None
) -> Context:
    """The run context of one (possibly per-degree) cell.

    ``binned`` is ``build_etc``'s memo of binned normals; cells of one
    sweep share it.
    """
    if degree is None:
        topo = build_grid(
            scenario.width,
            scenario.height,
            scenario.seed,
            node_count=scenario.node_count,
        )
        origin = slowest_fog(topo)
    else:
        w, h, origin = DEGREE_GRIDS[degree]
        topo = build_grid(
            w, h, scenario.seed, node_count=scenario.node_count
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
    etc = build_etc(topo, profiles, scenario.bin_width_ms, binned)
    link = LinkProfile(
        scenario.bandwidth_mbps,
        NormalSpec(scenario.hop_mean_ms, scenario.hop_std_ms),
    )
    ett = build_ett(topo, link, data, scenario.bin_width_ms)
    policy = DeadlinePolicy(scenario.epsilon_ms, scenario.comm_ms)
    return Context(topo, etc, ett, templates, policy, origin)


def _cell_config(scenario: Scenario, ctx: Context, method: str,
                 load: int) -> RunConfig:
    part_method, alloc_method = METHODS[method]
    return RunConfig(
        scenario=scenario.name,
        method=method,
        ctx=ctx,
        workload=WorkloadSpec(load, scenario.mix, scenario.window_ms),
        partition_cfg=PartitionConfig(
            alpha=scenario.alpha, method=part_method
        ),
        alloc_method=alloc_method,
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
        # (NormalSpec, bin width) -> LatencyPmf, shared by the contexts
        self._binned: dict = {}

    def context(self, degree: int | None) -> Context:
        ctx = self._contexts.get(degree)
        if ctx is None:
            ctx = _build_context(self.scenario, degree, self._binned)
            self._contexts[degree] = ctx
        return ctx

    def execute(self, task: tuple) -> tuple[SimReport, "str | None"]:
        method, load, degree, rep = task
        cfg = _cell_config(self.scenario, self.context(degree), method, load)
        seed = run_seed(self.scenario, method, load, degree or 0, rep)
        if not self.trace:
            return run(cfg, seed), None
        lines: list[str] = []
        report = run(cfg, seed, trace_sink=lines.append)
        return report, "".join(lines)


_WORKER: "_Runner | None" = None


def _init_worker(scenario: Scenario, trace: bool) -> None:
    global _WORKER
    _WORKER = _Runner(scenario, trace)


def _run_task(task: tuple) -> tuple[SimReport, "str | None"]:
    return _WORKER.execute(task)


def iter_sweep(
    scenario: Scenario, parallel: int = 1, trace: bool = False
) -> Iterator[tuple[SimReport, "str | None"]]:
    """Each run's ``(report, trace text or None)``, in task order.

    The trace text holds one ``json.dumps(record, sort_keys=True)`` line
    per allocation decision, each ending in a newline.  A run is yielded as
    soon as it and every run before it have finished, so a caller can
    write each run's text and then drop it.
    """
    tasks = sweep_tasks(scenario)
    if parallel <= 1 or len(tasks) == 1:
        runner = _Runner(scenario, trace)
        for task in tasks:
            yield runner.execute(task)
        return
    # imported here: the pool loads multiprocessing, logging, subprocess and
    # socket, which a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=parallel,
        initializer=_init_worker,
        initargs=(scenario, trace),
    ) as pool:
        yield from pool.map(_run_task, tasks, chunksize=4)


def run_sweep(
    scenario: Scenario, parallel: int = 1, trace: bool = False
) -> tuple[list[SimReport], list]:
    """All runs of the sweep, in deterministic task order.

    With ``trace`` the second item holds every decision record as a dict,
    parsed back from the runs' trace lines.
    """
    reports = []
    trace_records = []
    for report, text in iter_sweep(scenario, parallel, trace):
        reports.append(report)
        if text:
            trace_records.extend(map(json.loads, text.splitlines()))
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


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
        scenario = scenario_from_config(doc)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.parallel < 0:
        print(f"error: --parallel must be >= 0, got {args.parallel}",
              file=sys.stderr)
        return 2
    parallel = args.parallel or os.cpu_count() or 1
    trace_path = args.out + ".trace.jsonl"
    # an unwritable output fails here, before any run starts
    try:
        open(args.out, "w").close()
        trace_fh = open(trace_path, "w") if args.trace else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    n_records = 0
    try:
        for report, text in iter_sweep(scenario, parallel, args.trace):
            reports.append(report)
            if trace_fh is not None:
                trace_fh.write(text)
                n_records += text.count("\n")
    finally:
        if trace_fh is not None:
            trace_fh.close()
    write_csv(args.out, reports)
    if args.trace:
        print(f"wrote {n_records} decision records to {trace_path}")
    print(f"wrote {len(reports)} rows to {args.out}")
    return 0


def cmd_report(args) -> int:
    try:
        reports = read_csv(getattr(args, "in"))
        rows = aggregate(reports)
    except (OSError, ValueError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            open(args.out, "w").close()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    deltas = method_deltas(rows)
    print(format_report(rows, deltas))
    if args.out:
        write_aggregate_csv(args.out, rows)
    return 0


def cmd_suites(_args) -> int:
    for name in sorted(SUITES):
        if name in SUITE_ALIASES:
            print(f"{name}: alias of {SUITE_ALIASES[name]}")
            continue
        scenario = Scenario(name=name, **SUITES[name])
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
        help="worker processes; 0 means the core count",
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
