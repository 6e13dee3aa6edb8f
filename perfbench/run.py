"""Outside-in benchmark of fogfed: host time of whole sweeps and of layers.

    python3 perfbench/run.py --workload fig7_top --seed 1234 --seconds 50 --trace 0

Run it from the root of a source checkout; it loads fogfed from ``src/``
and nothing else.  ``--trace 0`` launches fresh untraced processes until
``--seconds`` have passed and reports the end-to-end metrics as medians
over them, in host-normalised seconds (see ``untraced.py``); ``--trace 1``
launches traced processes (``traced.py``) and reports the per-layer
metrics.  ``--workload all`` runs every workload in
both modes.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Work files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from untraced import REF_S  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
# a benchmark invocation must end well inside three minutes
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "req/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.write_csv_s": "s",
    "cli.trace_bytes": "bytes",
    "federation.build_etc_ms": "ms",
    "federation.build_ett_ms": "ms",
    "federation.contexts": "count",
    "partition.plan_build_ms": "ms",
    "partition.plans_built": "count",
    "partition.min_cut_calls": "count",
    "partition.split_accept_ratio": "ratio",
    **{
        f"alloc.decision_us.{m}.{q}": "us"
        for m in ("mr", "mect", "mcc", "nofed")
        for q in ("p50", "p99")
    },
    "alloc.decisions": "count",
    "alloc.share": "ratio",
    "alloc.remote_ratio": "ratio",
    "alloc.ci_block_ratio": "ratio",
    "alloc.validate_us": "us",
    "dist.pmf_ops_per_decision.mr": "ops/decision",
    "dist.central_ci_us": "us",
    "dist.shift_us": "us",
    "dist.mean_us": "us",
    "dist.convolve_calls": "count",
    "dist.sample_us": "us",
    "dist.sample_calls": "count",
    "sim.runs": "count",
    "sim.run_ms.p50": "ms",
    "sim.run_ms.p90": "ms",
    "sim.self_ms": "ms",
    "sim.events": "count",
    "sim.events_per_request": "events/req",
    "sim.events_per_s": "1/s",
    "sim.workload_gen_ms": "ms",
    "model.assign_deadlines_us": "us",
    "tracing_overhead_ratio": "ratio",
}
# deterministic for a given config: must repeat exactly across runs
EXACT = (
    "cli.trace_bytes",
    "federation.contexts",
    "partition.plans_built",
    "partition.min_cut_calls",
    "partition.split_accept_ratio",
    "alloc.decisions",
    "alloc.remote_ratio",
    "alloc.ci_block_ratio",
    "dist.pmf_ops_per_decision.mr",
    "dist.convolve_calls",
    "dist.sample_calls",
    "sim.runs",
    "sim.events",
    "sim.events_per_request",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Proc:
    code: int
    launched: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    result: "dict | None"
    log: Path


class Runner:
    """Launches and reaps child processes against one checkout."""

    def __init__(self, deadline: "float | None"):
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("FOGFED_PARALLEL", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        # fixed string hashing, so set and dict layouts repeat between runs
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def launch(self, argv: list[str], tag: str,
               result_path: "Path | None" = None) -> Proc:
        """Run one child to exit; wall, CPU and peak RSS from wait4."""
        log = WORK / f"{tag}.log"
        if result_path is not None and result_path.exists():
            result_path.unlink()
        timeout = 600.0
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "w") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        result = None
        if code == 0 and result_path is not None and result_path.exists():
            result = json.loads(result_path.read_text())
            if not _from_checkout(result.get("fogfed_file", "")):
                raise BenchError(
                    f"fogfed was loaded from {result.get('fogfed_file')}, "
                    f"not from {SRC}"
                )
        return Proc(
            code=code,
            launched=launched,
            wall_s=ended - launched,
            cpu_s=usage.ru_utime + usage.ru_stime,
            # Linux reports kilobytes: the largest process in the tree
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            result=result,
            log=log,
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _from_checkout(path: str) -> bool:
    try:
        return Path(path).resolve().is_relative_to(SRC.resolve())
    except (OSError, ValueError):
        return False


# ------------------------------------------------------------- host facts


def host_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {"cores": os.cpu_count(), "cpu": model,
             "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = "absent"
    return facts


# ------------------------------------------------------------- csv checks


@dataclass
class CsvCheck:
    digest: str
    rows: int
    requests: int
    meet_rate: dict[str, float]
    problems: list[str]


def check_csv(path: Path) -> CsvCheck:
    """Digest, row count and per-method mean meet rate of a sweep CSV."""
    if not path.exists():
        return CsvCheck("", 0, 0, {}, [f"{path.name} missing"])
    data = path.read_bytes()
    problems = []
    rows = list(csv.DictReader(data.decode().splitlines()))
    meets: dict[str, list[float]] = {}
    requests = 0
    for row in rows:
        rate = float(row["meet_rate"])
        if not 0.0 <= rate <= 1.0:
            problems.append(f"meet rate {rate} out of range")
        meets.setdefault(row["method"], []).append(rate)
        requests += int(row["requests"])
    return CsvCheck(
        digest=hashlib.sha256(data).hexdigest(),
        rows=len(rows),
        requests=requests,
        meet_rate={m: statistics.fmean(v) for m, v in meets.items()},
        problems=problems,
    )


def recorded_digest(workload: str, seed: int) -> "str | None":
    try:
        table = json.loads(DIGESTS.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return table.get(workload, {}).get(str(seed))


# --------------------------------------------------------------- the runs


def _py(script: str, *args) -> list[str]:
    return [sys.executable, str(HERE / script), *map(str, args)]


@dataclass
class Outcome:
    """What one benchmark invocation found, before printing."""

    workload: str
    trace: int
    metrics: dict = field(default_factory=dict)
    # per-iteration values behind each median
    spreads: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    meet_rate: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    host_ref: list[float] = field(default_factory=list)
    # medians as measured, before host normalisation
    raw: dict = field(default_factory=dict)


def measure(workload: Workload, seed: int, seconds: float, trace: int,
            runner: Runner) -> Outcome:
    """Run one workload for ``seconds`` in one mode and check its output."""
    WORK.mkdir(exist_ok=True)
    config = WORK / f"{workload.name}.config.json"
    config.write_text(json.dumps(workload.config(seed)))
    run = _end_to_end if trace == 0 else _traced
    return run(workload, config, seconds, runner)


def _end_to_end(w: Workload, config: Path, seconds: float,
                runner: Runner) -> Outcome:
    raw: dict[str, list[float]] = {k: [] for k in END_TO_END}
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    out = Outcome(w.name, 0)
    csv_path = WORK / f"{w.name}.csv"
    result_json = WORK / f"{w.name}.result.json"
    start = time.monotonic()
    # at least two workload processes per run
    while len(samples["wall_s"]) < 2 or time.monotonic() - start < seconds:
        if csv_path.exists():
            csv_path.unlink()
        proc = runner.launch(
            _py("untraced.py", w.mode, config, result_json, csv_path, 1),
            w.name, result_json,
        )
        res = proc.result
        if proc.code != 0 or res is None:
            # a sweep that raises loses every run, and with them the timings
            raise BenchError(f"{w.name} exited {proc.code}, see {proc.log}")
        runs, requests = res["tasks"], res["requests"]
        out.attempted += runs
        out.failed += _run_failures(csv_path, runs, requests, res, out)
        stamps = res["stamps"]
        out.host_ref += res["refs"]
        # the references and the set-up probe are the benchmark's own work:
        # take them out of the process's times
        measured = {
            "setup_s": stamps["ready"] - proc.launched
            - (stamps["ref_end"] - stamps["start"]),
            "wall_s": proc.wall_s - res["own_s"],
            "cpu_s": proc.cpu_s - res["own_cpu_s"],
            # sweep seconds: after the probe, the sweep and its output
            "requests_per_s": requests
            / (stamps["work_end"] - stamps["work_start"]),
            "peak_rss_mb": proc.peak_rss_mb,
        }
        scale = REF_S / statistics.fmean(res["refs"])
        factor = {"requests_per_s": 1.0 / scale, "peak_rss_mb": 1.0}
        for name, value in measured.items():
            raw[name].append(value)
            samples[name].append(value * factor.get(name, scale))
    for name, values in samples.items():
        out.metrics[name] = statistics.median(values)
        out.spreads[name] = values
        out.raw[name] = statistics.median(raw[name])
    out.notes.append(
        f"{len(samples['wall_s'])} fresh processes, each with a set-up "
        f"probe; times are host-normalised to a {REF_S} s reference, "
        f"raw = median as measured"
    )
    return out


def _run_failures(csv_path: Path, runs: int, requests: int, result: dict,
                  out: Outcome) -> int:
    """Runs of one execution that broke an output check or a contract."""
    check = check_csv(csv_path)
    out.digests.append(check.digest)
    out.meet_rate = check.meet_rate
    if check.rows != runs or check.requests != requests or check.problems:
        out.problems.append(
            f"CSV has {check.rows} rows / {check.requests} requests, "
            f"expected {runs} / {requests}; {check.problems}"
        )
        return runs
    # in-run contracts: mr_violations or plan_violations above zero; the
    # simulate command does not report them, its traced run checks them
    return result.get("bad_runs", 0)


def _traced(w: Workload, config: Path, seconds: float,
            runner: Runner) -> Outcome:
    out = Outcome(w.name, 1)
    samples: dict[str, list[float]] = {k: [] for k in PER_LAYER}
    trace_write: list[float] = []
    plain_csv = WORK / f"{w.name}.plain.csv"
    traced_csv = WORK / f"{w.name}.traced.csv"
    start = time.monotonic()
    while not samples["sim.runs"] or time.monotonic() - start < seconds:
        plain_json = WORK / f"{w.name}.plain.json"
        plain = runner.launch(
            _py("untraced.py", w.mode, config, plain_json, plain_csv, 1),
            f"{w.name}.plain", plain_json,
        )
        traced_json = WORK / f"{w.name}.traced.json"
        spans = WORK / f"{w.name}.spans.jsonl"
        traced = runner.launch(
            _py("traced.py", w.mode, config, traced_json, traced_csv, spans),
            f"{w.name}.traced", traced_json,
        )
        if plain.result is None or traced.result is None:
            raise BenchError(
                f"traced or untraced run failed, see {plain.log} and "
                f"{traced.log}"
            )
        out.host_ref += plain.result["refs"]
        res = traced.result
        runs = res["runs"]
        out.attempted += runs
        out.failed += res["bad_runs"]
        if res["plan_issues"] or res["mr_issues"]:
            out.problems.append(
                f"in-run contracts: {res['plan_issues']} plan and "
                f"{res['mr_issues']} mr issues"
            )
        if not res["restored"]:
            out.problems.append("a wrapped attribute was not restored")
        if res["replay_mismatches"] or not res["replayed"]:
            out.problems.append(
                f"replayed mr decisions differ from the recorded ones in "
                f"{res['replay_mismatches']} of {res['replayed']} requests"
            )
        plain_check, traced_check = check_csv(plain_csv), check_csv(traced_csv)
        out.digests += [plain_check.digest, traced_check.digest]
        out.meet_rate = traced_check.meet_rate
        if traced_check.rows != runs or traced_check.problems:
            out.problems.append(
                f"traced CSV has {traced_check.rows} rows for {runs} runs"
            )
        metrics = dict(res["metrics"])

        def work_s(result):
            return result["stamps"]["work_end"] - result["stamps"]["work_start"]

        metrics["tracing_overhead_ratio"] = work_s(res) / work_s(plain.result)
        for name in PER_LAYER:
            samples[name].append(metrics[name])
        if res["trace_write_s"] is not None:
            trace_write.append(res["trace_write_s"])
        if w.mode == "cli" and len(samples["sim.runs"]) == 1:
            # the same sweep through the command's two-worker process pool
            pool_csv = WORK / f"{w.name}.pool.csv"
            pool = runner.launch(
                _py("untraced.py", "cli", config, WORK / "pool.json",
                    pool_csv, 2),
                f"{w.name}.pool",
            )
            out.digests.append(
                check_csv(pool_csv).digest if pool.code == 0 else "failed"
            )
    for name, values in samples.items():
        out.metrics[name] = statistics.median(values)
    for name in EXACT:
        if len(set(samples[name])) > 1:
            out.problems.append(f"{name} differs between runs: {samples[name]}")
        out.metrics[name] = samples[name][0]
    n = len(samples["sim.runs"])
    out.notes.append(
        f"{n} traced process(es), each beside an untraced one; the traced "
        f"run uses --parallel 1, so every span lands in one process"
    )
    out.notes.append(f"spans of the last traced run: {spans}")
    if trace_write:
        out.notes.append(
            f"cli.trace_write_s {statistics.median(trace_write):.4f} s"
        )
    return out


# ----------------------------------------------------------------- report


def _quartile_spread(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    share = (q3 - q1) / med if med else 0.0
    return f"  (median of {len(values)}, IQR/median {share:.3f})"


def report(out: Outcome, seed: int, facts: dict) -> list[str]:
    units = END_TO_END if out.trace == 0 else PER_LAYER
    lines = [f"== {out.workload} seed={seed} trace={out.trace}"]
    lines.append(
        "host: " + ", ".join(f"{k} {v}" for k, v in facts.items())
        + f", host_ref_s {statistics.median(out.host_ref):.4f}"
    )
    for name, unit in units.items():
        spread = _quartile_spread(out.spreads.get(name, []))
        if name in out.raw:
            spread += f"  raw {out.raw[name]:.6g}"
        lines.append(f"  {name:<32} {out.metrics[name]:>14.6g} {unit}{spread}")
    ratio = out.failed / out.attempted if out.attempted else 0.0
    lines.append(
        f"  {'fail_ratio':<32} {ratio:>14.6g} ratio"
        f"  ({out.failed} of {out.attempted} runs)"
    )
    lines.extend(f"  {note}" for note in out.notes)
    recorded = recorded_digest(out.workload, seed)
    seen = sorted(set(out.digests))
    verdict = "unrecorded for this seed"
    if recorded is not None:
        verdict = "same as recorded" if seen == [recorded] else "CHANGED"
    lines.append(
        f"  csv sha256 {', '.join(seen) or 'none'}; "
        f"recorded {recorded or 'none'}: {verdict}"
    )
    lines.append(
        "  mean meet rate: "
        + ", ".join(f"{m} {r:.4f}" for m, r in out.meet_rate.items())
    )
    for problem in out.problems:
        lines.append(f"  PROBLEM: {problem}")
    return lines


def correct(out: Outcome) -> bool:
    # every execution of one config must produce the same CSV bytes
    return not out.problems and out.failed == 0 and len(set(out.digests)) == 1


def check_checkout() -> None:
    if not (SRC / "fogfed" / "__init__.py").is_file():
        raise BenchError(f"no fogfed sources under {SRC}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        check_checkout()
        WORK.mkdir(exist_ok=True)
        single = args.workload != "all"
        runner = Runner(time.monotonic() + DEADLINE_S if single else None)
        warm = runner.launch([sys.executable, "-c", "import fogfed.cli"],
                             "warmup")
        if warm.code != 0:
            raise BenchError(f"cannot import fogfed.cli, see {warm.log}")
        facts = host_facts()
        names = [args.workload] if single else list(WORKLOADS)
        modes = [args.trace] if single else [0, 1]
        outcomes = []
        for name in names:
            for trace in modes:
                out = measure(WORKLOADS[name], args.seed, args.seconds,
                              trace, runner)
                print("\n".join(report(out, args.seed, facts)), flush=True)
                outcomes.append(out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for out in outcomes:
        units = END_TO_END if out.trace == 0 else PER_LAYER
        prefix = "" if single else f"{out.workload}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": out.metrics[name], "unit": unit}
    print(json.dumps({
        "correct": all(correct(o) for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
