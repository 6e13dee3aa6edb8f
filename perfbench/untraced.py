"""Untraced child process of the benchmark.

It drives fogfed through its public entry points only and installs no
wrappers, so its timings are what a user of the library sees.  It stamps
``time.monotonic()`` (a system-wide clock, comparable with the parent's) at
each phase boundary and writes them with its results to a JSON file.

Every mode first times the host reference (``host_ref_s``), then imports
fogfed.cli, parses CONFIG and runs a set-up probe: a sweep of one request
per context, so that every ETC/ETT context CONFIG needs is built once
("ready").  After the workload it times the reference again.  The wall and
CPU time of the references and the probe are reported as the benchmark's
own, so the parent can take them out of the process's times.

    python3 untraced.py sweep CONFIG RESULT CSV PARALLEL
        then run_sweep without a trace, then write_csv
    python3 untraced.py cli CONFIG RESULT CSV PARALLEL
        then fogfed.cli.main("simulate --parallel PARALLEL --trace"): the
        process the ``fogfed simulate`` console script runs
"""

from __future__ import annotations

import heapq
import json
import sys
import time

# Seconds the reference takes on a quiet minute of the baseline's host.
# The host's speed drifts by tens of percent over minutes (other tenants
# share its cores and caches), and fogfed's times drift with it.  The
# parent reports a time t as t * REF_S / ref, with ref this process's own
# reference time: the time on a host where the reference takes REF_S.
REF_S = 0.08


def host_ref_s() -> float:
    """Seconds a fixed heap-and-dict churn takes in this process now.

    The churn is what fogfed's engine does most (heap events, small tuples
    and dicts).  Timed in the measured process itself, it tracked the
    sweep's slow drift; a similar loop in the parent process did not.  It
    never touches fogfed, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, {"k": i}))
        table[i % 4096] = (i, str(i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _stamp(stamps: dict, name: str) -> None:
    stamps[name] = time.monotonic()


def main(argv: list[str]) -> int:
    mode, config_path, result_path = argv[:3]
    if mode not in ("sweep", "cli"):
        raise SystemExit(f"unknown mode {mode!r}")
    stamps: dict = {}
    _stamp(stamps, "start")
    own_cpu = time.process_time()
    refs = [host_ref_s()]
    own_cpu = time.process_time() - own_cpu
    _stamp(stamps, "ref_end")
    from dataclasses import replace

    import fogfed.cli as cli

    _stamp(stamps, "imported")
    with open(config_path) as fh:
        scenario = cli.scenario_from_config(json.load(fh))
    _stamp(stamps, "parsed")
    result = {"fogfed_file": cli.__file__}
    # contexts depend on topology, link and deadline fields only
    probe = replace(
        scenario, loads=(1,), repetitions=1, methods=scenario.methods[:1]
    )
    probe_cpu = time.process_time()
    cli.run_sweep(probe, parallel=1, trace=False)
    own_cpu += time.process_time() - probe_cpu
    _stamp(stamps, "ready")
    tasks = cli.sweep_tasks(scenario)
    result["tasks"] = len(tasks)
    result["requests"] = sum(load for _m, load, _d, _r in tasks)
    csv_path = argv[3]
    _stamp(stamps, "work_start")
    if mode == "sweep":
        reports, _ = cli.run_sweep(
            scenario, parallel=int(argv[4]), trace=False
        )
        cli.write_csv(csv_path, reports)
        _stamp(stamps, "work_end")
        result["bad_runs"] = sum(
            1 for r in reports if r.mr_violations or r.plan_violations
        )
    else:
        code = cli.main(
            ["simulate", "--config", config_path, "--out", csv_path,
             "--parallel", argv[4], "--trace"]
        )
        _stamp(stamps, "work_end")
        if code != 0:
            return code
    ref_cpu = time.process_time()
    refs.append(host_ref_s())
    own_cpu += time.process_time() - ref_cpu
    result["refs"] = refs
    result["own_s"] = (
        (stamps["ref_end"] - stamps["start"])
        + (stamps["ready"] - stamps["parsed"])
        + refs[1]
    )
    result["own_cpu_s"] = own_cpu
    result["stamps"] = stamps
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
