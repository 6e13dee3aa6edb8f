"""Record the sweep CSV sha256 of every workload for a list of seeds.

    python3 perfbench/record_digests.py 1234 0-20

run.py prints each run's CSV digest beside the one recorded here for the
same workload and seed, so an output change shows by name.  Re-record only
after an output change that is meant and documented.
"""

from __future__ import annotations

import json
import sys

import run


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    run.check_checkout()
    runner = run.Runner(None)
    table: dict = {}
    for name, workload in run.WORKLOADS.items():
        for seed in parse_seeds(argv):
            out = run.measure(workload, seed, 0, 0, runner)
            if not run.correct(out):
                print(f"{name} seed {seed}: {out.problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = out.digests[0]
            print(name, seed, out.digests[0], flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
