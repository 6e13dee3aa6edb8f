"""The benchmark's workloads.

Each workload is a scenario config derived from one built-in suite plus the
master seed, and a mode that says how a fresh process drives the program:

``sweep``  ``scenario_from_config``, ``run_sweep`` and ``write_csv`` (the
           library path, no trace);
``cli``    ``fogfed.cli.main(["simulate", ..., "--trace"])``, which is what
           the ``fogfed`` console script runs.

``fig7_top`` puts the gateway at the centre of the 3x3 grid
(``degrees: [4]``).  The suite's own gateway is the slowest fog, which lands
on a corner or an edge depending on the seed; that swings the number of
``mr`` candidates, and so the work per run, by a third between seeds.  It
also pins the four neighbours' ratings (``neighbor_mips``, as the scaling
suites do): drawn ratings moved the sweep time by up to 17% between seeds.
Every workload takes one gateway process (``--parallel 1``): on a host of
two cores, a process pool measures the scheduler more than the program.

Nothing here imports fogfed: the benchmark's parent process never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1234


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    suite: str
    axes: dict

    def config(self, seed: int) -> dict:
        """Scenario config for one master seed; the program sees only this."""
        return {"suite": self.suite, "seed": seed, **self.axes}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig7_top",
            why=(
                "fig7 at load 1000, all four allocators in one process: "
                "allocation dominates, mect/mcc/nofed bypass the mr "
                "decision path"
            ),
            mode="sweep",
            suite="fig7_alloc_monolithic",
            axes={
                "loads": [1000],
                "repetitions": 3,
                "degrees": [4],
                "neighbor_mips": 2400.0,
            },
        ),
        Workload(
            name="cold_cli_trace",
            why=(
                "fresh fogfed simulate --trace --parallel 1 on fig11 degrees "
                "1-4: 4-7 stage workflows with min-cut plans, four context "
                "builds, import and trace output"
            ),
            mode="cli",
            suite="fig11_scaling_workflows",
            axes={"repetitions": 1},
        ),
    )
}

