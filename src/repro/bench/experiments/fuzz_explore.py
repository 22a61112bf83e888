"""Schedule fuzzing — explored schedules and parity verdicts.

Runs the ``repro.fuzz`` differential harness over a fixed seed list
for each session target and reports one row per explored schedule:
how many decisions the explorer perturbed (run-queue picks, preemption
flips, wakeup reordering, I/O jitter), how much virtual time the
schedule covered and whether every parity and invariant check held.
The rows (``BENCH_fuzz.json`` under ``--out``; regenerated on demand,
not committed) are the evidence that the exploration dimensions named
by the paper's determinism claim — OS scheduling and NVMe completion
order — hold no surviving schedule-dependent bugs at this depth.
"""

from repro.bench.report import print_table
from repro.fuzz.harness import FuzzRunConfig, run_one

TITLE = "Fuzz: schedule exploration with differential parity checks"
OPS = 150

TARGETS = ("patree", "lsm", "sharded")

#: Consecutive seeds explored per target, starting at ``seed``; small
#: and fixed so the exhibit is a bounded regression gate, not an
#: open-ended hunt (use the CLI for deeper sweeps:
#: ``python -m repro.fuzz --seeds 100``).
N_SEEDS = 5


def run(ops=OPS, seed=1, n_seeds=N_SEEDS, targets=TARGETS):
    rows = []
    for target in targets:
        cfg = FuzzRunConfig(
            target=target, n_ops=ops, sync_oracle=target == "patree"
        )
        for run_seed in range(seed, seed + n_seeds):
            result = run_one(run_seed, cfg)
            failure = result["failure"]
            rows.append(
                {
                    "target": target,
                    "seed": run_seed,
                    "verdict": "ok" if result["ok"] else failure["kind"],
                    "ops": result["ops"],
                    "steps": result["steps"],
                    "decisions": result["decisions"],
                    "tolerated_faults": result["tolerated_faults"],
                    "virtual_time_us": result["virtual_time_us"],
                }
            )
    return rows


def render(rows, out=print):
    columns = [
        ("target", "target"),
        ("seed", "seed"),
        ("verdict", "verdict"),
        ("ops", "ops"),
        ("steps", "steps"),
        ("decisions", "decisions"),
        ("vtime (us)", "virtual_time_us"),
    ]
    print_table(
        "Schedule fuzzing: explored schedules and parity verdicts",
        columns,
        rows,
        out=out,
    )
    failures = [row for row in rows if row["verdict"] != "ok"]
    out(
        "explored %d schedule(s): %d failure(s)%s"
        % (
            len(rows),
            len(failures),
            "" if not failures else " -- run python -m repro.fuzz to shrink",
        )
    )
