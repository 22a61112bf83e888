"""The byte gates: the committed bytes a change must not move.

    python -m tools.gates OUT

``GATES`` is the one list of them.  Each row runs a command that
regenerates bytes, into the row's directory under OUT or in place, and
compares them with what is committed.  The runner prints one line per
row (gate, Pythons, result, seconds) and exits 1 if any row moved or
its command failed; for a moved JSON artifact it prints the ``python -m
repro.bench diff`` report.  A file moved in place is restored, and its
new bytes are left in the row's directory.  Each command's output goes
to ``OUT/<row>.log``.
"""

import filecmp
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = "benchmarks/results"
EVERY = "all"
OPS_200 = ("fig3", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13",
           "fig14", "fig15", "table1", "table2", "fuzz")
BENCH = "-m repro.bench "

#: (gate, command after ``python``, compared with, Pythons); ``{out}`` is
#: the row's directory under OUT.  Compared with:
#: ("committed", names, count): each ``BENCH_<name>.json`` is ``cmp``-equal
#: to the one in RESULTS, and the run wrote ``count`` BENCH files;
#: ("same as", gate): ``diff -r`` against that row's directory;
#: ("in place", path): the command rewrites the file, which must not move;
#: ("digests", path): every workload's ``sim_digest`` equals the pinned one.
#: From 3.12 builtin ``sum()`` moves ``shards4_ycsb``'s smoke digest.
GATES = (
    ("all --ops 200", BENCH + "all --ops 200 --out {out}", ("committed", OPS_200, 15), EVERY),
    ("slow path", "-m tools.slow_path all --ops 200 --out {out}",
     ("same as", "all --ops 200"), EVERY),
    ("shards", BENCH + "shards --out {out}", ("committed", ("shards",), 1), EVERY),
    ("faults", BENCH + "faults --out {out}", ("committed", ("faults",), 1), EVERY),
    ("batch", BENCH + "batch --out {out}", ("committed", ("batch",), 1), EVERY),
    ("trace palsm", BENCH + "trace palsm --out {out}", ("committed", ("palsm",), 1), EVERY),
    ("metrics faults", BENCH + "metrics faults --out {out}",
     ("committed", ("metrics_faults",), 1), EVERY),
    ("metrics shards", BENCH + "metrics shards --out {out}",
     ("committed", ("metrics_shards",), 1), EVERY),
    ("smoke digests", "benchmarks/perf/run.py --smoke --seed 1 --out {out}/perf-smoke.json",
     ("digests", RESULTS + "/perf_smoke_digests.json"), "3.11"),
    ("palsm extension", "-m pytest benchmarks/test_palsm_extension.py -q",
     ("in place", RESULTS + "/BENCH_palsm_extension.json"), EVERY),
    ("probe models", "-m tools.train_probe_models",
     ("in place", "src/repro/sched/trained_models.py"), EVERY),
)

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, ("src", os.environ.get("PYTHONPATH")))))


def _files(top):
    return {os.path.relpath(os.path.join(d, f), top) for d, _, fs in os.walk(top) for f in fs}


def _same(old, new):
    return os.path.isfile(old) and os.path.isfile(new) and filecmp.cmp(old, new, False)


def _moved(compare, here, dirs, before):
    """The ``(committed, regenerated)`` pairs of one row that differ."""
    kind, what = compare[:2]
    if kind == "committed":
        count = sum(name.startswith("BENCH_") for name in os.listdir(here))
        pairs = [("%s/BENCH_%s.json" % (RESULTS, name), "%s/BENCH_%s.json" % (here, name))
                 for name in what]
        extra = [("%d BENCH files" % compare[2], "%d in %s" % (count, here))]
        return [p for p in pairs if not _same(*p)] + extra * (count != compare[2])
    if kind == "same as":
        pairs = [(os.path.join(dirs[what], rel), os.path.join(here, rel))
                 for rel in sorted(_files(dirs[what]) | _files(here))]
        return [p for p in pairs if not _same(*p)]
    if kind == "digests":
        smoke = pathlib.Path(here, "perf-smoke.json")
        runs = json.loads(smoke.read_text())["workloads"] if smoke.is_file() else {}
        seen = {name: run["sim_digest"] for name, run in runs.items()}
        pinned = json.loads(pathlib.Path(what).read_text())["sim_digest"]
        return [("%s %s" % (name, pinned.get(name)), str(seen.get(name)))
                for name in sorted(pinned.keys() | seen.keys())
                if pinned.get(name) != seen.get(name)]
    new = os.path.join(here, os.path.basename(what))
    os.replace(what, new)
    pathlib.Path(what).write_bytes(before)
    return [] if _same(what, new) else [(what, new)]


def main(argv):
    if len(argv) != 1:
        print("usage: python -m tools.gates OUT", file=sys.stderr)
        return 2
    out, python = os.path.abspath(argv[0]), "%d.%d" % sys.version_info[:2]
    os.chdir(ROOT)
    dirs, status = {}, 0
    print("%-16s %-7s %-18s %7s" % ("gate", "Pythons", "result", "seconds"))
    for gate, command, compare, pythons in GATES:
        here = dirs[gate] = os.path.join(out, re.sub(r"\W+", "-", gate))
        if pythons != EVERY and python not in pythons.split(","):
            print("%-16s %-7s %-18s" % (gate, pythons, "not on this Python"))
            continue
        shutil.rmtree(here, ignore_errors=True)
        os.makedirs(here)
        before = pathlib.Path(compare[1]).read_bytes() if compare[0] == "in place" else None
        start = time.monotonic()
        with open(here + ".log", "w") as log:
            code = subprocess.run([sys.executable] + command.format(out=here).split(),
                                  stdout=log, stderr=subprocess.STDOUT, env=ENV).returncode
        moved = _moved(compare, here, dirs, before)
        result = "failed (exit %d)" % code if code else "moved" if moved else "same"
        print("%-16s %-7s %-18s %7.1f" % (gate, pythons, result, time.monotonic() - start),
              flush=True)
        for old, new in moved:
            print("  moved: %s -> %s" % (old, new), flush=True)
            if os.path.basename(new).startswith("BENCH_") and os.path.isfile(new):
                subprocess.run([sys.executable, "-m", "repro.bench", "diff", old, new], env=ENV)
        status = 1 if code or moved else status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
