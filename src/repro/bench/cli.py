"""Command-line experiment runner.

``python -m repro.bench <exhibit> [...]`` regenerates any of the
paper's tables/figures without pytest, printing the text table.

Examples::

    python -m repro.bench list
    python -m repro.bench fig3
    python -m repro.bench fig7 --ops 2000 --seed 2
    python -m repro.bench all --ops 200 --out results/
    python -m repro.bench trace list
    python -m repro.bench trace fig7 --out traces/
    python -m repro.bench metrics faults --out metrics/
    python -m repro.bench diff old/BENCH_shards.json new/BENCH_shards.json
"""

import argparse
import os
import sys

from repro.bench.experiments import (
    batch_pipeline,
    faults_injection,
    fig3_device,
    fig7_fig8,
    fig10_probing,
    fig11_dedicated_polling,
    fig12_priority,
    fig13_yielding,
    fig14_buffering,
    fig15_end_to_end,
    fuzz_explore,
    shards_scaling,
    table1_table2_fig9,
)
from repro.bench.report import write_bench_json
from repro.errors import BenchmarkError


def positive_int(text):
    """argparse type of a size: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, not %d" % value)
    return value


def _exhibit(module, title=None, render=None):
    return (title or module.TITLE, module, render or module.render)


#: name -> (title, module, render).  Every module keeps one contract:
#: ``run(ops=OPS, seed=..., **sweep) -> rows`` (JSON-able, deterministic
#: in its arguments) and a render ``(rows, out)`` that only prints.
_EXHIBITS = {
    "batch": _exhibit(batch_pipeline),
    "fig3": _exhibit(fig3_device),
    "fig7": _exhibit(fig7_fig8),
    "table1": _exhibit(
        table1_table2_fig9,
        "Table I: runtime statistics",
        table1_table2_fig9.render_table1,
    ),
    "table2": _exhibit(
        table1_table2_fig9,
        "Table II: CPU cycles per operation",
        table1_table2_fig9.render_table2,
    ),
    "fig9": _exhibit(
        table1_table2_fig9, "Fig 9: CPU breakdown", table1_table2_fig9.render_fig9
    ),
    "fig10": _exhibit(fig10_probing),
    "fig11": _exhibit(fig11_dedicated_polling),
    "fig12": _exhibit(fig12_priority),
    "fig13": _exhibit(fig13_yielding),
    "fig14": _exhibit(fig14_buffering),
    "fig15": _exhibit(fig15_end_to_end),
    "faults": _exhibit(faults_injection),
    "fuzz": _exhibit(fuzz_explore),
    "shards": _exhibit(shards_scaling),
}


def run_exhibit(name, ops=None, seed=None, out=print, out_dir=None):
    """Run one exhibit, render its table, persist both under ``out_dir``.

    ``ops`` / ``seed`` of None mean the module's own default.  This is
    the only code that writes exhibit artefacts: ``<name>.txt`` and
    ``BENCH_<name>.json`` go to ``out_dir`` and, without one, nowhere.
    """
    _title, module, render = _EXHIBITS[name]
    sizing = {"ops": ops, "seed": seed}
    rows = module.run(**{k: v for k, v in sizing.items() if v is not None})
    lines = []

    def tee(line=""):
        out(line)
        lines.append("%s\n" % (line,))

    render(rows, tee)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name + ".txt"), "w") as handle:
            handle.writelines(lines)
        write_bench_json(name, rows, out_dir)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the PA-Tree paper's tables and figures.",
    )
    parser.add_argument(
        "exhibit",
        help="one of: %s, 'all', 'list', 'trace', 'metrics', or 'diff'"
        % ", ".join(sorted(_EXHIBITS)),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="with 'trace'/'metrics': the run to record (or 'list'); "
        "with 'diff': the old BENCH_*.json artefact",
    )
    parser.add_argument(
        "target2",
        nargs="?",
        default=None,
        help="with 'diff': the new BENCH_*.json artefact",
    )
    parser.add_argument(
        "--ops",
        type=positive_int,
        default=None,
        help="operations per measurement point (default: the exhibit's own)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root simulation seed (default: the exhibit's own; 1 for "
        "'trace'/'metrics')",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory to write <name>.txt and BENCH_<name>.json into "
        "(nothing is written without it)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="with 'diff': relative regression threshold (default 0.10)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="I/O backend spec every exhibit runs on: 'sim' (default), "
        "'file', 'file:<path>', or 'replay:<trace.jsonl>'",
    )
    args = parser.parse_args(argv)

    if args.backend is not None:
        from repro.backend import normalize_backend_spec, set_default_backend

        # fail fast on typos, then retarget every machine the
        # exhibits build (configs that leave backend unset consult
        # the process default)
        normalize_backend_spec(args.backend)
        set_default_backend(args.backend)

    if args.exhibit == "list":
        for name, (title, _module, _render) in sorted(_EXHIBITS.items()):
            print("%-8s %s" % (name, title))  # patlint: ignore[PA404]
        return 0

    if args.exhibit in ("trace", "metrics"):
        from repro.bench import observe

        return observe.main(args.exhibit, args)

    if args.exhibit == "diff":
        from repro.bench import diff

        return diff.main(args)

    names = sorted(_EXHIBITS) if args.exhibit == "all" else [args.exhibit]
    unknown = [name for name in names if name not in _EXHIBITS]
    if unknown:
        parser.error("unknown exhibit(s): %s" % ", ".join(unknown))

    for name in names:
        print("=== %s ===" % _EXHIBITS[name][0])  # patlint: ignore[PA404]
        try:
            run_exhibit(name, args.ops, args.seed, out_dir=args.out)
        except BenchmarkError as exc:
            # an exhibit refuses a flag it cannot honour (fig3 is
            # time-based): a usage error when asked for by name; under
            # 'all' that exhibit runs at its own size
            if args.exhibit != "all" or args.ops is None:
                parser.error(str(exc))
            run_exhibit(name, None, args.seed, out_dir=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
