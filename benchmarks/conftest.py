"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's tables or figures,
prints it, persists it under ``benchmarks/results/`` and asserts the
qualitative *shape* the paper reports (orderings, ratios, crossovers).
Absolute numbers are not asserted — the substrate is a simulator, not
the authors' testbed.
"""

import io
import os

import pytest

from repro.bench.report import write_bench_json

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def record_report():
    """Returns a writer that tees report lines to stdout and a file."""

    def _make(name):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        buffer = io.StringIO()

        def out(line=""):
            print(line)
            buffer.write(str(line) + "\n")

        def save(rows=None):
            """Write ``<name>.txt`` and, given the exhibit's rows,
            ``BENCH_<name>.json`` next to it; returns the text path."""
            path = os.path.join(RESULTS_DIR, name + ".txt")
            with open(path, "w") as handle:
                handle.write(buffer.getvalue())
            if rows is not None:
                write_bench_json(name, rows, RESULTS_DIR)
            return path

        out.save = save
        return out

    return _make
