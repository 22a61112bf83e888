"""Tabular reporting for experiment results.

Prints the same row/series shapes the paper's tables and figures use,
as plain text so benchmark logs are diffable and greppable.
"""


def format_value(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 10:
            return "%.1f" % value
        return "%.3f" % value
    return str(value)


def print_table(title, columns, rows, out=print):
    """Render rows (dicts) as an aligned text table."""
    headers = [name for name, _key in columns]
    cells = [
        [format_value(row.get(key, "")) for _name, key in columns] for row in rows
    ]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(len(columns))
    ]
    out("")
    out("== %s ==" % title)
    out("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out("  ".join("-" * w for w in widths))
    for row_cells in cells:
        out("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
    out("")


def print_series(title, x_name, x_values, series, out=print):
    """Render one figure: named series over shared x values."""
    columns = [(x_name, "x")] + [(name, name) for name in series]
    rows = []
    for index, x in enumerate(x_values):
        row = {"x": x}
        for name, values in series.items():
            row[name] = values[index]
        rows.append(row)
    print_table(title, columns, rows, out=out)


def write_bench_json(name, payload, out_dir):
    """Write ``BENCH_<name>.json`` for machine consumption.

    ``payload`` is either a dict (a traced-run summary with histogram /
    time-series sections) or a list of experiment row dicts; non-JSON
    values (e.g. attached trace sessions) are dropped.  Output is
    sorted-key, indented JSON so diffs across PRs track the perf
    trajectory.
    """
    import json
    import os

    def scrub(value):
        if isinstance(value, dict):
            return {
                str(key): scrub(item)
                for key, item in value.items()
                if _jsonable(item)
            }
        if isinstance(value, (list, tuple)):
            return [scrub(item) for item in value if _jsonable(item)]
        return value

    def _jsonable(value):
        return isinstance(
            value, (dict, list, tuple, int, float, str, bool, type(None))
        )

    path = os.path.join(out_dir, "BENCH_%s.json" % name)
    with open(path, "w") as handle:
        json.dump(scrub(payload), handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path
