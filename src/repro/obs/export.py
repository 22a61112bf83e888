"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON, JSONL, text.

The Chrome exporter emits the documented subset of the trace-event
format (phases ``X``, ``i``, ``b``/``n``/``e``, ``C`` plus ``M``
metadata), which both ``chrome://tracing`` and https://ui.perfetto.dev
load directly.  Timestamps are virtual-time microseconds.

Output is deterministic: events are emitted in record order, JSON keys
are sorted, and no wall-clock or environment data is included — the
same seeded run always serialises to the same bytes.
"""

import json

from repro.obs.tracer import (
    EV_ASYNC_BEGIN,
    EV_ASYNC_END,
    EV_ASYNC_INSTANT,
    EV_COUNTER,
    EV_INSTANT,
    EV_SLICE,
)

_PID = 1  # single simulated process


def _ts(ns):
    """Virtual ns -> trace-event microseconds (float, deterministic)."""
    return ns / 1000


def chrome_trace_events(tracer):
    """Flatten tracer records into a list of trace-event dicts."""
    out = []
    # Register every track up front (record order) so the thread_name
    # metadata block precedes the events that reference the tids.
    for record in tracer.events:
        if record[0] in (EV_SLICE, EV_INSTANT, EV_COUNTER):
            tracer.track_id(record[1])
    for track, tid in sorted(tracer.tracks.items(), key=lambda kv: kv[1]):
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for record in tracer.events:
        kind = record[0]
        if kind is EV_SLICE:
            _kind, track, name, cat, start_ns, end_ns, args = record
            event = {
                "ph": "X",
                "name": name,
                "cat": cat or "span",
                "pid": _PID,
                "tid": tracer.track_id(track),
                "ts": _ts(start_ns),
                "dur": _ts(end_ns - start_ns),
            }
        elif kind is EV_INSTANT:
            _kind, track, name, cat, time_ns, args = record
            event = {
                "ph": "i",
                "name": name,
                "cat": cat or "instant",
                "pid": _PID,
                "tid": tracer.track_id(track),
                "ts": _ts(time_ns),
                "s": "t",
            }
        elif kind in (EV_ASYNC_BEGIN, EV_ASYNC_INSTANT, EV_ASYNC_END):
            _kind, cat, aid, name, time_ns, args = record
            event = {
                "ph": {EV_ASYNC_BEGIN: "b", EV_ASYNC_INSTANT: "n",
                       EV_ASYNC_END: "e"}[kind],
                "name": name,
                "cat": cat,
                "pid": _PID,
                "tid": 0,
                "id": aid,
                "ts": _ts(time_ns),
            }
        elif kind is EV_COUNTER:
            _kind, track, name, time_ns, values = record
            event = {
                "ph": "C",
                "name": name,
                "cat": "counter",
                "pid": _PID,
                "tid": tracer.track_id(track),
                "ts": _ts(time_ns),
                "args": dict(values),
            }
            args = None
        else:  # pragma: no cover - tracer only emits the kinds above
            continue
        if kind is not EV_COUNTER and args:
            event["args"] = dict(args)
        out.append(event)
    return out


def to_chrome_trace(tracer):
    """The full JSON-object form of the trace."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "virtual",
            "dropped_events": tracer.dropped,
        },
    }


def write_chrome_trace(tracer, path):
    """Write Chrome ``trace_event`` JSON; open in Perfetto / chrome://tracing."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(tracer), handle, sort_keys=True,
                  separators=(",", ":"))
        handle.write("\n")
    return path


def write_jsonl(tracer, path):
    """One raw tracer record per line, for ad-hoc grep/jq analysis."""
    with open(path, "w") as handle:
        for record in tracer.events:
            kind = record[0]
            if kind is EV_SLICE:
                row = {
                    "ev": kind, "track": record[1], "name": record[2],
                    "cat": record[3], "start_ns": record[4],
                    "end_ns": record[5], "args": record[6],
                }
            elif kind is EV_INSTANT:
                row = {
                    "ev": kind, "track": record[1], "name": record[2],
                    "cat": record[3], "t_ns": record[4], "args": record[5],
                }
            elif kind is EV_COUNTER:
                row = {
                    "ev": kind, "track": record[1], "name": record[2],
                    "t_ns": record[3], "values": record[4],
                }
            else:
                row = {
                    "ev": kind, "cat": record[1], "id": record[2],
                    "name": record[3], "t_ns": record[4], "args": record[5],
                }
            handle.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")
    return path


def _aggregate_slices(tracer):
    """(track, name) -> [count, total_ns, max_ns] over slice records."""
    totals = {}
    for record in tracer.events:
        if record[0] is not EV_SLICE:
            continue
        _kind, track, name, _cat, start_ns, end_ns, _args = record
        duration = end_ns - start_ns
        slot = totals.get((track, name))
        if slot is None:
            totals[(track, name)] = [1, duration, duration]
        else:
            slot[0] += 1
            slot[1] += duration
            if duration > slot[2]:
                slot[2] = duration
    return totals


def _aggregate_async(tracer):
    """(cat, name) -> [count, total_ns, max_ns] from begin/end pairs."""
    open_spans = {}
    totals = {}
    for record in tracer.events:
        kind = record[0]
        if kind is EV_ASYNC_BEGIN:
            open_spans[(record[1], record[2])] = record[4]
        elif kind is EV_ASYNC_END:
            start_ns = open_spans.pop((record[1], record[2]), None)
            if start_ns is None:
                continue
            duration = record[4] - start_ns
            slot = totals.get((record[1], record[3]))
            if slot is None:
                totals[(record[1], record[3])] = [1, duration, duration]
            else:
                slot[0] += 1
                slot[1] += duration
                if duration > slot[2]:
                    slot[2] = duration
    return totals


#: Spans the text report lists, by total virtual time.
SUMMARY_TOP = 15


def trace_summary(tracer, cpu_account=None, out=None):
    """Text report: top spans by total virtual time + CPU flame summary.

    Returns the report as a string; also prints through ``out`` when
    given a writer callable.
    """
    lines = []

    def emit(line=""):
        lines.append(line)
        if out is not None:
            out(line)

    def table(title, totals):
        emit("== %s ==" % title)
        emit("%-42s %10s %14s %12s %12s"
             % ("span", "count", "total (us)", "mean (us)", "max (us)"))
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))
        for (scope, name), (count, total_ns, max_ns) in ranked[:SUMMARY_TOP]:
            emit(
                "%-42s %10d %14.1f %12.3f %12.3f"
                % (
                    ("%s/%s" % (scope, name))[:42],
                    count,
                    total_ns / 1000,
                    total_ns / 1000 / count,
                    max_ns / 1000,
                )
            )
        if len(ranked) > SUMMARY_TOP:
            emit("  ... %d more" % (len(ranked) - SUMMARY_TOP))
        emit()

    table("Top spans (worker-thread slices)", _aggregate_slices(tracer))
    async_totals = _aggregate_async(tracer)
    if async_totals:
        table("Async lifecycles (operations / I/O)", async_totals)

    if cpu_account is not None and cpu_account.total_ns:
        emit("== CPU flame summary ==")
        ranked = sorted(
            cpu_account.by_category.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for category, ns in ranked:
            emit(
                "%-18s %12.1f us  %6.1f%%"
                % (category, ns / 1000, 100.0 * ns / cpu_account.total_ns)
            )
        emit("%-18s %12.1f us" % ("total", cpu_account.total_ns / 1000))
        emit()

    emit("events recorded: %d  dropped: %d" % (len(tracer.events),
                                               tracer.dropped))
    return "\n".join(lines) + "\n"
