"""Greedy trace reduction for fuzz reproducers.

A failing exploration run hands over its full decision trace — often
hundreds of entries, most irrelevant to the failure.  ``shrink_trace``
is a ddmin-style greedy reducer: it repeatedly deletes contiguous
chunks (halving the chunk size as deletions stop helping) and keeps a
candidate whenever replaying it still produces the *same* failure
signature.  Soundness comes from the decider contract: a replayed
trace that runs dry falls back to the pinned default schedule, so any
subsequence of a trace is itself a valid schedule.

The reducer is deliberately generic — it only needs a ``replay_fn``
mapping a candidate trace to a run result — so it carries no harness
dependencies and is reusable for any trace-shaped input.
"""


def failure_signature(result):
    """The (kind, detail) signature of a run result, or None if ok."""
    failure = result.get("failure")
    if failure is None:
        return None
    return [failure["kind"], failure["detail"]]


#: Replays one shrink may spend.
MAX_RUNS = 160


def shrink_trace(replay_fn, trace, signature):
    """Greedily minimise ``trace`` while ``replay_fn`` keeps failing.

    ``replay_fn(candidate)`` runs the candidate trace and returns a
    result dict (as produced by :func:`repro.fuzz.harness.run_one`);
    a candidate is kept when its failure signature equals
    ``signature``.  At most :data:`MAX_RUNS` replays are spent.  Returns
    ``(shrunk_trace, runs_used)``.
    """
    current = list(trace)
    signature = list(signature)
    runs = 0
    chunk = max(len(current) // 2, 1)
    while runs < MAX_RUNS and current:
        removed_any = False
        start = 0
        while start < len(current) and runs < MAX_RUNS:
            candidate = current[:start] + current[start + chunk:]
            runs += 1
            if failure_signature(replay_fn(candidate)) == signature:
                current = candidate
                removed_any = True
                # retry the same start: the next chunk slid into place
            else:
                start += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = max(chunk // 2, 1)
    return current, runs
