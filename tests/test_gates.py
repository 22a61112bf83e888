"""``tools/gates.py`` is the one list of committed artifacts."""

import os

from tools import gates


def test_gitignore_whitelists_exactly_the_gated_artifacts():
    """A committed file under benchmarks/results must be a gate's, and
    a gate's file must be committed: ``.gitignore`` ignores the rest."""
    gated = set()
    for _gate, _command, compare, _pythons in gates.GATES:
        if compare[0] == "committed":
            gated.update("%s/BENCH_%s.json" % (gates.RESULTS, name) for name in compare[1])
        elif compare[0] != "same as" and compare[1].startswith(gates.RESULTS):
            gated.add(compare[1])
    with open(os.path.join(gates.ROOT, ".gitignore")) as handle:
        listed = {
            line[1:].strip() for line in handle
            if line.startswith("!%s/" % gates.RESULTS)
        }
    assert listed == gated
