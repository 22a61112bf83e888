"""patlint command line: ``python -m tools.analysis [paths...]``.

Exit codes: 0 clean, 1 findings, a file that does not parse or a
byte-compile failure, 2 usage errors (argparse).  Every run applies
the per-file rules and then the whole-program phase (PA5xx: layer map,
NVMe boundary, import cycles, wall-clock taint, latch discipline, hook
contract) over the files it was given.  Byte-compilation runs with ``sys.pycache_prefix`` pointed
at a throwaway directory so an analysis run never litters the working
tree with ``__pycache__``.
"""

import argparse
import compileall
import os
import sys
import tempfile

from . import __version__, analyze
from .reporters import render_json, render_sarif, render_text
from .rules import FRAMEWORK_CODES, GRAPH_RULE_CLASSES, RULE_CLASSES

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")


def _byte_compile(paths):
    """Parse-and-compile every file, caching bytecode outside the tree."""
    ok = True
    with tempfile.TemporaryDirectory(prefix="patlint-pycache-") as cache_dir:
        previous_prefix = sys.pycache_prefix
        sys.pycache_prefix = cache_dir
        try:
            for path in paths:
                if os.path.isdir(path):
                    ok = compileall.compile_dir(path, quiet=1) and ok
                elif os.path.isfile(path):
                    ok = compileall.compile_file(path, quiet=1) and ok
                else:
                    print("patlint: no such path: %s" % path, file=sys.stderr)
                    ok = False
        finally:
            sys.pycache_prefix = previous_prefix
    return ok


def _print_rule_catalog():
    rows = [
        (cls.code, cls.name, cls.summary, ",".join(cls.scopes))
        for cls in RULE_CLASSES
    ]
    rows.extend(
        (cls.code, cls.name, cls.summary + " [graph]", ",".join(cls.scopes))
        for cls in GRAPH_RULE_CLASSES
    )
    rows.extend(FRAMEWORK_CODES)
    rows.sort()
    width = max(len(row[1]) for row in rows)
    for code, name, summary, scopes in rows:
        print("%s  %-*s  %s  [%s]" % (code, width, name, summary, scopes))


def _sarif_catalog():
    classes = tuple(RULE_CLASSES) + tuple(GRAPH_RULE_CLASSES)
    catalog = [(cls.code, cls.name, cls.summary) for cls in classes]
    catalog.extend((code, name, summary) for code, name, summary, _ in FRAMEWORK_CODES)
    return catalog


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="patlint: determinism, fault-path & whole-program "
        "architecture static analysis for the PA-Tree reproduction.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: %s)"
        % " ".join(DEFAULT_PATHS),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--no-compile",
        action="store_true",
        help="skip the byte-compilation pass",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _render(args, findings, files):
    handle = open(args.output, "w", encoding="utf-8") if args.output else None
    try:
        if args.format == "json":
            render_json(findings, files, out=handle)
        elif args.format == "sarif":
            render_sarif(
                findings,
                files,
                out=handle,
                rule_catalog=_sarif_catalog(),
                version=__version__,
            )
        else:
            render_text(findings, files, out=handle)
    finally:
        if handle is not None:
            handle.close()


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rule_catalog()
        return 0
    paths = list(args.paths) or list(DEFAULT_PATHS)
    compiled_ok = True if args.no_compile else _byte_compile(paths)
    result = analyze(paths)
    _render(args, result.findings, result.files)
    for path in result.unparsed:
        print("patlint: %s does not parse" % path, file=sys.stderr)
    return 1 if (result.findings or result.unparsed or not compiled_ok) else 0
