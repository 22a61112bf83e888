"""Text, JSON and SARIF reporters for patlint findings."""

import json
import sys


def render_text(findings, files, out=None):
    out = out if out is not None else sys.stdout
    for finding in findings:
        print(finding.render(), file=out)
    if findings:
        print(
            "patlint: %d finding(s) across %d file(s)" % (len(findings), files),
            file=out,
        )
    else:
        print("patlint: clean (%d file(s))" % files, file=out)


def render_json(findings, files, out=None):
    out = out if out is not None else sys.stdout
    document = {
        "tool": "patlint",
        "schema_version": 2,
        "summary": {"files": files, "findings": len(findings)},
        "findings": [finding.as_dict() for finding in findings],
    }
    json.dump(document, out, indent=2)
    out.write("\n")


def render_sarif(findings, files, out=None, rule_catalog=(), version=""):
    """SARIF 2.1.0, the shape GitHub code scanning ingests.

    Every finding is an error-level result.  Finding paths are
    repo-relative POSIX (see ``canonical_path``), which is exactly what
    ``uriBaseId: SRCROOT`` wants.
    """
    out = out if out is not None else sys.stdout
    rules = {
        code: {
            "id": code,
            "name": name,
            "shortDescription": {"text": summary or name},
        }
        for code, name, summary in rule_catalog
    }
    results = []
    for finding in findings:
        rules.setdefault(
            finding.code,
            {
                "id": finding.code,
                "name": finding.code,
                "shortDescription": {"text": finding.code},
            },
        )
        results.append(
            {
                "ruleId": finding.code,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    results.sort(
        key=lambda r: (
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            r["locations"][0]["physicalLocation"]["region"]["startLine"],
            r["ruleId"],
        )
    )
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "patlint",
                        "version": version or "0",
                        "rules": [rules[code] for code in sorted(rules)],
                    }
                },
                "results": results,
                "properties": {"files": files},
            }
        ],
    }
    json.dump(document, out, indent=2)
    out.write("\n")
