"""Re-verify one JSON trace document that ``ringfill trace`` wrote.

    python perfbench/reverify.py DOCUMENT

Loads the document, rebuilds the trace with
``ringfill.cli.parse_trace_report``, runs
``ringfill.verify.check_requirements`` on it and compares the resulting
statuses and witnesses with the ``requirements`` the document carries.
Exit 0 when they are equal, 3 when they differ; a document that
``parse_trace_report`` rejects raises and exits 1.

Library functions are looked up on their modules at call time so that
``traced.py`` can wrap them.
"""

from __future__ import annotations

import json
import sys

from ringfill import cli, verify


def requirement_entries(report) -> list[dict]:
    """The ``requirements`` list of a report, in JSON-native form."""
    entries = [
        {
            "id": check.id,
            "status": "pass" if check.passed else "fail",
            "witness": check.witness,
        }
        for check in report.checks
    ]
    return json.loads(json.dumps(entries))


def main(argv: list[str]) -> int:
    (path,) = argv
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    trace = cli.parse_trace_report(document)
    report = verify.check_requirements(trace)
    rebuilt = requirement_entries(report)
    if rebuilt != document["requirements"]:
        print(
            f"{path}: re-verified requirements differ from the document: "
            f"{json.dumps(rebuilt)}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
