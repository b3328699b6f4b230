"""Check the output files of one instance-large pass.

    python perfbench/check_outputs.py SPEC_PATH

SPEC_PATH holds a JSON list with one entry per instance: ``params``,
``gap`` (whether the benchmark generated it with a label gap),
``verify_exit`` and ``files``, which maps each operation name to the
file it wrote.  Prints one JSON object that maps an operation name to the
problems found in its output; ``{}`` means every output is right.

Runs as its own process so the benchmark process stays small: on Linux
the peak RSS that ``os.wait4`` reports for a child includes the peak of
the parent that spawned it.
"""

from __future__ import annotations

import csv
import json
import sys

PLAN_HEADER = ["token", "label", "stage1_bucket"]
TRACE_HEADER = [
    "token",
    "label",
    "stage1_bucket",
    "stage2_bucket",
    "stage3_bucket",
    "moved",
]
REQUIREMENT_IDS = ["R1", "R2", "R3", "R4", "R5", "R6", "RC"]


def stage1_walk(tokens: int, buckets: int, fill: int, first: int):
    """Stage-1 ring buckets by a literal two-pointer walk of the window.

    Per round of ``buckets`` tokens, the first ``fill`` tokens take a
    pointer that walks the window from its far end back to its start; the
    others take a pointer that walks it forward.  Both pointers wrap
    within the window and persist across rounds.
    """
    down, up = fill - 1, 0
    for token in range(tokens):
        if token % buckets < fill:
            yield (first + down) % buckets
            down = (down - 1) % fill
        else:
            yield (first + up) % buckets
            up = (up + 1) % fill


def check_csv(path: str, header: list[str], params: dict) -> list[str]:
    """One row per token, dense token order, stage-1 column equal to the walk."""
    tokens = params["token_count"]
    expected = stage1_walk(
        tokens, params["first_set_size"], params["fill_width"], params["first_bucket"]
    )
    with open(path, newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        found = next(rows, None)
        if found != header:
            return [f"{path}: header {found} is not {header}"]
        count = 0
        for row in rows:
            if count < tokens:
                bucket = next(expected)
                if row[0] != str(count) or row[2] != str(bucket):
                    return [
                        f"{path}: row {count} is {row}, expected token {count} "
                        f"in stage-1 bucket {bucket}"
                    ]
            count += 1
    if count != tokens:
        return [f"{path}: {count} rows, expected {tokens}"]
    return []


def check_document(path: str, instance: dict) -> tuple[list[str], dict]:
    """Trace JSON: params, one placement per token, gap and requirement law."""
    params = instance["params"]
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    problems = []
    if document.get("params") != params:
        problems.append(f"{path}: params {document.get('params')} are not {params}")
    if len(document.get("placements", ())) != params["token_count"]:
        problems.append(f"{path}: placement count is not {params['token_count']}")
    if document.get("gap", {}).get("present") != instance["gap"]:
        problems.append(f"{path}: gap.present is not {instance['gap']}")
    statuses = {entry["id"]: entry["status"] for entry in document.get("requirements", ())}
    if sorted(statuses) != sorted(REQUIREMENT_IDS):
        problems.append(f"{path}: requirement ids {sorted(statuses)}")
    for requirement_id, status in statuses.items():
        # The paper's verdict: everything but R6 always holds, and R6
        # fails only on an instance with a label gap.
        if status == "fail" and (requirement_id != "R6" or not instance["gap"]):
            problems.append(f"{path}: {requirement_id} fails")
    return problems, statuses


def check_verify(path: str, exit_code: int, statuses: dict) -> list[str]:
    """Verify's table and exit code agree with the statuses in the JSON."""
    expected_exit = 0 if all(s == "pass" for s in statuses.values()) else 2
    problems = []
    if exit_code != expected_exit:
        problems.append(f"verify exited {exit_code}, the JSON statuses imply {expected_exit}")
    with open(path, encoding="utf-8") as handle:
        lines = [line.split() for line in handle if line.startswith("R")]
    shown = {words[0]: "pass" if words[1] == "pass" else "fail" for words in lines}
    if shown != statuses:
        problems.append(f"{path}: statuses {shown} differ from the JSON {statuses}")
    return problems


def check_table(path: str, instance: dict) -> list[str]:
    """Trace table: header, one line per token, a blank, three histograms, the gap."""
    with open(path, encoding="utf-8") as handle:
        count = 0
        last = ""
        for last in handle:
            count += 1
    expected = instance["params"]["token_count"] + 6
    problems = []
    if count != expected:
        problems.append(f"{path}: {count} lines, expected {expected}")
    if (last.strip() == "gap: none") == instance["gap"]:
        problems.append(f"{path}: last line {last.strip()!r} disagrees with gap={instance['gap']}")
    return problems


def check_instance(instance: dict) -> dict[str, list[str]]:
    files = instance["files"]
    params = instance["params"]
    document_problems, statuses = check_document(files["trace-json"], instance)
    problems = {
        "plan-csv": check_csv(files["plan-csv"], PLAN_HEADER, params),
        "trace-json": document_problems,
        "trace-csv": check_csv(files["trace-csv"], TRACE_HEADER, params),
        "trace-table": check_table(files["trace-table"], instance),
        "verify": check_verify(files["verify"], instance["verify_exit"], statuses),
    }
    return {
        f"{instance['name']}.{op}": found for op, found in problems.items() if found
    }


def main(argv: list[str]) -> int:
    (spec_path,) = argv
    with open(spec_path, encoding="utf-8") as handle:
        instances = json.load(handle)
    problems: dict[str, list[str]] = {}
    for instance in instances:
        problems.update(check_instance(instance))
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
