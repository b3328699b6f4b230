"""Command-line front end with plan, trace, verify and sweep subcommands.

Reports go to standard output (or ``--output``), diagnostics to standard
error.  Exit codes: 0 success, 1 bad input, 2 requirement violation.
Output is deterministic: the same invocation always produces the same
bytes, so reports are safe to diff and to pin as golden files.

JSON reports share one top-level shape
``{params, placements, occupancy1, occupancy2, occupancy3, gap,
requirements}`` with field names matching the library types; the plan
subcommand emits the prefix of that shape it can know (params without a
second set, records without post-rebalance buckets).  CSV rows carry the
same fields.  Every format is written from the trace's columns, or the
plan's, with one row template per format and no per-token record: the
move flag is ``false``/``true`` in JSON and, as a bool is an int,
``0``/``1`` in CSV and table cells.  Each writer yields its report a
block of rows at a time, and the command writes each block to its
output as it comes, so a report holds its trace, or nothing for a plan
in JSON or CSV, plus one block.  Everything that can fail on bad input
runs before the output file is opened.  The trace parser
reads each field of the JSON records into a column in one pass and puts
each check of a record to whole columns, once; when one fails, it halves
the records down to the first offender with the same checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, count, islice
from operator import countOf, itemgetter, ne
from typing import Any

from .lifecycle import FIELDS, LifecycleTrace, run_lifecycle
from .placement import PlacementParams, _stage1_columns, gap
from .verify import (
    REQUIREMENT_DESCRIPTIONS,
    REQUIREMENT_IDS,
    RequirementCheck,
    RequirementReport,
    SweepDomain,
    SweepReport,
    check_requirements,
    sweep,
)

__all__ = [
    "build_parser",
    "main",
    "parse_trace_report",
    "sweep_report_document",
]

PLAN_CSV_FIELDS = FIELDS[:3]
TRACE_CSV_FIELDS = (*FIELDS[:-1], "moved")
# Rows formatted per join: enough to amortise the join, few enough that
# their strings are small beside the text they are joined into.
_BLOCK_ROWS = 1024
TRACE_REPORT_KEYS = {
    "params", "placements", "occupancy1", "occupancy2", "occupancy3", "gap", "requirements",
}


class _Parser(argparse.ArgumentParser):
    """Parser that exits 1 on usage errors.

    The stock parser exits 2, which this tool reserves for requirement
    violations.
    """

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonneg_int(text: str) -> int:
    # int() alone would also read " 3", "1_0" and non-ASCII digits such as "٣".
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:
        pass  # more digits than int() converts
    raise argparse.ArgumentTypeError(f"expected a decimal integer >= 0, got {text!r}")


def _plan_blocks(params: PlacementParams) -> Iterator[str]:
    """The blocks of the plan JSON report, in order."""
    return _render_report(
        {
            "token_count": params.token_count,
            "first_set_size": params.first_set_size,
            "fill_width": params.fill_width,
            "first_bucket": params.first_bucket,
        },
        PLAN_CSV_FIELDS,
        _plan_columns(params),
        {},
    )


def _plan_columns(params: PlacementParams) -> tuple[Iterable[int], ...]:
    """The token, label and stage-1 bucket columns of a plan; the last
    two are iterators, read once."""
    return (range(params.token_count), *_stage1_columns(params))


def _check_document(check: RequirementCheck) -> dict:
    return {
        "id": check.id,
        "status": "pass" if check.passed else "fail",
        "witness": check.witness,
    }


def _trace_blocks(trace: LifecycleTrace, report: RequirementReport) -> Iterator[str]:
    """The blocks of the lifecycle JSON report, in order; the histograms
    and the gap are computed before the first block is."""
    return _render_report(
        trace.params._asdict(),
        FIELDS,
        (*trace.columns[:-1], map(("false", "true").__getitem__, trace.moved_in_stage2)),
        {
            "occupancy1": trace.occupancy1,
            "occupancy2": trace.occupancy2,
            "occupancy3": trace.occupancy3,
            "gap": gap(trace.params)._asdict(),
            "requirements": [_check_document(check) for check in report.checks],
        },
    )


def _is_json_int(value: object) -> bool:
    # True == 1 and 2.0 == 2, so only the exact type tells a JSON integer.
    return type(value) is int


def _read_placements(entries: list, params: PlacementParams, first: int = 0) -> list[tuple] | str:
    """The columns of ``FIELDS`` read from ``entries``, placements
    ``first`` onwards, or what the first check that some entry fails
    says of it.

    The checks run in the order an entry is read in, each once on whole
    columns.  A failure that names a value names the last entry's, which
    is the offender's when ``entries`` holds it alone.
    """
    size = len(entries)
    plain = countOf(map(type, entries), dict) == size
    if not (plain or all(isinstance(entry, dict) for entry in entries)):
        return "must be an object"
    fields_failure = f"must have exactly the fields {sorted(FIELDS)}"
    # A dict of len(FIELDS) keys from which every field reads has exactly
    # those keys.  A dict subclass may read a key it lacks, so its key set
    # is compared instead.
    if plain:
        if countOf(map(len, entries), len(FIELDS)) != size:
            return fields_failure
    elif countOf(map(dict.keys, entries), set(FIELDS)) != size:
        return fields_failure
    try:
        columns = [tuple(map(itemgetter(name), entries)) for name in FIELDS]
    except KeyError:
        return fields_failure
    tokens, *integer_columns, moved = columns
    if any(map(ne, tokens, count(first))):
        return f"has token {tokens[-1]}, tokens must be dense and ordered"
    for name, column in zip(FIELDS, (tokens, *integer_columns)):
        if countOf(map(type, column), int) != size:
            return f"field {name} must be an integer"
    if countOf(map(type, moved), bool) != size:
        return "field moved_in_stage2 must be a boolean"
    for column, set_size in zip(
        integer_columns[1:], (params.first_set_size, params.first_set_size, params.second_set_size)
    ):
        values = set(column)
        if values and not 0 <= min(values) <= max(values) < set_size:
            return "has a bucket outside its set"
    return columns


def _placement_columns(placements: list, params: PlacementParams) -> list[tuple]:
    """The columns of ``FIELDS`` read from a placements list, once every
    entry passes every check.

    A rejected list is halved down to its first offending entry: the
    span ``[low, high)`` holds it, and only the left half of the span is
    read at each split.  A ValueError names that entry and its first
    failing check.
    """
    columns = _read_placements(placements, params)
    if not isinstance(columns, str):
        return columns
    low, high = 0, len(placements)
    while high - low > 1:
        middle = (low + high) // 2
        if isinstance(_read_placements(placements[low:middle], params, low), str):
            high = middle
        else:
            low = middle
    raise ValueError(f"placement {low} {_read_placements(placements[low:high], params, low)}")


def parse_trace_report(document: dict) -> LifecycleTrace:
    """Rebuild a trace from an emitted JSON report.

    Validates shape and internal consistency (exactly the seven top-level
    keys, dense token order, correct histogram lengths, histograms
    tallying the placements, stage-1 occupancy confined to the fill
    window, a ``gap`` equal to the one ``params`` has) so a
    re-verification runs on exactly the data the report claims.  Raises
    ValueError on any malformation; for the placement records, the error
    names the first offending record and its first failing check, in the
    order a record's fields are read.  Each check of a record is put to
    whole columns, and a rejected list is halved down to its offender.
    """
    if not isinstance(document, dict):
        raise ValueError("report must be a JSON object")
    if document.keys() != TRACE_REPORT_KEYS:
        raise ValueError(f"report must have exactly the keys {sorted(TRACE_REPORT_KEYS)}")
    raw_params = document["params"]
    if not isinstance(raw_params, dict):
        raise ValueError("params must be an object")
    expected_fields = set(PlacementParams._fields)
    if raw_params.keys() != expected_fields:
        raise ValueError(f"params must have exactly the fields {sorted(expected_fields)}")
    if not all(map(_is_json_int, raw_params.values())):
        raise ValueError("params fields must be integers")
    params = PlacementParams(**raw_params)

    raw_placements = document["placements"]
    if not isinstance(raw_placements, list):
        raise ValueError("placements must be a list")
    if len(raw_placements) != params.token_count:
        raise ValueError(f"expected {params.token_count} placements, got {len(raw_placements)}")
    _, *columns = _placement_columns(raw_placements, params)
    trace = LifecycleTrace(params, *columns)

    # The length check must come before the trace tallies its column, so
    # a huge set size with a short histogram never allocates the tally.
    for name, field, size in (
        ("occupancy1", "stage1_bucket", params.first_set_size),
        ("occupancy2", "stage2_bucket", params.first_set_size),
        ("occupancy3", "stage3_bucket", params.second_set_size),
    ):
        raw = document[name]
        if not isinstance(raw, list):
            raise ValueError(f"{name} must be a list")
        if len(raw) != size:
            raise ValueError(f"{name} must have {size} entries, got {len(raw)}")
        if not all(map(_is_json_int, raw)):
            raise ValueError(f"{name} entries must be integers")
        if tuple(raw) != getattr(trace, name):
            raise ValueError(f"{name} does not tally the {field} column")
    for bucket, held in enumerate(trace.occupancy1):
        if held != 0 and not params.in_fill_window(bucket):
            raise ValueError(f"occupancy1 is nonzero at bucket {bucket}, outside the fill window")
    expected_gap = gap(params)._asdict()
    raw_gap = document["gap"]
    if not (
        isinstance(raw_gap, dict)
        and raw_gap == expected_gap
        and all(type(raw_gap[name]) is type(value) for name, value in expected_gap.items())
    ):
        raise ValueError(f"gap must be {json.dumps(expected_gap)}, the label gap of params")
    return trace


def sweep_report_document(report: SweepReport) -> dict:
    """JSON-native summary of a sweep; witnesses included, instances not.

    Minimal violations go in requirement order, not the order the sweep
    found them in, so equal reports render to equal bytes.
    """
    minimal = {}
    for requirement_id in REQUIREMENT_IDS:
        if requirement_id in report.minimal_violations:
            params, check = report.minimal_violations[requirement_id]
            minimal[requirement_id] = {
                "params": params._asdict(),
                "check": _check_document(check),
            }
    mismatch = report.minimal_oracle_mismatch
    return {
        "domain": report.domain._asdict(),
        "instances_checked": report.instances_checked,
        "oracle_mismatches": report.oracle_mismatches,
        "minimal_oracle_mismatch": None if mismatch is None else mismatch._asdict(),
        "violation_counts": dict(report.violation_counts),
        "minimal_violations": minimal,
        "unexpected_violations": report.unexpected_violations,
        "only_expected_failures": report.only_expected_failures,
    }


def _json_member(name: str, value: Any) -> str:
    # One level deep, every line of json.dumps(indent=2) gains two spaces.
    return f"  {json.dumps(name)}: " + json.dumps(value, indent=2).replace("\n", "\n  ")


def _render_report(
    params: dict, fields: tuple[str, ...], columns: Sequence[Iterable], rest: dict
) -> Iterator[str]:
    """``json.dumps(document, indent=2) + "\n"``, a block at a time and
    without a dict per record.

    The document is ``params``, then ``placements`` with one record per
    row of ``columns`` under the names ``fields``, then the members of
    ``rest``.  Each record is written from one row template; the
    columns' values must already be JSON literals or ints.  Nothing is
    formatted before the first block is asked for.
    """
    members = ",\n".join(f"      {json.dumps(name)}: %s" for name in fields)
    template = "    {\n" + members + "\n    }"
    yield "{\n" + _json_member("params", params) + ",\n"
    blocks = _join_rows(template, columns, ",\n")
    first = next(blocks, None)
    if first is None:
        yield '  "placements": []'
    else:
        yield '  "placements": [\n'
        yield first
        del first  # hold one block at a time
        yield from blocks
        yield "\n  ]"
    for name, value in rest.items():
        yield ",\n" + _json_member(name, value)
    yield "\n}\n"


def _join_rows(row_format: str, columns: Sequence[Iterable], separator: str) -> Iterator[str]:
    """The rows of ``columns`` in ``row_format`` with ``separator``
    between them, a block of ``_BLOCK_ROWS`` rows at a time: every row
    after the first starts with a separator, so the blocks concatenate
    to the text of all rows, and no string per row outlives its block."""
    rows = zip(*columns)
    lines = chain(
        map(row_format.__mod__, islice(rows, 1)), map((separator + row_format).__mod__, rows)
    )
    return iter(lambda: "".join(islice(lines, _BLOCK_ROWS)), "")


# CSV and table cells are %d, so a bool is written 0 or 1; every line,
# the header's too, ends in a newline.
def _render_csv(fields: tuple[str, ...], columns: Sequence[Iterable[int]]) -> Iterator[str]:
    row_format = ",".join(["%d"] * len(fields)) + "\n"
    return chain([",".join(fields) + "\n"], _join_rows(row_format, columns, ""))


def _render_table(header: tuple[str, ...], columns: Sequence[Sequence[int]]) -> Iterator[str]:
    # The widths are read here, before the first block is asked for.
    # The widest int of a column is its smallest or its largest.
    widths = [
        max(len(name), len("%d" % min(column)), len("%d" % max(column))) if column else len(name)
        for name, column in zip(header, columns)
    ]
    row_format = "  ".join(f"%{width}d" for width in widths) + "\n"
    header_line = "  ".join(name.ljust(widths[i]) for i, name in enumerate(header)).rstrip()
    return chain([header_line + "\n"], _join_rows(row_format, columns, ""))


def _gap_line(descriptor) -> str:
    if not descriptor.present:
        return "gap: none"
    return (
        f"gap: start={descriptor.gap_start} length={descriptor.gap_length} "
        f"round={descriptor.round} offset={descriptor.offset}"
    )


def _requirement_lines(report: RequirementReport) -> list[str]:
    lines = []
    for check in report.checks:
        verdict = "pass" if check.passed else "FAIL"
        lines.append(f"{check.id} {verdict}  {REQUIREMENT_DESCRIPTIONS[check.id]}")
        if not check.passed:
            lines.append(f"  witness: {json.dumps(check.witness)}")
    return lines


def _emit(blocks: Iterable[str], path: str | None) -> None:
    """Write ``blocks`` to ``path``, or to stdout when it is None, one
    block at a time.

    The file is opened only here, so every fallible step of a command
    must run before its writer's first block: bad input leaves no file.
    """
    if path is None:
        sys.stdout.writelines(blocks)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(blocks)


def _instance_params(args: argparse.Namespace, second_set_size: int) -> PlacementParams:
    return PlacementParams(
        token_count=args.tokens,
        first_set_size=args.buckets,
        fill_width=args.fill,
        first_bucket=args.first,
        second_set_size=second_set_size,
    )


def cmd_plan(args: argparse.Namespace) -> int:
    # Stage 1 never looks at the second set; any legal size will do.
    params = _instance_params(args, args.buckets + 1)
    if args.format == "json":
        blocks = _plan_blocks(params)
    elif args.format == "csv":
        blocks = _render_csv(PLAN_CSV_FIELDS, _plan_columns(params))
    else:
        # The table reads its label and bucket columns twice: once for the widths.
        tokens, *stage1 = _plan_columns(params)
        blocks = _render_table(PLAN_CSV_FIELDS, (tokens, *map(tuple, stage1)))
    _emit(blocks, args.output)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    params = _instance_params(args, args.target_buckets)
    trace = run_lifecycle(params)
    if args.format == "json":
        blocks = _trace_blocks(trace, check_requirements(trace))
    elif args.format == "csv":
        blocks = _render_csv(TRACE_CSV_FIELDS, trace.columns)
    else:
        # A blank line parts the table from its summary.
        summary = [
            f"{name}: " + " ".join(map(str, getattr(trace, name)))
            for name in ("occupancy1", "occupancy2", "occupancy3")
        ]
        summary.append(_gap_line(gap(params)))
        blocks = chain(
            _render_table(TRACE_CSV_FIELDS, trace.columns), ["\n" + "\n".join(summary) + "\n"]
        )
    _emit(blocks, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = _instance_params(args, args.target_buckets)
    trace = run_lifecycle(params)
    report = check_requirements(trace)
    if args.format == "json":
        blocks = _trace_blocks(trace, report)
    else:
        blocks = ["\n".join(_requirement_lines(report)) + "\n"]
    _emit(blocks, args.output)
    return 0 if report.all_pass else 2


def cmd_sweep(args: argparse.Namespace) -> int:
    domain = SweepDomain(
        max_buckets=args.max_buckets,
        max_rounds=args.max_rounds,
        target_span=args.target_span,
    )
    report = sweep(domain)
    if args.format == "json":
        text = json.dumps(sweep_report_document(report), indent=2) + "\n"
    else:
        lines = [
            f"instances checked: {report.instances_checked}",
            f"oracle mismatches: {report.oracle_mismatches}",
        ]
        for requirement_id, count in report.violation_counts.items():
            line = f"{requirement_id} violations: {count}"
            if requirement_id in report.minimal_violations:
                _, check = report.minimal_violations[requirement_id]
                line += f"  (minimal witness: {json.dumps(check.witness)})"
            lines.append(line)
        lines.append(f"unexpected violations: {report.unexpected_violations}")
        if report.only_expected_failures:
            lines.append("result: only the documented gap-case count violations")
        else:
            lines.append("result: UNEXPECTED violations found")
        text = "\n".join(lines) + "\n"
    _emit([text], args.output)
    return 0 if report.only_expected_failures else 2


def _add_output_flags(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument(
        "--format", choices=formats, default="table", help="report format"
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None, help="write the report to PATH"
    )


def _add_instance_flags(parser: argparse.ArgumentParser, with_target: bool) -> None:
    parser.add_argument(
        "--tokens", type=_nonneg_int, required=True, help="number of tokens to place"
    )
    parser.add_argument(
        "--buckets", type=_nonneg_int, required=True, help="size of the first bucket set"
    )
    parser.add_argument(
        "--fill", type=_nonneg_int, required=True, help="width of the stage-1 fill window"
    )
    parser.add_argument(
        "--first", type=_nonneg_int, required=True, help="ring index of the window start"
    )
    if with_target:
        parser.add_argument(
            "--target-buckets",
            type=_nonneg_int,
            required=True,
            help="size of the second bucket set, must exceed --buckets",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringfill",
        description=(
            "Plan, trace, verify and exhaustively sweep three-stage "
            "token placement on bucket rings."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan = subparsers.add_parser(
        "plan", help="stage-1 bucket assignment and labels for one instance"
    )
    _add_instance_flags(plan, with_target=False)
    _add_output_flags(plan, ("table", "json", "csv"))
    plan.set_defaults(func=cmd_plan)

    trace = subparsers.add_parser(
        "trace", help="full three-stage trace with occupancy and gap analysis"
    )
    _add_instance_flags(trace, with_target=True)
    _add_output_flags(trace, ("table", "json", "csv"))
    trace.set_defaults(func=cmd_trace)

    verify = subparsers.add_parser(
        "verify", help="check all requirements on one instance"
    )
    _add_instance_flags(verify, with_target=True)
    _add_output_flags(verify, ("table", "json"))
    verify.set_defaults(func=cmd_verify)

    sweep_parser = subparsers.add_parser(
        "sweep", help="exhaustively check a whole parameter domain"
    )
    sweep_parser.add_argument(
        "--max-buckets",
        type=_nonneg_int,
        default=10,
        help="largest first-set size to sweep (default 10)",
    )
    sweep_parser.add_argument(
        "--max-rounds",
        type=_nonneg_int,
        default=4,
        help="token counts run to this many full rounds plus 3 (default 4)",
    )
    sweep_parser.add_argument(
        "--target-span",
        type=_nonneg_int,
        default=2,
        help="second-set sizes run up to this multiple of the first (default 2)",
    )
    _add_output_flags(sweep_parser, ("table", "json"))
    sweep_parser.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as error:
        # A set size that fits an index may still not fit in memory, and
        # a MemoryError usually carries no message.
        print(f"error: {str(error) or type(error).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
