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
plan's, a cell per column and no per-token record: the move flag is
``false``/``true`` in JSON and, as a bool is an int, ``0``/``1`` in CSV
and table cells.  The token and label cells are formatted row by row.
The other columns repeat with the periods ``run_lifecycle`` states, and
each run of them whose joint period is at most ``_BLOCK_ROWS`` rows has
its cells formatted once per period and cycled: a trace's writers take
the periods the trace checked once for all its readers, and a plan's
take the stated periods, which its columns keep by construction.  The
table's widths are read off one period too.  Each writer yields its
report a block of rows at a time, and the command writes each block to
its output as it comes, so a report holds its trace, or one round of
label offsets for a plan, plus one block and one period of cells.
Everything that can fail on bad input runs before the output file is
opened.  The trace parser reads each field of the JSON records into a
column in one pass and puts each check of a record to whole columns,
once; when one fails, it halves the records down to the first offender
with the same checks.  Its histogram checks read the trace's
occupancies, which are tallied from one period where the columns keep
it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, count, cycle, islice, repeat
from math import lcm
from operator import countOf, itemgetter, ne
from typing import Any

from .lifecycle import _BLOCK_ROWS, FIELDS, LifecycleTrace, _column_periods, run_lifecycle
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
        _json_records(PLAN_CSV_FIELDS, *_plan_columns(params)),
        {},
    )


class _Rebuilt:
    """A column that ``build()`` makes afresh at every read, so it is
    never held: a plan's, which its table reads three times."""

    def __init__(self, build: Callable[[], Iterator]) -> None:
        self.build = build

    def __iter__(self) -> Iterator:
        return self.build()


def _plan_columns(params: PlacementParams) -> tuple[tuple[Iterable[int], ...], tuple[int, ...]]:
    """The token, label and stage-1 bucket columns of a plan, and the
    periods ``run_lifecycle`` states for them, which ``_stage1_columns``
    keeps by construction; the last two columns are built at every read."""
    columns = (
        range(params.token_count),
        _Rebuilt(lambda: _stage1_columns(params)[0]),
        _Rebuilt(lambda: _stage1_columns(params)[1]),
    )
    return columns, _column_periods(params)


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
        _json_records(
            FIELDS,
            (
                *trace.columns[:-1],
                map(("false", "true").__getitem__, trace.moved_in_stage2),
            ),
            trace._periods,
        ),
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


def _render_report(params: dict, records: Iterator[str], rest: dict) -> Iterator[str]:
    """``json.dumps(document, indent=2) + "\n"``, a block at a time and
    without a dict per record: the document is ``params``, then
    ``placements`` with the blocks of ``records`` from ``_json_records``,
    then the members of ``rest``."""
    yield "{\n" + _json_member("params", params) + ",\n"
    first = next(records, None)
    if first is None:
        yield '  "placements": []'
    else:
        yield '  "placements": [\n'
        yield first
        del first  # hold one block at a time
        yield from records
        yield "\n  ]"
    for name, value in rest.items():
        yield ",\n" + _json_member(name, value)
    yield "\n}\n"


def _json_records(
    fields: tuple[str, ...], columns: Sequence[Iterable], periods: Sequence[int]
) -> Iterator[str]:
    """One record per row of ``columns`` under the names ``fields``, from
    one row template; the columns' values must already be JSON literals
    or ints.  Only the cells of one period are formatted before the
    first block is asked for."""
    members = ",\n".join(f"      {json.dumps(name)}: %s" for name in fields)
    template = "    {\n" + members + "\n    }"
    return _join_rows(template, columns, periods, ",\n")


def _join_rows(
    row_format: str, columns: Sequence[Iterable], periods: Sequence[int], separator: str
) -> Iterator[str]:
    """The rows of ``columns`` in ``row_format`` with ``separator``
    between them, a block of ``_BLOCK_ROWS`` rows at a time: every row
    after the first starts with a separator, so the blocks concatenate
    to the text of all rows, and no string per row outlives its block.

    Each column's cell is ``row_format`` from its ``%`` to the next.
    ``periods`` gives the period each column keeps, 0 for none, and
    columns past its end have none.  Each run of neighbouring columns
    whose joint period is at most ``_BLOCK_ROWS`` has its cells
    formatted for one period alone, as one string per row, and those
    strings, equal ones shared, are cycled.
    """
    head, *cells = row_format.split("%")
    pieces = [head + "%" + cells[0], *("%" + cell for cell in cells[1:])]
    periods = [*periods, *[0] * (len(columns) - len(periods))]
    formats, values, start = [], [], 0
    while start < len(columns):
        stop, joint = start + 1, periods[start]
        while stop < len(columns) and 0 < lcm(joint, periods[stop]) <= _BLOCK_ROWS:
            joint = lcm(joint, periods[stop])
            stop += 1
        piece, column = "".join(pieces[start:stop]), columns[start]
        if 0 < joint <= _BLOCK_ROWS:
            shared: dict[str, str] = {}
            rows = zip(*(islice(run, joint) for run in columns[start:stop]))
            cells = [shared.setdefault(cell, cell) for cell in map(piece.__mod__, rows)]
            piece, column = "%s", cycle(cells)
        formats.append(piece)
        values.append(column)
        start = stop
    row_format = "".join(formats)
    rows = zip(*values)
    lines = chain(
        map(row_format.__mod__, islice(rows, 1)), map((separator + row_format).__mod__, rows)
    )
    return iter(lambda: "".join(islice(lines, _BLOCK_ROWS)), "")


# CSV and table cells are %d, so a bool is written 0 or 1; every line,
# the header's too, ends in a newline.
# Each writer takes the period each column keeps, as ``_join_rows`` does.
def _render_csv(
    fields: tuple[str, ...], columns: Sequence[Iterable[int]], periods: Sequence[int] = ()
) -> Iterator[str]:
    row_format = ",".join(["%d"] * len(fields)) + "\n"
    blocks = _join_rows(row_format, columns, periods, "")
    return chain([",".join(fields) + "\n"], blocks)


def _extremes(column: Iterable[int], period: int) -> tuple[int, ...]:
    """The smallest and the largest of ``column``, or nothing if it is
    empty, read off one period of it, a range's two ends or else all of
    it, with no copy."""
    if isinstance(column, range):
        column = column[:: len(column) - 1 or 1]  # the first and the last
    smallest = min(islice(column, period or None), default=None)
    return () if smallest is None else (smallest, max(islice(column, period or None)))


def _render_table(
    header: tuple[str, ...], columns: Sequence[Iterable[int]], periods: Sequence[int] = ()
) -> Iterator[str]:
    # The widths are read here, before the first block is asked for.
    widths = [
        max([len(name), *map(len, map("%d".__mod__, _extremes(column, period)))])
        for name, column, period in zip(header, columns, chain(periods, repeat(0)))
    ]
    row_format = "  ".join(f"%{width}d" for width in widths) + "\n"
    header_line = "  ".join(name.ljust(widths[i]) for i, name in enumerate(header)).rstrip()
    return chain([header_line + "\n"], _join_rows(row_format, columns, periods, ""))


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
    else:
        render = _render_csv if args.format == "csv" else _render_table
        blocks = render(PLAN_CSV_FIELDS, *_plan_columns(params))
    _emit(blocks, args.output)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    params = _instance_params(args, args.target_buckets)
    trace = run_lifecycle(params)
    if args.format == "json":
        blocks = _trace_blocks(trace, check_requirements(trace))
    elif args.format == "csv":
        blocks = _render_csv(TRACE_CSV_FIELDS, trace.columns, trace._periods)
    else:
        # A blank line parts the table from its summary.
        summary = [
            f"{name}: " + " ".join(map(str, getattr(trace, name)))
            for name in ("occupancy1", "occupancy2", "occupancy3")
        ]
        summary.append(_gap_line(gap(params)))
        blocks = chain(
            _render_table(TRACE_CSV_FIELDS, trace.columns, trace._periods),
            ["\n" + "\n".join(summary) + "\n"],
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


# Each command's flags before --format and --output: the flag, its
# default, or None where it is required, and its help.
_INSTANCE_FLAGS = (
    ("--tokens", None, "number of tokens to place"),
    ("--buckets", None, "size of the first bucket set"),
    ("--fill", None, "width of the stage-1 fill window"),
    ("--first", None, "ring index of the window start"),
    ("--target-buckets", None, "size of the second bucket set, must exceed --buckets"),
)
_SWEEP_FLAGS = (
    ("--max-buckets", 10, "largest first-set size to sweep (default 10)"),
    ("--max-rounds", 4, "token counts run to this many full rounds plus 3 (default 4)"),
    ("--target-span", 2, "second-set sizes run up to this multiple of the first (default 2)"),
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
    reports = ("table", "json", "csv")
    for name, text, func, flags, formats in (
        ("plan", "stage-1 bucket assignment and labels for one instance", cmd_plan,
         _INSTANCE_FLAGS[:4], reports),
        ("trace", "full three-stage trace with occupancy and gap analysis", cmd_trace,
         _INSTANCE_FLAGS, reports),
        ("verify", "check all requirements on one instance", cmd_verify,
         _INSTANCE_FLAGS, reports[:2]),
        ("sweep", "exhaustively check a whole parameter domain", cmd_sweep,
         _SWEEP_FLAGS, reports[:2]),
    ):
        command = subparsers.add_parser(name, help=text)
        for flag, default, flag_help in flags:
            command.add_argument(
                flag, type=_nonneg_int, required=default is None, default=default, help=flag_help
            )
        command.add_argument("--format", choices=formats, default="table", help="report format")
        command.add_argument(
            "--output", metavar="PATH", default=None, help="write the report to PATH"
        )
        command.set_defaults(func=func)
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
