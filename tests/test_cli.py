"""Tests for the command-line front end: formats, exit codes, round-trips."""

from __future__ import annotations

import csv
import io
import json
import math
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringfill.cli
import ringfill.verify
from ringfill import GapDescriptor, LifecycleTrace, check_requirements, plan_stage1, run_lifecycle
from ringfill.cli import (
    _BLOCK_ROWS,
    PLAN_CSV_FIELDS,
    TRACE_CSV_FIELDS,
    _plan_columns,
    _render_csv,
    _render_table,
    main,
    parse_trace_report,
)
from ringfill.lifecycle import _column_periods

from conftest import (
    failures,
    label,
    make_params,
    placement_params,
    plan_report,
    reference_check_requirements,
    reference_parse_trace_report,
    reference_plan_report,
    reference_trace_report,
    run_module_cli,
    trace_report,
    trace_rows,
)

PLAN_ARGS = ["plan", "--tokens", "4", "--buckets", "4", "--fill", "2", "--first", "0"]
TRACE_ARGS = [
    "trace",
    "--tokens",
    "5",
    "--buckets",
    "4",
    "--fill",
    "3",
    "--first",
    "0",
    "--target-buckets",
    "5",
]
VERIFY_PASS_ARGS = [
    "verify",
    "--tokens",
    "10",
    "--buckets",
    "4",
    "--fill",
    "2",
    "--first",
    "0",
    "--target-buckets",
    "5",
]
ZERO_FILL = ["--tokens", "5", "--buckets", "4", "--fill", "0", "--first", "0"]
VERIFY_FAIL_ARGS = [
    "verify",
    "--tokens",
    "5",
    "--buckets",
    "4",
    "--fill",
    "3",
    "--first",
    "0",
    "--target-buckets",
    "5",
]


# The memory bounds run on a first set of 37 buckets with a window of 20
# from bucket 5; 20,003 tokens make 20 blocks of rows.
MEMORY_FLAGS = ["--buckets", "37", "--fill", "20", "--first", "5"]
MEMORY_TOKENS = 20003


def instance_args(params, with_target=True):
    """The instance flags that give ``params``."""
    args = [
        "--tokens", str(params.token_count),
        "--buckets", str(params.first_set_size),
        "--fill", str(params.fill_width),
        "--first", str(params.first_bucket),
    ]
    if with_target:
        args += ["--target-buckets", str(params.second_set_size)]
    return args


def traced_peak(call):
    """The ``tracemalloc`` peak while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class CountingWriter(io.TextIOWrapper):
    """A text file that counts the calls to its ``write``."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# 1.0, 0 and 1 equal the ints and flags of small documents: only a type
# check tells them apart.
JSON_ATOMS = (None, True, -1, 0, 1, 1.0, 2.0, 10**20, "x", [], {})
PARAMS_FIELDS = "['fill_width', 'first_bucket', 'first_set_size', 'second_set_size', 'token_count']"
PLACEMENT_FIELDS = (
    "['label', 'moved_in_stage2', 'stage1_bucket', 'stage2_bucket', 'stage3_bucket', 'token']"
)
TRACE_REPORT_KEYS = (
    "['gap', 'occupancy1', 'occupancy2', 'occupancy3', 'params', 'placements', 'requirements']"
)
# The label gap of make_params(5, 4, 3, target=5), the validation document.
GAP = '{"present": true, "gap_start": 4, "gap_length": 2, "round": 1, "offset": 2}'


def with_entry(document, index, entry):
    """``document`` with placement ``index`` replaced by ``entry``."""
    placements = list(document["placements"])
    placements[index] = entry
    return {**document, "placements": placements}


def label_renamed(entry):
    """``entry`` with its ``label`` key renamed ``labels``."""
    return {("labels" if key == "label" else key): value for key, value in entry.items()}


# One mutation per rejection branch of parse_trace_report that the
# tests below do not name otherwise, and each input a whole-column check
# could let through, with the exact message it raises.
REJECTIONS = {
    "document is a list": (lambda d: [d], "report must be a JSON object"),
    "params is a list": (lambda d: {**d, "params": []}, "params must be an object"),
    "params missing a key": (
        lambda d: {**d, "params": {k: v for k, v in d["params"].items() if k != "fill_width"}},
        f"params must have exactly the fields {PARAMS_FIELDS}",
    ),
    "params with an extra key": (
        lambda d: {**d, "params": {**d["params"], "extra": 1}},
        f"params must have exactly the fields {PARAMS_FIELDS}",
    ),
    "placements is an object": (
        lambda d: {**d, "placements": {}},
        "placements must be a list",
    ),
    "placement is a number": (
        lambda d: {**d, "placements": [*d["placements"][:2], 2, *d["placements"][3:]]},
        "placement 2 must be an object",
    ),
    # Six keys, every one a string: only the key names are wrong.
    "placement with a key renamed": (
        lambda d: with_entry(d, 1, label_renamed(d["placements"][1])),
        f"placement 1 must have exactly the fields {PLACEMENT_FIELDS}",
    ),
    # A defaultdict reads any field, so only its key set shows the rename.
    "placement a defaultdict with a key renamed": (
        lambda d: with_entry(d, 1, defaultdict(int, label_renamed(d["placements"][1]))),
        f"placement 1 must have exactly the fields {PLACEMENT_FIELDS}",
    ),
    # True == 1, so the token is dense and ordered; only its type is wrong.
    "token equal to 1": (
        lambda d: with_entry(d, 1, {**d["placements"][1], "token": True}),
        "placement 1 field token must be an integer",
    ),
    "bucket equal to 1": (
        lambda d: with_entry(d, 1, {**d["placements"][1], "stage1_bucket": 1.0}),
        "placement 1 field stage1_bucket must be an integer",
    ),
    "move flag equal to true": (
        lambda d: with_entry(d, 3, {**d["placements"][3], "moved_in_stage2": 1}),
        "placement 3 field moved_in_stage2 must be a boolean",
    ),
    # Where the search for the offender ends: at either end of the list,
    # and at the earlier of two offenders though the later fails an
    # earlier check.
    "first placement out of order": (
        lambda d: with_entry(d, 0, {**d["placements"][0], "token": 1}),
        "placement 0 has token 1, tokens must be dense and ordered",
    ),
    "last placement outside its set": (
        lambda d: with_entry(d, 4, {**d["placements"][4], "stage3_bucket": 5}),
        "placement 4 has a bucket outside its set",
    ),
    "two offending placements": (
        lambda d: with_entry(with_entry(d, 2, {**d["placements"][2], "stage1_bucket": 4}), 4, 4),
        "placement 2 has a bucket outside its set",
    ),
    "report with an extra key": (
        lambda d: {**d, "extra": 1},
        f"report must have exactly the keys {TRACE_REPORT_KEYS}",
    ),
    "report missing gap": (
        lambda d: {k: v for k, v in d.items() if k != "gap"},
        f"report must have exactly the keys {TRACE_REPORT_KEYS}",
    ),
    "gap is a string": (
        lambda d: {**d, "gap": "nonsense"},
        f"gap must be {GAP}, the label gap of params",
    ),
    "gap of another instance": (
        lambda d: {**d, "gap": {**d["gap"], "gap_length": 1}},
        f"gap must be {GAP}, the label gap of params",
    ),
    "gap flag equal to true": (
        lambda d: {**d, "gap": {**d["gap"], "present": 1}},
        f"gap must be {GAP}, the label gap of params",
    ),
}
# The rows that reject one placement entry.
ENTRY_REJECTIONS = [
    name for name, (_, message) in REJECTIONS.items() if message.startswith("placement ")
]


def mutate_node(document, data, root=()):
    """Replace a node under ``root`` with a JSON atom, delete it, or
    rename the key it sits under in an object; the node is drawn from
    every path below ``root``, cut to a random prefix no shorter than
    ``root``, so inner nodes are hit as well as leaves.  Returns the
    mutated document, which is a new object only when its root was
    replaced."""
    node = document
    for key in root:
        node = node[key]
    path = root + data.draw(st.sampled_from(list(node_paths(node))))
    path = path[: data.draw(st.integers(len(root), len(path)))]
    if not path:
        return data.draw(st.sampled_from(JSON_ATOMS))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    moves = ["replace", "delete"] + (["rename"] if isinstance(parent, dict) else [])
    move = data.draw(st.sampled_from(moves))
    if move == "delete":
        del parent[path[-1]]
    elif move == "rename":
        # "label" may be the key's own name, or one the object has already.
        parent[data.draw(st.sampled_from(["x", "label"]))] = parent.pop(path[-1])
    else:
        parent[path[-1]] = data.draw(st.sampled_from(JSON_ATOMS))
    return document


def parse_outcome(parse, document):
    """The trace ``parse`` rebuilds from ``document``, or the message of
    the ValueError it raises."""
    try:
        return parse(document)
    except ValueError as error:
        return f"ValueError: {error}"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def node_paths(node, path=()):
    """Every path into a JSON document, the root's empty path included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, path + (key,))


class TestPlan:
    def test_csv_lists_token_label_and_bucket(self, capsys):
        code, out, err = run_cli(capsys, PLAN_ARGS + ["--format", "csv"])
        assert code == 0
        assert err == ""
        assert out == (
            "token,label,stage1_bucket\n"
            "0,1,1\n"
            "1,0,0\n"
            "2,2,0\n"
            "3,3,1\n"
        )

    def test_table_is_aligned(self, capsys):
        code, out, _ = run_cli(capsys, PLAN_ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "token  label  stage1_bucket"
        assert lines[1] == "    0      1              1"
        assert len(lines) == 5

    def test_json_reports_instance_and_records(self, capsys):
        code, out, _ = run_cli(capsys, PLAN_ARGS + ["--format", "json"])
        assert code == 0
        document = json.loads(out)
        assert document["params"] == {
            "token_count": 4,
            "first_set_size": 4,
            "fill_width": 2,
            "first_bucket": 0,
        }
        assert document["placements"][2] == {
            "token": 2,
            "label": 2,
            "stage1_bucket": 0,
        }

    def test_empty_instance_emits_only_the_header(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["plan", "--tokens", "0", "--buckets", "3", "--fill", "1", "--first", "0", "--format", "csv"],
        )
        assert code == 0
        assert out == "token,label,stage1_bucket\n"

    def test_oversized_window_is_an_input_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["plan", "--tokens", "5", "--buckets", "4", "--fill", "5", "--first", "0"],
        )
        assert code == 1
        assert out == ""
        assert "fill_width" in err
        assert "first_set_size" in err

    def test_window_start_off_the_ring_is_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["plan", "--tokens", "5", "--buckets", "4", "--fill", "2", "--first", "7"],
        )
        assert code == 1
        assert "first_bucket" in err


class TestTrace:
    def test_json_carries_the_full_lifecycle(self, capsys):
        code, out, _ = run_cli(capsys, TRACE_ARGS + ["--format", "json"])
        assert code == 0
        document = json.loads(out)
        assert document["params"]["second_set_size"] == 5
        assert document["occupancy1"] == [2, 1, 2, 0]
        assert document["occupancy2"] == [1, 1, 2, 1]
        assert document["occupancy3"] == [1, 2, 1, 1, 0]
        assert document["gap"] == {
            "present": True,
            "gap_start": 4,
            "gap_length": 2,
            "round": 1,
            "offset": 2,
        }
        assert document["placements"][3] == {
            "token": 3,
            "label": 3,
            "stage1_bucket": 0,
            "stage2_bucket": 3,
            "stage3_bucket": 3,
            "moved_in_stage2": True,
        }
        statuses = {entry["id"]: entry["status"] for entry in document["requirements"]}
        assert statuses["R6"] == "fail"
        assert statuses["R1"] == "pass"

    def test_trace_exits_zero_even_when_a_requirement_fails(self, capsys):
        code, _, _ = run_cli(capsys, TRACE_ARGS)
        assert code == 0

    def test_csv_adds_the_later_stages_and_the_move_flag(self, capsys):
        code, out, _ = run_cli(capsys, TRACE_ARGS + ["--format", "csv"])
        assert code == 0
        assert out == (
            "token,label,stage1_bucket,stage2_bucket,stage3_bucket,moved\n"
            "0,2,2,2,2,0\n"
            "1,1,1,1,1,0\n"
            "2,0,0,0,0,0\n"
            "3,3,0,3,3,1\n"
            "4,6,2,2,1,0\n"
        )

    def test_table_summarizes_occupancy_and_gap(self, capsys):
        code, out, _ = run_cli(capsys, TRACE_ARGS)
        assert code == 0
        assert "occupancy1: 2 1 2 0" in out
        assert "occupancy3: 1 2 1 1 0" in out
        assert "gap: start=4 length=2 round=1 offset=2" in out

    def test_gap_free_instance_reports_no_gap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["trace", "--tokens", "8", "--buckets", "4", "--fill", "2", "--first", "0", "--target-buckets", "5"],
        )
        assert code == 0
        assert "gap: none" in out

    def test_second_set_not_larger_is_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["trace", "--tokens", "3", "--buckets", "4", "--fill", "2", "--first", "0", "--target-buckets", "4"],
        )
        assert code == 1
        assert "second_set_size" in err


class TestVerify:
    def test_clean_instance_prints_seven_pass_lines(self, capsys):
        code, out, _ = run_cli(capsys, VERIFY_PASS_ARGS)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert [line.split()[0] for line in lines] == [
            "R1",
            "R2",
            "R3",
            "R4",
            "R5",
            "R6",
            "RC",
        ]
        assert all(line.split()[1] == "pass" for line in lines)

    def test_violating_instance_exits_two_with_a_witness(self, capsys):
        code, out, _ = run_cli(capsys, VERIFY_FAIL_ARGS)
        assert code == 2
        assert "R6 FAIL" in out
        witness_line = next(
            line for line in out.splitlines() if line.lstrip().startswith("witness:")
        )
        witness = json.loads(witness_line.split("witness:", 1)[1])
        assert witness["clause"] == "count"
        assert witness["occupancy3"] == [1, 2, 1, 1, 0]
        assert witness["spread"] == 2

    def test_json_verdicts_match_the_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, VERIFY_FAIL_ARGS + ["--format", "json"])
        assert code == 2
        document = json.loads(out)
        failing = [e["id"] for e in document["requirements"] if e["status"] == "fail"]
        assert failing == ["R6"]

    def test_invalid_window_start_is_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["verify", "--tokens", "3", "--buckets", "4", "--fill", "2", "--first", "7", "--target-buckets", "5"],
        )
        assert code == 1
        assert "first_bucket" in err


class TestSweepCommand:
    def test_small_domain_summary_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--max-buckets", "2"])
        assert code == 0
        assert "instances checked: 104" in out
        assert "oracle mismatches: 0" in out
        assert "R1 violations: 0" in out
        assert "R6 violations: 4" in out
        assert "unexpected violations: 0" in out
        assert "result: only the documented gap-case count violations" in out

    def test_single_bucket_domain_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--max-buckets", "1"])
        assert code == 0
        assert "instances checked: 8" in out
        assert "R6 violations: 0" in out

    def test_json_summary_carries_the_minimal_witness(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--max-buckets", "2", "--format", "json"])
        assert code == 0
        document = json.loads(out)
        assert document["domain"] == {
            "max_buckets": 2,
            "max_rounds": 4,
            "target_span": 2,
        }
        assert document["instances_checked"] == 104
        assert document["violation_counts"]["R6"] == 4
        minimal = document["minimal_violations"]["R6"]
        assert minimal["params"] == {
            "token_count": 3,
            "first_set_size": 2,
            "fill_width": 2,
            "first_bucket": 0,
            "second_set_size": 3,
        }
        assert minimal["check"]["status"] == "fail"
        assert minimal["check"]["witness"]["occupancy3"] == [2, 1, 0]
        assert document["only_expected_failures"] is True

    def test_a_sweep_with_unexpected_violations_exits_two(self, capsys, monkeypatch):
        # With no gap anywhere, R6's four spread-2 failures are unexpected.
        monkeypatch.setattr(ringfill.verify, "gap", lambda params: GapDescriptor(False))
        code, out, _ = run_cli(capsys, ["sweep", "--max-buckets", "2"])
        assert code == 2
        assert "unexpected violations: 4" in out
        assert out.endswith("result: UNEXPECTED violations found\n")

    def test_zero_rounds_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--max-rounds", "0"])
        assert code == 1
        assert "max_rounds" in err

    def test_narrow_target_span_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--target-span", "1"])
        assert code == 1
        assert "target_span" in err


class TestArgumentHandling:
    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(PLAN_ARGS + ["--bogus"])
        assert excinfo.value.code == 1

    def test_non_integer_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--tokens", "x", "--buckets", "4", "--fill", "2", "--first", "0"])
        assert excinfo.value.code == 1
        assert "decimal integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text", [("--tokens", " 3"), ("--buckets", "1_0"), ("--fill", "\u0663")]
    )
    def test_only_ascii_decimal_digits_are_read(self, capsys, flag, text):
        # int() reads each of these spellings as a number.
        args = ["plan", "--tokens", "3", "--buckets", "10", "--fill", "3", "--first", "0"]
        args[args.index(flag) + 1] = text
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 1
        assert "expected a decimal integer" in capsys.readouterr().err

    def test_more_digits_than_int_converts_exits_one(self, capsys):
        args = ["plan", "--tokens", "9" * 5000, "--buckets", "4", "--fill", "2", "--first", "0"]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 1
        assert "expected a decimal integer" in capsys.readouterr().err

    def test_negative_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--tokens", "-3", "--buckets", "4", "--fill", "2", "--first", "0"])
        assert excinfo.value.code == 1

    def test_csv_format_is_rejected_for_verify(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(VERIFY_PASS_ARGS + ["--format", "csv"])
        assert excinfo.value.code == 1

    def test_running_out_of_memory_is_an_input_error(self, capsys, monkeypatch):
        # A set size that fits an index may still not fit in memory.
        def exhausted(params):
            raise MemoryError

        monkeypatch.setattr(ringfill.cli, "run_lifecycle", exhausted)
        code, out, err = run_cli(capsys, VERIFY_PASS_ARGS)
        assert (code, out, err) == (1, "", "error: MemoryError\n")

    @pytest.mark.parametrize("command", [["verify"], ["trace", "--format", "json"]])
    def test_set_too_large_to_index_is_an_input_error(self, capsys, command):
        # A histogram of 10**20 buckets overflows a list index before
        # anything is allocated.
        instance = ["--tokens", "0", "--buckets", str(10**20), "--fill", "1", "--first", "0"]
        code, out, err = run_cli(
            capsys, command + instance + ["--target-buckets", str(10**20 + 1)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize(
        "command, rows",
        [
            (["plan"], ["token,label,stage1_bucket", "0,0,0", "1,1,0", "2,2,0"]),
            (
                ["trace", "--target-buckets", str(10**20 + 1)],
                [
                    "token,label,stage1_bucket,stage2_bucket,stage3_bucket,moved",
                    "0,0,0,0,0,0",
                    "1,1,0,1,1,1",
                    "2,2,0,2,2,1",
                ],
            ),
        ],
    )
    def test_a_ring_too_large_to_index_still_places_its_tokens(self, capsys, command, rows):
        # Stage 1 builds only the window slots its three tokens take.
        instance = ["--tokens", "3", "--buckets", str(10**20), "--fill", "1", "--first", "0"]
        code, out, err = run_cli(capsys, command + instance + ["--format", "csv"])
        assert (code, err) == (0, "")
        assert out.splitlines() == rows

class TestShapeOfWork:
    """No command, parse or check records a histogram's spread after every
    token: each counts whole columns, and the spread record is the sweep's.
    The parser reads a well-formed document's entries once, and halves a
    rejected one down to its first offending entry."""

    @pytest.mark.parametrize(
        "argv",
        [PLAN_ARGS + ["--format", fmt] for fmt in ("table", "json", "csv")]
        + [TRACE_ARGS + ["--format", fmt] for fmt in ("table", "json", "csv")]
        + [VERIFY_FAIL_ARGS + ["--format", fmt] for fmt in ("table", "json")],
    )
    def test_commands_read_only_columns(self, capsys, no_spread_record, argv):
        code, out, err = run_cli(capsys, argv)
        assert code in (0, 2)
        assert out and err == ""

    def test_parse_and_check_read_only_columns(self, no_spread_record):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        document = json.loads(trace_report(trace, check_requirements(trace)))
        report = check_requirements(parse_trace_report(document))
        assert [check.id for check in failures(report)] == ["R6"]

    @pytest.mark.parametrize("rejection", [None, *ENTRY_REJECTIONS])
    def test_the_offender_is_found_by_halving(self, monkeypatch, rejection):
        # A well-formed document is read once, whole.  A rejected one is
        # halved down to its offender, reading the left half of each split
        # and then the offender alone.
        reads = []
        read_placements = ringfill.cli._read_placements

        def counting_read(entries, *args):
            reads.append(len(entries))
            return read_placements(entries, *args)

        monkeypatch.setattr(ringfill.cli, "_read_placements", counting_read)
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        document = json.loads(trace_report(trace, check_requirements(trace)))
        entries = len(document["placements"])
        if rejection is None:
            assert parse_trace_report(document) == trace
            assert reads == [entries]
        else:
            mutate, message = REJECTIONS[rejection]
            with pytest.raises(ValueError) as raised:
                parse_trace_report(mutate(document))
            assert str(raised.value) == message
            assert reads[0] == entries
            assert len(reads) <= math.ceil(math.log2(entries)) + 2
            assert sum(reads) <= 2 * entries + 1

    def test_the_sweep_records_spreads(self, capsys, no_spread_record):
        # The guard is live: the sweep command trips it.
        with pytest.raises(AssertionError, match="spread was recorded"):
            run_cli(capsys, ["sweep", "--max-buckets", "1"])


class TestOutputHandling:
    def test_report_goes_to_the_requested_file(self, capsys, tmp_path):
        target = tmp_path / "plan.csv"
        code, out, _ = run_cli(
            capsys, PLAN_ARGS + ["--format", "csv", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("token,label,stage1_bucket\n")

    def test_unwritable_output_path_is_an_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            PLAN_ARGS + ["--output", str(tmp_path / "missing" / "plan.txt")],
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["plan", "trace"])
    def test_a_long_report_is_written_a_block_at_a_time(
        self, capsys, tmp_path, monkeypatch, command
    ):
        params = make_params(_BLOCK_ROWS + 476, 7, 3, first=5, target=11)
        handles = []

        def counting_open(path, mode, **options):
            assert mode == "w"
            handles.append(CountingWriter(open(path, "wb"), **options))
            return handles[-1]

        monkeypatch.setattr(ringfill.cli, "open", counting_open, raising=False)
        path = tmp_path / "report.json"
        argv = [command, *instance_args(params, with_target=command == "trace")]
        code, out, err = run_cli(capsys, argv + ["--format", "json", "--output", str(path)])
        assert (code, out, err) == (0, "", "")
        assert len(handles) == 1 and handles[0].writes > 1
        text = path.read_bytes().decode("utf-8")
        if command == "plan":
            assert text == plan_report(params) == reference_plan_report(params)
        else:
            trace = run_lifecycle(params)
            report = check_requirements(trace)
            assert text == trace_report(trace, report) == reference_trace_report(trace, report)

    @pytest.mark.parametrize(
        "argv",
        [["plan", *ZERO_FILL, "--format", fmt] for fmt in ("table", "json", "csv")]
        + [
            [command, *ZERO_FILL, "--target-buckets", "5", "--format", fmt]
            for command, formats in (("trace", ("table", "json", "csv")), ("verify", ("table", "json")))
            for fmt in formats
        ],
    )
    def test_bad_parameters_leave_no_output_file(self, capsys, tmp_path, argv):
        path = tmp_path / "report"
        code, out, err = run_cli(capsys, argv + ["--output", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: fill_width must be between 1 and first_set_size")
        assert not path.exists()

    @pytest.mark.parametrize(
        "name, argv",
        [("_stage1_columns", PLAN_ARGS + ["--format", fmt]) for fmt in ("table", "json", "csv")]
        + [("run_lifecycle", TRACE_ARGS + ["--format", fmt]) for fmt in ("table", "json", "csv")]
        + [("run_lifecycle", VERIFY_FAIL_ARGS + ["--format", fmt]) for fmt in ("table", "json")]
        + [("check_requirements", TRACE_ARGS + ["--format", "json"])]
        + [("check_requirements", VERIFY_FAIL_ARGS + ["--format", "json"])]
        + [("gap", TRACE_ARGS + ["--format", fmt]) for fmt in ("table", "json")]
        # The table's column widths.
        + [("max", TRACE_ARGS + ["--format", "table"]), ("max", PLAN_ARGS)],
    )
    def test_running_out_of_memory_leaves_no_output_file(
        self, capsys, tmp_path, monkeypatch, name, argv
    ):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(ringfill.cli, name, exhausted, raising=False)
        path = tmp_path / "report"
        code, out, err = run_cli(capsys, argv + ["--output", str(path)])
        assert (code, out, err) == (1, "", "error: MemoryError\n")
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("tokens", ["0", "3000"])
    def test_a_plan_whose_columns_are_not_read_early_still_fails_first(
        self, capsys, tmp_path, monkeypatch, fmt, tokens
    ):
        # With no tokens, or a stage-1 period of 3,000 rows, longer than a
        # block, no cell is formatted ahead and no period is checked; the
        # writer still builds each column before the file would be opened.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(ringfill.cli, "_stage1_columns", exhausted)
        argv = ["plan", "--tokens", tokens, "--buckets", "2000", "--fill", "1999", "--first", "0"]
        path = tmp_path / "report"
        code, out, err = run_cli(capsys, argv + ["--format", fmt, "--output", str(path)])
        assert (code, out, err) == (1, "", "error: MemoryError\n")
        assert not path.exists()

    def test_repeated_runs_are_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, TRACE_ARGS + ["--format", "json"])
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_module_entry_point_matches_the_library(self):
        result = run_module_cli(PLAN_ARGS + ["--format", "csv"])
        assert result.returncode == 0
        assert result.stdout.splitlines()[1] == b"0,1,1"


def columns(rows, width):
    """The ``width`` columns of ``rows``, each a tuple."""
    return [tuple(row[index] for row in rows) for index in range(width)]


def reference_table(header, rows):
    """The table ``_render_table`` must give, cell by cell; a bool is 0 or 1."""
    cells = [["%d" % value for value in row] for row in rows]
    widths = [
        max([len(name)] + [len(row[column]) for row in cells])
        for column, name in enumerate(header)
    ]
    lines = ["  ".join(name.ljust(widths[i]) for i, name in enumerate(header)).rstrip()]
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def reference_csv(header, rows):
    """The CSV ``_render_csv`` must give: the csv module's, a bool as 0 or 1."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([int(value) for value in row] for row in rows)
    return buffer.getvalue()


def assert_writers_match_the_references(trace):
    """Every trace format, written with the periods the commands pass,
    the ones the trace checked, equals its reference, byte for byte."""
    report = check_requirements(trace)
    assert trace_report(trace, report) == reference_trace_report(trace, report)
    assert_rows_match_the_references(trace)


def assert_rows_match_the_references(trace):
    """The CSV and the table of a trace, written with the periods it
    checked, equal their references, byte for byte."""
    periods = trace._periods
    rows = list(zip(*trace.columns))
    csv_text = "".join(_render_csv(TRACE_CSV_FIELDS, trace.columns, periods))
    assert csv_text == reference_csv(TRACE_CSV_FIELDS, rows)
    table = "".join(_render_table(TRACE_CSV_FIELDS, trace.columns, periods))
    assert table == reference_table(TRACE_CSV_FIELDS, rows)


class TestReportWriters:
    @settings(max_examples=200, deadline=None)
    @given(placement_params())
    @example(make_params(0, 3, 2))
    @example(make_params(9, 4, 3, first=3, target=7))
    def test_reports_equal_a_dict_per_record_json_dump(self, params):
        trace = run_lifecycle(params)
        report = check_requirements(trace)
        assert trace_report(trace, report) == reference_trace_report(trace, report)
        assert plan_report(params) == reference_plan_report(params)

    @settings(max_examples=200, deadline=None)
    @given(placement_params())
    # Stage 1 repeats every lcm(4, 3) = 12 tokens, cycled five times over;
    # then every lcm(37, 29) = 1,073 tokens, more than a block.
    @example(make_params(60, 4, 3, first=1))
    @example(make_params(2 * 1073 + 5, 37, 29, first=8))
    def test_plan_rows_equal_their_references(self, params):
        # The plan's writers take the stated periods unchecked, as
        # cmd_plan passes them, so only these references hold their bytes.
        rows = [(token, label(params, token), bucket) for token, bucket in plan_stage1(params)]
        csv_text = "".join(_render_csv(PLAN_CSV_FIELDS, *_plan_columns(params)))
        assert csv_text == reference_csv(PLAN_CSV_FIELDS, rows)
        table = "".join(_render_table(PLAN_CSV_FIELDS, *_plan_columns(params)))
        assert table == reference_table(PLAN_CSV_FIELDS, rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(0, 1, 2)],
            [(123456, 7, 10**13), (5, 1234567, 0)],
            [(-1, -99999, 3), (7, 2, -(10**13))],
        ],
    )
    def test_table_equals_a_cell_by_cell_reference(self, rows):
        header = ("token", "label", "stage1_bucket")
        assert "".join(_render_table(header, columns(rows, 3))) == reference_table(header, rows)

    def test_table_writes_a_bool_column_one_digit_wide(self):
        header, rows = ("token", "m"), [(0, False), (12, True)]
        expected = "token  m\n    0  0\n   12  1\n"
        table = "".join(_render_table(header, columns(rows, 2)))
        assert table == reference_table(header, rows) == expected

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(0, 1, False), (2, 3, True)],
            [(-1, -(10**24), True), (10**24, -7, False)],
        ],
    )
    def test_csv_equals_the_csv_module(self, rows):
        header = ("token", "label", "moved")
        assert "".join(_render_csv(header, columns(rows, 3))) == reference_csv(header, rows)

    def test_table_widths_come_from_the_widest_cells(self):
        # A token column is a range, whose widest value is its last.  A
        # bucket column is read off one period, and here stage 1's first
        # cells are its narrow ones: 2, 1, 0, then 10**20 - 1.
        tokens = range(99990, 100001)
        table = "".join(_render_table(("token",), (tokens,)))
        assert table == reference_table(("token",), [(token,) for token in tokens])
        params = make_params(5, 10**20, 5, first=10**20 - 2, target=10**20 + 1)
        trace = run_lifecycle(params)
        table = "".join(_render_table(TRACE_CSV_FIELDS, trace.columns, _column_periods(params)))
        assert table == reference_table(TRACE_CSV_FIELDS, list(zip(*trace.columns)))

    @pytest.mark.parametrize("token", [300, 1500])
    @pytest.mark.parametrize(
        "field", ["stage1_bucket", "stage2_bucket", "stage3_bucket", "moved_in_stage2"]
    )
    def test_a_trace_that_breaks_a_period_is_written_row_by_row(self, field, token):
        # The stated periods are 21, 7, 77 and 7 rows here, 231 jointly.
        # The trace's _periods drops the edited column's period, so the
        # writers write that column row by row, and a cell edited past the
        # joint period, in the first block or the second, is read back.
        params = make_params(2000, 7, 3, first=5, target=11)
        trace = run_lifecycle(params)
        column = list(getattr(trace, field))
        column[token] = not column[token] if field == "moved_in_stage2" else (column[token] + 1) % 7
        broken = trace._replace(**{field: tuple(column)})
        document = json.loads(trace_report(broken, check_requirements(broken)))
        for case in (broken, parse_trace_report(document)):
            assert_writers_match_the_references(case)

    def test_a_column_shorter_than_the_labels_is_written_row_by_row(self):
        # A short column keeps no period, so no cycled cells run past its
        # end: the rows stop at the shortest column, as zip stops.  Such a
        # trace breaks the one-entry-per-token contract that
        # check_requirements reads, so only its rows are compared.
        trace = run_lifecycle(make_params(100, 7, 3, first=5, target=11))
        short = trace._replace(stage3_bucket=trace.stage3_bucket[:-1])
        assert_rows_match_the_references(short)
        csv_text = "".join(_render_csv(TRACE_CSV_FIELDS, short.columns, short._periods))
        assert csv_text.count("\n") == 1 + 99

    @given(placement_params(max_buckets=12, max_tokens=300))
    def test_a_parsed_trace_is_written_as_its_references(self, params):
        trace = run_lifecycle(params)
        document = json.loads(trace_report(trace, check_requirements(trace)))
        assert_writers_match_the_references(parse_trace_report(document))

    @pytest.mark.parametrize("shape", [(20000, 37, 20, 5, 60), (20001, 41, 17, 3, 70)])
    def test_trace_report_peak_memory_is_bounded_by_its_text(self, shape):
        # The records are joined a block at a time, so the peak is the
        # blocks, the text they are joined into and little else.
        trace = run_lifecycle(make_params(*shape))
        report = check_requirements(trace)
        tracemalloc.start()
        try:
            text = trace_report(trace, report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * len(text)

    @pytest.mark.parametrize("fmt, ratio", [("csv", 0.6), ("json", 0.2), ("table", 2.2)])
    def test_plan_peak_memory_is_bounded_by_the_written_report(self, tmp_path, fmt, ratio):
        # The rows are written as they are planned, a block at a time, in
        # every format: no format holds the label or bucket column.
        path = tmp_path / f"plan.{fmt}"
        args = ["plan", "--tokens", str(MEMORY_TOKENS), *MEMORY_FLAGS, "--format", fmt]
        peak = traced_peak(lambda: main([*args, "--output", str(path)]))
        assert peak <= ratio * path.stat().st_size

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    def test_plan_peak_memory_does_not_grow_with_the_token_count(self, tmp_path, fmt):
        path = tmp_path / f"plan.{fmt}"
        peaks = [
            traced_peak(
                lambda tokens=tokens: main(
                    ["plan", "--tokens", str(tokens), *MEMORY_FLAGS, "--format", fmt,
                     "--output", str(path)]
                )
            )
            for tokens in (MEMORY_TOKENS, 10 * MEMORY_TOKENS - 27)
        ]
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize(
        "argv",
        [["trace", "--format", fmt] for fmt in ("json", "csv", "table")]
        + [["verify", "--format", "json"]],
    )
    def test_a_report_holds_its_trace_and_a_few_blocks(self, tmp_path, argv):
        params = make_params(MEMORY_TOKENS, 37, 20, first=5, target=60)
        tracemalloc.start()
        try:
            trace = run_lifecycle(params)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del trace
        path = tmp_path / "report"
        peak = traced_peak(lambda: main([*argv, *instance_args(params), "--output", str(path)]))
        # A block of rows is one _BLOCK_ROWS-th of the report, give or
        # take its histograms; the constant covers the parser and the
        # requirement checks' scratch.
        block = path.stat().st_size * _BLOCK_ROWS / MEMORY_TOKENS
        assert peak <= kept + 4 * block + 128 * 1024


    @pytest.mark.parametrize("render", [_render_csv, _render_table])
    @pytest.mark.parametrize("shape", [(37, 20, 5, 5003), (30, 7, 5, 32)])
    def test_a_period_longer_than_a_block_is_not_held(self, render, shape):
        # Stage 3 repeats every lcm(37, 5003) tokens, more than the trace
        # has; in the second shape the bucket columns repeat every 210,
        # 30, 480 and 30 tokens, but 3,360 jointly.  No cell is held for
        # a period longer than a block: those are formatted with their
        # rows, a block at a time.
        params = make_params(MEMORY_TOKENS, *shape[:2], first=shape[2], target=shape[3])
        trace = run_lifecycle(params)
        sizes = []
        peak = traced_peak(
            lambda: sizes.extend(
                map(len, render(TRACE_CSV_FIELDS, trace.columns, _column_periods(params)))
            )
        )
        assert peak <= 4 * max(sizes) + 64 * 1024

class TestTraceRoundTrip:
    def trip(self, params):
        trace = run_lifecycle(params)
        report = check_requirements(trace)
        document = json.loads(trace_report(trace, report))
        rebuilt = parse_trace_report(document)
        assert rebuilt == trace
        assert check_requirements(rebuilt) == report

    def test_clean_instance_survives_the_round_trip(self):
        self.trip(make_params(10, 4, 2, target=5))

    def test_violating_instance_survives_the_round_trip(self):
        self.trip(make_params(5, 4, 3, target=5))

    def test_empty_instance_survives_the_round_trip(self):
        self.trip(make_params(0, 3, 2))

    def test_wrapped_window_survives_the_round_trip(self):
        self.trip(make_params(9, 4, 3, first=3, target=7))

    def test_reverification_tallies_each_histogram_once(self, tally_sizes):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        document = json.loads(trace_report(trace, check_requirements(trace)))
        tally_sizes.clear()
        check_requirements(parse_trace_report(document))
        # The parser tallies the three stage columns, then the check tallies
        # its own histograms: the window offsets, label % B for R3 and R5,
        # and label % B' for R6.  It reads no occupancy off the trace, so
        # each histogram has one way to be tallied, at the cost of two
        # tallies of columns the parser's occupancies already count.
        assert tally_sizes == [4, 4, 5, 3, 4, 5]

    def test_reverification_tallies_label_residues_off_a_broken_stage_2(self, tally_sizes):
        # Token 1's stage-2 bucket is off its label residue in both the
        # placements and occupancy2, so the document parses and R5 fails
        # its residue clause.  The check tallies its three histograms
        # afresh whatever the residue clauses say: the window offsets,
        # label % B and label % B'.
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        document = json.loads(trace_report(trace, check_requirements(trace)))
        placement = document["placements"][1]
        document["occupancy2"][placement["stage2_bucket"]] -= 1
        placement["stage2_bucket"] = (placement["stage2_bucket"] + 1) % 4
        document["occupancy2"][placement["stage2_bucket"]] += 1
        broken = parse_trace_report(document)
        tally_sizes.clear()
        report = check_requirements(broken)
        assert tally_sizes == [3, 4, 5]
        assert report == reference_check_requirements(broken)
        assert report["R5"].witness["clause"] == "residue"
        assert report["R3"].passed


class TestTraceReportValidation:
    @pytest.fixture
    def document(self):
        trace = run_lifecycle(make_params(5, 4, 3, target=5))
        report = check_requirements(trace)
        return json.loads(trace_report(trace, report))

    def test_missing_params_is_rejected(self, document):
        del document["params"]
        with pytest.raises(ValueError, match="report must have exactly the keys"):
            parse_trace_report(document)

    def test_invalid_params_are_rejected(self, document):
        document["params"]["fill_width"] = 9
        with pytest.raises(ValueError, match="fill_width"):
            parse_trace_report(document)

    def test_non_integer_params_are_rejected(self, document):
        document["params"]["token_count"] = True
        with pytest.raises(ValueError, match="integers"):
            parse_trace_report(document)

    def test_wrong_placement_count_is_rejected(self, document):
        document["placements"].pop()
        with pytest.raises(ValueError, match="expected 5 placements"):
            parse_trace_report(document)

    def test_out_of_order_tokens_are_rejected(self, document):
        document["placements"].reverse()
        with pytest.raises(ValueError, match="dense and ordered"):
            parse_trace_report(document)

    def test_unknown_placement_field_is_rejected(self, document):
        document["placements"][0]["extra"] = 1
        with pytest.raises(ValueError, match="exactly the fields"):
            parse_trace_report(document)

    def test_non_boolean_move_flag_is_rejected(self, document):
        document["placements"][0]["moved_in_stage2"] = 1
        with pytest.raises(ValueError, match="boolean"):
            parse_trace_report(document)

    def test_bucket_outside_its_set_is_rejected(self, document):
        document["placements"][0]["stage3_bucket"] = 9
        with pytest.raises(ValueError, match="outside its set"):
            parse_trace_report(document)

    def test_wrong_histogram_length_is_rejected(self, document):
        document["occupancy3"].append(0)
        with pytest.raises(ValueError, match="occupancy3"):
            parse_trace_report(document)

    def test_histogram_that_is_not_a_list_is_rejected(self, document):
        document["occupancy2"] = {"0": 1, "1": 1, "2": 2, "3": 1}
        with pytest.raises(ValueError, match="occupancy2 must be a list"):
            parse_trace_report(document)

    @pytest.mark.parametrize(("bucket", "count"), [(0, 2.0), (1, True)])
    def test_histogram_entries_equal_to_integers_are_rejected(
        self, document, bucket, count
    ):
        # 2.0 == 2 and True == 1: only the type check can object.
        assert document["occupancy1"][bucket] == count
        document["occupancy1"][bucket] = count
        with pytest.raises(ValueError, match="occupancy1 entries must be integers"):
            parse_trace_report(document)

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize(
        "name", ["token", "label", "stage1_bucket", "stage2_bucket", "stage3_bucket"]
    )
    def test_placement_fields_equal_to_integers_are_rejected(self, document, name, value):
        # Placement 1 holds 1 in every integer field; True == 1 == 1.0, so
        # only the type check can object.
        assert document["placements"][1][name] == 1
        document["placements"][1][name] = value
        with pytest.raises(ValueError, match=f"placement 1 field {name} must be an integer"):
            parse_trace_report(document)

    @pytest.mark.parametrize(("mutate", "message"), REJECTIONS.values(), ids=REJECTIONS)
    def test_each_rejection_names_its_branch(self, document, mutate, message):
        with pytest.raises(ValueError) as raised:
            parse_trace_report(mutate(document))
        assert str(raised.value) == message
        # The per-entry reference gives the same message, word for word.
        assert parse_outcome(reference_parse_trace_report, mutate(document)) == (
            f"ValueError: {message}"
        )

    def test_huge_set_size_is_rejected_before_any_tally(self, document):
        # A tally of 10**20 buckets cannot even be requested, so a parser
        # that tallies before checking the length raises OverflowError.
        document["params"]["second_set_size"] = 10**20
        document["occupancy3"] = []
        with pytest.raises(ValueError, match="occupancy3"):
            parse_trace_report(document)

    def test_mismatched_tally_is_rejected(self, document):
        document["occupancy2"][0] += 1
        document["occupancy2"][1] -= 1
        with pytest.raises(ValueError, match="tally"):
            parse_trace_report(document)

    def test_stage1_counts_outside_the_window_are_rejected(self, document):
        # Shift a token into ring bucket 3, outside the width-3 window,
        # keeping the tally consistent so only the window rule can object.
        document["placements"][0]["stage1_bucket"] = 3
        document["occupancy1"] = [2, 1, 1, 1]
        with pytest.raises(ValueError, match="outside the fill window"):
            parse_trace_report(document)

    @settings(max_examples=300, deadline=None)
    @given(placement_params(max_buckets=4, max_tokens=8), st.data())
    def test_any_single_node_mutation_parses_or_raises_value_error(self, params, data):
        trace = run_lifecycle(params)
        document = json.loads(trace_report(trace, check_requirements(trace)))
        document = mutate_node(document, data)
        try:
            rebuilt = parse_trace_report(document)
        except ValueError:
            return
        assert isinstance(rebuilt, LifecycleTrace)
        assert all(type(value) is int for value in tuple(rebuilt.params))
        for placement in trace_rows(rebuilt):
            assert all(type(value) is int for value in placement[:-1])
            assert type(placement.moved_in_stage2) is bool


class TestParserAgainstTheReference:
    """The column parser gives the per-entry parser's trace, or its error:
    the first offending entry's first failing check, word for word."""

    @settings(max_examples=300, deadline=None)
    @given(placement_params(max_buckets=4, max_tokens=8), st.data())
    def test_any_single_node_mutation(self, params, data):
        trace = run_lifecycle(params)
        document = json.loads(trace_report(trace, check_requirements(trace)))
        document = mutate_node(document, data)
        found = parse_outcome(parse_trace_report, document)
        assert found == parse_outcome(reference_parse_trace_report, document)

    @settings(max_examples=300, deadline=None)
    @given(placement_params(max_buckets=4, max_tokens=8), st.data())
    def test_mutations_of_two_different_entries(self, params, data):
        trace = run_lifecycle(params)
        document = json.loads(trace_report(trace, check_requirements(trace)))
        count = len(document["placements"])
        if count < 2:
            return
        entries = st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True)
        # Mutate the later entry first, so a deletion leaves the earlier in place.
        for index in sorted(data.draw(entries), reverse=True):
            mutate_node(document, data, root=("placements", index))
        found = parse_outcome(parse_trace_report, document)
        assert found == parse_outcome(reference_parse_trace_report, document)

    @pytest.mark.parametrize(
        "params",
        [make_params(5, 4, 3, target=5), make_params(9, 4, 3, first=3, target=7)],
    )
    def test_valid_reports_parse_alike(self, params):
        trace = run_lifecycle(params)
        document = json.loads(trace_report(trace, check_requirements(trace)))
        assert parse_trace_report(document) == reference_parse_trace_report(document) == trace
