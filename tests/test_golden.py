"""Golden outputs: the exact stdout bytes and exit code of pinned commands.

Each entry pins the sha256 of everything a command writes to standard
output, plus its exit code.  The commands are the ones the acceptance
suite replays for determinism, the verify table of the pinned violating
instance, a plan table whose ``label`` column is wider than its header,
a trace of more than 100 tokens in every format, a three-bucket JSON
sweep and the default sweep in both formats.  A refactor that changes any byte of
these reports fails here; a deliberate format change must update the
digests in the same commit.
"""

from __future__ import annotations

import hashlib

import pytest

from ringfill.cli import main

PLAN = ["plan", "--tokens", "7", "--buckets", "5", "--fill", "3", "--first", "2"]
GAP_INSTANCE = [
    "--tokens", "5", "--buckets", "4", "--fill", "3", "--first", "0", "--target-buckets", "5",
]
WIDE_LABELS = ["plan", "--tokens", "20", "--buckets", "200000", "--fill", "3", "--first", "199995"]
LONG_TRACE = [
    "trace", "--tokens", "150", "--buckets", "7", "--fill", "3", "--first", "5",
    "--target-buckets", "11",
]
CLEAN_INSTANCE = [
    "--tokens", "10", "--buckets", "4", "--fill", "2", "--first", "0", "--target-buckets", "5",
]

GOLDEN = [
    (PLAN, 0, "20558e6f5dd04ca38c6a862128381ccccab61f88e597ce08a94a9d15be021857"),
    (PLAN + ["--format", "csv"], 0, "40831e1cbdda91b031874f2bc1c96bf5c52d0dcf2ba6cfe713d70b1986f1c355"),
    (PLAN + ["--format", "json"], 0, "6a6109ae034d3cb9d613523a23b4b6798d56ebd9dd59b203eb2ea19bf495fc6c"),
    (WIDE_LABELS, 0, "1dc61575e0c242328e701a6889386932ce31c17a31b5dcf8c8137886b4f3b8aa"),
    (["trace"] + GAP_INSTANCE, 0, "8b5cc992de89e885ac08259aba49b3d48a74c6f1f345f6ea332659f322a22859"),
    (["trace"] + GAP_INSTANCE + ["--format", "csv"], 0, "c7ea58a06dd803dc816f7ed99bcba574315580deb4745a71672daed6dde3bb8b"),
    (["trace"] + GAP_INSTANCE + ["--format", "json"], 0, "c2356710729ca57273a3f439d51e586fa81be9100dd97d5c61dc620e92ae9a29"),
    (LONG_TRACE + ["--format", "json"], 0, "9d9a5f8c1bab4b3946f74e800731d394dc4732720d2c4ac665b1311bb9587288"),
    (LONG_TRACE + ["--format", "csv"], 0, "f466106b2c2c96c4a5d648db9383838f77ec4a592eef398a18ad8458d32292fa"),
    (LONG_TRACE + ["--format", "table"], 0, "c1c7af22b9639a0efa242c13c853402e62883624e5c75d1076809e43a9709a75"),
    (["verify"] + CLEAN_INSTANCE, 0, "ef417dd63d474a00cc550d24168964985b3ecbbef3a4a0eedf39ca6315cb78ce"),
    (["verify"] + GAP_INSTANCE, 2, "d616115131f454ecea29cb8b0caeb775c6d4d8f7784b817f0c7900800ede15e6"),
    (["verify"] + GAP_INSTANCE + ["--format", "json"], 2, "c2356710729ca57273a3f439d51e586fa81be9100dd97d5c61dc620e92ae9a29"),
    (["sweep", "--max-buckets", "2"], 0, "ca356588c352be8674dba15650cac08d2158ef9ab52d0c6b5df96b8554796407"),
    (["sweep", "--max-buckets", "2", "--format", "json"], 0, "d65a45472cefc9563dc132192135d819c17f5e0e491a7c1d6fdcd7b09e8f56b3"),
    (["sweep", "--max-buckets", "3", "--format", "json"], 0, "0ce8bc4ab598a0fa47e2dc986028991cfe0119a3bb75ea8a5f3a204541988962"),
    (["sweep"], 0, "09fe288d4e456b00624af5af68722ae79c87e974e83b9904338d68a2073b9528"),
    (["sweep", "--format", "json"], 0, "a727cbc1fe46852c307e156a3896f8ee07a1382da957dded32eff66516688e9b"),
]


@pytest.mark.parametrize(
    ("argv", "exit_code", "digest"), GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_stdout_bytes_and_exit_code_are_pinned(capsys, argv, exit_code, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out
