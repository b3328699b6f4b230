"""Layered benchmark for ringfill.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Workloads (BENCHMARK.json gives the reason for each):

  sweep-default   ``ringfill sweep`` over the default domain: the verdict
  instance-large  seeded ~1e5-token instances through plan, trace, verify
  trace-reverify  JSON traces written in set-up, parsed and re-verified

The load is a closed loop with one client.  Every operation is a fresh
child process, started only after the previous one has ended, so start-up
cost and peak RSS belong to the operation; the program receives only the
inputs generated from ``--seed``.  A pass runs the workload's operations
once.  Passes repeat until ``--seconds`` is used up, with at least two
(three when traced), and every output is checked on every pass.

With ``--trace 0`` the metrics are the end-to-end ones, medians over
passes: ``wall_s`` (one pass, process start-up included), ``peak_rss_mb``
(highest ``ru_maxrss`` of any child in a pass) and ``setup_s`` (a fresh
interpreter importing ringfill.cli and building its parser, timed on
``ringfill --help``).  With ``--trace 1`` one untraced pass is followed
by traced passes (see traced.py); their spans give the per-layer metrics
of LAYER_METRICS and ``trace.overhead_s``.

The error rate is failed over attempted operations.  An operation fails
on an unexpected exit code or a failed output check; a count metric that
differs between traced passes, or an output whose bytes differ between
passes, fails too.  It is printed with the metrics and carried by the
``attempted`` and ``failed`` fields of the last line, which is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A copy with per-pass figures and the run facts goes to
perfbench/results/.

``--smoke`` shrinks every workload (sweep domain ``--max-buckets 3``,
2,000-token instances) so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

# What the installed ``ringfill`` console script runs.
ENTRY = "import sys; from ringfill.cli import main; sys.exit(main())"

REQUIREMENT_IDS = ("R1", "R2", "R3", "R4", "R5", "R6", "RC")
SWEEP_ROUNDS = 4
# R6 count violations pinned per swept max_buckets (max_rounds 4, target
# span 2).  Every other requirement is pinned at zero.
PINNED_R6 = {10: 17264, 3: 34}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workload a change to that layer should move.
LAYER_METRICS = (
    ("placement.plan_stage1.calls", "count", "lower", "wall_s on instance-large and sweep-default"),
    ("placement.plan_stage1.tokens", "count", "lower", "wall_s on instance-large and sweep-default"),
    ("placement.plan_stage1.busy_s", "s", "lower", "wall_s on instance-large and sweep-default"),
    ("placement.gap.calls", "count", "lower", "wall_s on sweep-default"),
    ("placement.gap.busy_s", "s", "lower", "wall_s on sweep-default"),
    ("lifecycle.run_lifecycle.calls", "count", "lower", "wall_s on sweep-default"),
    ("lifecycle.run_lifecycle.self_s", "s", "lower", "wall_s on sweep-default"),
    ("verify.check_requirements.calls", "count", "lower", "wall_s on sweep-default and trace-reverify"),
    ("verify.check_requirements.busy_s", "s", "lower", "wall_s on sweep-default and trace-reverify"),
    ("verify.prose_oracle_stage1.calls", "count", "lower", "wall_s on sweep-default"),
    ("verify.prose_oracle_stage1.busy_s", "s", "lower", "wall_s on sweep-default"),
    ("verify.sweep.self_s", "s", "lower", "wall_s on sweep-default"),
    ("verify.sweep.quadruples", "count", "higher", "none: the base of lifecycle_per_quadruple"),
    ("verify.sweep.lifecycle_per_quadruple", "ratio", "lower", "wall_s on sweep-default only"),
    ("verify.sweep.violations_retained", "count", "lower", "peak_rss_mb on sweep-default"),
    ("cli.main.self_s", "s", "lower", "wall_s and peak_rss_mb on instance-large"),
    ("cli.plan_report.busy_s", "s", "lower", "wall_s on instance-large"),
    ("cli.trace_report.busy_s", "s", "lower", "wall_s on instance-large"),
    ("cli.sweep_report_document.busy_s", "s", "lower", "wall_s on sweep-default"),
    ("cli.parse_trace_report.busy_s", "s", "lower", "wall_s on trace-reverify"),
    ("cli.output_bytes", "bytes", "lower", "wall_s and peak_rss_mb on instance-large"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
)
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}
# Counts must repeat exactly between traced passes of the same code.
COUNT_METRICS = tuple(
    name for name, unit, _, _ in LAYER_METRICS if unit in ("count", "ratio", "bytes")
)


@dataclass
class Op:
    """One operation: a fresh child process and the files it writes."""

    name: str
    kind: str  # "cli": ringfill's entry point; "reverify": reverify.py
    args: list[str]
    outputs: list[Path] = field(default_factory=list)
    expect: tuple[int, ...] = (0,)


@dataclass
class OpResult:
    op: Op
    key: str
    exit_code: int
    seconds: float
    peak_rss_mb: float
    stdout: Path


@dataclass
class Pass:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    output_bytes: int
    digests: dict[str, str]
    span_totals: dict[str, dict] | None


class Bench:
    """Spawns operations one at a time and keeps the tally of failures."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed_keys: set[str] = set()
        self.problems: list[str] = []

    def fail(self, key: str, message: str) -> None:
        self.failed_keys.add(key)
        self.problems.append(f"{key}: {message}")

    def spawn(self, op: Op, spans: Path | None = None) -> OpResult:
        self.attempted += 1
        key = f"{self.attempted}:{op.name}"
        if spans is not None:
            program = [str(BENCH / "traced.py"), str(spans), str(self.attempted), op.kind]
        elif op.kind == "cli":
            program = ["-c", ENTRY]
        else:
            program = [str(BENCH / f"{op.kind}.py")]
        stdout = self.work / f"{op.name}.stdout"
        stderr = self.work / f"{op.name}.stderr"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, *program, *op.args],
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=ROOT,
            )
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            seconds = time.perf_counter() - start
        child.returncode = exit_code = os.waitstatus_to_exitcode(status)
        if exit_code not in op.expect:
            message = stderr.read_text(errors="replace").strip().splitlines()[-1:]
            self.fail(key, f"exit code {exit_code}, expected {op.expect}: {message}")
        # ru_maxrss is in KiB on Linux.
        return OpResult(op, key, exit_code, seconds, usage.ru_maxrss / 1024, stdout)


@dataclass
class Instance:
    name: str
    params: dict
    gap: bool

    def flags(self, with_target: bool) -> list[str]:
        params = self.params
        flags = [
            "--tokens", str(params["token_count"]),
            "--buckets", str(params["first_set_size"]),
            "--fill", str(params["fill_width"]),
            "--first", str(params["first_bucket"]),
        ]
        if with_target:
            flags += ["--target-buckets", str(params["second_set_size"])]
        return flags


def make_instances(rng: random.Random, count: int, tokens: int) -> list[Instance]:
    """``count`` instances of ``tokens`` tokens, give or take one ring.

    Even-numbered instances stop partway through a descending sweep, so
    their labels have a gap; odd-numbered ones do not.
    """
    instances = []
    for index in range(count):
        buckets = rng.randint(8, 64)
        fill = rng.randint(2, buckets)
        first = rng.randrange(buckets)
        second = rng.randint(buckets + 1, 2 * buckets)
        with_gap = index % 2 == 0
        if with_gap:
            last_position = rng.randrange(fill - 1)
        else:
            last_position = rng.randint(fill - 1, buckets - 1)
        params = {
            "token_count": (tokens // buckets) * buckets + last_position + 1,
            "first_set_size": buckets,
            "fill_width": fill,
            "first_bucket": first,
            "second_set_size": second,
        }
        instances.append(Instance(f"i{index}", params, with_gap))
    return instances


class Workload:
    """The operations of one pass, their set-up and their output checks."""

    name = ""
    # Stage-1 quadruples swept per pass: the base of lifecycle_per_quadruple.
    quadruples = 0

    def set_up(self, bench: Bench) -> None:
        pass

    def operations(self, work: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, bench: Bench, results: list[OpResult]) -> dict[str, list[str]]:
        """Problems found in the outputs of one pass, by operation name."""
        return {}


class SweepDefault(Workload):
    """``ringfill sweep`` over the whole domain; the seed does not change it."""

    name = "sweep-default"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.max_buckets = 3 if smoke else 10

    @property
    def quadruples(self) -> int:
        return sum(b * b * (SWEEP_ROUNDS * b + 4) for b in range(1, self.max_buckets + 1))

    @property
    def instances(self) -> int:
        return sum(b**3 * (SWEEP_ROUNDS * b + 4) for b in range(1, self.max_buckets + 1))

    def operations(self, work: Path) -> list[Op]:
        report = work / "sweep.json"
        args = ["sweep", "--max-buckets", str(self.max_buckets)]
        args += ["--format", "json", "--output", str(report)]
        return [Op("sweep", "cli", args, [report])]

    def check(self, bench: Bench, results: list[OpResult]) -> dict[str, list[str]]:
        counts = {requirement_id: 0 for requirement_id in REQUIREMENT_IDS}
        counts["R6"] = PINNED_R6[self.max_buckets]
        pinned = {
            "instances_checked": self.instances,
            "oracle_mismatches": 0,
            "violation_counts": counts,
            "unexpected_violations": 0,
            "only_expected_failures": True,
        }
        try:
            document = json.loads(results[0].op.outputs[0].read_text(encoding="utf-8"))
            found = {key: document.get(key) for key in pinned}
        except (OSError, ValueError, AttributeError) as error:
            return {"sweep": [f"unreadable report: {error}"]}
        if found != pinned:
            return {"sweep": [f"verdict {found}, pinned {pinned}"]}
        return {}


class InstanceLarge(Workload):
    """Seeded single instances through plan, trace in three formats, verify."""

    name = "instance-large"

    def __init__(self, seed: int, smoke: bool) -> None:
        tokens = 2_000 if smoke else 100_000
        self.instances = make_instances(random.Random(f"{self.name}/{seed}"), 3, tokens)

    def operations(self, work: Path) -> list[Op]:
        ops = []
        for instance in self.instances:
            prefix = work / instance.name
            plan = instance.flags(with_target=False)
            full = instance.flags(with_target=True)
            for op, args, output in (
                ("plan-csv", ["plan", *plan, "--format", "csv"], "plan.csv"),
                ("trace-json", ["trace", *full, "--format", "json"], "trace.json"),
                ("trace-csv", ["trace", *full, "--format", "csv"], "trace.csv"),
                ("trace-table", ["trace", *full, "--format", "table"], "trace.txt"),
                ("verify", ["verify", *full], "verify.txt"),
            ):
                path = Path(f"{prefix}-{output}")
                expect = (0, 2) if op == "verify" else (0,)
                args += ["--output", str(path)]
                ops.append(Op(f"{instance.name}.{op}", "cli", args, [path], expect))
        return ops

    def check(self, bench: Bench, results: list[OpResult]) -> dict[str, list[str]]:
        by_name = {result.op.name: result for result in results}
        spec = [
            {
                "name": instance.name,
                "params": instance.params,
                "gap": instance.gap,
                "verify_exit": by_name[f"{instance.name}.verify"].exit_code,
                "files": {
                    name.partition(".")[2]: str(result.op.outputs[0])
                    for name, result in by_name.items()
                    if name.startswith(f"{instance.name}.")
                },
            }
            for instance in self.instances
        ]
        spec_path = bench.work / "check-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        checker = subprocess.run(
            [sys.executable, str(BENCH / "check_outputs.py"), str(spec_path)],
            capture_output=True,
            text=True,
            env=bench.env,
            cwd=ROOT,
            timeout=120,
        )
        if checker.returncode != 0:
            return {"check_outputs": [checker.stderr.strip()[-500:]]}
        return json.loads(checker.stdout)


class TraceReverify(Workload):
    """JSON traces written in set-up, re-verified through parse_trace_report.

    reverify.py compares the re-verified statuses and witnesses with the
    document itself and exits 3 on a difference, so the exit-code check
    is the output check.
    """

    name = "trace-reverify"

    def __init__(self, seed: int, smoke: bool) -> None:
        tokens = 2_000 if smoke else 100_000
        self.instances = make_instances(random.Random(f"{self.name}/{seed}"), 3, tokens)
        self.documents: dict[str, Path] = {}

    def set_up(self, bench: Bench) -> None:
        for instance in self.instances:
            path = bench.work / f"{instance.name}-trace.json"
            args = ["trace", *instance.flags(with_target=True), "--format", "json"]
            bench.spawn(Op(f"{instance.name}.write", "cli", args + ["--output", str(path)]))
            self.documents[instance.name] = path

    def operations(self, work: Path) -> list[Op]:
        return [
            Op(f"{name}.reverify", "reverify", [str(path)])
            for name, path in self.documents.items()
        ]


WORKLOADS = {
    workload.name: workload for workload in (SweepDefault, InstanceLarge, TraceReverify)
}


def file_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        try:
            with open(path, "rb") as handle:
                while chunk := handle.read(1 << 20):
                    digest.update(chunk)
        except FileNotFoundError:
            digest.update(b"\0missing")
    return digest.hexdigest()


def span_totals(paths: list[Path]) -> dict[str, dict]:
    """Per span name: calls, busy (inclusive) and self seconds, value sum.

    A span's self time is its duration minus the time its child spans
    cover.  Spans are listed in the order they ended, so a span's children
    always come before it and each file streams in one pass.
    """
    totals: dict[str, dict] = {}
    for path in paths:
        covered: dict[str, float] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                _, span_id, parent, name, start, end, value = line.split()
                duration = float(end) - float(start)
                entry = totals.setdefault(
                    name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "value": 0}
                )
                entry["calls"] += 1
                entry["busy_s"] += duration
                entry["self_s"] += duration - covered.pop(span_id, 0.0)
                if parent != "-1":
                    covered[parent] = covered.get(parent, 0.0) + duration
                if value != "-":
                    entry["value"] += int(value)
    return totals


def layer_metrics(totals: dict[str, dict], quadruples: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, all but the tracing overhead."""

    def total(span: str, key: str):
        return totals.get(span, {}).get(key, 0)

    metrics = {}
    for name, _, _, _ in LAYER_METRICS:
        span, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            metrics[name] = total(span, key)
    lifecycle_calls = total("lifecycle.run_lifecycle", "calls")
    metrics["placement.plan_stage1.tokens"] = total("placement.plan_stage1", "value")
    metrics["verify.sweep.quadruples"] = quadruples
    metrics["verify.sweep.lifecycle_per_quadruple"] = (
        lifecycle_calls / quadruples if quadruples else 0.0
    )
    metrics["verify.sweep.violations_retained"] = total("verify.sweep", "value")
    metrics["cli.output_bytes"] = output_bytes
    return metrics


def run_pass(bench: Bench, workload: Workload, traced: bool) -> Pass:
    results = []
    span_paths = []
    for op in workload.operations(bench.work):
        spans = bench.work / f"{op.name}.spans" if traced else None
        results.append(bench.spawn(op, spans))
        if spans is not None:
            span_paths.append(spans)
    by_name = {result.op.name: result for result in results}
    for name, found in workload.check(bench, results).items():
        key = by_name[name].key if name in by_name else f"{bench.attempted}:{name}"
        for message in found:
            bench.fail(key, message)
    outputs = {result.op.name: [*result.op.outputs, result.stdout] for result in results}
    return Pass(
        traced=traced,
        wall_s=sum(result.seconds for result in results),
        peak_rss_mb=max(result.peak_rss_mb for result in results),
        output_bytes=sum(
            path.stat().st_size for paths in outputs.values() for path in paths if path.exists()
        ),
        digests={
            name: f"{file_digest(paths)} exit={by_name[name].exit_code}"
            for name, paths in outputs.items()
        },
        span_totals=span_totals(span_paths) if traced else None,
    )


def measure(bench: Bench, workload: Workload, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop of passes until ``seconds`` is used up.

    A traced run starts with one untraced pass, the base of the tracing
    overhead, and needs two traced passes to check that counts repeat.
    """
    passes: list[Pass] = []
    least = 3 if trace else 2
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(bench, workload, traced=trace and bool(passes)))
        now = time.perf_counter()
        if len(passes) >= least and now - started + (now - begun) > seconds:
            return passes


def setup_times(bench: Bench, runs: int) -> list[float]:
    """Times of ``ringfill --help`` in fresh interpreters.

    One untimed run first fills the bytecode cache, which every later
    invocation of an installed ringfill finds filled.
    """
    op = Op("help", "cli", ["--help"])
    times = []
    for index in range(runs + 1):
        result = bench.spawn(op)
        if not result.stdout.read_text(errors="replace").startswith("usage: ringfill"):
            bench.fail(result.key, "--help printed no usage line")
        if index:
            times.append(result.seconds)
    return times


def check_repeats(bench: Bench, passes: list[Pass], layers: list[dict]) -> None:
    for index, current in enumerate(passes[1:], 1):
        for name, digest in current.digests.items():
            if digest != passes[0].digests[name]:
                bench.fail(f"pass{index}:{name}", "output bytes differ from the first pass")
    for name in COUNT_METRICS:
        values = sorted({layer[name] for layer in layers})
        if len(values) > 1:
            bench.fail(f"count:{name}", f"differs between traced passes: {values}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return found.stdout.strip() or None


def run_facts() -> dict:
    sources = sorted((SRC / "ringfill").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "source_sha256": file_digest(sources),
        "loadavg_at_start": os.getloadavg(),
        "peak_rss_read_by": (
            "os.wait4 ru_maxrss of each operation's child process; on Linux it "
            "includes the benchmark process's own peak at spawn time, reported "
            "as benchmark_peak_rss_mb"
        ),
        "load": "closed loop, one client, one child process at a time",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    facts = run_facts()
    workload = WORKLOADS[name](seed, smoke)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work)
    try:
        help_times = setup_times(bench, 0 if trace else (3 if smoke else 11))
        workload.set_up(bench)
        passes = measure(bench, workload, seconds, trace)
        traced = [p for p in passes if p.traced]
        layers = [
            layer_metrics(p.span_totals, workload.quadruples, p.output_bytes) for p in traced
        ]
        check_repeats(bench, passes, layers)
        if trace:
            # Counts repeat exactly (checked above); times are medians.
            metrics = {
                metric: value if metric in COUNT_METRICS
                else statistics.median(layer[metric] for layer in layers)
                for metric, value in layers[0].items()
            }
            metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - (
                statistics.median(p.wall_s for p in passes if not p.traced)
            )
            metrics = {metric: metrics[metric] for metric in LAYER_UNITS}
            units = LAYER_UNITS
            RESULTS.mkdir(exist_ok=True)
            with open(RESULTS / f"{name}.spans", "wb") as merged:
                for path in sorted(work.glob("*.spans")):
                    with open(path, "rb") as handle:
                        shutil.copyfileobj(handle, merged)
        else:
            metrics = {
                "wall_s": statistics.median(p.wall_s for p in passes),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
                "setup_s": statistics.median(help_times),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    facts["benchmark_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    result = {
        "correct": not bench.failed_keys,
        "attempted": bench.attempted,
        "failed": len(bench.failed_keys),
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "facts": facts,
        **result,
        "error_rate": result["failed"] / result["attempted"],
        "problems": bench.problems,
        "setup_runs_s": help_times,
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.wall_s,
                "peak_rss_mb": p.peak_rss_mb,
                "output_bytes": p.output_bytes,
            }
            for p in passes
        ],
        "moves": {metric: moves for metric, _, _, moves in LAYER_METRICS} if trace else None,
    }
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for problem in bench.problems:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"{name} error_rate = {record['error_rate']:.6g} "
        f"({result['failed']} failed of {result['attempted']} operations)"
    )
    print(f"{name} facts: {json.dumps(facts)}")
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringfill" / "cli.py").is_file():
        print(f"error: no ringfill source under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        for name in names
    }
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
