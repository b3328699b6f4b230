"""Run one ringfill operation with a span around each layer's public functions.

    python perfbench/traced.py SPANS_PATH OP_ID cli ARGS...
    python perfbench/traced.py SPANS_PATH OP_ID reverify DOCUMENT

Each traced function is replaced under every name a ringfill module looks
it up by (``ringfill.verify.run_lifecycle``, ``ringfill.cli.run_lifecycle``,
``ringfill.lifecycle.plan_stage1`` and so on), so calls from one module
into another are caught.  Spans stay in memory and are written to
SPANS_PATH when the operation ends, one per line, in the order they ended:

    op id parent name start end value

``parent`` is the id of the enclosing span or -1, times are seconds on
this process's ``perf_counter``, and ``value`` is the token count for
``placement.plan_stage1``, the retained violations for ``verify.sweep``
and ``-`` for everything else.

The per-token ``label`` is deliberately not wrapped: it runs millions of
times and its wrapper would swamp the self times of its callers.  Token
counts come from the ``params`` argument of ``plan_stage1`` instead.
"""

from __future__ import annotations

import sys
import time

import ringfill
import ringfill.cli
import ringfill.lifecycle
import ringfill.placement
import ringfill.verify

MODULES = (
    ringfill,
    ringfill.placement,
    ringfill.lifecycle,
    ringfill.verify,
    ringfill.cli,
)

# (defining module, function name): span names are "<module>.<function>".
TRACED = (
    ("placement", "plan_stage1"),
    ("placement", "gap"),
    ("lifecycle", "run_lifecycle"),
    ("verify", "check_requirements"),
    ("verify", "prose_oracle_stage1"),
    ("verify", "sweep"),
    ("cli", "main"),
    ("cli", "plan_report"),
    ("cli", "trace_report"),
    ("cli", "sweep_report_document"),
    ("cli", "parse_trace_report"),
)


def _first_argument(args: tuple, kwargs: dict):
    return args[0] if args else next(iter(kwargs.values()))


VALUES = {
    "placement.plan_stage1": lambda args, kwargs, result: _first_argument(
        args, kwargs
    ).token_count,
    "verify.sweep": lambda args, kwargs, result: len(getattr(result, "violations", ())),
}


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        value_of = VALUES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = "-" if value_of is None else value_of(args, kwargs, result)
                spans.append((span_id, parent, name, start, end, value))

        return traced

    def install(self) -> None:
        """Replace every module-level reference to a traced function."""
        for module_name, function_name in TRACED:
            module = getattr(ringfill, module_name)
            original = getattr(module, function_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{function_name}", original)
            for namespace in MODULES:
                for attribute, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attribute, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(
                f"{self.op_id} {span_id} {parent} {name} {start!r} {end!r} {value}\n"
                for span_id, parent, name, start, end, value in self.spans
            )


def main(argv: list[str]) -> int:
    spans_path, op_id, kind, *rest = argv
    tracer = Tracer(op_id)
    tracer.install()
    try:
        if kind == "cli":
            return ringfill.cli.main(rest)
        if kind == "reverify":
            import reverify

            return reverify.main(rest)
        print(f"traced.py: unknown operation kind {kind!r}", file=sys.stderr)
        return 1
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
