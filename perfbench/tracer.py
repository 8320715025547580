"""Per-module call tracing for one deplen CLI run.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json report-all --corpus ...

wraps the public functions of each deplen module in every module namespace
that holds them (several are imported by name into other modules), runs
`deplen.cli.main` with the remaining arguments, and writes per-function call
counts, total and self seconds to TRACE.json. A span's self time is its
duration minus the time covered by its traced children. Spans stay in
memory as per-name totals and are written once, when the run ends.
"""

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

MODULES = ("treebank", "constituency", "variants", "features", "stats",
           "analysis", "seeding", "cli")

# Public functions left unwrapped. arc_distance runs once per arc and would
# mostly time its own wrapper; parse_conllu and parse_tsv are the format
# bodies of parse_corpus, whose self time is meant to include them.
UNWRAPPED = {"constituency.arc_distance", "treebank.parse_conllu", "treebank.parse_tsv"}

# cli has no __all__; its one traced entry is the report-all command.
CLI_SPANS = {"cmd_report_all": "cli.report_all"}


class Tracer:
    def __init__(self):
        self.calls, self.total_s, self.self_s = {}, {}, {}
        self.edges = {}          # "parent>child" -> calls
        self.counters = {}
        self._stack = []         # [name, seconds covered by child spans]

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """`fn` timed as span `name`; `after(tracer, args, kwargs, result)`
        runs outside the span and its time is kept out of the parent's self
        time too."""
        clock, stack = time.perf_counter, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                edge = f"{parent}>{name}"
                self.edges[edge] = self.edges.get(edge, 0) + 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                hook_start = clock()
                after(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        return traced

    def report(self) -> dict:
        spans = {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                        "self_s": self.self_s[name]} for name in sorted(self.calls)}
        return {"spans": spans, "edges": dict(sorted(self.edges.items())),
                "counters": dict(sorted(self.counters.items()))}


def _fit_logistic_counts(tracer, args, kwargs, fit):
    """Design rows, IRLS iterations, separation fallbacks and distinct
    (x, y) rows of one fit."""
    X = np.asarray(args[0] if args else kwargs["X"], dtype=float)
    y = np.asarray(args[1] if len(args) > 1 else kwargs["y"], dtype=float)
    rows = np.column_stack([X.reshape(len(y), -1), y])
    tracer.count("stats.fit_logistic.rows", len(y))
    tracer.count("stats.fit_logistic.distinct_rows", len(np.unique(rows, axis=0)))
    tracer.count("stats.fit_logistic.irls_iterations", fit.iterations)
    tracer.count("stats.fit_logistic.separation_fallbacks", int(fit.separation))


AFTER = {"stats.fit_logistic": _fit_logistic_counts}


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every deplen namespace (module globals
    and module-level dicts such as cli.COMMANDS), and count every
    DependencyTree built."""
    modules = {short: importlib.import_module(f"deplen.{short}") for short in MODULES}
    names = {}
    for short, mod in modules.items():
        public = CLI_SPANS if short == "cli" else {n: f"{short}.{n}" for n in mod.__all__}
        for attr, span in public.items():
            fn = getattr(mod, attr)
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and span not in UNWRAPPED):
                names[fn] = span
    wrapped = {fn: tracer.wrap(span, fn, AFTER.get(span)) for fn, span in names.items()}
    for mod in [importlib.import_module("deplen"), *modules.values()]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if inspect.isfunction(item) and item in wrapped:
                        value[key] = wrapped[item]

    tree_cls = modules["treebank"].DependencyTree
    init = tree_cls.__init__

    def counted_init(self, *args, **kwargs):
        tracer.count("treebank.DependencyTree.constructed")
        init(self, *args, **kwargs)

    tree_cls.__init__ = counted_init


def main(argv) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    from deplen import cli
    start = time.perf_counter()
    try:
        code = cli.main(argv[1:])
    finally:
        report = tracer.report()
        report["wall_s"] = time.perf_counter() - start
        out.write_text(json.dumps(report, indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
