"""deplen benchmark: `report-all` on seeded corpora, one process at a time.

Run from the repository root:

    python3 perfbench/run.py --workload long-k6 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced then traced

A run generates its workload's corpus from --seed, then repeats a cycle
until --seconds have passed: one `python -m deplen.cli report-all` (a closed
loop, one child at a time, --jobs 1, BLAS threads pinned to 1), runs of
perfbench/reference.py for as long, and one fresh interpreter that imports
deplen.cli (set-up). It checks every run's products. The time metrics are
scaled by the reference: a mean time over the mean reference time, times
REFERENCE_S, so seconds on a machine where the reference takes REFERENCE_S;
the drifting speed of a shared host divides out. With --trace 1 it instead
makes a few plain runs and one under perfbench/tracer.py, and reports
per-module counts and self times and the tracing overhead. The last stdout
line is one JSON object with keys correct, attempted, failed and metrics;
the full result, with provenance, goes to perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import corpora

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PROGRAM = ROOT / "src" / "deplen" / "cli.py"
REFERENCE = BENCH / "reference.py"

DEFAULT_SEED = 1          # the seed whose products have golden copies
RANDOM_DRAWS = 10
K_RANGE = (2, 6)
MIN_RUNS = 3              # cycles per benchmark run, at the least
REFERENCE_S = 1.0         # the nominal seconds of one reference run
TRACE_BASE_RUNS = 3       # plain runs that the traced run's overhead is taken against
CHILD_TIMEOUT = 120       # seconds; one report-all takes a few
# Set in every child: one BLAS thread, so that the benchmark measures the
# program rather than the thread pool, and a fixed hash seed, so that set and
# dict layouts, and so their speed, are the same in every child (deplen's
# products do not depend on it).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: object          # (seed, sentences) -> corpora.Corpus
    sentences: int
    flags: tuple = ()         # extra report-all flags


WORKLOADS = {w.name: w for w in [
    Workload("long-k6",
             "long k=6 trees: the per-variant linearize, tree validation and "
             "arc-sum path of the pairwise build dominates",
             # One k=5 sentence keeps the manifest's correlation between
             # sentence length and k defined: report-all raises when every
             # sentence has the same k.
             lambda seed, n: corpora.least_effort_corpus(
                 seed, [5] + [6] * (n - 1), corpora.uniform_length(1, 30)),
             sentences=60),
    Workload("default-mix",
             "k 2-6, short geometric lengths: regression, RFECV and "
             "classification over every (family, k) table dominate",
             lambda seed, n: corpora.least_effort_corpus(
                 seed, corpora.quotas(n, ((2, 0.2), (3, 0.25), (4, 0.25), (5, 0.2), (6, 0.1))),
                 corpora.geometric_length(0.4, 12)),
             sentences=800),
    Workload("ingest",
             "treebank-like input, mostly ineligible, with punctuation: "
             "parsing, punctuation stripping and decomposition dominate",
             corpora.ingest_corpus, sentences=5000, flags=("--exclude-punct",)),
]}

END_TO_END = {"report_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# span -> the per-layer metrics read from it
SPAN_METRICS = {
    "treebank.parse_corpus": ("self_s",),
    "treebank.strip_punct": ("self_s",),
    "treebank.is_projective": ("calls", "self_s"),
    "constituency.decompose": ("calls", "self_s"),
    "constituency.total_dependency_length": ("calls", "self_s"),
    "constituency.constituent_dl": ("calls", "self_s"),
    "variants.linearize": ("calls", "self_s"),
    "variants.generate_variants": ("calls", "self_s"),
    "variants.least_effort_move": ("calls",),
    "features.extract_features": ("calls", "self_s"),
    "features.joachims_transform": ("self_s",),
    "features.zscore": ("calls", "self_s"),
    "stats.fit_logistic": ("calls", "self_s"),
    "stats.crossval_accuracy": ("self_s",),
    "stats.rfecv": ("self_s",),
    "stats.mcnemar": ("calls",),
    "analysis.decompose_corpus": ("self_s",),
    "analysis.strategy_curves": ("self_s",),
    "analysis.build_pairwise_dataset": ("self_s",),
    "analysis.run_classification_suite": ("self_s",),
    "analysis.regression_table": ("self_s",),
    "seeding.derive_rng": ("calls", "self_s"),
    "cli.report_all": ("self_s",),
}
COUNTERS = ("treebank.DependencyTree.constructed", "stats.fit_logistic.rows",
            "stats.fit_logistic.irls_iterations",
            "stats.fit_logistic.separation_fallbacks")
PER_LAYER = {
    **{f"{span}.{field}": "s" if field == "self_s" else "count"
       for span, fields in SPAN_METRICS.items() for field in fields},
    **{name: "count" for name in COUNTERS},
    "stats.fit_logistic.distinct_row_ratio": "ratio",
    "trace.report_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def report_argv(workload, seed, corpus_path, out) -> list:
    return ["report-all", "--corpus", str(corpus_path), "--out", str(out),
            "--seed", str(seed), "--cap", str(corpora.CAP), "--jobs", "1",
            "--random-draws", str(RANDOM_DRAWS), *workload.flags]


def run_child(argv, log_path: Path) -> dict:
    """Launch one child from the repository root and wait for it; wall time
    from launch to exit, CPU time and peak RSS from its own rusage. A child
    still running after CHILD_TIMEOUT seconds is killed and counts as failed."""
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def run_fixed(argv, log_path: Path) -> dict:
    """A child that must succeed: the reference, or importing deplen.cli."""
    res = run_child(argv, log_path)
    if res["exit_code"] != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: "
                           + log_path.read_text(errors="replace")[-2000:])
    return res


def check_run(res, out, corpus, seed, workload, log_path) -> list:
    if res["exit_code"] != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {res['exit_code']}: {' '.join(tail)}"]
    problems = checks.finite_products(out) + checks.manifest_counts(out, corpus)
    if seed == DEFAULT_SEED:
        golden = BENCH / "golden" / workload.name
        want_sha = (golden / "corpus.sha256").read_text().strip() \
            if (golden / "corpus.sha256").is_file() else None
        if want_sha != corpus.sha256:
            problems.append(f"corpus sha256 {corpus.sha256} != golden {want_sha}")
        problems += checks.golden_products(out, golden)
    return problems


def timed_report(workload, seed, corpus, work, tracer_out=None) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = report_argv(workload, seed, (work / "corpus.conllu").relative_to(ROOT),
                       out.relative_to(ROOT))
    if tracer_out is None:
        argv = ["-m", "deplen.cli", *argv]
    else:
        argv = [str((BENCH / "tracer.py").relative_to(ROOT)),
                str(tracer_out.relative_to(ROOT)), *argv]
    log = work / "report.log"
    res = run_child(argv, log)
    res["problems"] = check_run(res, out, corpus, seed, workload, log)
    return res


def provenance(workload, seed) -> dict:
    def capture(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    # a checkout without .git (as the benchmark is usually run) has no commit
    commit = capture(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "deplen").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    versions = capture([sys.executable, "-c", (
        "import json, sys, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': sys.version, 'numpy': numpy.__version__,"
        " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))")])
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        **(json.loads(versions) if versions else {}),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
        "report_argv": ["python", "-m", "deplen.cli",
                        *report_argv(workload, seed, "CORPUS", "OUT")],
    }


def _stats(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "mean": statistics.fmean(values),
            "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "samples": len(values)}


def run_workload(workload, seed, seconds, trace) -> dict:
    work = BENCH / "_work" / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = workload.generate(seed, workload.sentences)
        (work / "corpus.conllu").write_text(corpus.text)
        plain, traced, reference, setup = [], [], [], []
        if trace:
            for _ in range(TRACE_BASE_RUNS):
                plain.append(timed_report(workload, seed, corpus, work))
            traced.append(timed_report(workload, seed, corpus, work, work / "trace.json"))
            trace_path = work / "trace.json"
            trace_report = json.loads(trace_path.read_text()) if trace_path.is_file() \
                else {"spans": {}, "counters": {}}
            traced[0]["problems"] += checks.trace_counts(
                trace_report, corpus, corpora.CAP, RANDOM_DRAWS, K_RANGE)
        else:
            # The reference runs between report-all runs, so that both see
            # the same phases of the host, and for as long as report-all
            # did: the error of a ratio of two means is least when the two
            # share the time equally. Launch a cycle while it should end by
            # the deadline.
            deadline = time.perf_counter() + seconds
            cycles = []
            while len(cycles) < MIN_RUNS or \
                    time.perf_counter() + statistics.median(cycles) <= deadline:
                start = time.perf_counter()
                plain.append(timed_report(workload, seed, corpus, work))
                spent = 0.0
                while not spent or (spent < plain[-1]["wall_s"]
                                    and time.perf_counter() < deadline):
                    reference.append(run_fixed([str(REFERENCE.relative_to(ROOT))],
                                               work / "reference.log"))
                    spent += reference[-1]["wall_s"]
                setup.append(run_fixed(["-c", "import deplen.cli"], work / "import.log"))
                cycles.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = plain + traced
    failed = [r for r in runs if r["problems"]]
    # medians over the runs that passed their checks, if any did
    plain = [r for r in plain if not r["problems"]] or plain
    # raw samples, in seconds as measured (and MB)
    summary = {
        "report_wall_s": _stats([r["wall_s"] for r in plain]),
        "report_cpu_s": _stats([r["cpu_s"] for r in plain]),
        "peak_rss_mb": _stats([r["peak_rss_mb"] for r in plain]),
    }
    if trace:
        metrics = layer_metrics(trace_report, traced[0]["wall_s"],
                                summary["report_wall_s"]["median"])
        units = PER_LAYER
    else:
        summary.update({
            "reference_wall_s": _stats([r["wall_s"] for r in reference]),
            "reference_cpu_s": _stats([r["cpu_s"] for r in reference]),
            "import_wall_s": _stats([r["wall_s"] for r in setup]),
        })
        # Means, not medians: over a run's few cycles the means weigh every
        # phase of the host by how long it lasted, in the program and in the
        # reference alike, where two medians would each pick one sample.
        wall_scale = REFERENCE_S / summary["reference_wall_s"]["mean"]
        cpu_scale = REFERENCE_S / summary["reference_cpu_s"]["mean"]
        metrics = {
            "report_s": summary["report_wall_s"]["mean"] * wall_scale,
            "cpu_s": summary["report_cpu_s"]["mean"] * cpu_scale,
            "peak_rss_mb": summary["peak_rss_mb"]["median"],
            "setup_s": summary["import_wall_s"]["mean"] * wall_scale,
        }
        units = END_TO_END
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "corpus": corpus.summary(),
        "provenance": provenance(workload, seed),
        "correct": not failed,
        "attempted": len(runs), "failed": len(failed),
        "problems": [p for r in failed for p in r["problems"]][:20],
        "summary": summary,
        "runs": [{k: v for k, v in r.items() if k != "problems"} for r in runs],
        "reference_runs": reference, "import_runs": setup,
        "trace_report": trace_report if trace else None,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def layer_metrics(trace_report, traced_wall, plain_median) -> dict:
    spans, counters = trace_report["spans"], trace_report["counters"]
    metrics = {}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            metrics[f"{span}.{field}"] = spans.get(span, {}).get(field, 0)
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    rows = counters.get("stats.fit_logistic.rows", 0)
    metrics["stats.fit_logistic.distinct_row_ratio"] = \
        counters.get("stats.fit_logistic.distinct_rows", 0) / rows if rows else 0.0
    metrics["trace.report_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_median
    return metrics


def print_result(result) -> None:
    c, p = result["corpus"], result["provenance"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{c['sentences']} sentences, {c['tokens']} tokens, {c['eligible']} eligible, "
          f"{c['expected_pairs']} pairs, corpus sha256 {c['sha256'][:16]}")
    print(f"  commit {p['git_commit']} source {p['source_sha256'][:16]} "
          f"python {p.get('python', '?').split()[0]} numpy {p.get('numpy')} "
          f"{p.get('blas')} {p.get('blas_version')} nproc {p['nproc']}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for name, s in result["summary"].items():
        print(f"  as measured: {name:32s} mean {s['mean']:.4f}, median {s['median']:.4f}, "
              f"q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['samples']}")
    print(f"  attempted {result['attempted']} failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def write_result(result, name) -> None:
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / name).write_text(json.dumps(result, indent=1))


def write_golden(workload) -> None:
    """Store the default-seed products as the golden copies. Only for a
    change that alters outputs on purpose; say so where it lands."""
    work = BENCH / "_work" / f"golden-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = workload.generate(DEFAULT_SEED, workload.sentences)
        (work / "corpus.conllu").write_text(corpus.text)
        argv = report_argv(workload, DEFAULT_SEED, (work / "corpus.conllu").relative_to(ROOT),
                           (work / "out").relative_to(ROOT))
        res = run_child(["-m", "deplen.cli", *argv], work / "report.log")
        problems = checks.finite_products(work / "out") + \
            checks.manifest_counts(work / "out", corpus)
        if res["exit_code"] != 0 or problems:
            raise RuntimeError(f"{workload.name}: exit {res['exit_code']}, {problems}")
        golden = BENCH / "golden" / workload.name
        shutil.rmtree(golden, ignore_errors=True)
        golden.mkdir(parents=True)
        for name in checks.PRODUCTS:
            if name != "manifest.json":
                shutil.copyfile(work / "out" / name, golden / name)
        (golden / "corpus.sha256").write_text(corpus.sha256 + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store default-seed products as the golden copies")
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"error: {PROGRAM.relative_to(ROOT)} not found; run from a deplen "
              "checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_golden:
        for name in names:
            write_golden(WORKLOADS[name])
        return 0
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    prefixed = args.workload == "all"   # one result line for every workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
            write_result(result, f"{name}-seed{args.seed}-trace{trace}.json")
            print_result(result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{metric}" if prefixed else metric: value
                                        for metric, value in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
