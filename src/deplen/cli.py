"""Command-line entry point.

Subcommands: parse, decompose, variants, strategies, features, fit,
classify, synth, report-all. Each writes its products and manifest.json
under --out all or nothing: into a temporary directory there, moved into
place, the manifest last, only once every product is written. Progress
goes to stderr. Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import codecs
import contextlib
import csv
import functools
import hashlib
import json
import logging
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, constituency, treebank, variants

log = logging.getLogger("deplen")

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2
# Bytes of the corpus file read at a time. Larger reads raised peak RSS over
# reading the whole file at once on a corpus whose sentences are all
# eligible: by 0.23 MB with 64 KiB reads and 0.12 MB with 16 KiB on the
# long-k6 benchmark workload; 8 KiB reads do not.
READ_SIZE = 8 * 1024
SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class UsageError(Exception):
    def __init__(self, message, usage):   # the usage of the parser it is about
        super().__init__(message)
        self.usage = usage


class DataError(Exception):
    pass


class _Stderr(logging.StreamHandler):
    """Writes each record to `sys.stderr` as it is then, so that every
    `main` call in one process logs to its own stderr."""
    stream = property(lambda self: sys.stderr, lambda self, value: None)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _bounded(kind, lo, hi=None):
    """An argparse type: the text as `kind`, rejected unless lo <= value
    (<= hi); named as `kind`, so that argparse still says `invalid int value`."""
    def convert(text):
        value = kind(text)
        if not value >= lo or (hi is not None and not value <= hi):   # NaN fails too
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    convert.__name__ = kind.__name__
    return convert


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--corpus", help="input corpus path")
    p.add_argument("--format", default="conllu", choices=list(treebank.FORMATS))
    p.add_argument("--cap", type=_bounded(int, 2), default=variants.DEFAULT_CAP,
                   help="variant sampling ceiling per sentence")
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--k-min", type=_bounded(int, 2), default=2)
    p.add_argument("--k-max", type=_bounded(int, 2), default=6)
    p.add_argument("--folds", type=_bounded(int, 2), default=10)
    p.add_argument("--random-draws", type=_bounded(int, 1), default=10,
                   help="seeded draws per sentence for random/least-effort curves")
    p.add_argument("--jobs", type=int, default=1, choices=[1], help="the pairwise build is serial")
    p.add_argument("--out", help="output directory")
    p.add_argument("--exclude-punct", action="store_true",
                   help="drop punctuation tokens before all distance metrics")
    p.add_argument("--convention", default="intervening",
                   choices=list(constituency.ARC_GAP))


def build_parser() -> _Parser:
    parser = _Parser(prog="deplen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PRODUCTS:
        _add_common(sub.add_parser(name))
    synth = sub.choices["synth"]
    synth.add_argument("--sentences", type=_bounded(int, 1), default=1000)
    synth.add_argument("--p-least-effort", type=_bounded(float, 0.0, 1.0), default=1.0)
    synth.add_argument("--noise-temperature", type=_bounded(float, 0.0), default=0.0)
    parser.subcommands = sub.choices
    return parser


def _config_defaults(path: Path, subparser) -> dict:
    """The file's key=value lines, each converted and checked by the
    subcommand's own option, as a dict of defaults. A line it cannot take is
    a DataError naming the file and line: an unknown key is named as its
    option, `argument --caps-lock: unknown config key`, or as written,
    `unknown config key '-1'`, where it is not spelled like one."""
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    defaults = vars(subparser.parse_args([]))
    values = {}
    text = "".join(_read_text(path, "config file"))
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        written, value = (s.strip() for s in line.split("=", 1))
        key = written.replace("-", "_")
        flag = f"--{key.replace('_', '-')}"
        if key not in defaults:
            if not re.fullmatch(r"[A-Za-z][\w-]*", written):   # not spelled like an option
                raise DataError(f"{path}:{lineno}: unknown config key {written!r}")
            raise DataError(f"{path}:{lineno}: argument {flag}: unknown config key")
        if key == "config":
            raise DataError(f"{path}:{lineno}: argument {flag}: "
                            "not allowed in a config file")
        if isinstance(defaults[key], bool):
            if value.lower() not in SWITCH_VALUES:
                raise DataError(f"{path}:{lineno}: argument {flag}: "
                                f"expected one of {', '.join(SWITCH_VALUES)}, got {value!r}")
            values[key] = SWITCH_VALUES[value.lower()]
            continue
        try:
            values[key] = getattr(subparser.parse_args([f"{flag}={value}"]), key)
        except UsageError as e:
            raise DataError(f"{path}:{lineno}: {e}")
    return values


def _parse_args(parser, argv):
    """Parse argv; a --config file's values become the subcommand's defaults,
    which flags override. Each option's type checks its range; an unknown flag,
    --k-max below --k-min, or no --out (or --corpus, if read) is the subcommand's UsageError."""
    args, extra = parser.parse_known_args(argv)
    subparser = parser.subcommands[args.command]
    if extra:
        subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.config:
        subparser.set_defaults(**_config_defaults(Path(args.config), subparser))
        args = parser.parse_args(argv)
    if args.k_max < args.k_min:
        subparser.error(f"argument --k-max: must be >= {args.k_min}, got {args.k_max}")
    if not args.corpus and PRODUCTS[args.command][0] is not None:
        subparser.error("--corpus is required for this subcommand")
    if not args.out:
        subparser.error("--out is required for this subcommand")
    return args


def _read_text(path: Path, kind: str, digest=None):
    """The text of the `kind` file as it is read, one READ_SIZE block of
    bytes at a time: each block goes into `digest`, if given, and an
    incremental UTF-8 decoder, and a leading byte-order mark is removed. A
    decode error names its offset in the file, the mark's 3 bytes
    included; it and a failed read are one-line DataErrors."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    read, started = 0, False
    try:
        with path.open("rb") as f:
            while True:
                block = f.read(READ_SIZE)
                if digest is not None:
                    digest.update(block)
                held = len(decoder.getstate()[0])   # bytes of a split character
                try:
                    text = decoder.decode(block, final=not block)
                except UnicodeDecodeError as e:
                    raise DataError(f"{path}: not UTF-8 "
                                    f"({e.reason} at byte {read - held + e.start})")
                read += len(block)
                if text and not started:
                    text, started = text.removeprefix("\ufeff"), True
                yield text
                if not block:
                    return
    except OSError as e:
        raise DataError(f"cannot read {kind} {path}: {e.strerror}")


def _peak_memory() -> dict:
    """The process's peak resident memory so far, in MB: `VmHWM` from its
    own /proc/self/status, or `ru_maxrss` where there is none; and which."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):   # in KiB
                    return {"peak_rss_mb": int(line.split()[1]) / 1024, "peak_rss_source": "VmHWM"}
    except OSError:
        pass
    import resource    # Unix only: imported where /proc is missing
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # KiB, bytes on macOS
    return {"peak_rss_mb": peak / (2 ** 20 if sys.platform == "darwin" else 1024),
            "peak_rss_source": "ru_maxrss"}


class _Run:
    """A subcommand's input, read in full before --out is made: the parsed
    trees (`reads` "trees"), the eligible (sentence_id, tree, plan) triples
    ("plans": `variants` prints words), the decomposed corpus ("corpus"),
    or nothing (None). It holds the parse diagnostics, the corpus file's
    SHA-256 and the manifest entries they give. The corpus is parsed as its
    file is read. For the decomposed corpus each block's heads column alone
    is parsed (`treebank.iter_heads`), with no tree, forms or deprels, and
    decomposed as its block is read and then dropped, so memory grows with
    the eligible sentences' plans. The parse warnings, in line order, and
    the `parsed N sentences` line are logged once the corpus is read."""

    def __init__(self, args, reads):
        self.args, self.diagnostics, self.corpus_hash, self.manifest = args, [], None, {}
        self.stages = {}    # name -> `stage` record, the manifest's `stages`
        if reads is not None:
            with self.stage("ingest"):
                self._ingest(args, reads)

    @contextlib.contextmanager
    def stage(self, name: str):
        """Record the block's wall and CPU seconds, and the process's peak
        memory at its end (`_peak_memory`), as `stages[name]`. A stage run
        inside another one counts in both."""
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        self.stages[name] = {"wall_s": time.perf_counter() - wall,
                             "cpu_s": time.process_time() - cpu, **_peak_memory()}

    def _ingest(self, args, reads):
        path = Path(args.corpus)
        if not path.exists():
            raise DataError(f"corpus file not found: {path}")
        digest = hashlib.sha256()
        reader = treebank.iter_heads if reads == "corpus" else treebank.iter_trees
        blocks = reader(_read_text(path, "corpus", digest), self.diagnostics,
                        args.format, args.exclude_punct)
        if reads == "trees":
            self.trees = list(blocks)
            sentences = len(self.trees)
        else:
            if reads == "plans":
                skipped = {}
                self.plans = list(analysis.eligible_plans(blocks, skipped))
                eligible = len(self.plans)
            else:
                self.corpus = analysis.decompose_corpus(blocks)
                eligible, skipped = len(self.corpus.ids), self.corpus.skipped
            sentences = eligible + sum(skipped.values())
            self.manifest = {"eligible": eligible, "skipped": skipped,
                             "parse_diagnostics": len(self.diagnostics)}
        for d in self.diagnostics:
            log.warning("line %d: %s (block skipped)", d.line, d.reason)
        log.info("parsed %d sentences, %d blocks skipped", sentences, len(self.diagnostics))
        if reads != "trees":
            log.info("eligible %d sentences; skipped: %s", eligible, skipped)
        self.corpus_hash = digest.hexdigest()

    @functools.cached_property
    def dataset(self) -> analysis.PairwiseDataset:
        """The corpus's pairwise dataset, built on first use; it adds `pairs`
        to the manifest entries and logs `pairwise dataset: N examples`."""
        with self.stage("pairwise"):
            dataset = analysis.build_pairwise_dataset(self.corpus, self.args.cap, self.args.seed)
        log.info("pairwise dataset: %d examples", len(dataset))
        self.manifest["pairs"] = len(dataset)
        return dataset


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {out}: {e.strerror}")
    return out


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_conllu(path: Path, trees, id_prefix: str):
    with path.open("w") as f:
        for i, tree in enumerate(trees):
            f.write(treebank.to_conllu(tree, sent_id=f"{id_prefix}{i + 1}"))
            f.write("\n")


# ---------------------------------------------------------------------------
# products: each writer (out, args, run) writes one product under `out` and
# returns its manifest entries, if any

def _write_parsed(out: Path, args, run):
    _write_conllu(out / "parsed.conllu", run.trees, "s")
    return {"sentences": len(run.trees), "skipped_blocks": len(run.diagnostics)}


def _write_diagnostics(out: Path, args, run):
    _write_csv(out / "diagnostics.csv", ["line", "reason"],
               [(d.line, d.reason) for d in run.diagnostics])


def _write_plans(out: Path, args, run):
    _write_csv(out / "plans.csv", ["sentence_id", "n_constituents", "verb_index", "lengths"],
               [(sentence_id, plan.k, plan.verb_index, " ".join(map(str, plan.lengths)))
                for sentence_id, plan in zip(run.corpus.ids, run.corpus.plans)])


def _write_variants(out: Path, args, run):
    with (out / "variants.jsonl").open("w") as f:
        for sentence_id, tree, plan in run.plans:
            orders = analysis.comparison_orders(sentence_id, plan.k, args.cap, args.seed)
            dls, totals = constituency.PlanTable.of([plan]).score(
                np.array([orders]), args.convention)
            for order, order_dls, total in zip(orders, dls[0].tolist(), totals[0].tolist()):
                f.write(json.dumps({
                    "sentence_id": sentence_id, "permutation": list(order),
                    "main_verb_dl": sum(order_dls), "total_dl": total,
                    "tokens": [tree.forms[p - 1] for p in plan.positions(order)]}) + "\n")


def _write_figures(out: Path, args, run):
    """Fig. 1's counts and Fig. 2's profile."""
    ref_hist, var_hist = analysis.constituent_count_histogram(run.corpus, args.cap)
    _write_csv(out / "fig1_counts.csv", ["k", "reference_pct", "variant_pct"],
               [(k, f"{ref:.4f}", f"{var_hist[k]:.4f}") for k, ref in ref_hist.items()])
    profile_rows = []
    for k in range(args.k_min, args.k_max + 1):
        try:
            profile = analysis.position_length_profile(run.corpus, k)
        except analysis.InsufficientDataError:
            continue
        profile_rows.extend(
            (k, pos + 1, f"{mean:.4f}") for pos, mean in enumerate(profile))
    _write_csv(out / "fig2_profile.csv", ["k", "position", "mean_length"], profile_rows)
    return {"corr_sentence_length_vs_constituents":
            analysis.sentence_length_constituent_corr(run.corpus)}


def _write_curves(out: Path, args, run):
    curves = analysis.strategy_curves(
        run.corpus, seed=args.seed, random_draws=args.random_draws,
        k_range=(args.k_min, args.k_max), convention=args.convention)
    _write_csv(out / "fig4_curves.csv", ["k", "strategy", "mean_normalized_dl"],
               [(k, strategy, f"{value:.6f}")
                for strategy, per_k in curves.items()
                for k, value in per_k.items()])


def _write_features(out: Path, args, run):
    """Per k, each pair's total-DL, per-position DL and length deltas,
    written exactly, then its label and sentence id."""
    dataset = run.dataset
    for k in sorted(set(dataset.ks.tolist())):
        dl, labels = dataset.positional_matrix(k, "deplen")   # row sums: total-DL deltas
        deltas = np.column_stack([dl.sum(axis=1, dtype=dl.dtype), dl,
                                  dataset.positional_matrix(k, "length")[0]])
        positions = range(1, k + 1)
        _write_csv(out / f"features_k{k}.csv",
                   ["total_dl", *(f"dl_pos{i}" for i in positions),
                    *(f"len_pos{i}" for i in positions), "label", "pair_id"],
                   [[*row, label, pair_id] for row, label, pair_id
                    in zip(deltas.tolist(), labels.tolist(),
                           dataset.sentence_ids[dataset.ks == k].tolist())])


def _write_regressions(out: Path, args, run):
    margins, held = {}, {}
    for family, filename in (("deplen", "table1_regression.json"),
                             ("length", "table2_regression.json")):
        per_k = {str(k): analysis.regression_table(
                     run.dataset, k, family, folds=args.folds, seed=args.seed)
                 for k in range(args.k_min, args.k_max + 1)}
        margins[family] = {k: table.pop("rfecv_min_margin", None) for k, table in per_k.items()}
        held[family] = {k: table.pop("rfecv_held_columns", None) for k, table in per_k.items()}
        (out / filename).write_text(json.dumps(per_k, indent=2))
    return {"rfecv_min_margin": margins, "rfecv_held_columns": held}


def _write_suite(out: Path, args, run):
    rows = analysis.run_classification_suite(run.dataset, folds=args.folds, seed=args.seed)
    # manifest key -> table -> predictors -> that row's value
    entries = {"flagged_folds": {}, "held_columns": {}, "unconverged_folds": {},
               "min_margin": {}}
    for table, filename in (("table3", "table3_accuracy.csv"),
                            ("table4", "table4_accuracy.csv")):
        table_rows = [r for r in rows if r["table"] == table]
        _write_csv(out / filename,
                   ["predictors", "accuracy_pct", "mcnemar_p_vs_prev"],
                   [(r["predictors"], f"{100 * r['accuracy']:.2f}",
                     "" if r["mcnemar_p"] is None else f"{r['mcnemar_p']:.3g}")
                    for r in table_rows])
        for key, per_table in entries.items():
            per_table[table] = {r["predictors"]: r[key] for r in table_rows}
    return entries


def _write_synthetic(out: Path, args, run):
    spec = analysis.SyntheticSpec(
        n_sentences=args.sentences,
        p_least_effort=args.p_least_effort,
        noise_temperature=args.noise_temperature)
    trees = analysis.generate_synthetic_corpus(spec, seed=args.seed)
    _write_conllu(out / "synthetic.conllu", trees, "synth")
    return {"sentences": len(trees)}


# subcommand -> (what `_Run` reads, the writers of its products)
PRODUCTS = {
    "parse": ("trees", [_write_parsed, _write_diagnostics]),
    "decompose": ("corpus", [_write_plans]),
    "variants": ("plans", [_write_variants]),
    "strategies": ("corpus", [_write_curves]),
    "features": ("corpus", [_write_features]),
    "fit": ("corpus", [_write_regressions]),
    "classify": ("corpus", [_write_suite]),
    "report-all": ("corpus", [_write_diagnostics, _write_figures, _write_curves,
                              _write_regressions, _write_suite]),
    "synth": (None, [_write_synthetic]),
}


def _run(args):
    """All of the subcommand's products or none: its writers write into a
    temporary directory under --out, and the products are moved into place,
    the manifest last, once every one of them is written. Each writer is a
    stage named after it, and the manifest's write is the `write` stage."""
    reads, writers = PRODUCTS[args.command]
    run = _Run(args, reads)
    out = _outdir(args)
    staging = Path(tempfile.mkdtemp(prefix=".tmp-", dir=out))
    try:
        entries = {}
        for write in writers:
            with run.stage(write.__name__.removeprefix("_write_")):
                entries.update(write(staging, args, run) or {})
        config = {k: v for k, v in vars(args).items() if k != "config"}
        manifest = {"version": __version__, "config": config, "corpus_sha256": run.corpus_hash,
                    "stages": run.stages, **run.manifest, **entries}
        # the write is timed without its own record, then done again with it,
        # both before any move: a failed write leaves no product behind
        with run.stage("write"):
            (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        for path in sorted(staging.iterdir(), key=lambda p: p.name == "manifest.json"):
            path.replace(out / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return EXIT_OK


# the name by which perfbench/tracer.py times `_run` as the span `cli.report_all`
cmd_report_all = _run


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. Each call logs at the
    level DEPLEN_LOG names to the `sys.stderr` of its own time, unless the
    host has put a handler on the root logger."""
    # basicConfig is a no-op where the root logger already has a handler
    logging.basicConfig(handlers=[_Stderr()], format="%(levelname)s %(name)s: %(message)s")
    try:
        log.setLevel(os.environ.get("DEPLEN_LOG", "INFO").upper())
    except ValueError:
        print(f"error: DEPLEN_LOG={os.getenv('DEPLEN_LOG')!r} is not a log level", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return _run(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        print(e.usage, end="", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, analysis.InsufficientDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
