"""Command-line entry point.

Subcommands: parse, decompose, variants, strategies, features, fit,
classify, synth, report-all. Progress goes to stderr; data products only
under --out. Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import csv
import hashlib
import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, analysis, constituency, features, treebank, variants
from .seeding import derive_rng

log = logging.getLogger("deplen")

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2
# inclusive (low, high) bounds; synth's options are absent from other subcommands
BOUNDS = {"cap": (2, None), "folds": (2, None), "random_draws": (1, None), "k_min": (2, None),
          "sentences": (1, None), "p_least_effort": (0.0, 1.0), "noise_temperature": (0.0, None)}
SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--corpus", help="input corpus path")
    p.add_argument("--format", default="conllu", choices=list(treebank.FORMATS))
    p.add_argument("--cap", type=int, default=variants.DEFAULT_CAP,
                   help="variant sampling ceiling per sentence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--zscore", default="fold", choices=["fold", "global"])
    p.add_argument("--random-draws", type=int, default=10,
                   help="seeded draws per sentence for random/least-effort curves")
    p.add_argument("--jobs", type=int, default=1,
                   help="must be 1: the pairwise build is serial")
    p.add_argument("--out", help="output directory")
    p.add_argument("--exclude-punct", action="store_true",
                   help="drop punctuation tokens before all distance metrics")
    p.add_argument("--convention", default="intervening",
                   choices=["intervening", "positional"])


def build_parser() -> _Parser:
    parser = _Parser(prog="deplen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["parse", "decompose", "variants", "strategies", "features",
                 "fit", "classify", "report-all"]:
        _add_common(sub.add_parser(name))
    synth = sub.add_parser("synth")
    _add_common(synth)
    synth.add_argument("--sentences", type=int, default=1000)
    synth.add_argument("--p-least-effort", type=float, default=1.0)
    synth.add_argument("--noise-temperature", type=float, default=0.0)
    parser.subcommands = sub.choices
    return parser


def _config_defaults(path: Path, subparser) -> dict:
    """The file's key=value lines, each converted and checked by the
    subcommand's own option, as a dict of defaults."""
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    defaults = vars(subparser.parse_args([]))
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        flag = f"--{key.replace('_', '-')}"
        if key not in defaults:
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
    """Parse argv; values from a --config file become the subcommand's
    defaults, so flags given on the command line win over them."""
    args = parser.parse_args(argv)
    if args.config:
        subparser = parser.subcommands[args.command]
        subparser.set_defaults(**_config_defaults(Path(args.config), subparser))
        args = parser.parse_args(argv)
    bounds = {**BOUNDS, "k_max": (args.k_min, None)}   # flags and config file alike
    for key, (lo, hi) in bounds.items():
        value = getattr(args, key, lo)
        if not value >= lo or (hi is not None and not value <= hi):   # NaN fails too
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise UsageError(f"argument --{key.replace('_', '-')}: must be {bound}, got {value}")
    if args.jobs != 1:
        raise UsageError(f"argument --jobs: the pairwise build is serial, "
                         f"only 1 is accepted, got {args.jobs}")
    return args


def _load_corpus(args):
    if not args.corpus:
        raise UsageError("--corpus is required for this subcommand")
    path = Path(args.corpus)
    if not path.exists():
        raise DataError(f"corpus file not found: {path}")
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read corpus {path}: {e.strerror}")
    corpus_hash = hashlib.sha256(raw).hexdigest()
    try:   # not the utf-8-sig codec: its error offsets miss the mark's 3 bytes
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})")
    del raw   # the parse holds only the text
    trees, diagnostics = treebank.parse_corpus(text, args.format, args.exclude_punct)
    for d in diagnostics:
        log.warning("line %d: %s (block skipped)", d.line, d.reason)
    log.info("parsed %d sentences, %d blocks skipped", len(trees), len(diagnostics))
    return trees, diagnostics, corpus_hash


def _outdir(args) -> Path:
    if not args.out:
        raise UsageError("--out is required for this subcommand")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {out}: {e.strerror}")
    return out


def _write_manifest(out: Path, args, corpus_hash, extra):
    resolved = {k: v for k, v in vars(args).items() if k != "config"}
    manifest = {"version": __version__, "config": resolved,
                "corpus_sha256": corpus_hash, **extra}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


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


def _write_diagnostics(out: Path, diagnostics):
    _write_csv(out / "diagnostics.csv", ["line", "reason"],
               [(d.line, d.reason) for d in diagnostics])


# ---------------------------------------------------------------------------
# subcommands

def cmd_parse(args):
    trees, diagnostics, corpus_hash = _load_corpus(args)
    out = _outdir(args)
    _write_conllu(out / "parsed.conllu", trees, "s")
    _write_diagnostics(out, diagnostics)
    _write_manifest(out, args, corpus_hash,
                    {"sentences": len(trees), "skipped_blocks": len(diagnostics)})
    return EXIT_OK


def _decomposed(args):
    trees, diagnostics, corpus_hash = _load_corpus(args)
    corpus = analysis.decompose_corpus(trees)
    log.info("eligible %d sentences; skipped: %s", len(corpus.entries), corpus.skipped)
    return corpus, diagnostics, corpus_hash


def cmd_decompose(args):
    corpus, diagnostics, corpus_hash = _decomposed(args)
    out = _outdir(args)
    rows = [(e.sentence_id, e.plan.k, e.plan.verb_index,
             " ".join(map(str, e.plan.lengths))) for e in corpus.entries]
    _write_csv(out / "plans.csv",
               ["sentence_id", "n_constituents", "verb_index", "lengths"], rows)
    _write_manifest(out, args, corpus_hash,
                    {"eligible": len(corpus.entries), "skipped": corpus.skipped,
                     "parse_diagnostics": len(diagnostics)})
    return EXIT_OK


def cmd_variants(args):
    corpus, diagnostics, corpus_hash = _decomposed(args)
    out = _outdir(args)
    with (out / "variants.jsonl").open("w") as f:
        for e in corpus.entries:
            vset = variants.generate_variants(
                e.plan, args.cap, derive_rng(args.seed, e.sentence_id, "variants"))
            for order in (vset.reference_order,) + vset.sampled_variants:
                dls, total = constituency.order_dl(e.plan, order, args.convention)
                record = {
                    "sentence_id": e.sentence_id,
                    "permutation": list(order),
                    "main_verb_dl": sum(dls),
                    "total_dl": total,
                    "tokens": [form for ci in order for form in e.plan.preverbal[ci].forms]
                              + list(e.plan.postverbal_suffix),
                }
                f.write(json.dumps(record) + "\n")
    _write_manifest(out, args, corpus_hash,
                    {"eligible": len(corpus.entries), "skipped": corpus.skipped})
    return EXIT_OK


def _write_curves(out: Path, args, corpus):
    curves = analysis.strategy_curves(
        corpus, seed=args.seed, random_draws=args.random_draws,
        k_range=(args.k_min, args.k_max), convention=args.convention)
    _write_csv(out / "fig4_curves.csv", ["k", "strategy", "mean_normalized_dl"],
               [(k, strategy, f"{value:.6f}")
                for strategy, per_k in curves.items()
                for k, value in per_k.items()])


def cmd_strategies(args):
    corpus, _, corpus_hash = _decomposed(args)
    out = _outdir(args)
    _write_curves(out, args, corpus)
    _write_manifest(out, args, corpus_hash, {"eligible": len(corpus.entries)})
    return EXIT_OK


def _dataset(args, corpus):
    return analysis.build_pairwise_dataset(
        corpus, cap=args.cap, seed=args.seed, convention=args.convention)


def _dataset_command(args, write):
    """features, fit and classify: the pairwise dataset, `write`'s products,
    and the manifest entries `write` returns."""
    corpus, _, corpus_hash = _decomposed(args)
    out = _outdir(args)
    dataset = _dataset(args, corpus)
    extra = write(out, args, dataset) or {}
    _write_manifest(out, args, corpus_hash, {"pairs": len(dataset), **extra})
    return EXIT_OK


def _write_features(out: Path, args, dataset):
    labels, width = dataset.labels, dataset.dl.shape[1]
    for k in sorted(set(dataset.ks.tolist())):
        rows = dataset.ks == k
        deltas = np.column_stack([dataset.total_dl[rows], dataset.dl[rows, width - k:],
                                  dataset.length[rows, width - k:]])
        _write_csv(out / f"features_k{k}.csv",
                   features.feature_names(k) + ["label", "pair_id"],
                   [[*(f"{v:g}" for v in row), label, pair_id] for row, label, pair_id
                    in zip(deltas.tolist(), labels[rows].tolist(),
                           dataset.sentence_ids[rows].tolist())])


def cmd_features(args):
    return _dataset_command(args, _write_features)


def _write_regressions(out: Path, args, dataset):
    margins = {}
    for family, filename in (("deplen", "table1_regression.json"),
                             ("length", "table2_regression.json")):
        per_k = {str(k): analysis.regression_table(
                     dataset, k, family, folds=args.folds, seed=args.seed)
                 for k in range(args.k_min, args.k_max + 1)}
        margins[family] = {k: table.pop("rfecv_min_margin", None) for k, table in per_k.items()}
        (out / filename).write_text(json.dumps(per_k, indent=2))
    return {"rfecv_min_margin": margins}


def cmd_fit(args):
    return _dataset_command(args, _write_regressions)


def _write_suite(out: Path, args, dataset):
    try:
        rows = analysis.run_classification_suite(
            dataset, folds=args.folds, seed=args.seed, zscore_mode=args.zscore)
    except analysis.InsufficientDataError as e:
        raise DataError(str(e))
    flagged, margins = {}, {}
    for table, filename in (("table3", "table3_accuracy.csv"),
                            ("table4", "table4_accuracy.csv")):
        table_rows = [r for r in rows if r["table"] == table]
        _write_csv(out / filename,
                   ["predictors", "accuracy_pct", "mcnemar_p_vs_prev"],
                   [(r["predictors"], f"{100 * r['accuracy']:.2f}",
                     "" if r["mcnemar_p"] is None else f"{r['mcnemar_p']:.3g}")
                    for r in table_rows])
        flagged[table] = {r["predictors"]: r["flagged_folds"] for r in table_rows}
        margins[table] = {r["predictors"]: r["min_margin"] for r in table_rows}
    return {"flagged_folds": flagged, "min_margin": margins}


def cmd_classify(args):
    return _dataset_command(args, _write_suite)


def cmd_synth(args):
    out = _outdir(args)
    spec = analysis.SyntheticSpec(
        n_sentences=args.sentences,
        p_least_effort=args.p_least_effort,
        noise_temperature=args.noise_temperature)
    trees = analysis.generate_synthetic_corpus(spec, seed=args.seed)
    _write_conllu(out / "synthetic.conllu", trees, "synth")
    _write_manifest(out, args, None, {"sentences": len(trees)})
    return EXIT_OK


def cmd_report_all(args):
    """All products or none: they are written into a temporary directory
    under --out and moved into place, the manifest last, once every one of
    them is written."""
    corpus, diagnostics, corpus_hash = _decomposed(args)
    out = _outdir(args)
    staging = Path(tempfile.mkdtemp(prefix=".tmp-", dir=out))
    try:
        _write_report(staging, args, corpus, diagnostics, corpus_hash)
        for path in sorted(staging.iterdir(), key=lambda p: p.name == "manifest.json"):
            path.replace(out / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return EXIT_OK


def _write_report(out: Path, args, corpus, diagnostics, corpus_hash):
    _write_diagnostics(out, diagnostics)
    ref_hist, var_hist = analysis.constituent_count_histogram(corpus, args.cap)
    _write_csv(out / "fig1_counts.csv", ["k", "reference_pct", "variant_pct"],
               [(k, f"{ref_hist.get(k, 0.0):.4f}", f"{var_hist.get(k, 0.0):.4f}")
                for k in sorted(set(ref_hist) | set(var_hist))])

    profile_rows = []
    for k in range(args.k_min, args.k_max + 1):
        try:
            profile = analysis.position_length_profile(corpus, k)
        except analysis.InsufficientDataError:
            continue
        profile_rows.extend(
            (k, pos + 1, f"{mean:.4f}") for pos, mean in enumerate(profile))
    _write_csv(out / "fig2_profile.csv", ["k", "position", "mean_length"], profile_rows)

    _write_curves(out, args, corpus)
    dataset = _dataset(args, corpus)
    log.info("pairwise dataset: %d examples", len(dataset))
    fit_health = {**_write_regressions(out, args, dataset),
                  **_write_suite(out, args, dataset)}

    _write_manifest(out, args, corpus_hash, {
        **fit_health,
        "eligible": len(corpus.entries),
        "skipped": corpus.skipped,
        "parse_diagnostics": len(diagnostics),
        "pairs": len(dataset),
        "corr_sentence_length_vs_constituents":
            analysis.sentence_length_constituent_corr(corpus),
    })


COMMANDS = {
    "parse": cmd_parse,
    "decompose": cmd_decompose,
    "variants": cmd_variants,
    "strategies": cmd_strategies,
    "features": cmd_features,
    "fit": cmd_fit,
    "classify": cmd_classify,
    "synth": cmd_synth,
    "report-all": cmd_report_all,
}


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("DEPLEN_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
