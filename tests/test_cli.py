import contextlib
import csv
import errno
import hashlib
import importlib
import inspect
import io
import json
import logging
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import deplen
from deplen import analysis, cli, features, seeding, stats, treebank, variants
from deplen.analysis import (TABLE3_ROWS, TABLE4_ROWS, PairwiseDataset, SyntheticSpec,
                             eligible_plans, generate_synthetic_corpus)
from deplen.cli import main
from deplen.constituency import ARC_GAP
from deplen.features import extract_features
from deplen.seeding import derive_rng
from deplen.treebank import DependencyTree, to_conllu
from deplen.variants import generate_variants

import oracles
from conftest import corpus_of, heads_tree, parse_text, random_tree, traced
from test_treebank import CONLLU_FIG3, LINE_ALPHABET

SYNTH_FLAGS = ("--sentences", "--p-least-effort", "--noise-temperature")
CORPUS_COMMANDS = ("parse", "decompose", "variants", "strategies", "features", "fit",
                   "classify", "report-all")


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "tiny.conllu"
    # three copies of the worked example, distinct sent_ids on reparse
    path.write_text("\n".join([CONLLU_FIG3] * 3))
    return path


def spec_corpus(path, sentences, k, seed=1):
    """`sentences` synthetic k-constituent sentences with random references."""
    spec = SyntheticSpec(n_sentences=sentences, k_weights=((k, 1.0),), p_least_effort=0.0)
    path.write_text("\n".join(to_conllu(t) for t in generate_synthetic_corpus(spec, seed=seed)))
    return path


def fold_collinear_corpus(path):
    """700 verb-final sentences of two 2-word constituents, each head at
    offset 0 or 1 at random, then one of a 1-word and a 3-word constituent.
    Equal lengths make the two dl deltas sum to 0; the last sentence makes
    them independent over all pairs, but not in the training fold without it."""
    heads = [[5 if off == h else start + h for start, h in ((1, a), (3, b)) for off in (0, 1)]
             + [0] for a, b in np.random.default_rng(0).integers(0, 2, size=(700, 2)).tolist()]
    path.write_text("\n".join(to_conllu(heads_tree(h)) for h in [*heads, [5, 5, 2, 3, 0]]))
    return path


def mixed_corpus(seed, sentences):
    """CoNLL-U text shaped like a treebank: one block in twenty an eligible
    synthetic sentence, the others random trees (most not projective), one
    in fifty spoilt by a bad first line. Every block has a punctuation leaf
    and Devanagari forms, whose characters take 3 bytes each."""
    rng = np.random.default_rng(seed)
    eligible = iter(generate_synthetic_corpus(SyntheticSpec(n_sentences=-(-sentences // 20)),
                                              seed=seed))
    blocks = []
    for i in range(sentences):
        tree = next(eligible) if i % 20 == 0 else random_tree(rng, int(rng.integers(8, 30)))
        n = len(tree)
        tree = DependencyTree([*tree.heads, int(rng.integers(1, n + 1))],
                              [*(f"शब्द{j}" for j in range(1, n + 1)), "।"],
                              [*tree.deprels, "punct"])
        block = to_conllu(tree, f"s{i}")
        blocks.append("garbage\n" + block if i % 50 == 49 else block)
    return "\n".join(blocks)


def synth_corpus(tmp_path, sentences=60, seed=3, p=1.0):
    out = tmp_path / "synth"
    code = main(["synth", "--sentences", str(sentences), "--seed", str(seed),
                 "--p-least-effort", str(p), "--out", str(out)])
    assert code == 0
    return out / "synthetic.conllu"


class TestExitCodes:
    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        assert main(["decompose", "--out", str(tmp_path / "o")]) == 1
        assert "corpus" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert main(["decompose", "--bogus"]) == 1

    def test_unknown_subcommand_rejected(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("level", ["bogus", ""])
    def test_unknown_log_level_is_usage_error(self, corpus_file, tmp_path, capsys,
                                              monkeypatch, level):
        monkeypatch.setenv("DEPLEN_LOG", level)
        out = tmp_path / "o"
        assert main(["decompose", "--corpus", str(corpus_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: DEPLEN_LOG={level!r} is not a log level\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_missing_out_is_usage_error(self, tmp_path, capsys, caplog, command):
        """Found before the corpus is read: nothing is logged, even at INFO
        on a corpus with bad blocks, and a corpus that does not exist is no
        data error."""
        caplog.set_level(logging.INFO, logger="deplen")
        corpus = tmp_path / "mixed.conllu"
        corpus.write_text(mixed_corpus(1, 100))
        for path in (corpus, tmp_path / "nope.conllu"):
            assert main([command, "--corpus", str(path)]) == 1
            err = capsys.readouterr().err.splitlines()
            # the one error line, then argparse's usage
            assert err[0] == "error: --out is required for this subcommand"
            assert err[1].startswith("usage: deplen ") and not any("error" in e for e in err[1:])
            assert caplog.records == []

    @pytest.mark.parametrize("argv, usage", [
        (["synth", "--cap", "1", "--out", "o"], "usage: deplen synth [-h]"),
        (["synth", "--sentences"], "usage: deplen synth [-h]"),
        (["decompose", "--bogus", "--out", "o"], "usage: deplen decompose [-h]"),
        (["decompose", "--out", "o"], "usage: deplen decompose [-h]"),
        (["report-all", "--corpus", "c", "--k-min", "5", "--k-max", "3", "--out", "o"],
         "usage: deplen report-all [-h]"),
        ([], "usage: deplen [-h]"), (["frobnicate"], "usage: deplen [-h]")],
        ids=["range", "no-value", "unknown-flag", "no-corpus", "k-range", "no-command",
             "bad-command"])
    def test_usage_error_prints_its_subcommands_usage(self, capsys, argv, usage):
        """After the error line, the usage of the subcommand whose option or
        check failed, which names that subcommand's options; the top-level
        usage only where no subcommand was parsed."""
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ") and err[1].startswith(usage)
        if argv[:1] == ["synth"]:
            assert "--sentences SENTENCES" in " ".join(err[1:])

    def test_nonexistent_config_is_data_error(self, corpus_file, tmp_path, capsys):
        cfg, out = tmp_path / "nope.cfg", tmp_path / "o"
        assert main(["decompose", "--corpus", str(corpus_file), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {cfg}\n"
        assert not out.exists()

    def test_nonexistent_corpus_is_data_error(self, tmp_path):
        assert main(["decompose", "--corpus", str(tmp_path / "nope.conllu"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag, value, bound", [
        ("--cap", "1", 2), ("--folds", "1", 2), ("--random-draws", "0", 1),
        ("--k-max", "1", 2), ("--k-min", "0", 2), ("--sentences", "-5", 1),
        ("--p-least-effort", "2.0", "in [0.0, 1.0]"), ("--p-least-effort", "nan", "in [0.0, 1.0]"),
        ("--noise-temperature", "-1.0", 0.0)])
    def test_out_of_range_flag_is_usage_error(self, corpus_file, tmp_path,
                                              capsys, flag, value, bound):
        command = "synth" if flag in SYNTH_FLAGS else "report-all"
        out = tmp_path / "o"
        assert main([command, "--corpus", str(corpus_file), flag, value,
                     "--out", str(out)]) == 1
        first = capsys.readouterr().err.splitlines()[0]
        bound = bound if isinstance(bound, str) else f">= {bound}"
        assert first == f"error: argument {flag}: must be {bound}, got {value}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report-all", "synth"])
    def test_out_naming_a_file_is_data_error(self, corpus_file, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        assert main([command, "--corpus", str(corpus_file), "--out", str(afile)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot create output directory {afile}: File exists\n"
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("argv, config", [(["--jobs", "2"], ""), ([], "jobs=2\n")],
                             ids=["flag", "config"])
    def test_jobs_other_than_one_is_usage_error(self, corpus_file, tmp_path,
                                                capsys, argv, config):
        """As a flag a usage error; as a config line a data error naming it."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code = main(["features", "--corpus", str(corpus_file), "--config", str(cfg),
                     *argv, "--out", str(tmp_path / "o")])
        where = f"{cfg}:1: " if config else ""
        assert code == (2 if config else 1)
        assert capsys.readouterr().err.startswith(f"error: {where}argument --jobs: ")

    @pytest.mark.parametrize("command", ["report-all", "classify"])
    @pytest.mark.parametrize("argv, config", [(["--seed", "-1"], ""), ([], "seed=-1\n")],
                             ids=["flag", "config"])
    def test_negative_seed_is_usage_error(self, corpus_file, tmp_path, capsys,
                                          command, argv, config):
        # numpy's default_rng rejects a negative seed with a traceback; as a
        # config line it is a data error naming the line
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        cfg.write_text(config)
        code = main([command, "--corpus", str(corpus_file), "--config", str(cfg),
                     *argv, "--out", str(out)])
        where = f"{cfg}:1: " if config else ""
        assert code == (2 if config else 1)
        err = capsys.readouterr().err
        assert err.splitlines()[0] == f"error: {where}argument --seed: must be >= 0, got -1"
        assert "Traceback" not in err and not out.exists()

    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.conllu"
        corpus.write_bytes("1\tmaa\t2\tdep\n2\td\xed\t0\troot\n".encode("latin-1"))
        assert main(["parse", "--corpus", str(corpus), "--format", "tsv",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: not UTF-8")
        assert len(err.splitlines()) == 1

    def test_bad_byte_after_byte_order_mark_reports_its_file_offset(self, tmp_path, capsys):
        raw = "\ufeff1\tmaa\t2\tdep\n".encode("utf-8") + b"2\td\xed\t0\troot\n"
        corpus = tmp_path / "bom.tsv"
        corpus.write_bytes(raw)
        offset = raw.index(b"\xed")   # in the file, the mark's 3 bytes included
        assert main(["parse", "--corpus", str(corpus), "--format", "tsv",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.endswith(f"at byte {offset})\n")

    @pytest.mark.parametrize("command", ["parse", "variants", "report-all"])
    def test_bad_byte_past_the_first_read_is_data_error(self, tmp_path, capsys, caplog,
                                                        command):
        """The file is read one READ_SIZE block at a time; a bad byte in a
        later block still stops the run before anything is logged or written."""
        raw = mixed_corpus(1, 300).encode() + b"\n1\td\xed\t0\troot\n"
        corpus, out = tmp_path / "late.conllu", tmp_path / "o"
        corpus.write_bytes(raw)
        offset = raw.index(b"\xed")
        assert offset > 2 * cli.READ_SIZE
        assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {corpus}: not UTF-8 (invalid continuation byte at byte {offset})\n"
        assert not caplog.records and not out.exists()

    def test_directory_corpus_is_data_error(self, tmp_path, capsys):
        assert main(["parse", "--corpus", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read corpus {tmp_path}: Is a directory\n"


class TestParse:
    def test_writes_products(self, corpus_file, tmp_path):
        out = tmp_path / "run"
        assert main(["parse", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        assert (out / "parsed.conllu").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sentences"] == 3
        assert manifest["corpus_sha256"]

    def test_byte_order_mark_keeps_first_sentence(self, tmp_path, caplog):
        raw = ("\ufeff" + CONLLU_FIG3).encode("utf-8")
        corpus = tmp_path / "bom.conllu"
        corpus.write_bytes(raw)
        out = tmp_path / "run"
        assert main(["parse", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        trees, _ = parse_text((out / "parsed.conllu").read_text())
        assert trees == parse_text(CONLLU_FIG3)[0]
        assert (out / "diagnostics.csv").read_text().splitlines() == ["line,reason"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["corpus_sha256"] == hashlib.sha256(raw).hexdigest()

    def test_exclude_punct_strips_before_writing(self, tmp_path):
        corpus = tmp_path / "punct.tsv"
        corpus.write_text("1\thi\t2\tdep\n2\tthere\t0\troot\n3\t.\t2\tpunct\n")
        out = tmp_path / "run"
        assert main(["parse", "--corpus", str(corpus), "--format", "tsv",
                     "--exclude-punct", "--out", str(out)]) == 0
        (tree,), _ = parse_text((out / "parsed.conllu").read_text())
        assert tree.forms == ("hi", "there")

    def test_input_not_mutated(self, corpus_file, tmp_path):
        before = corpus_file.read_bytes()
        main(["parse", "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert corpus_file.read_bytes() == before


# The corpus file in bytes: a byte-order mark, every line break that
# str.splitlines() knows (LINE_ALPHABET's) and "\r\n", characters of 2, 3
# and 4 bytes; and bytes that are not UTF-8: a stray continuation byte, bad
# start bytes, a surrogate, overlong and truncated sequences, and a code
# point past U+10FFFF.
UTF8_PIECES = [b"\xef\xbb\xbf", b"\r\n", *(c.encode() for c in LINE_ALPHABET),
               *(c.encode() for c in "é।😀")]
BAD_PIECES = [b"\x80", b"\xff", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe0\x80",
              b"\xe2\x82", b"\xf0\x9f", b"\xf4\x90\x80\x80"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pieces=st.lists(st.sampled_from(UTF8_PIECES), max_size=40), data=st.data(),
       bom=st.booleans(), read_size=st.integers(1, 9))
def test_streamed_reader_matches_whole_file_decode(tmp_path_factory, pieces, data,
                                                   bom, read_size):
    """Read READ_SIZE bytes at a time, the file gives the lines of its whole
    decoded text, byte-order mark removed, and its SHA-256; or, on bytes
    that are not UTF-8, the error that decoding it whole names, at the same
    offset in the file."""
    if data.draw(st.booleans()):
        pieces.insert(data.draw(st.integers(0, len(pieces))), data.draw(st.sampled_from(BAD_PIECES)))
    raw = b"\xef\xbb\xbf" * bom + b"".join(pieces)
    path = tmp_path_factory.mktemp("reader") / "corpus.conllu"
    path.write_bytes(raw)
    try:
        want = raw.decode("utf-8").removeprefix("\ufeff").splitlines()
    except UnicodeDecodeError as e:
        want = f"{path}: not UTF-8 ({e.reason} at byte {e.start})"
    digest = hashlib.sha256()
    with mock.patch.object(cli, "READ_SIZE", read_size):
        try:
            text = cli._read_text(path, "corpus", digest)
            got = [line for _, line in treebank._iter_lines(text)]
        except cli.DataError as e:
            got = str(e)
    assert got == want
    if isinstance(want, list):
        assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()


def _decompose_args(path, *flags):
    """`decompose`'s arguments; `_Run` never makes their --out."""
    return cli._parse_args(cli.build_parser(), ["decompose", "--corpus", str(path),
                                                "--out", str(path.parent / "o"), *flags])


class TestStreamedCorpus:
    @pytest.mark.parametrize("read_size", [1, 7, 4096, cli.READ_SIZE])
    @pytest.mark.parametrize("flags", [(), ("--exclude-punct",)])
    def test_matches_parse_then_decompose(self, tmp_path, read_size, flags):
        text = "\ufeff" + mixed_corpus(2, 120)
        path = tmp_path / "mixed.conllu"
        path.write_text(text)
        with mock.patch.object(cli, "READ_SIZE", read_size):
            run = cli._Run(_decompose_args(path, *flags), "corpus")
        corpus, diagnostics, corpus_hash = run.corpus, run.diagnostics, run.corpus_hash
        trees, want_diagnostics = parse_text(text[1:], exclude_punct=bool(flags))
        want = corpus_of(trees)
        assert corpus.plans and diagnostics
        assert corpus.ids == want.ids and corpus.plans == want.plans
        assert corpus.skipped == want.skipped
        assert diagnostics == want_diagnostics
        assert corpus_hash == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_warnings_once_in_line_order_before_parsed(self, tmp_path, caplog):
        text = mixed_corpus(3, 200)
        path = tmp_path / "mixed.conllu"
        path.write_text(text)
        caplog.set_level(logging.INFO, logger="deplen")
        with mock.patch.object(cli, "READ_SIZE", 1000):
            assert main(["decompose", "--corpus", str(path), "--exclude-punct",
                         "--out", str(tmp_path / "o")]) == 0
        messages = [r.getMessage() for r in caplog.records]
        _, diagnostics = parse_text(text, exclude_punct=True)
        warnings = [f"line {d.line}: {d.reason} (block skipped)" for d in diagnostics]
        assert len(warnings) == 4 and [d.line for d in diagnostics] == \
            sorted(d.line for d in diagnostics)
        assert messages[:len(warnings) + 1] == \
            [*warnings, f"parsed 196 sentences, {len(warnings)} blocks skipped"]

    def test_each_call_logs_to_its_own_stderr_at_its_own_level(self, corpus_file, tmp_path):
        """Calls in one process, each under its own stderr and `DEPLEN_LOG`,
        log to that stderr at that level. Run in a fresh interpreter: the
        root-logger handlers that pytest installs would take the records and
        hide where they go."""
        script = (
            "import contextlib, io, os, sys\n"
            "from deplen.cli import main\n"
            "for level in ('INFO', 'INFO', 'WARNING', 'info'):\n"
            "    os.environ['DEPLEN_LOG'] = level\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        main(['decompose', '--corpus', sys.argv[1], '--out', sys.argv[2]])\n"
            "    print(repr(err.getvalue()))\n")
        src = str(Path(deplen.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(corpus_file), str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0 and proc.stderr == ""
        info = repr("INFO deplen: parsed 3 sentences, 0 blocks skipped\n"
                    "INFO deplen: eligible 3 sentences; skipped: {}\n")
        assert proc.stdout.splitlines() == [info, info, repr(""), info]

    def test_memory_grows_with_the_eligible_plans(self, tmp_path):
        """Each block's tree is decomposed as the block is read, so an
        ineligible one is dropped with its block, and only one READ_SIZE
        block of the file is held at a time. On a 2 MB corpus in which one
        sentence in twenty is eligible, what the decomposed `_Run` keeps (those
        sentences' plans) stays under a quarter of the file, and
        what it allocates beyond that under half of it. Reading the file
        whole held its bytes, its text and every tree: over 4 times it."""
        path = tmp_path / "mixed.conllu"
        path.write_text(mixed_corpus(4, 3000))
        size = path.stat().st_size
        args = _decompose_args(path, "--exclude-punct")
        run, retained, peak = traced(cli._Run, args, "corpus")
        assert size >= 2_000_000
        assert len(run.corpus.ids) == len(run.corpus.plans) == 150
        assert len(run.diagnostics) == 60
        assert retained <= 0.25 * size
        assert peak - retained <= 0.5 * size


class TestDecomposeAndVariants:
    def test_plans_csv(self, corpus_file, tmp_path):
        out = tmp_path / "run"
        assert main(["decompose", "--corpus", str(corpus_file),
                     "--out", str(out)]) == 0
        lines = (out / "plans.csv").read_text().splitlines()
        assert lines[0] == "sentence_id,n_constituents,verb_index,lengths"
        assert len(lines) == 4

    def test_variants_jsonl(self, corpus_file, tmp_path):
        out = tmp_path / "run"
        assert main(["variants", "--corpus", str(corpus_file), "--seed", "7",
                     "--out", str(out)]) == 0
        records = [json.loads(l) for l in
                   (out / "variants.jsonl").read_text().splitlines()]
        assert len(records) == 3 * 24       # reference + 23 variants each
        first = records[0]
        assert set(first) == {"sentence_id", "permutation", "main_verb_dl",
                              "total_dl", "tokens"}
        assert len(first["tokens"]) == 11
        desc = next(r for r in records if r["sentence_id"] == "s1"
                    and r["permutation"] == [3, 2, 1, 0])
        assert " ".join(desc["tokens"]) == \
            "rote hue bacche ko baajaar jaate samaye maa ne toffee di"
        # only the head-to-verb arcs move under permutation
        assert {r["total_dl"] - r["main_verb_dl"] for r in records} == \
            {first["total_dl"] - first["main_verb_dl"]}
        dls = {tuple(r["permutation"]): r["main_verb_dl"] for r in records
               if r["sentence_id"] == "s1"}
        assert max(dls.values()) == 23 and min(dls.values()) == 13

    def test_variants_are_the_orders_of_the_pairwise_dataset(self, tmp_path):
        """Sentence by sentence, the permutations `variants` writes, the
        reference first, are the orders whose feature deltas fill that
        sentence's rows of the pairwise dataset, sampled at k = 5 (5! > cap)."""
        corpus = spec_corpus(tmp_path / "k5.conllu", 40, k=5, seed=2)
        out = tmp_path / "run"
        assert main(["variants", "--corpus", str(corpus), "--cap", "30", "--seed", "4",
                     "--out", str(out)]) == 0
        permutations = {}
        for line in (out / "variants.jsonl").read_text().splitlines():
            record = json.loads(line)
            permutations.setdefault(record["sentence_id"], []).append(
                tuple(record["permutation"]))
        trees, _ = parse_text(corpus.read_text())
        decomposed = corpus_of(trees)
        dataset = analysis.build_pairwise_dataset(decomposed, 30, 4)
        assert list(permutations) == decomposed.ids
        signs = np.where(dataset.labels == 1, 1, -1)[:, None]
        for i, (sentence_id, plan) in enumerate(zip(decomposed.ids, decomposed.plans)):
            reference, *orders = permutations[sentence_id]
            assert plan.k == 5 and reference == (0, 1, 2, 3, 4) and len(orders) == 29
            rows = dataset.sentence == i
            want = [np.subtract(extract_features(plan, reference), extract_features(plan, o))
                    for o in orders]
            got = np.hstack([dataset.dl[rows, -5:], dataset.length[rows, -5:]]) * signs[rows]
            assert got.tolist() == np.array(want).tolist()
        manifest = json.loads((out / "manifest.json").read_text())
        assert sum(map(len, permutations.values())) == len(dataset) + manifest["eligible"]


class TestFeatures:
    def test_rows_are_oriented_pair_deltas(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=30, p=0.5)
        out = tmp_path / "run"
        assert main(["features", "--corpus", str(corpus), "--seed", "4",
                     "--cap", "30", "--out", str(out)]) == 0
        trees, _ = parse_text(corpus.read_text())
        expected, ordinal = {}, 0      # k -> rows in corpus order
        for sentence_id, tree, plan in eligible_plans(trees, {}):
            reference = tuple(range(plan.k))
            ref = extract_features(plan, reference)
            # total_dl: the rebuilt trees' difference, arc by arc
            ref_total = oracles.total_dependency_length(oracles.linearize(tree, plan, reference))
            for order in generate_variants(plan.k, 30, derive_rng(4, sentence_id, "variants")):
                sign = 1 if ordinal % 2 == 0 else -1
                total = oracles.total_dependency_length(oracles.linearize(tree, plan, order))
                delta = [sign * (r - v) for r, v in
                         zip((ref_total, *ref), (total, *extract_features(plan, order)))]
                expected.setdefault(plan.k, []).append(
                    [*map(str, delta), str(int(sign == 1)), sentence_id])
                ordinal += 1
        assert sorted(p.name for p in out.glob("features_k*.csv")) == \
            [f"features_k{k}.csv" for k in sorted(expected)]
        for k, rows in expected.items():
            with (out / f"features_k{k}.csv").open(newline="") as f:
                header, *got = list(csv.reader(f))
            assert header == ["total_dl", *(f"dl_pos{i}" for i in range(1, k + 1)),
                              *(f"len_pos{i}" for i in range(1, k + 1)), "label", "pair_id"]
            assert got == rows
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pairs"] == ordinal

    def test_large_deltas_are_written_exactly(self, tmp_path):
        """A delta of a million or more is written as its integer, as `str`
        writes it, not rounded to six digits."""
        dl = np.array([[1234567, -1234567], [-1234567, 1234567]])
        dataset = PairwiseDataset(dl, dl // 1000, np.array([2, 2], dtype=np.uint8),
                                  np.zeros(2, dtype=np.int32), np.array(["s1"]))
        cli._write_features(tmp_path, None, mock.Mock(dataset=dataset))
        with (tmp_path / "features_k2.csv").open(newline="") as f:
            assert list(csv.reader(f))[1:] == [
                ["0", "1234567", "-1234567", "1234", "-1235", "1", "s1"],
                ["0", "-1234567", "1234567", "-1235", "1234", "0", "s1"]]


class TestReportAll:
    def test_full_run_and_idempotence(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=80)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["report-all", "--corpus", str(corpus), "--seed", "11",
                         "--folds", "5", "--out", str(out)]) == 0
        names = ["fig1_counts.csv", "fig2_profile.csv", "fig4_curves.csv",
                 "table1_regression.json", "table2_regression.json",
                 "table3_accuracy.csv", "table4_accuracy.csv"]
        for name in names:
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert not list(out1.glob(".tmp-*"))

    def test_each_subcommand_writes_its_products_as_report_all_does(self, tmp_path):
        """One writer per product: a subcommand's products are byte-equal to
        report-all's of the same name, and every key that its manifest shares
        with report-all's has the same value, apart from the output directory,
        the subcommand's name and the stage timings."""
        corpus = tmp_path / "bad-first.conllu"
        corpus.write_text("1\tx\t_\t_\t_\t_\tzz\tdep\t_\t_\n\n"
                          + synth_corpus(tmp_path, sentences=40).read_text())
        products = {"parse": ["diagnostics.csv"], "strategies": ["fig4_curves.csv"],
                    "fit": ["table1_regression.json", "table2_regression.json"],
                    "classify": ["table3_accuracy.csv", "table4_accuracy.csv"],
                    "report-all": []}

        def manifest(command):
            manifest = json.loads((tmp_path / command / "manifest.json").read_text())
            del manifest["config"]["out"], manifest["config"]["command"], manifest["stages"]
            return manifest

        for command in products:
            assert main([command, "--corpus", str(corpus), "--folds", "3", "--seed", "2",
                         "--out", str(tmp_path / command)]) == 0
        diagnostics = (tmp_path / "report-all" / "diagnostics.csv").read_text()
        assert diagnostics.splitlines() == ["line,reason", "1,non-integer head 'zz'"]
        report = manifest("report-all")
        for command, names in products.items():
            for name in names:
                assert (tmp_path / command / name).read_bytes() == \
                    (tmp_path / "report-all" / name).read_bytes(), name
            own = manifest(command)
            assert {key: own[key] for key in own.keys() & report.keys()} == \
                {key: report[key] for key in own.keys() & report.keys()}, command
        assert report["parse_diagnostics"] == 1 and report["pairs"] > 0

    def test_failed_rerun_leaves_the_previous_products(self, corpus_file, tmp_path):
        """A rerun into the same --out that fails part way (here its second
        sentence's variants, with a full disk) leaves the previous run's
        products as they were, and no staging directory."""
        out = tmp_path / "o"
        assert main(["variants", "--corpus", str(corpus_file), "--seed", "1",
                     "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        generate, calls = variants.generate_variants, []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return generate(*args)

        with mock.patch.object(variants, "generate_variants", second_fails), \
                pytest.raises(OSError):
            main(["variants", "--corpus", str(corpus_file), "--seed", "2", "--out", str(out)])
        assert len(calls) == 2
        assert sorted(path.name for path in out.iterdir()) == sorted(before)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_manifest_write_leaves_the_previous_products(self, corpus_file, tmp_path):
        """A rerun whose manifest cannot be written (a full disk), after its
        stages are timed, moves none of its products into place."""
        out = tmp_path / "o"
        assert main(["variants", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        write_text = Path.write_text

        def manifest_fails(path, *args, **kwargs):
            if path.name == "manifest.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_text(path, *args, **kwargs)

        with mock.patch.object(Path, "write_text", manifest_fails), pytest.raises(OSError):
            main(["variants", "--corpus", str(corpus_file), "--cap", "2", "--out", str(out)])
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_manifest_records_flagged_folds(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=60)
        for command in ("classify", "report-all"):
            out = tmp_path / command
            assert main([command, "--corpus", str(corpus), "--folds", "5",
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            flagged, unconverged = manifest["flagged_folds"], manifest["unconverged_folds"]
            for folds in (flagged, unconverged):
                assert set(folds["table3"]) == {name for name, _ in TABLE3_ROWS}
                assert set(folds["table4"]) == {name for name, _ in TABLE4_ROWS}
            assert all(f == [] for table in unconverged.values() for f in table.values())
            assert flagged["table3"]["total dependency length"] == []
            # least-effort references put the shortest constituent last
            assert flagged["table4"]["last preverbal constituent length"] == [0, 1, 2, 3, 4]

    def test_manifest_records_min_margins(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=60)
        for command in ("classify", "report-all"):
            out = tmp_path / command
            assert main([command, "--corpus", str(corpus), "--folds", "5",
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            margins = manifest["min_margin"]
            assert set(margins) == {"table3", "table4"}
            assert set(margins["table3"]) == {name for name, _ in TABLE3_ROWS}
            assert set(margins["table4"]) == {name for name, _ in TABLE4_ROWS}
            assert all(0.0 <= m <= 0.5 for table in margins.values() for m in table.values())
        rfecv = manifest["rfecv_min_margin"]
        assert set(rfecv) == {"deplen", "length"}
        assert all(set(per_k) == {"2", "3", "4", "5", "6"} for per_k in rfecv.values())
        ran = [m for per_k in rfecv.values() for m in per_k.values() if m is not None]
        assert ran and all(0.0 <= m <= 0.5 for m in ran)
        tables = json.loads((out / "table1_regression.json").read_text())
        assert all(per_k[k] is None for per_k in rfecv.values() for k in tables
                   if tables[k]["status"] != "ok")
        assert not any("rfecv_min_margin" in table for table in tables.values())

    @pytest.mark.parametrize("command, stages", [
        ("report-all", ["ingest", "diagnostics", "figures", "curves", "pairwise", "regressions",
                        "suite", "write"]),
        ("fit", ["ingest", "pairwise", "regressions", "write"]),
        ("synth", ["synthetic", "write"])])
    def test_manifest_records_stages(self, tmp_path, command, stages):
        """Each stage's wall and CPU seconds, and the peak memory at its end,
        which never falls: the pairwise build ends inside the first writer
        that reads it, and the manifest's write is the last stage."""
        corpus = synth_corpus(tmp_path, sentences=30)
        out = tmp_path / "o"
        assert main([command, "--corpus", str(corpus), "--folds", "3", "--out", str(out)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["stages"]
        assert sorted(recorded) == sorted(stages)
        assert all(record["wall_s"] >= 0 and record["cpu_s"] >= 0
                   and record["peak_rss_source"] == "VmHWM" for record in recorded.values())
        peaks = [recorded[name]["peak_rss_mb"] for name in stages]
        assert 0 < peaks[0] and peaks == sorted(peaks)

    def test_peak_memory_without_proc_is_ru_maxrss(self, monkeypatch):
        """Where /proc/self/status cannot be read, the peak is ru_maxrss, in
        the same unit: this process's high-water mark either way."""
        vmhwm = cli._peak_memory()
        def no_proc(path, *args, **kwargs):
            raise FileNotFoundError(path)
        monkeypatch.setattr(cli, "open", no_proc, raising=False)
        fallback = cli._peak_memory()
        assert (vmhwm["peak_rss_source"], fallback["peak_rss_source"]) == ("VmHWM", "ru_maxrss")
        assert abs(fallback["peak_rss_mb"] - vmhwm["peak_rss_mb"]) <= 0.05 * vmhwm["peak_rss_mb"]

    def test_single_k_corpus_null_correlation(self, tmp_path):
        spec = SyntheticSpec(n_sentences=30, k_weights=((3, 1.0),))
        corpus = tmp_path / "k3.conllu"
        corpus.write_text("\n".join(to_conllu(t) for t in
                                    generate_synthetic_corpus(spec, seed=4)))
        out = tmp_path / "r"
        assert main(["report-all", "--corpus", str(corpus), "--folds", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["eligible"] == 30
        assert manifest["corr_sentence_length_vs_constituents"] is None

    def test_degenerate_corpus_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "one.conllu"
        corpus.write_text(
            "1\ta\t_\t_\t_\t_\t3\tdep\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t3\tdep\t_\t_\n"
            "3\tv\t_\t_\t_\t_\t0\troot\t_\t_\n")
        for command in ("classify", "report-all"):
            out = tmp_path / command
            assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 2
            assert "insufficient data" in capsys.readouterr().err
            # neither leaves a product behind: every subcommand writes all or none
            assert list(out.iterdir()) == []


class TestDegenerateCorpora:
    @pytest.mark.parametrize("command", ["classify", "report-all"])
    def test_k2_only_corpus_names_collinear_row(self, tmp_path, command):
        """Swapping two constituents makes len_last exactly -len_2ndlast: the
        row of both holds len_last, the leftmost, at 0 in every fold, and the
        manifest names it."""
        corpus = spec_corpus(tmp_path / "k2.conllu", 60, k=2)
        out = tmp_path / command
        assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 0
        held = json.loads((out / "manifest.json").read_text())["held_columns"]
        both = "last + 2nd last preverbal constituent length"
        assert held["table4"].pop(both) == {str(f): ["len_last"] for f in range(10)}
        assert all(folds == {} for table in held.values() for folds in table.values())

    @pytest.mark.parametrize("command, sentences, k, folds, message", [
        ("classify", 2, 2, 10, "2 pairs for 10 folds"),
        ("report-all", 2, 2, 10, "2 pairs for 10 folds"),
        ("fit", 100, 3, 600, "500 pairs with k=3 for 600 folds"),
        ("report-all", 100, 3, 600, "500 pairs with k=3 for 600 folds")])
    def test_fewer_pairs_than_folds_is_data_error(self, tmp_path, capsys, command,
                                                  sentences, k, folds, message):
        corpus = spec_corpus(tmp_path / "c.conllu", sentences, k)
        out = tmp_path / command
        assert main([command, "--corpus", str(corpus), "--folds", str(folds),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: insufficient data: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "report-all"])
    def test_fold_collinear_regression_names_family_and_k(self, tmp_path, command):
        """Columns independent over all pairs pass `_drop_collinear`; in the
        one training fold where they are collinear, RFECV's first size holds
        the leftmost at 0, and the manifest names the family, k, size, fold
        and column."""
        corpus = fold_collinear_corpus(tmp_path / "c.conllu")
        out = tmp_path / command
        assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 0
        held = json.loads((out / "manifest.json").read_text())["rfecv_held_columns"]
        assert held["deplen"].pop("2") == {"2": {"1": ["const1_deplen"]}}
        assert all(per_k is None for family in held.values() for per_k in family.values())
        table = json.loads((out / "table1_regression.json").read_text())["2"]
        assert table["status"] == "ok" and table["dropped_collinear"] == []

    @pytest.mark.parametrize("command", ["fit", "classify", "report-all"])
    def test_held_folds_fit_their_other_columns(self, tmp_path, monkeypatch, command):
        """On the fold-collinear corpus every fit that holds a column has the
        textbook fit's coefficients on its other columns, in its map's
        coordinates, to 1e-6 relative; the held ones are 0."""
        fits, fit_folds = [], stats._fit_folds
        def recorded(design, y, weights, maps):
            fits.append((design, y, weights, maps, fit_folds(design, y, weights, maps)))
            return fits[-1][-1]
        monkeypatch.setattr(stats, "_fit_folds", recorded)
        corpus = fold_collinear_corpus(tmp_path / "c.conllu")
        assert main([command, "--corpus", str(corpus), "--out", str(tmp_path / "o")]) == 0
        checked = 0
        for design, y, weights, maps, (beta, _, converged, separation, held) in fits:
            for f in (f for f, columns in enumerate(held) if columns):
                kept = [j for j in range(1, design.shape[1])
                        if maps[f][:, j].any() and j not in held[f]]
                counts = weights[:, f].astype(int)
                assert converged[f]
                want, _ = oracles.fit_logistic(
                    np.repeat((design @ maps[f])[:, kept], counts, axis=0), np.repeat(y, counts),
                    stats.SEPARATION_RIDGE if separation[f] else 0.0)
                got = beta[f, [0, *kept]]
                assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(np.abs(want), 1e-2))
                assert not beta[f, held[f]].any()
                checked += 1
        assert checked == {"fit": 1, "classify": 10, "report-all": 11}[command]

    def test_fit_names_only_the_predictors_it_fitted(self, tmp_path):
        """Two one-word constituents: a swap moves no arc and no word count,
        so every positional delta is 0. Each constant column depends on the
        intercept and is dropped, the last one too, so `selected` names just
        the fit's predictors: none but the intercept."""
        corpus = tmp_path / "c.conllu"
        corpus.write_text("1\ta\t_\t_\t_\t_\t3\tdep\t_\t_\n2\tb\t_\t_\t_\t_\t3\tdep\t_\t_\n"
                          "3\tV\t_\t_\t_\t_\t0\troot\t_\t_\n\n" * 600)
        out = tmp_path / "o"
        assert main(["fit", "--corpus", str(corpus), "--folds", "5", "--out", str(out)]) == 0
        for filename, suffix in (("table1_regression.json", "deplen"),
                                 ("table2_regression.json", "length")):
            table = json.loads((out / filename).read_text())["2"]
            fitted = [row["predictor"] for row in table["fit"]["rows"]]
            assert fitted[0] == "intercept"
            assert table["selected"] == fitted[1:] == []
            assert table["dropped_collinear"] == [f"const1_{suffix}", f"const2_{suffix}"]

    def test_one_row_training_fold_warns_nothing(self, tmp_path):
        """Two k = 2 sentences under --folds 2 train each fold on one row:
        its sample variance is 0, not 0 / 0, so stderr holds only the log.
        Run in a fresh interpreter, where numpy's warnings reach stderr as
        they do from the shell."""
        corpus = spec_corpus(tmp_path / "c.conllu", 2, k=2)
        env = {k: v for k, v in os.environ.items() if k not in ("DEPLEN_LOG", "PYTHONWARNINGS")}
        proc = subprocess.run(
            [sys.executable, "-m", "deplen.cli", "classify", "--corpus", str(corpus),
             "--folds", "2", "--out", str(tmp_path / "o")], capture_output=True, text=True,
            timeout=60, env={**env, "PYTHONPATH": str(Path(deplen.__file__).parents[1])})
        assert proc.returncode == 0
        assert proc.stderr == ("INFO deplen: parsed 2 sentences, 0 blocks skipped\n"
                               "INFO deplen: eligible 2 sentences; skipped: {}\n"
                               "INFO deplen: pairwise dataset: 2 examples\n")

    @pytest.mark.parametrize("corpus", ["k2-only", "one-eligible", "folds-above-pairs",
                                        "fold-collinear"])
    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_never_a_traceback(self, tmp_path, capsys, command, corpus):
        """Every corpus subcommand exits 0, or 2 with one line, on corpora
        that leave a table without the data it needs."""
        path, flags = tmp_path / "c.conllu", []
        if corpus == "k2-only":
            spec_corpus(path, 60, k=2)
        elif corpus == "fold-collinear":
            fold_collinear_corpus(path)
        elif corpus == "one-eligible":   # beside a verb-initial sentence
            path.write_text(CONLLU_FIG3 + "\n1\tv\t_\t_\t_\t_\t0\troot\t_\t_\n"
                            "2\to\t_\t_\t_\t_\t1\tobj\t_\t_\n")
        else:                            # 3 x 23 pairs
            path.write_text("\n".join([CONLLU_FIG3] * 3))
            flags = ["--folds", "70"]
        code = main([command, "--corpus", str(path), *flags, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")


# A small corpus of k 2-6 sentences, and a config file of the options that
# report-all reads, for the mutations below.
ROBUST_CORPUS = "".join(to_conllu(t, f"r{i}") + "\n" for i, t in enumerate(
    generate_synthetic_corpus(SyntheticSpec(n_sentences=12), seed=2)))
ROBUST_CONFIG = ("# report settings\nseed=3\ncap=20\nrandom-draws=2\nk-min=2\nk-max=6\n"
                 "format=conllu\nexclude-punct=no\nconvention=intervening\n")
FIELD_VALUES = ["_", "-1", "999", "1.1", "nan"]
PRODUCT_FILES = {
    "parse": {"parsed.conllu", "diagnostics.csv", "manifest.json"},
    "classify": {"table3_accuracy.csv", "table4_accuracy.csv", "manifest.json"},
    "report-all": {"diagnostics.csv", "fig1_counts.csv", "fig2_profile.csv", "fig4_curves.csv",
                   "table1_regression.json", "table2_regression.json",
                   "table3_accuracy.csv", "table4_accuracy.csv", "manifest.json"}}


@st.composite
def mutated(draw, text: str, sep: str) -> bytes:
    """`text` after 1-3 line mutations, each a field (split at `sep`) set
    to one of FIELD_VALUES, or a line deleted, duplicated or truncated; then
    perhaps a byte-order mark, "\r\n" endings, and one invalid byte."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "delete", "duplicate", "truncate"]))
        if kind == "field":
            fields = lines[i].split(sep)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(FIELD_VALUES))
            lines[i] = sep.join(fields)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    text = "\n".join(lines)
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    raw = b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(BAD_PIECES)) + raw[at:]
    return raw


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):   # not a number
        return True


def _assert_run_outcome(command, code, err, out, usage_error_allowed=False):
    """Exit 0 with every product, finite values and one diagnostics row per
    block skipped; or exit 2 (or 1 for a config file's --k-max below its
    --k-min) with one message line, no traceback and no product."""
    assert "Traceback" not in err
    if code == 0:
        assert {p.name for p in out.iterdir()} == PRODUCT_FILES[command]
        for path in out.glob("*.csv"):
            with path.open() as f:
                assert all(_finite(cell) for row in csv.reader(f) for cell in row), path.name
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=pytest.fail)   # NaN, Infinity
        if command == "classify":
            return
        manifest = json.loads((out / "manifest.json").read_text())
        rows = len((out / "diagnostics.csv").read_text().splitlines()) - 1
        assert manifest["skipped_blocks" if command == "parse" else "parse_diagnostics"] == rows
        return
    if code == 1 and usage_error_allowed:
        assert re.match(r"error: argument --[a-z-]+: must be ", err)
    else:
        assert code == 2 and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists() or not any(out.iterdir())


class TestRobustInputs:
    """Mutated corpora and config files never end in a traceback, a partial
    report or a NaN."""

    @staticmethod
    def run(tmp, corpus: bytes, config: bytes = None,
            commands=(("parse", []), ("report-all", ["--folds", "2"]))) -> dict:
        (tmp / "c.conllu").write_bytes(corpus)
        flags = ["--corpus", str(tmp / "c.conllu")]
        if config is not None:
            (tmp / "run.cfg").write_bytes(config)
            flags += ["--config", str(tmp / "run.cfg")]
        outcomes = {}
        for command, extra in commands:
            out, err = tmp / command, io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, *flags, *extra, "--out", str(out)])
            outcomes[command] = code, err.getvalue(), out
        return outcomes

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(corpus=mutated(ROBUST_CORPUS, "\t"))
    def test_mutated_corpus(self, tmp_path_factory, corpus):
        outcomes = self.run(tmp_path_factory.mktemp("corpus"), corpus)
        for command, (code, err, out) in outcomes.items():
            _assert_run_outcome(command, code, err, out)
        (parsed, _, a), (reported, _, b) = outcomes.values()
        if parsed == reported == 0:
            assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(config=mutated(ROBUST_CONFIG, "="))
    def test_mutated_config(self, tmp_path_factory, config):
        outcomes = self.run(tmp_path_factory.mktemp("config"),
                            ROBUST_CORPUS.encode("utf-8"), config)
        for command, (code, err, out) in outcomes.items():
            _assert_run_outcome(command, code, err, out, usage_error_allowed=True)

    @pytest.mark.parametrize("ks", [(2,), (3,), (6,), (2, 2), (2, 3), (3, 3), (2, 2, 2),
                                    (2, 4, 6)], ids=lambda ks: "k" + "-".join(map(str, ks)))
    def test_tiny_corpus(self, tmp_path, ks):
        """One to three eligible sentences under --folds 2, where a table
        can have fewer pairs than folds and a training fold one row. The
        test settings turn any numpy warning into an error."""
        corpus = "".join(
            to_conllu(tree, f"t{i}") + "\n" for i, k in enumerate(ks)
            for tree in generate_synthetic_corpus(
                SyntheticSpec(n_sentences=1, k_weights=((k, 1.0),), p_least_effort=0.0), seed=i))
        outcomes = self.run(tmp_path, corpus.encode("utf-8"),
                            commands=[(command, ["--folds", "2"])
                                      for command in ("report-all", "classify")])
        for command, (code, err, out) in outcomes.items():
            _assert_run_outcome(command, code, err, out)


class TestTracedCounts:
    """The call counts that the benchmark's traced run checks in closed form
    (`checks.trace_counts` in perfbench/), counted as its tracer counts
    them: each function wrapped in every deplen module that holds it, by
    name or as a module attribute."""

    def test_report_all_call_counts(self, tmp_path, monkeypatch):
        trees = [*generate_synthetic_corpus(SyntheticSpec(n_sentences=12), seed=5),
                 # k = 7 is outside the curves' k range, and 7! > cap
                 *generate_synthetic_corpus(SyntheticSpec(n_sentences=1,
                                                          k_weights=((7, 1.0),)), seed=5),
                 DependencyTree([3, 4, 0, 3], list("abcd"), ["dep"] * 4)]
        corpus = tmp_path / "c.conllu"
        corpus.write_text("\n".join(map(to_conllu, trees)))
        ks = [plan.k for _, _, plan in eligible_plans(trees, {})]
        cap, draws = 30, 3
        assert len(ks) == len(trees) - 1 and set(ks) == {2, 3, 4, 5, 6, 7}

        calls = {fn: 0 for fn in (features.extract_features, variants.generate_variants,
                                  seeding.derive_rng)}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn] += 1
                return fn(*args, **kwargs)
            return wrapper

        for info in pkgutil.iter_modules(deplen.__path__):
            module = importlib.import_module(f"deplen.{info.name}")
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in calls:
                    monkeypatch.setattr(module, attr, counted(value))
        assert main(["report-all", "--corpus", str(corpus), "--cap", str(cap), "--folds", "2",
                     "--random-draws", str(draws), "--out", str(tmp_path / "o")]) == 0
        assert list(calls.values()) == [
            sum(min(math.factorial(k), cap) for k in ks),
            len(ks),
            len(ks) + sum(2 <= k <= 6 for k in ks) * draws]

    def test_report_all_builds_no_tree(self, tmp_path, monkeypatch):
        """The subcommands that decompose read heads columns alone:
        report-all builds no DependencyTree, counted as the tracer counts
        them, while parse, which prints words, builds one per sentence."""
        corpus = tmp_path / "c.conllu"
        corpus.write_text(mixed_corpus(4, 400))
        built = []
        init = DependencyTree.__init__

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DependencyTree, "__init__", counted_init)
        assert main(["report-all", "--corpus", str(corpus), "--folds", "2", "--exclude-punct",
                     "--out", str(tmp_path / "r")]) == 0
        assert built == []
        assert main(["parse", "--corpus", str(corpus), "--out", str(tmp_path / "p")]) == 0
        manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert len(built) == manifest["sentences"] > 0


def test_import_leaves_numpy_random_unloaded():
    """No module reaches numpy.random at import time: numpy 2 loads it,
    19 modules, on the first attribute access, which an unquoted annotation
    makes. The first draw loads it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, deplen.cli\n"
                               "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(deplen.__file__).parents[1])})
    assert proc.returncode == 0 and proc.stdout == "[]\n"


class TestConvention:
    """A positional distance is the intervening words plus 1, on every arc:
    --convention changes the absolute lengths, and no pairwise delta."""

    def test_report_all_changes_only_the_curves(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=60, p=0.5)
        outs = {c: tmp_path / c for c in ARC_GAP}
        for convention, out in outs.items():
            assert main(["report-all", "--corpus", str(corpus), "--seed", "5", "--folds", "5",
                         "--convention", convention, "--out", str(out)]) == 0
        a, b = outs["intervening"], outs["positional"]
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir()) and len(names) == 9
        for name in names:
            if name == "manifest.json":
                ma, mb = (json.loads((out / name).read_text()) for out in (a, b))
                ma.pop("stages"), mb.pop("stages")    # timings differ from run to run
                ca, cb = ma.pop("config"), mb.pop("config")
                assert (ca.pop("convention"), cb.pop("convention")) == ("intervening",
                                                                        "positional")
                assert (ca.pop("out"), cb.pop("out")) == (str(a), str(b))
                assert ca == cb and ma == mb
            elif name != "fig4_curves.csv":
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
        trees = parse_text(corpus.read_text())[0]
        for convention, out in outs.items():
            curves = oracles.strategy_curves(trees, seed=5, convention=convention)
            with (out / "fig4_curves.csv").open() as f:
                rows = list(csv.DictReader(f))
            assert len(rows) == sum(map(len, curves.values()))
            for row in rows:
                assert row["mean_normalized_dl"] == \
                    f"{curves[row['strategy']][int(row['k'])]:.6f}"

    def test_variants_offset_by_k_and_n_minus_1(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=12, p=0.5)
        # a last sentence with two words after the verb, which no order moves
        suffixed = DependencyTree([2, 4, 4, 0, 4, 5], ["a", "b", "c", "V", "d", "e"],
                                  ["dep", "arg", "arg", "root", "obj", "dep"])
        corpus.write_text(corpus.read_text() + "\n" + to_conllu(suffixed))
        records = {}
        for convention in ARC_GAP:
            out = tmp_path / convention
            assert main(["variants", "--corpus", str(corpus), "--seed", "2", "--cap", "30",
                         "--convention", convention, "--out", str(out)]) == 0
            records[convention] = [json.loads(line) for line in
                                   (out / "variants.jsonl").read_text().splitlines()]
        sentences = {sentence_id: (tree, plan) for sentence_id, tree, plan
                     in eligible_plans(parse_text(corpus.read_text())[0], {})}
        assert len(records["intervening"]) == len(records["positional"]) > 12
        for inter, pos in zip(records["intervening"], records["positional"]):
            base, plan = sentences[inter["sentence_id"]]
            assert pos == {**inter, "main_verb_dl": inter["main_verb_dl"] + plan.k,
                           "total_dl": inter["total_dl"] + len(base) - 1}
            tree = oracles.linearize(base, plan, inter["permutation"])   # checked arc by arc
            verb = tree.heads.index(0) + 1
            for convention, record in (("intervening", inter), ("positional", pos)):
                assert record["tokens"] == list(tree.forms)
                assert record["main_verb_dl"] == sum(
                    oracles.arc_distance(d, verb, convention)
                    for d in range(1, verb) if tree.heads[d - 1] == verb)
                assert record["total_dl"] == oracles.total_dependency_length(tree, convention)
        assert [r["tokens"] for r in records["positional"] if r["sentence_id"] == "s13"] == \
            [["a", "b", "c", "V", "d", "e"], ["c", "a", "b", "V", "d", "e"]]


class TestConfigFile:
    def test_file_values_applied_and_flags_win(self, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cap=50\nseed=99\n")
        out = tmp_path / "run"
        assert main(["variants", "--corpus", str(corpus_file),
                     "--config", str(cfg), "--seed", "7",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["cap"] == 50       # from file
        assert manifest["config"]["seed"] == 7       # flag overrides file

    def test_out_of_range_value_rejected(self, corpus_file, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        for command, line, expected in [
                ("variants", "cap=1", "--cap: must be >= 2, got 1"),
                ("synth", "noise-temperature=-0.5", "--noise-temperature: must be >= 0.0, got -0.5")]:
            cfg.write_text(line + "\n")
            assert main([command, "--corpus", str(corpus_file),
                         "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {cfg}:1: argument {expected}\n"
            assert not out.exists()

    def test_explicit_flag_at_default_wins(self, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n")
        out = tmp_path / "run"
        assert main(["variants", "--corpus", str(corpus_file),
                     "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 0

    @pytest.mark.parametrize("line", ["cap=abc", "convention=bogus",
                                      "folds=1", "format=xml",
                                      "exclude-punct=ture", "config=other.cfg",
                                      "caps-lock=1"])
    def test_bad_typed_value_is_data_error(self, corpus_file, tmp_path,
                                           capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run settings\n{line}\n")
        out = tmp_path / "o"
        assert main(["report-all", "--corpus", str(corpus_file),
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        key = line.split("=")[0]
        assert err[0].startswith(f"error: {cfg}:2: argument --{key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["_", "-1", ""])
    def test_key_not_spelled_like_an_option_is_named_as_written(self, corpus_file, tmp_path,
                                                                capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# run settings\n{key}=5\n")
        out = tmp_path / "o"
        assert main(["report-all", "--corpus", str(corpus_file),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown config key {key!r}\n"
        assert not out.exists()

    def test_unknown_key_rejected(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # --zscore is no option: every CV fit standardizes by its own training fold
        for line, flag in (("caps_lock=1", "--caps-lock"), ("zscore=global", "--zscore")):
            cfg.write_text(line + "\n")
            assert main(["variants", "--corpus", str(corpus_file),
                         "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == \
                f"error: {cfg}:1: argument {flag}: unknown config key\n"

    def test_non_utf8_file_is_data_error(self, corpus_file, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        cfg.write_bytes(b"seed=1\ncap=5\xff\n")
        assert main(["decompose", "--corpus", str(corpus_file), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}: not UTF-8 (invalid start byte at byte 12)\n"
        assert not out.exists()

    def test_directory_is_data_error(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["decompose", "--corpus", str(corpus_file), "--config", str(tmp_path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot read config file {tmp_path}: Is a directory\n"
        assert not out.exists()

    def test_byte_order_mark_is_not_part_of_the_first_key(self, corpus_file, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        cfg.write_bytes("\ufeffseed=5\ncap=7\n".encode("utf-8"))
        assert main(["decompose", "--corpus", str(corpus_file), "--config", str(cfg),
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["seed"], config["cap"]) == (5, 7)


NOT_INTS = ["nan", "inf", "2.5", "two", ""]
NOT_FLOATS = ["nan", "inf", "-inf", "two", ""]
# option -> (its subcommand, values it accepts, values it rejects): the edges of
# its range on both sides, where the range has two
RANGES = {
    "--cap": ("variants", ["2", "100"], ["1", "-2", *NOT_INTS]),
    "--folds": ("fit", ["2"], ["1", *NOT_INTS]),
    "--k-min": ("report-all", ["2", "6"], ["1", *NOT_INTS]),
    "--k-max": ("report-all", ["2"], ["1", *NOT_INTS]),
    "--random-draws": ("strategies", ["1"], ["0", *NOT_INTS]),
    "--seed": ("classify", ["0"], ["-1", *NOT_INTS]),
    "--jobs": ("features", ["1"], ["0", "2", *NOT_INTS]),
    "--sentences": ("synth", ["1"], ["0", *NOT_INTS]),
    "--p-least-effort": ("synth", ["0", "1.0"],
                         ["-5e-324", "1.0000000000000002", *NOT_FLOATS]),
    "--noise-temperature": ("synth", ["0.0", "5e-324", "inf"],
                            ["-5e-324", *(v for v in NOT_FLOATS if v != "inf")]),
}


class TestOptionRanges:
    """Each option's range is checked by its own type, so a flag and a
    config line take one path: they accept the same values, to the same
    result, and reject the same with the same message, a usage error for
    the flag and a data error naming its line for the config file."""

    @staticmethod
    def parse(command, tmp_path, flags=(), config=None):
        """`_parse_args` on a fresh parser; the corpus is never read."""
        argv = [command, "--corpus", str(tmp_path / "c.conllu"), "--out", str(tmp_path / "o")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        return cli._parse_args(cli.build_parser(), [*argv, *flags])

    def test_table_covers_every_numeric_option(self):
        parser = cli.build_parser()
        numeric = {action.option_strings[0] for command in ("report-all", "synth")
                   for action in parser.subcommands[command]._actions
                   if getattr(action.type, "__name__", None) in ("int", "float")}
        assert numeric == set(RANGES)

    @pytest.mark.parametrize("flag, value", [(flag, value) for flag, (_, ok, _) in RANGES.items()
                                             for value in ok])
    def test_flag_and_config_line_accept_alike(self, tmp_path, flag, value):
        command = RANGES[flag][0]
        by_flag = vars(self.parse(command, tmp_path, [f"{flag}={value}"]))
        by_file = vars(self.parse(command, tmp_path, config=f"{flag[2:]}={value}\n"))
        assert by_flag.pop("config") is None and by_file.pop("config")
        assert by_flag == by_file
        assert by_flag[flag[2:].replace("-", "_")] == float(value)

    @pytest.mark.parametrize("flag, value", [(flag, value) for flag, (_, _, bad) in RANGES.items()
                                             for value in bad])
    def test_flag_and_config_line_reject_alike(self, tmp_path, flag, value):
        command = RANGES[flag][0]
        with pytest.raises(cli.UsageError) as by_flag:
            self.parse(command, tmp_path, [f"{flag}={value}"])
        with pytest.raises(cli.DataError) as by_file:
            self.parse(command, tmp_path, config=f"{flag[2:]}={value}\n")
        assert str(by_flag.value).startswith(f"argument {flag}: ")
        assert str(by_file.value) == f"{tmp_path / 'run.cfg'}:1: {by_flag.value}"

    @pytest.mark.parametrize("flags, config", [
        (["--k-min", "4", "--k-max", "3"], None), (["--k-max", "3"], "k-min=4\n"),
        (["--k-min", "4"], "k-max=3\n"), ([], "k-min=4\nk-max=3\n")],
        ids=["flags", "k-min-in-file", "k-max-in-file", "file"])
    def test_k_max_below_k_min_is_usage_error(self, tmp_path, flags, config):
        with pytest.raises(cli.UsageError, match=r"^argument --k-max: must be >= 4, got 3$"):
            self.parse("report-all", tmp_path, flags, config)

    def test_bad_flag_reported_before_bad_config_line(self, tmp_path):
        with pytest.raises(cli.UsageError, match=r"^argument --seed: must be >= 0, got -1$"):
            self.parse("variants", tmp_path, ["--seed", "-1"], config="cap=abc\n")

    def test_bad_config_line_rejected_under_a_good_flag(self, tmp_path):
        with pytest.raises(cli.DataError, match=r":1: argument --cap: must be >= 2, got 1$"):
            self.parse("variants", tmp_path, ["--cap", "5"], config="cap=1\n")


class TestSynth:
    def test_synth_then_decompose(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=40)
        out = tmp_path / "dec"
        assert main(["decompose", "--corpus", str(corpus), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["eligible"] == 40

    def test_synth_deterministic(self, tmp_path):
        a = synth_corpus(tmp_path / "a", sentences=25, seed=5)
        b = synth_corpus(tmp_path / "b", sentences=25, seed=5)
        assert a.read_bytes() == b.read_bytes()
