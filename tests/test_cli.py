import csv
import hashlib
import json

import pytest

from deplen.analysis import (TABLE3_ROWS, TABLE4_ROWS, SyntheticSpec, decompose_corpus,
                             generate_synthetic_corpus)
from deplen.cli import main
from deplen.features import extract_features, feature_names
from deplen.seeding import derive_rng
from deplen.treebank import parse_corpus, to_conllu
from deplen.variants import generate_variants

from test_treebank import CONLLU_FIG3

SYNTH_FLAGS = ("--sentences", "--p-least-effort", "--noise-temperature")


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "tiny.conllu"
    # three copies of the worked example, distinct sent_ids on reparse
    path.write_text("\n".join([CONLLU_FIG3] * 3))
    return path


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
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["features", "--corpus", str(corpus_file), "--config", str(cfg),
                     *argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: argument --jobs: ")

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
        trees, _ = parse_corpus((out / "parsed.conllu").read_text())
        assert trees == parse_corpus(CONLLU_FIG3)[0]
        assert (out / "diagnostics.csv").read_text().splitlines() == ["line,reason"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["corpus_sha256"] == hashlib.sha256(raw).hexdigest()

    def test_exclude_punct_strips_before_writing(self, tmp_path):
        corpus = tmp_path / "punct.tsv"
        corpus.write_text("1\thi\t2\tdep\n2\tthere\t0\troot\n3\t.\t2\tpunct\n")
        out = tmp_path / "run"
        assert main(["parse", "--corpus", str(corpus), "--format", "tsv",
                     "--exclude-punct", "--out", str(out)]) == 0
        (tree,), _ = parse_corpus((out / "parsed.conllu").read_text())
        assert tree.forms == ("hi", "there")

    def test_input_not_mutated(self, corpus_file, tmp_path):
        before = corpus_file.read_bytes()
        main(["parse", "--corpus", str(corpus_file), "--out", str(tmp_path / "o")])
        assert corpus_file.read_bytes() == before


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


class TestFeatures:
    def test_rows_are_oriented_pair_deltas(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=30, p=0.5)
        out = tmp_path / "run"
        assert main(["features", "--corpus", str(corpus), "--seed", "4",
                     "--cap", "30", "--out", str(out)]) == 0
        trees, _ = parse_corpus(corpus.read_text())
        entries = decompose_corpus(trees).entries
        expected, ordinal = {}, 0      # k -> rows in corpus order
        for e in entries:
            vset = generate_variants(e.plan, 30, derive_rng(4, e.sentence_id, "variants"))
            ref = extract_features(e.plan, vset.reference_order)
            for order in vset.sampled_variants:
                sign = 1 if ordinal % 2 == 0 else -1
                delta = [sign * (r - v) for r, v in
                         zip(ref, extract_features(e.plan, order))]
                expected.setdefault(e.plan.k, []).append(
                    [*map(str, delta), str(int(sign == 1)), e.sentence_id])
                ordinal += 1
        assert sorted(p.name for p in out.glob("features_k*.csv")) == \
            [f"features_k{k}.csv" for k in sorted(expected)]
        for k, rows in expected.items():
            with (out / f"features_k{k}.csv").open(newline="") as f:
                header, *got = list(csv.reader(f))
            assert header == feature_names(k) + ["label", "pair_id"]
            assert got == rows
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pairs"] == ordinal


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

    def test_diagnostics_for_skipped_blocks(self, tmp_path):
        corpus = tmp_path / "bad-first.conllu"
        corpus.write_text("1\tx\t_\t_\t_\t_\tzz\tdep\t_\t_\n\n"
                          + synth_corpus(tmp_path, sentences=40).read_text())
        for command in ("parse", "report-all"):
            assert main([command, "--corpus", str(corpus), "--folds", "3",
                         "--out", str(tmp_path / command)]) == 0
        diagnostics = (tmp_path / "report-all" / "diagnostics.csv").read_text()
        assert diagnostics.splitlines() == ["line,reason", "1,non-integer head 'zz'"]
        assert diagnostics == (tmp_path / "parse" / "diagnostics.csv").read_text()
        manifest = json.loads((tmp_path / "report-all" / "manifest.json").read_text())
        assert manifest["parse_diagnostics"] == 1

    def test_manifest_records_flagged_folds(self, tmp_path):
        corpus = synth_corpus(tmp_path, sentences=60)
        for command in ("classify", "report-all"):
            out = tmp_path / command
            assert main([command, "--corpus", str(corpus), "--folds", "5",
                         "--out", str(out)]) == 0
            flagged = json.loads((out / "manifest.json").read_text())["flagged_folds"]
            assert set(flagged["table3"]) == {name for name, _ in TABLE3_ROWS}
            assert set(flagged["table4"]) == {name for name, _ in TABLE4_ROWS}
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
            # neither leaves a product behind: report-all writes all or none
            assert list(out.iterdir()) == []


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
                         "--config", str(cfg), "--out", str(out)]) == 1
            assert f"error: argument {expected}" in capsys.readouterr().err
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
                                      "zscore=bogus", "format=xml",
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

    def test_unknown_key_rejected(self, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("caps_lock=1\n")
        assert main(["variants", "--corpus", str(corpus_file),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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
