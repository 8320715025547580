"""Fast schema test of the benchmark itself: every workload at a tiny size,
untraced and traced, emits every metric that BENCHMARK.json names, with its
unit, and the product checks catch what they should.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import corpora
import run

TINY = {"long-k6": 4, "default-mix": 30, "ingest": 200}
SMOKE_SEED = 7   # not the golden seed: tiny corpora have no golden copies


@pytest.fixture(autouse=True)
def few_launches(monkeypatch):
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    monkeypatch.setattr(run, "TRACE_BASE_RUNS", 1)


def benchmark_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_runner():
    spec = benchmark_spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in run.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_emits_every_metric(name, trace):
    workload = replace(run.WORKLOADS[name], sentences=TINY[name])
    result = run.run_workload(workload, SMOKE_SEED, 0.0, trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    provenance = result["provenance"]
    assert provenance["pinned_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "report-all" in provenance["report_argv"] and provenance["numpy"]


def test_ingest_plants_every_kind():
    corpus = corpora.ingest_corpus(SMOKE_SEED, 2000)
    assert set(corpus.skipped) == {corpora.NON_PROJECTIVE, corpora.NO_PREVERBAL,
                                   corpora.SINGLE}
    assert set(corpus.parse_diagnostics) == set(corpora.MALFORMED)
    assert corpus.text == corpora.ingest_corpus(SMOKE_SEED, 2000).text


def _products(tmp_path, corpus):
    for name in checks.PRODUCTS:
        (tmp_path / name).write_text("k,value\n2,0.5\n")
    (tmp_path / "table1_regression.json").write_text('{"a": [1.0, 2]}')
    (tmp_path / "table2_regression.json").write_text('{"a": [1.0, 2]}')
    (tmp_path / "manifest.json").write_text(json.dumps({
        "pairs": corpus.expected_pairs, "eligible": len(corpus.eligible_ks),
        "skipped": corpus.skipped,
        "parse_diagnostics": sum(corpus.parse_diagnostics.values())}))


def test_checks_catch_bad_products(tmp_path):
    corpus = corpora.ingest_corpus(SMOKE_SEED, 200)
    out, golden = tmp_path / "out", tmp_path / "golden"
    out.mkdir()
    golden.mkdir()
    _products(out, corpus)
    _products(golden, corpus)
    assert checks.finite_products(out) == []
    assert checks.manifest_counts(out, corpus) == []
    assert checks.golden_products(out, golden) == []

    (out / "table2_regression.json").write_text('{"a": [1.0000000000005, 2]}')
    assert checks.golden_products(out, golden) == []        # within 1e-12
    (out / "table2_regression.json").write_text('{"a": [1.00001, 2]}')
    assert checks.golden_products(out, golden)
    (out / "fig4_curves.csv").write_text("k,value\n2,nan\n")
    assert checks.finite_products(out)
    assert checks.golden_products(out, golden)
    (out / "table1_regression.json").write_text('{"a": NaN}')
    assert checks.finite_products(out)
    corpus.eligible_ks.append(3)
    assert checks.manifest_counts(out, corpus)
    (out / "fig1_counts.csv").unlink()
    assert checks.finite_products(out)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    spec = benchmark_spec()
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
