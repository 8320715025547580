"""Correctness checks on the products of one `deplen report-all` run.

Every check returns a list of problems; an empty list means the run passed.
"""

import json
import math
from pathlib import Path

PRODUCTS = ("fig1_counts.csv", "fig2_profile.csv", "fig4_curves.csv",
            "table1_regression.json", "table2_regression.json",
            "table3_accuracy.csv", "table4_accuracy.csv", "manifest.json")
GOLDEN_FLOAT_TOL = 1e-12   # where float summation order changes


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _load_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def finite_products(out: Path) -> list:
    """All products present, and no NaN or inf in any of them."""
    problems = []
    for name in PRODUCTS:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        if name.endswith(".json"):
            try:
                _load_json(path)
            except ValueError as e:
                problems.append(f"{name}: {e}")
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{name}:{lineno}: non-finite value {cell!r}")
    return problems


def manifest_counts(out: Path, corpus) -> list:
    """Pairs, eligible sentences, skip reasons and parse diagnostics agree
    with what the corpus generator planted."""
    try:
        manifest = _load_json(out / "manifest.json")
    except (OSError, ValueError) as e:
        return [f"manifest.json: {e}"]
    expected = {"pairs": corpus.expected_pairs,
                "eligible": len(corpus.eligible_ks),
                "skipped": corpus.skipped,
                "parse_diagnostics": sum(corpus.parse_diagnostics.values())}
    return [f"manifest {key}: {manifest.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if manifest.get(key) != value]


def _same_json(a, b, where="$") -> list:
    if isinstance(a, float) or isinstance(b, float):
        if (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and not isinstance(a, bool) and not isinstance(b, bool)
                and math.isclose(a, b, rel_tol=GOLDEN_FLOAT_TOL, abs_tol=GOLDEN_FLOAT_TOL)):
            return []
        return [f"{where}: {a!r} != golden {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [f"{where}: keys {list(a)} != golden {list(b)}"]
        return [p for key in a for p in _same_json(a[key], b[key], f"{where}.{key}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != golden {len(b)}"]
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in _same_json(x, y, f"{where}[{i}]")]
    return [] if a == b and type(a) is type(b) else [f"{where}: {a!r} != golden {b!r}"]


def golden_products(out: Path, golden: Path) -> list:
    """Every product but the manifest, which holds run paths, matches the
    golden copy: CSVs byte for byte, JSON with floats within 1e-12."""
    problems = []
    for name in PRODUCTS:
        if name == "manifest.json":
            continue
        got, want = out / name, golden / name
        if not want.is_file():
            problems.append(f"{name}: no golden copy")
        elif not got.is_file():
            continue   # reported by finite_products
        elif name.endswith(".csv"):
            if got.read_bytes() != want.read_bytes():
                problems.append(f"{name}: differs from golden copy")
        else:
            try:
                problems += [f"{name} {p}" for p in
                             _same_json(_load_json(got), _load_json(want))][:5]
            except ValueError as e:
                problems.append(f"{name}: {e}")
    return problems


def trace_counts(trace: dict, corpus, cap: int, random_draws: int,
                 k_range: tuple) -> list:
    """Span counts known in closed form. A shortfall means a by-name import
    escaped the tracer."""
    calls = {name: span["calls"] for name, span in trace["spans"].items()}
    eligible = len(corpus.eligible_ks)
    in_range = sum(k_range[0] <= k <= k_range[1] for k in corpus.eligible_ks)
    expected = {
        "features.extract_features": sum(min(math.factorial(k), cap)
                                         for k in corpus.eligible_ks),
        "variants.generate_variants": eligible,
        "seeding.derive_rng": eligible + in_range * random_draws,
    }
    return [f"trace {name}.calls: {calls.get(name, 0)}, expected {value}"
            for name, value in expected.items() if calls.get(name, 0) != value]
