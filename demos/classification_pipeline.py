"""Full pairwise-ranking pipeline on a synthetic corpus.

Generates a least-effort corpus, pairs every reference with its sampled
variants, applies the balanced difference transformation, and prints
cross-validated accuracy for the dependency-length and constituent-length
model families plus a per-constituent regression table.

Run: python3 demos/classification_pipeline.py
"""

from deplen.analysis import (SyntheticSpec, build_pairwise_dataset,
                             decompose_corpus, generate_synthetic_corpus,
                             regression_table, run_classification_suite)

spec = SyntheticSpec(n_sentences=500, p_least_effort=1.0)
corpus = decompose_corpus(tree.heads for tree in generate_synthetic_corpus(spec, seed=13))
dataset = build_pairwise_dataset(corpus, cap=100, seed=1)
print(f"{len(corpus.plans)} reference sentences, {len(dataset)} pairs, "
      f"label balance {dataset.labels.mean():.3f}")

rows = run_classification_suite(dataset, folds=10, seed=2)
for table in ("table3", "table4"):
    print(f"\n{table}: 10-fold CV accuracy")
    for r in rows:
        if r["table"] != table:
            continue
        p = "" if r["mcnemar_p"] is None else f"  (McNemar vs prev p={r['mcnemar_p']:.2g})"
        print(f"  {r['predictors']:48s} {100 * r['accuracy']:6.2f}%{p}")

k = 5
result = regression_table(dataset, k, "deplen", folds=5, seed=0, min_pairs=200)
print(f"\nper-constituent regression, k={k} subset ({result['n']} pairs), "
      f"selected: {result['selected']}")
for row in result["fit"]["rows"]:
    print(f"  {row['predictor']:16s} estimate {row['estimate']:8.3f}  "
          f"se {row['std_error']:.3f}  z {row['z_value']:8.2f} {row['significant']}")
