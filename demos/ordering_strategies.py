"""Compare ordering strategies on a synthetic corpus.

Generates sentences whose reference order follows the least-effort rule,
then prints the mean normalized total dependency length of each strategy
per preverbal-constituent count. Descending should sit at the bottom,
ascending at the top, and the reference should track least-effort.

Run: python3 demos/ordering_strategies.py
"""

from deplen.analysis import (SyntheticSpec, decompose_corpus,
                             generate_synthetic_corpus, position_length_profile,
                             strategy_curves)

spec = SyntheticSpec(n_sentences=600, p_least_effort=1.0)
corpus = decompose_corpus(tree.heads for tree in generate_synthetic_corpus(spec, seed=7))
print(f"{len(corpus.plans)} sentences")

curves = strategy_curves(corpus, seed=0, random_draws=10)
ks = sorted(curves["reference"])
print("\nmean normalized DL per k:")
print("strategy      " + "".join(f"  k={k}  " for k in ks))
for strategy in ("ascending", "random", "reference", "least_effort", "descending"):
    row = "".join(f" {curves[strategy][k]:6.3f}" for k in ks)
    print(f"{strategy:14s}{row}")

print("\nmean constituent length per preverbal position (reference orders):")
for k in ks:
    profile = position_length_profile(corpus, k)
    print(f"  k={k}: " + "  ".join(f"{v:.2f}" for v in profile)
          + "   <- verb-adjacent last")
