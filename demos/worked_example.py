"""Walk through the 11-token worked example sentence.

Builds the dependency tree for "maa ne baajaar jaate samaye rote hue
bacche ko toffee di", decomposes it into its four preverbal constituents,
and prints the main-verb dependency length under each ordering strategy.

Run: python3 demos/worked_example.py
"""

from itertools import islice

import numpy as np

from deplen.constituency import PlanTable, decompose
from deplen.treebank import DependencyTree
from deplen.variants import ascending_orders, descending_orders, least_effort_moves

WORDS = [
    ("maa", 11, "subj"), ("ne", 1, "case"),
    ("baajaar", 4, "obl"), ("jaate", 11, "advcl"), ("samaye", 4, "mark"),
    ("rote", 7, "amod"), ("hue", 8, "aux"), ("bacche", 11, "iobj"), ("ko", 8, "case"),
    ("toffee", 11, "obj"), ("di", 0, "root"),
]

forms, heads, rels = zip(*WORDS)
tree = DependencyTree(heads, forms, rels)
plan = decompose(tree)

print("sentence: ", " ".join(tree.forms))
print("verb:     ", tree.forms[plan.verb_index - 1])
print("preverbal constituents:")
words = iter(tree.forms)   # the constituents tile the words before the verb
for length, offset in zip(plan.lengths, plan.head_offsets):
    print(f"  {' '.join(islice(words, length)):28s} length {length}, "
          f"head offset from right {length - 1 - offset}")

orders = {
    "ascending (maximal DL)": ascending_orders(plan.lengths),
    "descending (global minimum)": descending_orders(plan.lengths),
    "a random order": (0, 1, 3, 2),
    "least-effort from that order": least_effort_moves(plan.lengths, (0, 1, 3, 2)),
}
# every order of the one plan scored at once: (1 plan x 4 orders x k) arcs
arcs_per_order = PlanTable.of([plan]).score(np.array([list(orders.values())]))[0][0]
print()
for (label, order), arcs in zip(orders.items(), arcs_per_order.tolist()):
    sentence = " ".join(tree.forms[p - 1] for p in plan.positions(order))
    print(f"{label}:")
    print(f"  {sentence}")
    print(f"  main-verb DL = {sum(arcs)}   arcs {arcs}")
