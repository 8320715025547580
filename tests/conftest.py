import tracemalloc

import pytest
from hypothesis import strategies as st

from deplen.treebank import DependencyTree, iter_trees
from deplen.constituency import SentencePlan, decompose
from deplen.analysis import SyntheticSpec, generate_synthetic_corpus
from oracles import order_dl

# The worked 11-token example: four preverbal constituents
# "maa ne" / "baajaar jaate samaye" / "rote hue bacche ko" / "toffee"
# and the verb "di" as root.
FIG3_TOKENS = [
    ("maa", 11, "subj"), ("ne", 1, "case"),
    ("baajaar", 4, "obl"), ("jaate", 11, "advcl"), ("samaye", 4, "mark"),
    ("rote", 7, "amod"), ("hue", 8, "aux"), ("bacche", 11, "iobj"), ("ko", 8, "case"),
    ("toffee", 11, "obj"), ("di", 0, "root"),
]

# depicted random order: maa ne | baajaar jaate samaye | toffee | rote hue bacche ko
FIG3_RANDOM_ORDER = (0, 1, 3, 2)


@pytest.fixture
def fig3_tree() -> DependencyTree:
    forms, heads, rels = zip(*FIG3_TOKENS)
    return DependencyTree(heads, forms, rels)


def heads_tree(heads) -> DependencyTree:
    """The tree over `heads` (position i's head at index i - 1, 0 for the
    root), with forms w1..wn, deprel "root" on the root and "dep" elsewhere."""
    return DependencyTree(heads, [f"w{i}" for i in range(1, len(heads) + 1)],
                          ["root" if h == 0 else "dep" for h in heads])


@pytest.fixture
def fig3_plan(fig3_tree) -> SentencePlan:
    plan = decompose(fig3_tree)
    assert isinstance(plan, SentencePlan)
    return plan


def main_verb_dl(plan, order) -> int:
    """Sum of the head-to-verb distances under `order`."""
    return sum(order_dl(plan, order)[0])


def random_tree(rng, n: int) -> DependencyTree:
    """Uniformly structured random tree (not necessarily projective)."""
    order = list(rng.permutation(n) + 1)
    heads = {order[0]: 0}
    for i, node in enumerate(order[1:], start=1):
        heads[node] = int(order[rng.integers(i)])
    return heads_tree([heads[i] for i in range(1, n + 1)])


def random_plans(seed: int, count: int, k_max: int = 6) -> list:
    """Eligible plans from the synthetic generator with random references."""
    weights = tuple((k, 1.0 / (k_max - 1)) for k in range(2, k_max + 1))
    spec = SyntheticSpec(n_sentences=count, k_weights=weights, p_least_effort=0.0)
    plans = []
    for tree in generate_synthetic_corpus(spec, seed=seed):
        plan = decompose(tree)
        assert isinstance(plan, SentencePlan)
        plans.append(plan)
    return plans


def traced(fn, *args):
    """(fn(*args), retained, peak): the bytes that tracemalloc counts as
    allocated under the call when it returns, and at most during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def to_tsv(tree: DependencyTree) -> str:
    """The tree as a block of the 4-column TSV format."""
    return "".join(f"{i}\t{form}\t{head}\t{rel}\n" for i, (head, form, rel)
                   in enumerate(zip(tree.heads, tree.forms, tree.deprels), start=1))


def parse_text(text: str, format: str = "conllu", exclude_punct: bool = False):
    """(trees, diagnostics): the lists of what `iter_trees` yields and
    records for the text as one piece."""
    diagnostics = []
    return list(iter_trees([text], diagnostics, format, exclude_punct)), diagnostics


@st.composite
def eligible_trees(draw, k_max: int = 6, max_length: int = 8) -> DependencyTree:
    """Projective trees with k preverbal constituents,
    each head anywhere in its span with the other tokens attached to their
    inward neighbour or to the head, then the verb and up to 3 postverbal
    tokens attached to the verb or to their left neighbour."""
    k = draw(st.integers(2, k_max))
    lengths = draw(st.lists(st.integers(1, max_length), min_size=k, max_size=k))
    verb = sum(lengths) + 1
    heads, deprels, start = [], [], 1
    for length in lengths:
        head = start + draw(st.integers(0, length - 1))
        for pos in range(start, start + length):
            if pos == head:
                heads.append(verb)
                deprels.append("arg")
            else:
                inward = pos + 1 if pos < head else pos - 1
                heads.append(draw(st.sampled_from([inward, head])))
                deprels.append("mod")
        start += length
    heads.append(0)
    deprels.append("root")
    for pos in range(verb + 1, verb + 1 + draw(st.integers(0, 3))):
        heads.append(draw(st.sampled_from([verb, pos - 1])))
        deprels.append("post")
    tree = DependencyTree(heads, [f"w{i}" for i in range(1, len(heads) + 1)], deprels)
    plan = decompose(tree)
    assert isinstance(plan, SentencePlan) and plan.k == k
    return tree


def eligible_plans(k_max: int = 6, max_length: int = 8):
    """The plans of `eligible_trees`."""
    return eligible_trees(k_max, max_length).map(decompose)
