"""Fixed reference work that the benchmark times between `report-all` runs.

It imports nothing from deplen, so its cost never changes with the program:
only with the speed of the machine at that moment. Its mix resembles
deplen's (small tree objects, position maps and arc sums, dict grouping,
sorting, splitting tab-separated lines, a few small IRLS solves in numpy),
so that a slow phase of a shared host slows it about as much as it slows
`report-all`. run.py divides every mean time by the reference's mean time
in the same run.

    python3 perfbench/reference.py
"""

import numpy as np

ROUNDS = 6500      # about 1 s on the machine the baseline was taken on
TREE_SIZE = 60


class Node:
    __slots__ = ("i", "head", "kids")

    def __init__(self, i, head):
        self.i, self.head, self.kids = i, head, []


def build_tree(r):
    nodes = [Node(i, (i * 7 + r) % i if i else -1) for i in range(TREE_SIZE)]
    for node in nodes[1:]:
        nodes[node.head].kids.append(node.i)
    return nodes


def arc_sum(nodes, order):
    pos = {word: p for p, word in enumerate(order)}
    return sum(abs(pos[n.i] - pos[n.head]) for n in nodes if n.head >= 0)


def parse_rows(r):
    text = "\n".join(f"{i}\tw{i}\t_\tNOUN\t_\t_\t{(i * 3 + r) % (i + 1)}\tdep"
                     for i in range(1, 25))
    return sum(int(cols[6]) for cols in (line.split("\t") for line in text.splitlines()))


def irls(X, y, steps=5):
    w = np.zeros(X.shape[1])
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-X @ w))
        hessian = X.T @ (X * (p * (1 - p))[:, None]) + 1e-3 * np.eye(X.shape[1])
        w += np.linalg.solve(hessian, X.T @ (y - p))
    return w


def main():
    X = np.random.default_rng(0).standard_normal((400, 12))
    y = (X[:, 0] > 0).astype(float)
    total = 0
    for r in range(ROUNDS):
        nodes = build_tree(r)
        total += arc_sum(nodes, sorted(range(TREE_SIZE), key=lambda i: (i * 31 + r) % 61))
        by_arity = {}
        for node in nodes:
            by_arity.setdefault(len(node.kids), []).append(node.i)
        total += len(by_arity) + parse_rows(r)
        if r % 50 == 0:
            total += int(irls(X, y).sum() > 0)
    return total


if __name__ == "__main__":
    main()
