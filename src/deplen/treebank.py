"""Dependency treebank ingestion and tree structure utilities.

Supports CoNLL-U (10 tab-separated columns) and a minimal 4-column TSV
format (index, form, head, deprel), both read by one parser. Malformed
sentence blocks are skipped with a diagnostic instead of aborting the run.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = [
    "Token",
    "DependencyTree",
    "Diagnostic",
    "parse_corpus",
    "to_conllu",
    "to_tsv",
    "subtree_spans",
    "is_projective",
    "subtree_yield",
    "strip_punct",
    "NonProjectiveError",
]

PUNCT_DEPRELS = frozenset({"punct", "rsym", "SYM"})


class NonProjectiveError(ValueError):
    """Raised when an operation requiring projectivity gets a non-projective tree."""


@dataclass(frozen=True)
class Token:
    index: int          # 1-based sentence position
    form: str
    head: int           # 0 for root, else 1-based index of the head token
    deprel: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.head < 0:
            raise ValueError(f"head must be >= 0, got {self.head}")
        if self.head == self.index:
            raise ValueError(f"token {self.index} is its own head")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    reason: str


class DependencyTree:
    """A single parsed sentence. Immutable after construction.

    Validates that token indices are contiguous 1..n, exactly one token has
    head 0, and head links form a connected acyclic structure.
    """

    def __init__(self, tokens: Iterable[Token]):
        tokens = tuple(tokens)
        reason = _validate(tokens)
        if reason is not None:
            raise ValueError(reason)
        self._tokens = tokens
        self._root = next(t.index for t in tokens if t.head == 0)

    @property
    def tokens(self) -> tuple:
        return self._tokens

    @property
    def root_index(self) -> int:
        return self._root

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, DependencyTree) and self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(self._tokens)

    def __repr__(self) -> str:
        words = " ".join(t.form for t in self._tokens)
        return f"DependencyTree({words!r})"

    def token(self, index: int) -> Token:
        return self._tokens[index - 1]

    def arcs(self) -> Iterator[tuple]:
        """(head, dependent) pairs, excluding the artificial root arc."""
        for t in self._tokens:
            if t.head != 0:
                yield t.head, t.index


def _validate(tokens) -> Optional[str]:
    if not tokens:
        return "empty sentence"
    n = len(tokens)
    if [t.index for t in tokens] != list(range(1, n + 1)):
        return "token indices not contiguous 1..n"
    roots = [t.index for t in tokens if t.head == 0]
    if len(roots) == 0:
        return "no root"
    if len(roots) > 1:
        return "multiple roots"
    for t in tokens:
        if t.head > n:
            return f"head {t.head} out of range for token {t.index}"
    # acyclicity: every token must reach the root along head links; a walk
    # stops at the first node known to reach it, so each token is walked once
    reaches_root = {0}
    for t in tokens:
        path, cur = set(), t.index
        while cur not in reaches_root:
            if cur in path:
                return "cycle in head links"
            path.add(cur)
            cur = tokens[cur - 1].head
        reaches_root |= path
    return None


# ---------------------------------------------------------------------------
# parsing / serialization

# format -> (column count, columns of index, form, head and deprel)
FORMATS = {"conllu": (10, (0, 1, 6, 7)), "tsv": (4, (0, 1, 2, 3))}


def _iter_blocks(source):
    """Yield (first_line_number, list of (lineno, line)) per sentence block."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in source]
    block, start = [], None
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            if block:
                yield start, block
                block, start = [], None
        else:
            if start is None:
                start = lineno
            block.append((lineno, line))
    if block:
        yield start, block


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def parse_corpus(source, format: str = "conllu"):
    """Parse a corpus from a string or line iterable.

    Returns (trees, diagnostics). Malformed blocks are skipped with a
    Diagnostic recording the offending line, or the block's first line
    when the tree as a whole is invalid, and the reason.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    width, (i_index, i_form, i_head, i_deprel) = FORMATS[format]
    trees, diagnostics = [], []
    for start, block in _iter_blocks(source):
        tokens, bad = [], None
        for lineno, line in block:
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != width:
                bad = Diagnostic(lineno, f"expected {width} columns, got {len(cols)}")
                break
            index, head = cols[i_index], cols[i_head]
            if not _is_int(index):
                # CoNLL-U multiword-token ranges (i-j) and empty nodes (i.1)
                if format == "conllu":
                    continue
                bad = Diagnostic(lineno, f"non-integer index {index!r}")
                break
            if not _is_int(head):
                bad = Diagnostic(lineno, f"non-integer head {head!r}")
                break
            try:
                tokens.append(Token(int(index), cols[i_form], int(head), cols[i_deprel]))
            except ValueError as e:
                bad = Diagnostic(lineno, str(e))
                break
        if bad is None:
            try:
                trees.append(DependencyTree(tokens))
            except ValueError as e:
                bad = Diagnostic(start, str(e))
        if bad is not None:
            diagnostics.append(bad)
    return trees, diagnostics


def to_conllu(tree: DependencyTree, sent_id: Optional[str] = None) -> str:
    lines = []
    if sent_id is not None:
        lines.append(f"# sent_id = {sent_id}")
    for t in tree.tokens:
        lines.append(
            "\t".join([str(t.index), t.form, "_", "_", "_", "_",
                       str(t.head), t.deprel, "_", "_"])
        )
    return "\n".join(lines) + "\n"


def to_tsv(tree: DependencyTree) -> str:
    lines = ["\t".join([str(t.index), t.form, str(t.head), t.deprel])
             for t in tree.tokens]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure

def subtree_spans(tree: DependencyTree) -> Optional[list]:
    """Every token's yield, the [min, max] positions of its transitive-
    dependent closure: `spans[i]` is token i's (lo, hi), `spans[0]` unused.
    None when some yield has a gap, i.e. the tree is not projective.

    One bottom-up pass, dependents before their heads.
    """
    n = len(tree)
    heads = [0] + [t.head for t in tree.tokens]
    dependents = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        dependents[heads[i]].append(i)
    order = [tree.root_index]        # breadth-first, so heads come first
    for node in order:
        order.extend(dependents[node])
    lo, hi, size = list(range(n + 1)), list(range(n + 1)), [1] * (n + 1)
    for node in reversed(order):
        if hi[node] - lo[node] + 1 != size[node]:
            return None
        h = heads[node]
        if h != 0:
            lo[h] = min(lo[h], lo[node])
            hi[h] = max(hi[h], hi[node])
            size[h] += size[node]
    return list(zip(lo, hi))


def is_projective(tree: DependencyTree) -> bool:
    """True iff every subtree's yield is a contiguous span."""
    return subtree_spans(tree) is not None


def subtree_yield(tree: DependencyTree, head: int) -> tuple:
    """[min, max] token positions of head's transitive-dependent closure.

    Only meaningful on projective trees, where the yield is gap-free.
    """
    spans = subtree_spans(tree)
    if spans is None:
        raise NonProjectiveError("subtree_yield requires a projective tree")
    return spans[head]


def strip_punct(tree: DependencyTree, deprels=PUNCT_DEPRELS) -> DependencyTree:
    """Remove leaf tokens with a punctuation deprel and reindex.

    Applied iteratively so punctuation attached to punctuation also goes.
    Raises if removal would orphan the tree (punctuation root).
    """
    tokens = list(tree.tokens)
    while True:
        has_dep = {t.head for t in tokens}
        drop = {t.index for t in tokens
                if t.deprel in deprels and t.index not in has_dep and t.head != 0}
        if not drop:
            break
        tokens = [t for t in tokens if t.index not in drop]
    remap = {t.index: i + 1 for i, t in enumerate(tokens)}
    remap[0] = 0
    return DependencyTree(
        Token(remap[t.index], t.form, remap[t.head], t.deprel) for t in tokens
    )
