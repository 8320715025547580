"""Dependency treebank ingestion and tree structure utilities.

Supports CoNLL-U (10 tab-separated columns) and a minimal 4-column TSV
format (index, form, head, deprel), both read by one parser. Malformed
sentence blocks are skipped with a diagnostic instead of aborting the run.
"""

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

__all__ = [
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
# Characters of corpus text split into lines at a time; each chunk ends just
# after a "\n", so no line is cut and the whole text is never held as lines.
LINE_CHUNK = 64 * 1024


class NonProjectiveError(ValueError):
    """Raised when an operation requiring projectivity gets a non-projective tree."""


@dataclass(frozen=True)
class Diagnostic:
    line: int
    reason: str


class DependencyTree:
    """A single sentence as three columns over positions 1..n: `heads[i - 1]`
    is position i's head (0 for the root), `forms[i - 1]` its surface form and
    `deprels[i - 1]` its dependency relation. Immutable after construction.

    Validates that exactly one token has head 0, every head lies in 0..n,
    and head links form a connected acyclic structure.
    """

    def __init__(self, heads: Iterable[int], forms: Iterable[str],
                 deprels: Iterable[str]):
        heads, forms, deprels = tuple(heads), tuple(forms), tuple(deprels)
        if not len(heads) == len(forms) == len(deprels):
            raise ValueError("heads, forms and deprels differ in length")
        _root_walk(heads)
        self._heads, self._forms, self._deprels = heads, forms, deprels
        self._root = heads.index(0) + 1

    @property
    def heads(self) -> tuple:
        return self._heads

    @property
    def forms(self) -> tuple:
        return self._forms

    @property
    def deprels(self) -> tuple:
        return self._deprels

    @property
    def root_index(self) -> int:
        return self._root

    def __len__(self) -> int:
        return len(self._heads)

    def _columns(self) -> tuple:
        return self._heads, self._forms, self._deprels

    def __eq__(self, other) -> bool:
        return isinstance(other, DependencyTree) and self._columns() == other._columns()

    def __hash__(self) -> int:
        return hash(self._columns())

    def __repr__(self) -> str:
        words = " ".join(self._forms)
        return f"DependencyTree({words!r})"

    def arcs(self) -> Iterator[tuple]:
        """(head, dependent) pairs, excluding the artificial root arc."""
        for dependent, head in enumerate(self._heads, start=1):
            if head != 0:
                yield head, dependent


def _root_walk(heads) -> list:
    """The positions of a valid heads column in breadth-first order from the
    root, so every head comes before its dependents.

    Raises ValueError naming the first fault of: no tokens, no root, more
    than one root, a head outside 0..n, and a cycle. A token on a cycle
    never reaches the root, so the walk misses it.
    """
    if not heads:
        raise ValueError("empty sentence")
    n = len(heads)
    roots = heads.count(0)
    if roots == 0:
        raise ValueError("no root")
    if roots > 1:
        raise ValueError("multiple roots")
    if min(heads) < 0 or max(heads) > n:
        i, head = next((i, h) for i, h in enumerate(heads, start=1) if not 0 <= h <= n)
        raise ValueError(f"head {head} out of range for token {i}")
    dependents = [[] for _ in range(n + 1)]
    for i, head in enumerate(heads, start=1):
        dependents[head].append(i)
    order = dependents[0]
    for node in order:
        order.extend(dependents[node])
    if len(order) < n:
        raise ValueError("cycle in head links")
    return order


# ---------------------------------------------------------------------------
# parsing / serialization

# format -> (column count, columns of index, form, head and deprel)
FORMATS = {"conllu": (10, (0, 1, 6, 7)), "tsv": (4, (0, 1, 2, 3))}


def _line_chunks(text: str):
    """`text.splitlines()` one chunk of about LINE_CHUNK characters at a
    time. A chunk ends just after a "\n", which ends a line whatever
    precedes it, so the chunks' lines are the text's lines."""
    pos, end = 0, len(text)
    while pos < end:
        cut = text.find("\n", pos + LINE_CHUNK) + 1 or end
        yield text[pos:cut].splitlines()
        pos = cut


def _iter_lines(text: str):
    """(lineno, line) pairs, as `enumerate(text.splitlines(), 1)`."""
    return enumerate(chain.from_iterable(_line_chunks(text)), 1)


def _iter_blocks(text: str):
    """Yield (first_line_number, list of (lineno, line)) per sentence block."""
    block, start = [], None
    for lineno, line in _iter_lines(text):
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


def parse_corpus(text: str, format: str = "conllu", exclude_punct: bool = False):
    """Parse a corpus from its text.

    Returns (trees, diagnostics). Malformed blocks are skipped with a
    Diagnostic recording the offending line, or the block's first line
    when the tree as a whole is invalid (indices not 1..n included), and
    the reason. A bad line takes precedence over a fault of the whole tree.

    With `exclude_punct`, each valid block loses its punctuation as
    `strip_punct` removes it, on the parsed columns, before its one tree is
    built. Every tree shares its deprel strings with the others.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    width, (i_index, i_form, i_head, i_deprel) = FORMATS[format]
    trees, diagnostics, labels = [], [], {}
    for start, block in _iter_blocks(text):
        heads, forms, deprels, contiguous, bad = [], [], [], True, None
        for lineno, line in block:
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != width:
                bad = Diagnostic(lineno, f"expected {width} columns, got {len(cols)}")
                break
            try:
                index = int(cols[i_index])
            except ValueError:
                # CoNLL-U multiword-token ranges (i-j) and empty nodes (i.1)
                if format == "conllu":
                    continue
                bad = Diagnostic(lineno, f"non-integer index {cols[i_index]!r}")
                break
            try:
                head = int(cols[i_head])
            except ValueError:
                bad = Diagnostic(lineno, f"non-integer head {cols[i_head]!r}")
                break
            reason = (f"token index must be >= 1, got {index}" if index < 1
                      else f"head must be >= 0, got {head}" if head < 0
                      else f"token {index} is its own head" if head == index
                      else None)
            if reason is not None:
                bad = Diagnostic(lineno, reason)
                break
            contiguous = contiguous and index == len(heads) + 1
            heads.append(head)
            forms.append(cols[i_form])
            deprel = cols[i_deprel]
            deprels.append(labels.setdefault(deprel, deprel))
        if bad is None and not contiguous:
            bad = Diagnostic(start, "token indices not contiguous 1..n")
        if bad is None:
            try:
                if exclude_punct:   # the raw heads are validated first
                    heads, forms, deprels = _strip_columns(
                        heads, forms, deprels, _root_walk(heads), PUNCT_DEPRELS)
                trees.append(DependencyTree(heads, forms, deprels))
            except ValueError as e:
                bad = Diagnostic(start, str(e))
        if bad is not None:
            diagnostics.append(bad)
    return trees, diagnostics


def to_conllu(tree: DependencyTree, sent_id: Optional[str] = None) -> str:
    lines = []
    if sent_id is not None:
        lines.append(f"# sent_id = {sent_id}")
    for i, (head, form, deprel) in enumerate(zip(*tree._columns()), start=1):
        lines.append(
            "\t".join([str(i), form, "_", "_", "_", "_", str(head), deprel, "_", "_"])
        )
    return "\n".join(lines) + "\n"


def to_tsv(tree: DependencyTree) -> str:
    lines = ["\t".join([str(i), form, str(head), deprel])
             for i, (head, form, deprel) in enumerate(zip(*tree._columns()), start=1)]
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
    heads = (0, *tree.heads)
    lo, hi, size = list(range(n + 1)), list(range(n + 1)), [1] * (n + 1)
    for node in reversed(_root_walk(tree.heads)):
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


def _strip_columns(heads, forms, deprels, order, punct):
    """The columns without their punctuation, heads renumbered. `order` is
    the heads' breadth-first order from the root. In one pass over it
    reversed, dependents before heads, a non-root token whose deprel is in
    `punct` goes when all of its dependents have gone."""
    if punct.isdisjoint(deprels):
        return heads, forms, deprels
    n = len(heads)
    kept_dependents, keep = [0] * (n + 1), [True] * (n + 1)
    for node in reversed(order):
        head = heads[node - 1]
        if head and not kept_dependents[node] and deprels[node - 1] in punct:
            keep[node] = False
        else:
            kept_dependents[head] += 1
    kept = [i for i in range(1, n + 1) if keep[i]]
    renumber = [0] * (n + 1)
    for new, old in enumerate(kept, start=1):
        renumber[old] = new
    return ([renumber[heads[i - 1]] for i in kept], [forms[i - 1] for i in kept],
            [deprels[i - 1] for i in kept])


def strip_punct(tree: DependencyTree, deprels=PUNCT_DEPRELS) -> DependencyTree:
    """Remove tokens with a punctuation deprel and reindex.

    A token goes when all of its dependents go, so punctuation attached to
    punctuation goes too. The root is always kept, whatever its deprel.
    """
    return DependencyTree(*_strip_columns(tree.heads, tree.forms, tree.deprels,
                                          _root_walk(tree.heads), frozenset(deprels)))
