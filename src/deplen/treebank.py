"""Dependency treebank ingestion and tree structure utilities.

Supports CoNLL-U (10 tab-separated columns) and a minimal 4-column TSV
format (index, form, head, deprel), both read by one parser. Malformed
sentence blocks are skipped with a diagnostic instead of aborting the run.
"""

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Optional

__all__ = [
    "DependencyTree",
    "Diagnostic",
    "iter_trees",
    "to_conllu",
    "is_projective",
]

PUNCT_DEPRELS = frozenset({"punct", "rsym", "SYM"})


@dataclass(frozen=True)
class Diagnostic:
    line: int
    reason: str


@dataclass(frozen=True, slots=True)
class DependencyTree:
    """A single sentence as three columns over positions 1..n: `heads[i - 1]`
    is position i's head (0 for the root), `forms[i - 1]` its surface form and
    `deprels[i - 1]` its dependency relation. Immutable: the columns are
    kept as tuples.

    Validates that exactly one token has head 0, every head lies in 0..n,
    and head links form a connected acyclic structure.
    """
    heads: tuple
    forms: tuple
    deprels: tuple
    root_index: int = field(init=False)

    def __post_init__(self):
        heads, forms, deprels = tuple(self.heads), tuple(self.forms), tuple(self.deprels)
        if not len(heads) == len(forms) == len(deprels):
            raise ValueError("heads, forms and deprels differ in length")
        _root_walk(heads)
        for name, value in (("heads", heads), ("forms", forms), ("deprels", deprels),
                            ("root_index", heads.index(0) + 1)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.heads)

    def __repr__(self) -> str:
        words = " ".join(self.forms)
        return f"DependencyTree({words!r})"


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


def _line_chunks(pieces):
    """The lines of the text that the string `pieces` join into, as one
    list per piece that holds a "\n". Each list ends at the last "\n" of the
    text pending, which ends a line whatever precedes it, so the lists join
    into `"".join(pieces).splitlines()`."""
    pending = ""
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            yield (pending + piece[:cut]).splitlines()
            pending = piece[cut:]
        else:
            pending += piece
    yield pending.splitlines()


def _iter_lines(pieces):
    """(lineno, line) pairs, as `enumerate("".join(pieces).splitlines(), 1)`."""
    return enumerate(chain.from_iterable(_line_chunks(pieces)), 1)


def _iter_blocks(pieces):
    """Yield (first_line_number, lines) per sentence block. No blank line
    falls inside a block, so its lines are numbered on from the first."""
    block, start = [], 0
    for lineno, line in _iter_lines(pieces):
        if not line or line.isspace():   # line.strip() == ""
            if block:
                yield start, block
                block = []
        else:
            if not block:
                start = lineno
            block.append(line)
    if block:
        yield start, block


def iter_trees(pieces: Iterable[str], diagnostics: list, format: str = "conllu",
               exclude_punct: bool = False) -> Iterator[DependencyTree]:
    """Yield the trees of a corpus whose text arrives as `pieces`, any split
    of it, one tree per valid block as the block is read. Only the lines of
    one piece and one block are held at a time. An unknown format raises
    ValueError when iteration starts.

    Each malformed block is skipped, and a Diagnostic appended to
    `diagnostics` records the offending line, or the block's first line when
    the tree as a whole is invalid (indices not 1..n included), and the
    reason. A bad line takes precedence over a fault of the whole tree.

    With `exclude_punct`, each valid block loses its punctuation
    (`_strip_columns`) on the parsed columns, before its one tree is built.
    Every tree shares its deprel strings with the others.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    width, (i_index, i_form, i_head, i_deprel) = FORMATS[format]
    labels = {}
    for start, block in _iter_blocks(pieces):
        heads, forms, deprels, contiguous, bad = [], [], [], True, None
        for lineno, line in enumerate(block, start):
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
                tree = (_stripped_tree(heads, forms, deprels) if exclude_punct
                        else DependencyTree(heads, forms, deprels))
            except ValueError as e:
                bad = Diagnostic(start, str(e))
        if bad is None:
            yield tree
        else:
            diagnostics.append(bad)


def _stripped_tree(heads, forms, deprels) -> DependencyTree:
    """The tree of a block's columns without their punctuation, validated
    once, by the constructor. With every head in 0..n the raw columns are
    valid iff the stripped ones are: the strip keeps every root, and a
    token on a cycle always keeps a dependent. So the raw heads are walked
    only to name the raw fault: of a head past n, or of a stripped tree
    that fails."""
    if heads and max(heads) > len(heads):
        _root_walk(heads)   # raises the raw block's fault
    try:
        return DependencyTree(*_strip_columns(heads, forms, deprels))
    except ValueError:
        _root_walk(heads)   # raises the raw block's own fault
        raise


def to_conllu(tree: DependencyTree, sent_id: Optional[str] = None) -> str:
    lines = []
    if sent_id is not None:
        lines.append(f"# sent_id = {sent_id}")
    for i, (head, form, deprel) in enumerate(zip(tree.heads, tree.forms, tree.deprels), start=1):
        lines.append(
            "\t".join([str(i), form, "_", "_", "_", "_", str(head), deprel, "_", "_"])
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure

def is_projective(tree: DependencyTree) -> bool:
    """True iff no two arcs cross, the root's arc from position 0 included,
    which holds iff every subtree's yield is contiguous. The arcs, sorted by
    left end and longest first, go through one stack pass of the right ends
    still open."""
    arcs = sorted((h, -d) if h < d else (d, -h)
                  for d, h in enumerate(tree.heads, start=1))
    open_ends = [len(tree) + 1]   # a sentinel no arc closes
    for lo, neg_hi in arcs:
        while open_ends[-1] <= lo:
            open_ends.pop()
        if -neg_hi > open_ends[-1]:
            return False
        open_ends.append(-neg_hi)
    return True


def _strip_columns(heads, forms, deprels):
    """The columns without their punctuation, heads renumbered. A non-root
    token whose deprel is in PUNCT_DEPRELS goes once all of its dependents
    have gone, so punctuation attached to punctuation goes too: such leaves
    are peeled off by counting dependents, with no walk order, so the heads
    (each in 0..n) need not form a tree."""
    if PUNCT_DEPRELS.isdisjoint(deprels):
        return heads, forms, deprels
    n = len(heads)
    dependents, keep = [0] * (n + 1), [True] * (n + 1)
    for head in heads:
        dependents[head] += 1
    leaves = [i for i, (head, rel) in enumerate(zip(heads, deprels), start=1)
              if head and rel in PUNCT_DEPRELS and not dependents[i]]
    for node in leaves:   # grows as heads lose their last dependent
        keep[node] = False
        head = heads[node - 1]
        dependents[head] -= 1
        if not dependents[head] and heads[head - 1] and deprels[head - 1] in PUNCT_DEPRELS:
            leaves.append(head)
    kept = [i for i in range(1, n + 1) if keep[i]]
    renumber = [0] * (n + 1)
    for new, old in enumerate(kept, start=1):
        renumber[old] = new
    return ([renumber[heads[i - 1]] for i in kept], [forms[i - 1] for i in kept],
            [deprels[i - 1] for i in kept])
