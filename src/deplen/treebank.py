"""Dependency treebank ingestion and tree structure utilities.

Supports CoNLL-U (10 tab-separated columns) and a minimal 4-column TSV
format (index, form, head, deprel), both read by one parser. Malformed
sentence blocks are skipped with a diagnostic instead of aborting the run.
"""

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

__all__ = [
    "DependencyTree",
    "Diagnostic",
    "iter_heads",
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

    def __post_init__(self):
        heads, forms, deprels = tuple(self.heads), tuple(self.forms), tuple(self.deprels)
        if not len(heads) == len(forms) == len(deprels):
            raise ValueError("heads, forms and deprels differ in length")
        _root_walk(heads)
        for name, value in (("heads", heads), ("forms", forms), ("deprels", deprels)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.heads)


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


def _integer(text: str):
    """`text` as an int if it is one written as `str` writes it, else None.
    `int` alone would also take " 0 ", "+0", "1_0", an Arabic-Indic zero,
    "-0" and "007". Past `int`'s digit limit (4300 by default) it is None
    too."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


# IDs and heads 0..255 by their text: 99 % of the IDs and heads of perfbench's
# seed-1 ingest corpus and all of its default-mix and long-k6 ones. A lookup
# costs a tenth of an `_integer` call, and without it `report-all` on ingest
# takes about a fifth longer.
_SMALL_INTEGERS = {str(i): i for i in range(256)}


# CoNLL-U IDs that are no token: multiword-token ranges (i-j) and empty nodes (i.j)
_NON_TOKEN_ID = re.compile(r"[0-9]+[-.][0-9]+")


def _parse(pieces, diagnostics, format, exclude_punct, words):
    """`iter_heads`, or with `words` `iter_trees`, in one pass over the
    numbered lines: a block's column or tree is yielded once the blank line
    after it is read, and its later lines go unread once one is bad. Its
    heads column is checked once, by `_root_walk` or by the tree's
    constructor, stripped with `exclude_punct` (`_stripped`). Forms are
    kept only for trees."""
    if format not in FORMATS:
        raise ValueError(f"unknown corpus format: {format!r}")
    width, (i_index, i_form, i_head, i_deprel) = FORMATS[format]
    if words:
        labels = {}
        build = lambda heads, forms, deprels: DependencyTree(
            heads, forms, tuple(map(labels.setdefault, deprels, deprels)))
    else:
        build = _walked
    small, start = _SMALL_INTEGERS, 0
    # a blank line after the last ends its block
    for lineno, line in chain(_iter_lines(pieces), [(0, "")]):
        if not line or line.isspace():   # line.strip() == ""
            if not start:
                continue
            if bad is None and not contiguous:
                bad = Diagnostic(start, "token indices not contiguous 1..n")
            if bad is None:
                words_columns = (forms, deprels) if words else ()
                try:
                    item = (_stripped(build, heads, deprels, *words_columns) if exclude_punct
                            else build(heads, *words_columns))
                except ValueError as e:
                    bad = Diagnostic(start, str(e))
            start = 0
            if bad is None:
                yield item
            else:
                diagnostics.append(bad)
            continue
        if not start:
            start, bad, contiguous, heads, forms, deprels = lineno, None, True, [], [], []
        if bad is not None or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != width:
            bad = Diagnostic(lineno, f"expected {width} columns, got {len(cols)}")
            continue
        text = cols[i_index]
        index = small.get(text)
        if index is None and (index := _integer(text)) is None:
            if format == "conllu" and _NON_TOKEN_ID.fullmatch(text):
                continue
            bad = Diagnostic(lineno, f"non-integer index {text!r}")
            continue
        text = cols[i_head]
        head = small.get(text)
        if head is None and (head := _integer(text)) is None:
            bad = Diagnostic(lineno, f"non-integer head {text!r}")
            continue
        if index < 1:
            bad = Diagnostic(lineno, f"token index must be >= 1, got {index}")
        elif head < 0:
            bad = Diagnostic(lineno, f"head must be >= 0, got {head}")
        elif head == index:
            bad = Diagnostic(lineno, f"token {index} is its own head")
        else:
            contiguous = contiguous and index == len(heads) + 1
            heads.append(head)
            deprels.append(cols[i_deprel])
            if words:
                forms.append(cols[i_form])


def iter_heads(pieces: Iterable[str], diagnostics: list, format: str = "conllu",
               exclude_punct: bool = False) -> Iterator[list]:
    """Yield the heads column of each valid block of a corpus whose text
    arrives as `pieces`, any split of it, as the block is read: a list whose
    item i - 1 is position i's head, 0 for the root, checked to be a tree.
    Only the lines of one piece and the columns of one block are held at a
    time, and no tree, form or deprel column is built. An unknown format
    raises ValueError when iteration starts.

    Each malformed block is skipped, and a Diagnostic appended to
    `diagnostics` records the offending line, or the block's first line when
    the tree as a whole is invalid (indices not 1..n included), and the
    reason. A bad line takes precedence over a fault of the whole tree.

    With `exclude_punct`, each valid block loses its punctuation
    (`_strip_columns`) before its column is checked. A CoNLL-U
    multiword-token range (i-j) or empty node (i.j) line is skipped; any
    other ID or head not written as `str` writes an integer (`_integer`)
    is a `non-integer index` or `non-integer head` diagnostic.
    """
    return _parse(pieces, diagnostics, format, exclude_punct, words=False)


def iter_trees(pieces: Iterable[str], diagnostics: list, format: str = "conllu",
               exclude_punct: bool = False) -> Iterator[DependencyTree]:
    """`iter_heads`, yielding each valid block's tree, forms and deprels
    included, for the readers that print words. The same blocks give the
    same diagnostics, and each tree's heads are the column `iter_heads`
    yields. Every tree shares its deprel strings with the others."""
    return _parse(pieces, diagnostics, format, exclude_punct, words=True)


def _walked(heads) -> list:
    """A heads column, once `_root_walk` finds it a tree."""
    _root_walk(heads)
    return heads


def _stripped(build, heads, deprels, *columns):
    """`build` of a block's heads and other `columns` without their
    punctuation, the column checked once, by `build`. With every head in
    0..n the raw column is a tree iff the stripped one is: the strip keeps
    every root, and a token on a cycle always keeps a dependent. So the raw
    heads are walked only to name the raw fault: of a head past n, or of a
    stripped column that fails."""
    if heads and max(heads) > len(heads):
        _root_walk(heads)   # raises the raw block's fault
    try:
        return build(*_strip_columns(heads, deprels, *columns))
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

def is_projective(heads) -> bool:
    """True iff no two arcs of a valid heads column cross, the root's arc
    from position 0 included, which holds iff every subtree's yield is
    contiguous. The arcs, sorted by left end and longest first, go through
    one stack pass of the right ends still open."""
    arcs = sorted((h, -d) if h < d else (d, -h)
                  for d, h in enumerate(heads, start=1))
    open_ends = [len(heads) + 1]   # a sentinel no arc closes
    for lo, neg_hi in arcs:
        while open_ends[-1] <= lo:
            open_ends.pop()
        if -neg_hi > open_ends[-1]:
            return False
        open_ends.append(-neg_hi)
    return True


def _strip_columns(heads, deprels, *columns):
    """The heads column and `columns`, each over the same tokens, without
    the punctuation tokens, heads renumbered. A non-root token whose deprel
    is in PUNCT_DEPRELS goes once all of its dependents have gone, so
    punctuation attached to punctuation goes too: such leaves are peeled off
    by counting dependents, with no walk order, so the heads (each in 0..n)
    need not form a tree."""
    if PUNCT_DEPRELS.isdisjoint(deprels):
        return (heads, *columns)
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
    return ([renumber[heads[i - 1]] for i in kept],
            *([column[i - 1] for i in kept] for column in columns))
