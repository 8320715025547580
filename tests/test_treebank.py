import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deplen import treebank
from deplen.constituency import decompose
from deplen.treebank import (FORMATS, PUNCT_DEPRELS, DependencyTree, is_projective,
                             iter_trees, to_conllu)

import oracles
from oracles import subtree_spans
from conftest import heads_tree, parse_text, random_tree, to_tsv, traced

CONLLU_FIG3 = """\
# sent_id = fig3a
1\ttoffee\t_\t_\t_\t_\t11\tobj\t_\t_
2\tmaa\t_\t_\t_\t_\t11\tsubj\t_\t_
3\tne\t_\t_\t_\t_\t2\tcase\t_\t_
4\tbaajaar\t_\t_\t_\t_\t5\tobl\t_\t_
5\tjaate\t_\t_\t_\t_\t11\tadvcl\t_\t_
6\tsamaye\t_\t_\t_\t_\t5\tmark\t_\t_
7\trote\t_\t_\t_\t_\t8\tamod\t_\t_
8\thue\t_\t_\t_\t_\t9\taux\t_\t_
9\tbacche\t_\t_\t_\t_\t11\tiobj\t_\t_
10\tko\t_\t_\t_\t_\t9\tcase\t_\t_
11\tdi\t_\t_\t_\t_\t0\troot\t_\t_
"""


def _lines(format, rows):
    """(index, form, head, deprel) rows as lines of `format`."""
    if format == "tsv":
        return ["\t".join(map(str, row)) for row in rows]
    return ["\t".join([str(i), form, "_", "_", "_", "_", str(head), rel, "_", "_"])
            for i, form, head, rel in rows]


# Rows that both formats carry alike, and the diagnostic they give in a
# block whose comment line is line 14 and whose rows start at line 15: a bad
# row at its own line, an invalid tree at the block's first line, and a bad
# row ahead of a block-level fault.
ROW_DIAGNOSTICS = [
    ([(1, "a", 0, "root"), (2, "b", 2, "dep")], (16, "token 2 is its own head")),
    ([(1, "a", 0, "root"), (2, "b", -1, "dep")], (16, "head must be >= 0, got -1")),
    ([(1, "a", 0, "root"), (0, "b", 1, "dep")], (16, "token index must be >= 1, got 0")),
    ([(1, "a", 0, "root"), (3, "b", 1, "dep")], (14, "token indices not contiguous 1..n")),
    ([(1, "a", 0, "root"), (2, "b", 5, "dep")], (14, "head 5 out of range for token 2")),
    ([(1, "a", 0, "root"), (3, "b", 1, "dep"), (4, "c", 4, "dep")],
     (17, "token 4 is its own head")),
]


class TestParseCorpus:
    def test_fig3_block(self):
        trees, diags = parse_text(CONLLU_FIG3, "conllu")
        assert diags == []
        assert len(trees) == 1
        tree = trees[0]
        assert len(tree) == 11
        assert tree.root_index == 11
        assert tree.forms[10] == "di"

    def test_empty_stream(self):
        trees, diags = parse_text("", "conllu")
        assert trees == [] and diags == []

    def test_multiple_roots_skipped(self):
        block = "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n"
        trees, diags = parse_text(block, "conllu")
        assert trees == []
        assert len(diags) == 1
        assert "multiple roots" in diags[0].reason

    def test_cycle_skipped(self):
        block = "1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
        trees, diags = parse_text(block, "conllu")
        assert trees == []
        assert len(diags) == 1

    def test_bad_block_does_not_abort_run(self):
        text = CONLLU_FIG3 + "\n1\tonly\tthree\tcols\n\n" + CONLLU_FIG3
        trees, diags = parse_text(text, "conllu")
        assert len(trees) == 2
        assert len(diags) == 1

    def test_mwt_and_empty_nodes_skipped(self):
        block = ("1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
                 "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
                 "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
                 "2\tle\t_\t_\t_\t_\t0\troot\t_\t_\n")
        trees, diags = parse_text(block, "conllu")
        assert diags == []
        assert len(trees[0]) == 2

    @pytest.mark.parametrize("text", ["foo", "1-", "1.x", "1-2-3"])
    def test_non_token_id_is_a_diagnostic(self, text):
        """A CoNLL-U ID that is neither an integer, nor a multiword-token
        range i-j, nor an empty node i.j spoils its block, as in the TSV
        format."""
        block = ("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
                 f"{text}\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
                 "2\tc\t_\t_\t_\t_\t1\tdep\t_\t_\n")
        trees, diags = parse_text(block, "conllu")
        assert trees == []
        assert [(d.line, d.reason) for d in diags] == [(2, f"non-integer index {text!r}")]

    @pytest.mark.parametrize("format", sorted(FORMATS))
    @pytest.mark.parametrize("column", ["index", "head"])
    @pytest.mark.parametrize("text", [" 0 ", "+0", "1_0", "\u0660", "-0", "-00", "007"],
                             ids=["spaces", "plus", "underscore", "arabic-indic-zero",
                                  "minus-zero", "minus-double-zero", "leading-zeros"])
    def test_integers_are_ascii_digits(self, format, column, text):
        """IDs and heads that `int` takes and CoNLL-U does not (as a root,
        as token 10 or as token 7) are non-integers. A head of "-0" beside
        the root is a non-integer head, not a second root."""
        row = (text, "b", 1, "dep") if column == "index" else (2, "b", text, "dep")
        lines = _lines(format, [(1, "a", 0, "root"), row])
        trees, diags = parse_text("\n".join(lines) + "\n", format)
        assert trees == []
        assert [(d.line, d.reason) for d in diags] == [(2, f"non-integer {column} {text!r}")]

    @pytest.mark.parametrize("format", sorted(FORMATS))
    @pytest.mark.parametrize("column", ["index", "head"])
    def test_integers_past_the_digit_limit(self, format, column):
        """An ID or head longer than `int` converts (4300 digits by default)
        spoils its block like any other non-integer."""
        text = "1" * 5000
        row = (text, "b", 1, "dep") if column == "index" else (2, "b", text, "dep")
        lines = _lines(format, [(1, "a", 0, "root"), row])
        trees, diags = parse_text("\n".join(lines) + "\n", format)
        assert trees == []
        assert [(d.line, d.reason) for d in diags] == [(2, f"non-integer {column} {text!r}")]

    @pytest.mark.parametrize("format", sorted(FORMATS))
    def test_negative_integers_keep_their_messages(self, format):
        text = "\n\n".join("\n".join(_lines(format, [(1, "a", 0, "root"), row]))
                           for row in [(-1, "b", 1, "dep"), (2, "b", -1, "dep")]) + "\n"
        trees, diags = parse_text(text, format)
        assert trees == []
        assert [(d.line, d.reason) for d in diags] == [
            (2, "token index must be >= 1, got -1"), (5, "head must be >= 0, got -1")]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("exclude_punct", [False, True])
    def test_diagnostics_keep_line_numbers_across_skipped_lines(self, newline, exclude_punct):
        """Comments, multiword-token and empty-node lines and whitespace-only
        separators are lines too: each diagnostic names its own line."""
        row = lambda *cols: "\t".join([cols[0], cols[1], "_", "_", "_", "_", *cols[2:], "_", "_"])
        lines = [
            "# sent_id = a", "# text = du le",
            row("1-2", "du", "_", "_"), row("1", "de", "2", "case"),
            row("1.1", "ghost", "_", "_"), row("2", "le", "0", "root"),
            " \t ",                                                        # 7
            "# sent_id = b", row("1-2", "du", "_", "_"),
            row("1", "de", "zz", "case"), row("2", "le", "0", "root"),    # 10: bad head
            "", "   ",
            "# sent_id = c", row("1", "a", "0", "root"),
            row("2", ".", "2", "punct"),                                  # 16: own head
            "\t",
            "# sent_id = d", row("1-2", "du", "_", "_"),                  # 18: block start
            row("1", "a", "0", "root"), row("3", "b", "1", "dep"),
            "", row("1", "x", "0", "root"), row("2", "y", "1", "dep"),
        ]
        trees, diags = parse_text(newline.join(lines) + newline, "conllu", exclude_punct)
        assert [t.forms for t in trees] == [("de", "le"), ("x", "y")]
        assert [(d.line, d.reason) for d in diags] == [
            (10, "non-integer head 'zz'"), (16, "token 2 is its own head"),
            (18, "token indices not contiguous 1..n")]

    def test_tsv_roundtrip(self, fig3_tree):
        trees, diags = parse_text(to_tsv(fig3_tree), "tsv")
        assert diags == []
        assert trees[0] == fig3_tree

    def test_conllu_roundtrip(self, fig3_tree):
        trees, diags = parse_text(to_conllu(fig3_tree, "x"), "conllu")
        assert diags == []
        assert trees[0] == fig3_tree

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_text("", "xml")

    def test_tsv_minimal_alias_gone(self):
        with pytest.raises(ValueError, match="unknown corpus format"):
            parse_text("1\tw\t0\troot\n", "tsv-minimal")

    @pytest.mark.parametrize("format, lines, diagnostic", [
        ("conllu", ["1\ta\t_\t_\t_\t_\t0\troot\t_\t_", "2\tb\t1\tdep"],
         (16, "expected 10 columns, got 4")),
        ("tsv", ["1\ta\t0\troot", "2\tb\t1"], (16, "expected 4 columns, got 3")),
        ("tsv", ["1-2\tab\t0\troot"], (15, "non-integer index '1-2'")),
        ("conllu", ["1\ta\t_\t_\t_\t_\t0\troot\t_\t_",
                    "2\tb\t_\t_\t_\t_\t0\troot\t_\t_"], (14, "multiple roots")),
        ("tsv", ["1\ta\t0\troot", "2\tb\t0\troot"], (14, "multiple roots")),
        *((format, _lines(format, rows), diagnostic) for format in FORMATS
          for rows, diagnostic in ROW_DIAGNOSTICS)])
    def test_diagnostic_line(self, fig3_tree, format, lines, diagnostic):
        """A bad line is reported at its own line, an invalid tree at its
        block's first line: 14, the comment after the 12-line fig3 block
        and a blank line."""
        fig3 = to_conllu(fig3_tree, "fig3") if format == "conllu" \
            else "# fig3\n" + to_tsv(fig3_tree)
        text = fig3 + "\n# sent_id = bad\n" + "\n".join(lines) + "\n\n" + fig3
        trees, diags = parse_text(text, format)
        assert trees == [fig3_tree, fig3_tree]
        assert [(d.line, d.reason) for d in diags] == [diagnostic]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4))
    def test_random_trees_roundtrip(self, seed, sizes):
        rng = np.random.default_rng(seed)
        trees = [random_tree(rng, n) for n in sizes]
        conllu = "\n".join(to_conllu(t, f"s{i}") for i, t in enumerate(trees))
        tsv = "\n".join(to_tsv(t) for t in trees)
        assert parse_text(conllu) == (trees, [])
        assert parse_text(tsv, "tsv") == (trees, [])


class TestStructure:
    def test_fig3_projective(self, fig3_tree):
        assert is_projective(fig3_tree.heads)

    def test_single_token_projective(self):
        assert is_projective([0])

    def test_minimal_crossing(self):
        # arcs 1->3 and 2->4 cross
        assert not is_projective([3, 4, 0, 3])

    def test_arc_over_root_not_projective(self):
        assert not is_projective([3, 0, 2])

    def test_subtree_yields(self, fig3_tree):
        spans = subtree_spans(fig3_tree)
        assert spans[8] == (6, 9)   # rote hue bacche ko
        assert spans[10] == (10, 10)
        assert spans[11] == (1, 11)

    def test_nonprojective_tree_has_no_spans(self):
        assert subtree_spans(heads_tree([3, 4, 0, 3])) is None


def brute_force_projective(tree) -> bool:
    """O(n^2) pairwise arc-interleaving check, root arc included."""
    arcs = [(min(h, d), max(h, d)) for d, h in enumerate(tree.heads, start=1) if h]
    arcs.append((0, tree.root_index))
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1:]:
            if a < c < b < d or c < a < d < b:
                return False
    return True


def test_projectivity_matches_brute_force():
    rng = np.random.default_rng(1234)
    agree = 0
    for _ in range(1000):
        tree = random_tree(rng, int(rng.integers(2, 13)))
        assert is_projective(tree.heads) == brute_force_projective(tree)
        agree += 1
    assert agree == 1000


def test_yield_members_pass_through_head():
    rng = np.random.default_rng(99)
    for _ in range(200):
        tree = random_tree(rng, int(rng.integers(2, 10)))
        if not is_projective(tree.heads):
            continue
        spans = subtree_spans(tree)
        for h in range(1, len(tree) + 1):
            lo, hi = spans[h]
            for pos in range(lo, hi + 1):
                path, cur = [], pos
                while cur != 0:
                    path.append(cur)
                    cur = tree.heads[cur - 1]
                assert h in path


def _validate_by_walk(heads):
    """The reference validation: from every token, walk the head links to
    the root."""
    if not heads:
        return "empty sentence"
    n = len(heads)
    roots = [i for i, h in enumerate(heads, start=1) if h == 0]
    if len(roots) == 0:
        return "no root"
    if len(roots) > 1:
        return "multiple roots"
    for i, h in enumerate(heads, start=1):
        if h < 0 or h > n:
            return f"head {h} out of range for token {i}"
    for i in range(1, n + 1):
        seen, cur = set(), i
        while cur != 0:
            if cur in seen:
                return "cycle in head links"
            seen.add(cur)
            cur = heads[cur - 1]
    return None


@st.composite
def head_arrays(draw):
    """Heads lists with zero, one or two roots, every other head anywhere
    in 1..n, the token itself included, so cycles are common, and at times
    one head out of range, above n or negative."""
    n = draw(st.integers(0, 9))
    n_roots = min(n, draw(st.sampled_from((0, 1, 1, 1, 2))))
    roots = draw(st.lists(st.integers(1, n), min_size=n_roots,
                          max_size=n_roots, unique=True)) if n else []
    heads = [0 if i in roots else draw(st.integers(1, n)) for i in range(1, n + 1)]
    if n and draw(st.integers(0, 4)) == 0:
        heads[draw(st.integers(0, n - 1))] = draw(st.sampled_from((n + 1, -1)))
    return heads


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(heads=head_arrays())
def test_validation_matches_walk_to_root(heads):
    try:
        heads_tree(heads)
        reason = None
    except ValueError as e:
        reason = str(e)
    assert reason == _validate_by_walk(heads)


def _yields(heads) -> list:
    """Every token's yield of a valid heads column as a sorted list, found
    by walking each token's head links to the root; index 0 unused."""
    yields = [[] for _ in range(len(heads) + 1)]
    for token in range(1, len(heads) + 1):
        node = token
        while node:
            yields[node].append(token)
            node = heads[node - 1]
    return yields


def test_every_head_array_up_to_six_tokens():
    """The whole small domain, where the properties above draw samples:
    every heads column of n <= 6 tokens with each head in 0..n, valid or
    not, parsed as one CoNLL-U text by both readers (`parse_text`). Each block is a tree,
    or a heads column, or a diagnostic as `_validate_by_walk` says (a token
    that is its own head is named at its line first); each tree's yields,
    projectivity and plan match those found from its head links, the
    pairwise arc check and `oracles.decompose`."""
    columns = [heads for n in range(1, 7) for heads in itertools.product(range(n + 1), repeat=n)]
    rows = [[f"{i}\tw\t_\t_\t_\t_\t{h}\tdep\t_\t_" for h in range(7)] for i in range(7)]
    lines, starts = [], []
    for heads in columns:
        starts.append(len(lines) + 1)
        lines.extend(rows[i][h] for i, h in enumerate(heads, start=1))
        lines.append("")
    trees, diagnostics = parse_text("\n".join(lines))
    want_trees, want_diagnostics = [], []
    for start, heads in zip(starts, columns):
        own = next((i for i, h in enumerate(heads, start=1) if h == i), None)
        reason = None if own is not None else _validate_by_walk(heads)
        if own is not None:
            want_diagnostics.append((start + own - 1, f"token {own} is its own head"))
        elif reason is not None:
            want_diagnostics.append((start, reason))
        else:
            want_trees.append(heads)
    assert [(d.line, d.reason) for d in diagnostics] == want_diagnostics
    assert [tree.heads for tree in trees] == want_trees
    assert len(trees) == sum(n ** (n - 1) for n in range(1, 7))   # Cayley: rooted trees
    for tree in trees:
        yields = _yields(tree.heads)
        contiguous = all(y[-1] - y[0] + 1 == len(y) for y in yields[1:])
        assert is_projective(tree.heads) == contiguous == brute_force_projective(tree)
        assert subtree_spans(tree) == ([(0, 0), *((y[0], y[-1]) for y in yields[1:])]
                                       if contiguous else None)
        assert decompose(tree.heads) == oracles.decompose(tree)


def test_columns_of_unequal_length_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        DependencyTree([2, 0], ["a", "b"], ["dep"])


def stripped(tree) -> DependencyTree:
    """The tree parsed back with `exclude_punct`."""
    (tree,), _ = parse_text(to_conllu(tree), exclude_punct=True)
    return tree


def test_strip_punct():
    tree = stripped(DependencyTree([2, 0, 2], ["hi", "there", "."], ["dep", "root", "punct"]))
    assert tree.forms == ("hi", "there")
    assert tree.root_index == 2


def _strip_punct_by_token_list(tree, deprels=PUNCT_DEPRELS):
    """The reference punctuation stripping over (index, form, head, deprel)
    rows: drop every non-root punctuation leaf until none is left, then
    renumber the rows that remain."""
    rows = [(i, form, head, rel) for i, (head, form, rel)
            in enumerate(zip(tree.heads, tree.forms, tree.deprels), start=1)]
    while True:
        has_dep = {head for _, _, head, _ in rows}
        drop = {i for i, _, head, rel in rows
                if rel in deprels and i not in has_dep and head != 0}
        if not drop:
            break
        rows = [row for row in rows if row[0] not in drop]
    remap = {row[0]: new for new, row in enumerate(rows, start=1)}
    remap[0] = 0
    return DependencyTree([remap[head] for _, _, head, _ in rows],
                          [form for _, form, _, _ in rows],
                          [rel for _, _, _, rel in rows])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), data=st.data())
def test_strip_punct_matches_token_list(seed, n, data):
    """Random trees with random punctuation deprels, the root's included."""
    base = random_tree(np.random.default_rng(seed), n)
    rels = data.draw(st.lists(st.sampled_from(["punct", "rsym", "SYM", "dep"]),
                              min_size=n, max_size=n))
    tree = DependencyTree(base.heads, base.forms, rels)
    got = stripped(tree)
    assert got == _strip_punct_by_token_list(tree)
    has_dep = set(got.heads)
    assert all(rel not in PUNCT_DEPRELS or i in has_dep or head == 0
               for i, (head, rel) in enumerate(zip(got.heads, got.deprels), 1))
    kept = [int(form[1:]) for form in got.forms]   # forms are w1..wn
    assert kept == sorted(kept)


PUNCT_OR_DEP = st.sampled_from(["punct", "rsym", "SYM", "dep"])

# Every character that str.splitlines() breaks at ("\r\n" comes from "\r"
# then "\n"), and characters of blank and non-blank lines.
LINE_ALPHABET = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                 "\u2029", " ", "\t", "a", "#"]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(text=st.text(st.sampled_from(LINE_ALPHABET), max_size=60), data=st.data())
def test_chunked_lines_match_splitlines(text, data):
    """Any split of the text into pieces, empty ones and a "\r\n" cut in two
    included, gives the text's lines."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=10)))
    pieces = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    assert "".join(pieces) == text
    assert list(treebank._iter_lines(pieces)) == list(enumerate(text.splitlines(), 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=st.text(st.sampled_from(LINE_ALPHABET), max_size=60), chunk=st.integers(1, 7))
def test_iter_trees_chunks_match_one_piece(text, chunk):
    """The size of the pieces the text arrives in does not change what
    `iter_trees` parses."""
    text = CONLLU_FIG3 + text + "\n1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n" + text
    diagnostics = []
    pieces = (text[i:i + chunk] for i in range(0, len(text), chunk))
    assert (list(iter_trees(pieces, diagnostics)), diagnostics) == parse_text(text)


# Lines that spoil their block in either format, or split it ("   ").
MALFORMED_LINES = ["garbage", "1\ta\tb", "x\ty\t0\troot", "   ", "# note",
                   "\t".join(["2", "b", "_", "_", "_", "_", "h", "dep", "_", "_"])]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(format=st.sampled_from(sorted(FORMATS)), data=st.data(),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_exclude_punct_matches_token_list(format, data, seeds):
    """Random trees with punctuation deprels, some with one head moved
    anywhere in -1..n+1, some with a cycle through punctuation tokens, some
    with a punctuation leaf whose head is n + 1, and some with a malformed
    line: stripping on the columns gives the trees and diagnostics of
    parsing, then stripping each tree's token list."""
    blocks = []
    for seed in seeds:
        tree = random_tree(np.random.default_rng(seed), data.draw(st.integers(1, 10)))
        heads, n = list(tree.heads), len(tree)
        rels = data.draw(st.lists(PUNCT_OR_DEP, min_size=n, max_size=n))
        fault = data.draw(st.sampled_from(["none", "head", "punct cycle", "punct leaf past n"]))
        non_root = [i for i in range(n) if heads[i]]
        if fault == "head":
            heads[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-1, n + 1))
        elif fault == "punct cycle" and len(non_root) >= 2:
            # each token on the cycle heads the next; the first is punctuation
            cycle = data.draw(st.lists(st.sampled_from(non_root), min_size=2,
                                       max_size=4, unique=True))
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                heads[i] = j + 1
            rels[cycle[0]] = "punct"
        elif fault == "punct leaf past n":
            leaves = [i for i in non_root if i + 1 not in heads]
            if leaves:
                leaf = data.draw(st.sampled_from(leaves))
                heads[leaf], rels[leaf] = n + 1, "punct"
        lines = _lines(format, zip(range(1, n + 1), tree.forms, heads, rels))
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(0, n)), data.draw(st.sampled_from(MALFORMED_LINES)))
        blocks.append("\n".join(lines))
    text = "\n\n".join(blocks) + "\n"
    trees, diagnostics = parse_text(text, format)
    assert parse_text(text, format, exclude_punct=True) == \
        ([_strip_punct_by_token_list(t) for t in trees], diagnostics)


def test_parse_transient_memory_is_small():
    """Parsing a text that arrives in 64 KiB pieces holds a few lines at a
    time, not the whole text as lines: what it allocates beyond the trees
    it returns stays under half the text's size (the whole-text line list
    alone was about 3 times it)."""
    rng = np.random.default_rng(5)
    blocks = []
    for i in range(200):
        tree = random_tree(rng, int(rng.integers(5, 30)))
        rels = rng.choice(["punct", "dep", "dep", "dep"], size=len(tree)).tolist()
        blocks.append(to_conllu(DependencyTree(tree.heads, tree.forms, rels), f"s{i}"))
    unit = "\n".join(blocks) + "\n"
    text = unit * -(-2_000_000 // len(unit))
    diagnostics = []
    pieces = (text[i:i + 64 * 1024] for i in range(0, len(text), 64 * 1024))
    # the generators do no work before `list` consumes them
    trees, retained, peak = traced(list, iter_trees(pieces, diagnostics, "conllu",
                                                    exclude_punct=True))
    assert len(text) >= 2_000_000
    assert diagnostics == [] and len(trees) == 200 * (len(text) // len(unit))
    assert peak - retained <= 0.5 * len(text)
