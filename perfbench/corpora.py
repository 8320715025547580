"""Seeded CoNLL-U corpora for the benchmark workloads.

The generators here are the benchmark's own and import nothing from deplen,
so a workload's input stays byte-identical however the program changes.
They draw from `random.Random(seed)`, whose sequence Python keeps stable
across versions. Each returns a `Corpus`: the text the program reads, plus
what the generator planted, which the product checks compare against.
"""

import hashlib
import math
import random
from dataclasses import dataclass, field

CAP = 100   # variant cap passed to report-all; pairs per sentence depend on it

# Skip reasons and parse diagnostics as deplen words them. A planted block
# of each kind must be reported under exactly this reason.
NON_PROJECTIVE = "non-projective"
NO_PREVERBAL = "no preverbal constituents"
SINGLE = "fewer than 2 constituents"


@dataclass
class Corpus:
    text: str
    sentences: int = 0                  # blocks written, malformed ones included
    tokens: int = 0                     # token lines written, punctuation included
    eligible_ks: list = field(default_factory=list)
    skipped: dict = field(default_factory=dict)            # skip reason -> count
    parse_diagnostics: dict = field(default_factory=dict)  # diagnostic kind -> count

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    @property
    def expected_pairs(self) -> int:
        return sum(min(math.factorial(k), CAP) - 1 for k in self.eligible_ks)

    def summary(self) -> dict:
        return {"sha256": self.sha256, "sentences": self.sentences,
                "tokens": self.tokens, "eligible": len(self.eligible_ks),
                "expected_pairs": self.expected_pairs,
                "skipped": dict(sorted(self.skipped.items())),
                "parse_diagnostics": dict(sorted(self.parse_diagnostics.items()))}


# ---------------------------------------------------------------------------
# sentence building: tokens are [form, head, deprel] with head an index into
# the sentence's token list (None for the root) until `_token_rows` numbers them.

def _constituent(rng, toks, length, head_of_head):
    """Append a projective constituent of `length` tokens; return its head.

    The head is uniform in the span. Every other token attaches to its
    inward neighbour or straight to the head, so the yield is contiguous.
    """
    start = len(toks)
    head = start + rng.randrange(length)
    for i in range(start, start + length):
        if i == head:
            toks.append(["w", head_of_head, "arg"])
        elif i < head:
            toks.append(["w", i + 1 if rng.random() < 0.5 else head, "mod"])
        else:
            toks.append(["w", i - 1 if rng.random() < 0.5 else head, "mod"])
    return head


def _least_effort(rng, lengths):
    """Random order, then the shortest constituent (the one nearest the verb
    among ties) moves next to the verb."""
    order = list(lengths)
    rng.shuffle(order)
    shortest = min(order)
    pos = max(i for i, n in enumerate(order) if n == shortest)
    return order[:pos] + order[pos + 1:] + [order[pos]]


def _verb_final(rng, lengths):
    """Constituents in the given order, then the verb. Returns (toks, heads)."""
    toks, heads = [], []
    for n in lengths:
        heads.append(_constituent(rng, toks, n, "VERB"))
    verb = len(toks)
    toks.append(["V", None, "root"])
    for t in toks:
        if t[1] == "VERB":
            t[1] = verb
    return toks, heads


def _token_rows(toks):
    """CoNLL-U token lines; heads become 1-based positions, the root 0."""
    return [f"{i + 1}\t{form}\t_\t_\t_\t_\t{0 if head is None else head + 1}\t{deprel}\t_\t_"
            for i, (form, head, deprel) in enumerate(toks)]


def _render(sent_id, rows, comments=()):
    return "\n".join([f"# sent_id = {sent_id}", *comments, *rows]) + "\n\n"


def _composition(rng, total, parts):
    """`parts` positive integers summing to `total`, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


# ---------------------------------------------------------------------------
# workload generators

def quotas(n, weights):
    """`n` labels, label w appearing round(n * weight) times, the largest
    remainders making up the total. Workloads fix their mix this way and let
    the seed only shuffle it, so every seed asks for the same amount of work.
    """
    exact = [(label, n * w) for label, w in weights]
    counts = {label: int(x) for label, x in exact}
    by_remainder = sorted(exact, key=lambda lx: lx[1] - int(lx[1]), reverse=True)
    for label, _ in by_remainder[:n - sum(counts.values())]:
        counts[label] += 1
    return [label for label, _ in weights for _ in range(counts[label])]


def least_effort_corpus(seed, ks, length_at):
    """Eligible verb-final sentences whose reference order follows least
    effort, one per entry of `ks` (constituent counts, shuffled by the seed).

    Constituent lengths are `length_at(u)` of stratified uniforms u, one per
    stratum of [0, 1) across the corpus, so the total length hardly varies
    with the seed while the lengths still follow the distribution.
    """
    rng = random.Random(seed)
    ks = list(ks)
    rng.shuffle(ks)
    m = sum(ks)
    strata = [(j + rng.random()) / m for j in range(m)]
    rng.shuffle(strata)
    corpus = Corpus("", sentences=len(ks))
    parts = []
    for i, k in enumerate(ks):
        lengths = _least_effort(rng, [length_at(strata.pop()) for _ in range(k)])
        toks, _ = _verb_final(rng, lengths)
        parts.append(_render(f"b{i + 1}", _token_rows(toks)))
        corpus.tokens += len(toks)
        corpus.eligible_ks.append(k)
    corpus.text = "".join(parts)
    return corpus


def uniform_length(lo, hi):
    """Quantile function of the uniform distribution on lo..hi."""
    return lambda u: lo + int(u * (hi - lo + 1))


def geometric_length(p, cap):
    """Quantile function of the geometric distribution on 1, 2, ... (mean
    1/p), capped at `cap`."""
    return lambda u: min(cap, 1 + int(math.log1p(-u) / math.log1p(-p)))


def _set_head(rows, i, head):
    cols = rows[i].split("\t")
    cols[6] = str(head)
    rows[i] = "\t".join(cols)
    return rows


# Planted parse failures: kind -> how to break a verb-final clause's token
# rows (rows[0] is token 1; the verb is token 3 or later).
MALFORMED = {
    "wrong column count": lambda rows: [rows[0].rsplit("\t", 1)[0], *rows[1:]],
    "non-integer head": lambda rows: _set_head(rows, 0, "x"),
    "own head": lambda rows: _set_head(rows, 1, 2),
    "head out of range": lambda rows: _set_head(rows, 0, 99),
    "multiple roots": lambda rows: _set_head(rows, 0, 0),
    # tokens 1 and 2 head each other; the verb stays the single root
    "cycle": lambda rows: _set_head(_set_head(rows, 0, 2), 1, 1),
    "indices not contiguous": lambda rows: rows[:1] + rows[2:],
}


INGEST_KINDS = (("eligible", 0.05), (NON_PROJECTIVE, 0.36), (NO_PREVERBAL, 0.28),
                (SINGLE, 0.29), ("malformed", 0.02))


def ingest_corpus(seed, n_sentences):
    """Treebank-like sentences of 8-35 tokens, most of them ineligible.

    Planted kinds, in the fixed shares of INGEST_KINDS: eligible verb-final
    clauses with k in 2..4 (one in twenty), non-projective trees,
    verb-initial clauses (no preverbal constituent), single-constituent
    clauses, and malformed blocks (one in fifty).
    Every sentence carries punctuation leaves, which `--exclude-punct`
    removes without changing its kind; some carry a multiword-token line.

    deplen also knows the skip reason "root child yield straddles the verb",
    but no projective tree can reach it: a root child's contiguous yield
    cannot contain the verb, which is not its descendant. So it is not
    planted.
    """
    rng = random.Random(seed)
    kinds = quotas(n_sentences, INGEST_KINDS)
    rng.shuffle(kinds)
    eligible_ks = quotas(kinds.count("eligible"), ((2, 1 / 3), (3, 1 / 3), (4, 1 / 3)))
    rng.shuffle(eligible_ks)
    malformed = sorted(MALFORMED)
    corpus = Corpus("")
    parts = []
    for i, kind in enumerate(kinds):
        total = rng.randint(8, 35)
        # content words: the total minus the verb and 1-3 punctuation tokens
        n_punct = rng.randint(1, 3)
        words = total - 1 - n_punct
        if kind == "eligible":
            k = eligible_ks.pop()
            toks, _ = _verb_final(rng, _composition(rng, words, k))
        elif kind == NON_PROJECTIVE:
            toks = _non_projective(rng, words, rng.randint(2, 4))
        elif kind == "malformed":
            toks, _ = _verb_final(rng, _composition(rng, words, rng.randint(2, 4)))
        elif kind == NO_PREVERBAL:
            toks = [["V", None, "root"]]
            for n in _composition(rng, words, rng.randint(1, 3)):
                _constituent(rng, toks, n, 0)
        else:
            pre, post = _composition(rng, words, 2)
            toks, _ = _verb_final(rng, [pre])
            _constituent(rng, toks, post, len(toks) - 1)
        toks = _add_punct(rng, toks, n_punct)
        rows = _token_rows(toks)
        if kind == "malformed":
            reason = rng.choice(malformed)
            rows = MALFORMED[reason](rows)
            corpus.parse_diagnostics[reason] = corpus.parse_diagnostics.get(reason, 0) + 1
        elif kind == "eligible":
            corpus.eligible_ks.append(k)
        else:
            corpus.skipped[kind] = corpus.skipped.get(kind, 0) + 1
        if rng.random() < 0.2:
            # a multiword-token range line over two tokens, which parsers skip
            at = rng.randrange(len(toks) - 1)
            rows.insert(at, f"{at + 1}-{at + 2}\t{toks[at][0]}{toks[at + 1][0]}" + "\t_" * 8)
        comments = [f"# text = {' '.join(t[0] for t in toks)}"]
        parts.append(_render(f"t{i + 1}", rows, comments))
        corpus.sentences += 1
        corpus.tokens += len(toks)
    corpus.text = "".join(parts)
    return corpus


def _non_projective(rng, words, k):
    """Verb-final clause made non-projective without involving punctuation.

    The leftmost token of the first constituent, a leaf whenever it is not
    that constituent's head, attaches to the second constituent's head; the
    rest of the first constituent then sits in the gap. The first
    constituent gets at least 2 tokens, and is redrawn until its head is not
    its leftmost token.
    """
    k = min(k, words - 1)
    while True:
        lengths = _composition(rng, words - 1, k)
        lengths[0] += 1
        toks, heads = _verb_final(rng, lengths)
        if heads[0] != 0:
            toks[0][1] = heads[1]
            return toks


def _add_punct(rng, toks, n_punct):
    """Add `n_punct` punctuation leaves: a final one attached to the last
    token, the others each right after the token it attaches to. A leaf next
    to its head keeps every yield contiguous, so the sentence keeps its kind
    with or without the punctuation."""
    out = [list(t) for t in toks]
    for _ in range(n_punct - 1):
        at = rng.randrange(len(out))
        # insert after position `at`, attached to the token at `at`
        out.insert(at + 1, [",", at, "punct"])
        for j, t in enumerate(out):
            if j != at + 1 and t[1] is not None and t[1] > at:
                t[1] += 1
    out.append([".", len(out) - 1, "punct"])
    return out
