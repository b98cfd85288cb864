"""Seeded input corpora for the three benchmark workloads.

Every corpus is a pure function of (workload, seed, size preset): the same
arguments give byte-identical files. The *shape* of a corpus (number of
groups, rows, subjects, expression lengths and kinds) is fixed by the size
preset, and the seed only draws the content, so timings from different
seeds measure the same amount of work.

Expressions are built in two forms at once: the text the CLI receives and a
postfix (RPN) program the exact reference evaluates. Postfix keeps the
reference iterative, so 3000-term left-deep chains need no recursion.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: The package's built-in A-F scale, (label, lower, upper), highest first.
DEFAULT_SCALE = (("A", 85, 100), ("B", 75, 84), ("C", 60, 74), ("D", 50, 59), ("F", 0, 49))

#: A twelve-grade scale with one-point gaps between grades, written to a
#: scale file for the scores-sheet workload.
FINE_SCALE = (
    ("A+", 97, 100), ("A", 93, 96), ("A-", 90, 92),
    ("B+", 87, 89), ("B", 83, 86), ("B-", 80, 82),
    ("C+", 77, 79), ("C", 73, 76), ("C-", 70, 72),
    ("D+", 67, 69), ("D", 60, 66), ("F", 0, 59),
)

SIZES = {
    # groups: counts-many groups; score_rows/subjects: scores-sheet;
    # exprs/max_terms: calc-exprs expressions per pass and longest one
    "full": {"groups": 5000, "score_rows": 150_000, "subjects": 2000, "exprs": 30, "max_terms": 3000},
    "tiny": {"groups": 60, "score_rows": 600, "subjects": 20, "exprs": 9, "max_terms": 1200},
}

#: Left-deep trees at least this tall overflow the package's recursive
#: evaluator; the reference treats a RecursionError there as a known defect.
DEEP_TREE = 500


@dataclass
class Expression:
    text: str
    rpn: list  # ("lit", lo, hi) tuples and operator characters
    terms: int  # number of literals
    ops: int  # number of binary operations
    height: int  # height of the parse tree (left-associative)


@dataclass
class Corpus:
    workload: str
    seed: int
    preset: str
    files: dict[str, Path] = field(default_factory=dict)
    # counts-many: [(group, {label: count})] in file order
    groups: list = field(default_factory=list)
    # scores-sheet: [(subject, [score in hundredths])] in first-appearance order
    subjects: list = field(default_factory=list)
    expressions: list[Expression] = field(default_factory=list)
    scale: tuple = DEFAULT_SCALE
    rows: int = 0
    items: int = 0
    item_kind: str = ""
    digest: str = ""


def build(workload: str, seed: int, workdir: Path, preset: str = "full") -> Corpus:
    """Generate the corpus for ``workload`` into ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[preset]
    corpus = Corpus(workload, seed, preset)
    digest = hashlib.sha256()
    if workload == "counts-many":
        _counts(corpus, rng, size["groups"], workdir, digest)
    elif workload == "scores-sheet":
        _scores(corpus, rng, size["score_rows"], size["subjects"], workdir, digest)
    elif workload == "calc-exprs":
        _calc(corpus, rng, size["exprs"], size["max_terms"], digest)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    corpus.digest = digest.hexdigest()[:16]
    return corpus


# -- counts-many -------------------------------------------------------------

def _counts(corpus: Corpus, rng: random.Random, n_groups: int, workdir: Path, digest) -> None:
    labels = [label for label, _, _ in DEFAULT_SCALE]
    n_single = max(1, n_groups // 25)
    n_boundary = max(1, n_groups // 50)
    n_large = max(1, n_groups * 14 // 100)
    n_small = (n_groups - n_single - n_boundary - n_large) // 2
    n_class = n_groups - n_single - n_boundary - n_large - n_small
    plan = (["small"] * n_small + ["class"] * n_class + ["large"] * n_large
            + ["single"] * n_single + ["boundary"] * n_boundary)
    rng.shuffle(plan)
    lines = ["group,grade,count"]
    for i, kind in enumerate(plan):
        name = f"g{i:06d}"
        if kind == "boundary":
            counts = _boundary_group(rng)
        elif kind == "single":
            counts = {rng.choice(labels): _group_size(rng, rng.choice(("small", "class", "large")))}
        else:
            counts = _spread(rng, labels, _group_size(rng, kind))
        corpus.groups.append((name, counts))
        present = [label for label in labels if counts.get(label)]
        # a zero count is usually left out, sometimes written explicitly
        present += [label for label in labels if not counts.get(label) and rng.random() < 0.1]
        rng.shuffle(present)
        lines.extend(f"{name},{label},{counts.get(label, 0)}" for label in present)
    corpus.rows = len(lines) - 1
    corpus.items, corpus.item_kind = len(corpus.groups), "groups"
    corpus.files["counts"] = _write(workdir / "counts.csv", "\n".join(lines) + "\n", digest)


def _group_size(rng: random.Random, kind: str) -> int:
    if kind == "small":
        return rng.randint(1, 10)
    if kind == "class":
        return rng.randint(30, 60)
    return rng.randint(1000, 10_000)


def _spread(rng: random.Random, labels: list[str], n: int) -> dict[str, int]:
    """Split n objects over the grades with skewed random weights."""
    weights = [rng.random() ** 2 for _ in labels]
    total = sum(weights)
    counts = [int(n * w / total) for w in weights]
    for _ in range(n - sum(counts)):
        counts[rng.randrange(len(labels))] += 1
    return {label: c for label, c in zip(labels, counts) if c}


def _boundary_group(rng: random.Random) -> dict[str, int]:
    """A two-grade group whose exact whitened value (t=1/2) is a grade's lower bound.

    With endpoint sums s1 > 2B > s2, counts c1 = (2B-s2)k/g and
    c2 = (s1-2B)k/g put the mean midpoint exactly on B.
    """
    bound = rng.choice([lo for _, lo, _ in DEFAULT_SCALE[:-1]])
    above = [(label, lo + hi) for label, lo, hi in DEFAULT_SCALE if lo + hi > 2 * bound]
    below = [(label, lo + hi) for label, lo, hi in DEFAULT_SCALE if lo + hi < 2 * bound]
    (hi_label, s1), (lo_label, s2) = rng.choice(above), rng.choice(below)
    a, b = s1 - 2 * bound, 2 * bound - s2
    g = math.gcd(a, b)
    unit = (a + b) // g
    k = rng.randint(1, max(1, 10_000 // unit))
    return {hi_label: b // g * k, lo_label: a // g * k}


# -- scores-sheet ------------------------------------------------------------

def _scores(corpus: Corpus, rng: random.Random, n_rows: int, n_subjects: int,
            workdir: Path, digest) -> None:
    corpus.scale = FINE_SCALE
    scale_lines = ["# twelve-grade scale, one-point gaps between grades", "domain 0 100"]
    scale_lines += [f"{label} {lo} {hi}" for label, lo, hi in FINE_SCALE]
    corpus.files["scale"] = _write(workdir / "fine_scale.txt", "\n".join(scale_lines) + "\n", digest)

    # Zipf-like subject sizes: most subjects have a handful of rows, a few
    # have thousands. The sizes depend on the preset only, not the seed.
    raw = [1 / (i + 1) ** 1.2 for i in range(n_subjects)]
    total = sum(raw)
    sizes = [max(1, int(n_rows * r / total)) for r in raw]
    sizes[0] += n_rows - sum(sizes)
    names = [f"s{i:05d}" for i in range(n_subjects)]
    rng.shuffle(names)
    owner = [i for i, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(owner)

    params = [(rng.uniform(35, 95), rng.uniform(3, 15)) for _ in range(n_subjects)]
    scores: dict[int, list[int]] = {}
    lines = ["subject,score"]
    for i in owner:
        mu, sd = params[i]
        cents = min(10_000, max(0, round(rng.gauss(mu, sd) * 100)))
        scores.setdefault(i, []).append(cents)
        lines.append(f"{names[i]},{cents // 100}.{cents % 100:02d}")
    corpus.subjects = [(names[i], values) for i, values in scores.items()]
    corpus.rows = n_rows
    corpus.items, corpus.item_kind = n_rows, "score rows"
    corpus.files["scores"] = _write(workdir / "scores.csv", "\n".join(lines) + "\n", digest)


# -- calc-exprs --------------------------------------------------------------

def _calc(corpus: Corpus, rng: random.Random, n_exprs: int, max_terms: int, digest) -> None:
    builders = (_chain, _tree, _poly)
    zero_div = {n_exprs // 4, 3 * n_exprs // 4}
    for i in range(n_exprs):
        terms = max(3, round(3 * (max_terms / 3) ** (i / (n_exprs - 1))))
        expr = builders[i % 3](rng, terms)
        if i in zero_div:
            expr = _append_zero_division(rng, expr)
        if len(expr.text.encode()) >= 120 * 1024:
            raise ValueError(f"expression {i} exceeds the single-argument limit")
        corpus.expressions.append(expr)
        digest.update(expr.text.encode() + b"\n")
    corpus.items = sum(e.terms for e in corpus.expressions)
    corpus.item_kind = "expression terms"


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 2)


def _leaf(rng: random.Random, divisor: bool = False) -> tuple[str, tuple]:
    """A literal: an interval (possibly with negative endpoints) or a bare number.

    Divisor literals stay at least 0.5 away from zero.
    """
    if divisor:
        a, b = sorted((_num(rng, 0.5, 20), _num(rng, 0.5, 20)))
        if rng.random() < 0.3:
            a, b = -b, -a
    elif rng.random() < 0.2:
        a = b = _num(rng, -50, 50)
    else:
        a, b = sorted((_num(rng, -60, 100), _num(rng, -60, 100)))
    text = _lit_text(a) if a == b else f"[{_lit_text(a)}, {_lit_text(b)}]"
    return text, ("lit", _lit_text(a), _lit_text(b))


def _lit_text(x: float) -> str:
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _chain(rng: random.Random, terms: int) -> Expression:
    text, lit = _leaf(rng)
    parts, rpn = [text], [lit]
    for _ in range(terms - 1):
        op = rng.choice("+-")
        text, lit = _leaf(rng)
        parts.append(f" {op} {text}")
        rpn += [lit, op]
    return Expression("".join(parts), rpn, terms, terms - 1, terms - 1)


def _tree(rng: random.Random, terms: int) -> Expression:
    text, rpn, height = _subtree(rng, terms)
    return Expression(text, rpn, terms, terms - 1, height)


def _subtree(rng: random.Random, n: int) -> tuple[str, list, int]:
    """Random tree over n literals, split near the middle so depth stays ~log n.

    '*' and '/' only join small subtrees, so magnitudes stay far from overflow.
    """
    if n == 1:
        text, lit = _leaf(rng)
        return text, [lit], 0
    left_n = rng.randint(max(1, n // 4), max(1, 3 * n // 4))
    right_n = n - left_n
    if n <= 4:
        op = rng.choice("+-*/" if right_n == 1 else "+-*")
    else:
        op = rng.choice("+-")
    left_text, left_rpn, left_h = _subtree(rng, left_n)
    if op == "/":
        right_text, lit = _leaf(rng, divisor=True)
        right_rpn, right_h = [lit], 0
    else:
        right_text, right_rpn, right_h = _subtree(rng, right_n)
    if left_n > 1:
        left_text = f"({left_text})"
    if right_n > 1:
        right_text = f"({right_text})"
    return f"{left_text} {op} {right_text}", left_rpn + right_rpn + [op], 1 + max(left_h, right_h)


def _poly(rng: random.Random, terms: int) -> Expression:
    """Sum of products: a top-level +/- chain of terms of 1-3 factors each."""
    parts: list[str] = []
    rpn: list = []
    height = used = n_terms = 0
    while used < terms:
        factors = min(rng.randint(1, 3), terms - used)
        f_parts: list[str] = []
        f_h = 0
        for j in range(factors):
            op = rng.choice("*/") if j else ""
            if op == "/":
                text, lit = _leaf(rng, divisor=True)
                sub_rpn, sub_h, size = [lit], 0, 1
            elif factors - j > 1 and rng.random() < 0.3:
                size = 2
                text, sub_rpn, sub_h = _subtree(rng, size)
                text = f"({text})"
            else:
                size = 1
                text, lit = _leaf(rng)
                sub_rpn, sub_h = [lit], 0
            used += size
            f_parts.append(f" {op} {text}" if op else text)
            rpn += sub_rpn + ([op] if op else [])
            f_h = max(f_h, sub_h) + (1 if op else 0)
        term_text = "".join(f_parts)
        if n_terms:
            op = rng.choice("+-")
            parts.append(f" {op} {term_text}")
            rpn.append(op)
            height = 1 + max(height, f_h)
        else:
            parts.append(term_text)
            height = f_h
        n_terms += 1
    lits = sum(1 for x in rpn if isinstance(x, tuple))
    return Expression("".join(parts), rpn, lits, lits - 1, height)


def _append_zero_division(rng: random.Random, expr: Expression) -> Expression:
    """Subtract a quotient whose divisor interval contains zero."""
    num_text, num_lit = _leaf(rng)
    lo = _lit_text(-_num(rng, 0, 5))
    hi = _lit_text(_num(rng, 0.5, 5))
    div_lit = ("lit", lo, hi)
    text = f"{expr.text} - ({num_text} / [{lo}, {hi}])"
    rpn = expr.rpn + [num_lit, div_lit, "/", "-"]
    return Expression(text, rpn, expr.terms + 2, expr.ops + 2, expr.height + 1)


def _write(path: Path, text: str, digest) -> Path:
    data = text.encode("utf-8")
    digest.update(data)
    path.write_bytes(data)
    return path
