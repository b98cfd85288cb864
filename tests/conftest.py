import random
from array import array
from pathlib import Path

import pytest

from greyassess import (
    BinaryOp,
    GradeDistribution,
    GreyNumber,
    Literal,
    ScoreSheet,
    default_scale,
    read_scale_file,
)

DATA = Path(__file__).resolve().parents[1] / "data"

# §4 worked data: two student groups graded A..F, and five players scored
# by six journalists on a 0-100 scale.
TABLE1_G1 = {"A": 20, "B": 15, "C": 7, "D": 10, "F": 8}
TABLE1_G2 = {"A": 20, "B": 30, "C": 15, "D": 15, "F": 5}

PLAYER_SCORES = (
    ("P1", (43, 48, 49, 49, 50, 52)),
    ("P2", (81, 83, 85, 88, 91, 95)),
    ("P3", (76, 82, 89, 95, 95, 98)),
    ("P4", (86, 86, 87, 87, 87, 88)),
    ("P5", (35, 40, 44, 52, 59, 62)),
)

# Independent oracle values, frozen as exact fractions of the count-weighted
# endpoint sums (sum of count*endpoint over grades, divided by n).
G1_LOWER = 3745 / 60  # 20*85 + 15*75 + 7*60 + 10*50 + 8*0
G1_UPPER = 4760 / 60  # 20*100 + 15*84 + 7*74 + 10*59 + 8*49
G2_LOWER = 5600 / 85
G2_UPPER = 6760 / 85
PLAYERS_LOWER = 1750 / 30  # distribution A:14 B:4 C:1 D:4 F:7
PLAYERS_UPPER = 2389 / 30
PLAYERS_WHITENED = 4139 / 60
PLAYERS_RAW_MEAN = 2162 / 30
G1_TFN_PEAK = 4252.5 / 60  # 20*92.5 + 15*79.5 + 7*67 + 10*54.5 + 8*24.5


def strict_scale():
    """The stricter scale shipped as data/strict_scale.txt."""
    return read_scale_file(DATA / "strict_scale.txt")


def counts_csv_text():
    lines = ["group,grade,count"]
    for group, counts in (("G1", TABLE1_G1), ("G2", TABLE1_G2)):
        lines.extend(f"{group},{grade},{count}" for grade, count in counts.items())
    return "\n".join(lines) + "\n"


def scores_csv_text():
    lines = ["subject,score"]
    for subject, scores in PLAYER_SCORES:
        lines.extend(f"{subject},{score}" for score in scores)
    return "\n".join(lines) + "\n"


@pytest.fixture
def scale():
    return default_scale()


@pytest.fixture
def g1_dist():
    return GradeDistribution(TABLE1_G1)


@pytest.fixture
def g2_dist():
    return GradeDistribution(TABLE1_G2)


@pytest.fixture
def players_sheet():
    return ScoreSheet(PLAYER_SCORES)


@pytest.fixture
def counts_csv(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_text(counts_csv_text(), encoding="utf-8")
    return path


@pytest.fixture
def scores_csv(tmp_path):
    path = tmp_path / "players.csv"
    path.write_text(scores_csv_text(), encoding="utf-8")
    return path


def sheet_values(sheet):
    """``sheet.subjects`` as ``[(subject, [score, ...]), ...]``, after checking
    that each subject's scores are held as an ``array('d')``."""
    for _, scores in sheet.subjects:
        assert type(scores) is array and scores.typecode == "d"
    return [(subject, list(scores)) for subject, scores in sheet.subjects]


def random_distribution(rng, labels):
    """Random per-grade counts with at least one graded object."""
    while True:
        counts = {label: rng.randint(0, 30) for label in labels}
        if sum(counts.values()) > 0:
            return GradeDistribution(counts)


def random_interval(rng, low=-100.0, high=100.0):
    x, y = rng.uniform(low, high), rng.uniform(low, high)
    return GreyNumber(min(x, y), max(x, y))


def _literal(rng):
    if rng.random() < 0.4:
        x = round(rng.uniform(-20, 20), 3)
        return Literal(GreyNumber(x, x))
    lo, hi = sorted((round(rng.uniform(-20, 20), 3), round(rng.uniform(-20, 20), 3)))
    return Literal(GreyNumber(lo, hi))


def _nonzero_literal(rng):
    lo = rng.uniform(0.5, 10.0)
    hi = lo + rng.uniform(0.0, 5.0)
    if rng.random() < 0.5:
        lo, hi = -hi, -lo
    return Literal(GreyNumber(round(lo, 3), round(hi, 3)))


def random_expression(rng, depth=0):
    """Random expression tree; divisors are kept away from zero so every
    generated tree evaluates."""
    if depth >= 4 or rng.random() < 0.35:
        return _literal(rng)
    op = rng.choice("+-*/")
    left = random_expression(rng, depth + 1)
    right = _nonzero_literal(rng) if op == "/" else random_expression(rng, depth + 1)
    return BinaryOp(op, left, right)
