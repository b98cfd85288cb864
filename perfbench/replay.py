"""In-process replays of each workload's CLI command list, through the
package's public functions, with optional span tracing.

A replay does the work the CLI does for the same argv: load and validate the
scale, parse the input, assess, cross-check, rank and render JSON. Text
rendering and argparse are CLI glue and are not replayed; ``cli.main`` run
in-process measures them (``cli.self_s``). Replays return raw results; turning
them into comparable records happens outside the timed region.

Spans are recorded here, around the calls into the package, never inside it.
A loop over many groups gets one span whose count is the number of calls.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from greyassess import (
    ScoreSheet,
    assess,
    check_equivalence,
    compare_groups,
    default_scale,
    eval_expression,
    load_counts_csv,
    load_scores_csv,
    parse_expression,
    raw_mean,
    read_scale_file,
    scores_to_distribution,
)
from greyassess.cli import main as cli_main

T = 0.5


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, count: int = 0) -> "_Span":
        return _Span(self, name, count)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, count: int) -> None:
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else -1
        self.record = [name, 0.0, 0.0, parent, count]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()


class _Untraced:
    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        pass


_UNTRACED = _Untraced()


def untraced(name: str, count: int = 0) -> _Untraced:
    return _UNTRACED


def self_times(spans: list[list]) -> dict[str, list]:
    """Per span name: [self seconds, total seconds, summed count, spans].

    Self time is a span's duration minus the time its direct children cover;
    spans nest and run on one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _, count) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0.0, 0, 0])
        entry[0] += end - start - covered[i]
        entry[1] += end - start
        entry[2] += count
        entry[3] += 1
    return totals


# -- replays -----------------------------------------------------------------

def _default_scale(sp):
    with sp("scale.default_scale"):
        scale = default_scale()
    _validate(scale, sp)
    return scale


def _scale_file(path, sp):
    with sp("scale.read_scale_file"):
        scale = read_scale_file(path)
    _validate(scale, sp)
    return scale


def _validate(scale, sp) -> None:
    with sp("scale.validate"):
        violations = scale.validate()
    if violations:
        raise ValueError(f"invalid scale: {violations}")


def ranked_payload(tie_groups) -> list[dict]:
    payload = []
    rank = 1
    for group in tie_groups:
        for report in group:
            payload.append({"rank": rank, **report.to_dict()})
        rank += len(group)
    return payload


def counts_many(corpus, sp) -> dict:
    """assess --counts F --check-tfn --format json; compare --counts F."""
    path, rows = corpus.files["counts"], corpus.rows
    with sp("cmd.assess"):
        scale = _default_scale(sp)
        with sp("csvio.load_counts_csv", rows):
            groups = load_counts_csv(path, scale)
        with sp("assess.assess", len(groups)):
            reports = [assess(dist, scale, T, group_id=g) for g, dist in groups.items()]
        with sp("tfn.check_equivalence", len(reports)):
            checks = [check_equivalence(r.distribution, scale) for r in reports]
        with sp("cli.render_json"):
            payload = []
            for report, check in zip(reports, checks):
                entry = report.to_dict()
                entry["tfn_check"] = dataclasses.asdict(check)
                payload.append(entry)
            json.dumps(payload, indent=2)
    with sp("cmd.compare"):
        scale = _default_scale(sp)
        with sp("csvio.load_counts_csv", rows):
            groups = load_counts_csv(path, scale)
        with sp("assess.assess", len(groups)):
            reports = [assess(dist, scale, T, group_id=g) for g, dist in groups.items()]
        with sp("assess.compare_groups", len(reports)):
            ranked = compare_groups(reports)
    return {"assess": payload, "compare": ranked}


def scores_sheet(corpus, sp) -> dict:
    """assess --scores F --scale S; compare --scores F --scale S --format json."""
    path, scale_path, rows = corpus.files["scores"], corpus.files["scale"], corpus.rows
    with sp("cmd.assess"):
        scale = _scale_file(scale_path, sp)
        with sp("csvio.load_scores_csv", rows):
            sheet = load_scores_csv(path, scale)
        with sp("assess.scores_to_distribution", 1):
            dist = scores_to_distribution(sheet, scale)
        with sp("assess.assess", 1):
            pooled = assess(dist, scale, T, group_id="all")
        with sp("assess.raw_mean", 1):
            mean = raw_mean(sheet)
    with sp("cmd.compare"):
        scale = _scale_file(scale_path, sp)
        with sp("csvio.load_scores_csv", rows):
            sheet = load_scores_csv(path, scale)
        with sp("assess.scores_to_distribution", len(sheet.subjects)):
            dists = [(subject, scores_to_distribution(ScoreSheet(((subject, scores),)), scale))
                     for subject, scores in sheet.subjects]
        with sp("assess.assess", len(dists)):
            reports = [assess(dist, scale, T, group_id=subject) for subject, dist in dists]
        with sp("assess.compare_groups", len(reports)):
            ranked = compare_groups(reports)
        with sp("cli.render_json"):
            payload = ranked_payload(ranked)
            json.dumps(payload, indent=2)
    return {"assess": (pooled, mean), "compare": payload}


def calc_exprs(corpus, sp) -> dict:
    """calc --format json EXPR, once per expression.

    Outcomes are ("ok", lower, upper) or ("raised", exception type, layer).
    """
    outcomes = []
    for expr in corpus.expressions:
        layer = "expr"
        with sp("cmd.calc"):
            try:
                with sp("expr.parse_expression", expr.terms):
                    tree = parse_expression(expr.text)
                with sp("expr.eval_expression", expr.ops):
                    result = eval_expression(tree)
                layer = "cli"
                with sp("cli.render_json"):
                    json.dumps({"lower": result.lower, "upper": result.upper})
                outcomes.append(("ok", result.lower, result.upper))
            except Exception as exc:  # recorded and checked against the reference
                outcomes.append(("raised", type(exc).__name__, layer))
    return {"calc": outcomes}


REPLAYS = {"counts-many": counts_many, "scores-sheet": scores_sheet, "calc-exprs": calc_exprs}


def classify_pooled(scale_path, scores: list[float], sp) -> None:
    """Replay the pooled scores through ``GradeScale.classify`` (scores-sheet only)."""
    scale = read_scale_file(scale_path)
    classify = scale.classify
    with sp("scale.classify", len(scores)):
        for score in scores:
            classify(score)


class _Sink:
    """Write-only text stream that keeps only the byte count."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def cli_in_process(argvs: list[list[str]], sp) -> dict[str, int]:
    """Run ``greyassess.cli.main`` for each argv, stdout and stderr to a sink.

    Returns exceptions that escaped ``main``, by type name.
    """
    escaped: dict[str, int] = {}
    sink = _Sink()
    with redirect_stdout(sink), redirect_stderr(sink):
        for argv in argvs:
            try:
                with sp("cli.main"):
                    cli_main(argv)
            except Exception as exc:  # a traceback in the CLI; counted, not fatal
                name = type(exc).__name__
                escaped[name] = escaped.get(name, 0) + 1
    return escaped
