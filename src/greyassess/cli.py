"""Command line interface: assess, compare, validate-scale, calc.

Exit codes: 0 on success, 1 on data or validation errors, 2 on usage errors.
Text output rounds to 2 decimals (half-up); JSON output carries full
precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from itertools import zip_longest
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Sequence

# Each command imports the package modules it runs, so a process loads no
# module its command does not use.
if TYPE_CHECKING:
    from .assessment import AssessmentReport, ScoreSheet
    from .scale import GradeScale


@cache
def _round2_parts():
    """Decimal, one cent and a half-up context: 309 integer digits and 2
    decimals hold any finite float rounded to 2 decimals. Built on first
    use, as only text output rounds."""
    from decimal import ROUND_HALF_UP, Context, Decimal

    return Decimal, Decimal("0.01"), Context(prec=311, rounding=ROUND_HALF_UP)


def _round2(x: float) -> str:
    Decimal, cent, context = _round2_parts()
    return str(Decimal(repr(x)).quantize(cent, context=context))


def _gn2(gn) -> str:
    return f"[{_round2(gn.lower)}, {_round2(gn.upper)}]"


def _holes(entry: dict) -> dict:
    """``entry`` with each leaf replaced by the empty string, the hole."""
    return {k: _holes(v) if isinstance(v, dict) else "" for k, v in entry.items()}


def _print_json_list(first: dict, leaves: Iterable[tuple]) -> None:
    """Print ``json.dumps(entries, indent=2)`` for entries that all have the
    nested keys of ``first``, the first entry. Each entry is written before
    the next is drawn, so neither the list nor its text is held.

    ``leaves`` gives each entry's leaf values in key order: strings through
    ``encode_basestring_ascii``, booleans as ``"true"``/``"false"``, ints
    and floats as they are. They fill one %-template, which ``json.dumps``
    renders from ``first`` with every leaf a hole. Every float leaf is
    checked to be finite, and the first filled entry must equal
    ``json.dumps(first)``.
    """
    out = sys.stdout
    rows = iter(leaves)
    args = next(rows)
    # A hole's quote follows ": " only at a value: inside a string a quote is
    # escaped, and a key follows indentation.
    template = _entry_json(_holes(first)).replace("%", "%%").replace(': ""', ": %s")
    floats = [i for i, leaf in enumerate(args) if type(leaf) is float]
    text = _fill(template, floats, args)
    if text != _entry_json(first):
        raise AssertionError(f"the JSON leaves do not match the entry's keys: {list(first)}")
    out.write("[\n  " + text)
    for args in rows:
        out.write(",\n  " + _fill(template, floats, args))
    out.write("\n]\n")


def _entry_json(entry: dict) -> str:
    """``entry`` as ``json.dumps`` writes it inside an indent-2 top-level list;
    json escapes every line break inside a string."""
    return json.dumps(entry, indent=2, allow_nan=False).replace("\n", "\n  ")


def _fill(template: str, floats: list[int], args: tuple) -> str:
    """``template % args``, if the leaves at the ``floats`` positions are finite."""
    if not all(map(math.isfinite, map(args.__getitem__, floats))):
        # raises json's ValueError, which names the first non-finite leaf
        json.dumps([args[i] for i in floats], indent=2, allow_nan=False)
    return template % args


def _report_leaves(report: AssessmentReport) -> tuple:
    """The leaves of ``report.to_dict()`` in key order, as ``_print_json_list`` takes them."""
    gn = report.mean_gn
    counts = report.distribution.counts
    return (
        encode_basestring_ascii(report.group_id),
        report.n,
        gn.lower,
        gn.upper,
        report.whitened,
        encode_basestring_ascii(report.grade),
        report.t,
        *[counts.get(label, 0) for label in report.scale.labels],
    )


def _t_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"t must be in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    scale_file = argparse.ArgumentParser(add_help=False)
    scale_file.add_argument("--scale", metavar="FILE", help="grade scale file (default: built-in A-F scale)")
    whitening = argparse.ArgumentParser(add_help=False)
    whitening.add_argument("--t", type=_t_value, default=0.5, metavar="0..1",
                           help="whitening parameter (default 0.5)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")

    parser = argparse.ArgumentParser(
        prog="greyassess",
        description="Grey-number arithmetic and linguistic-grade group assessment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser("assess", parents=[scale_file, whitening, output],
                              help="assess groups from grade counts or raw scores")
    p_assess.set_defaults(handler=_cmd_assess)
    src = p_assess.add_mutually_exclusive_group(required=True)
    src.add_argument("--counts", metavar="CSV", help="counts CSV (group,grade,count)")
    src.add_argument("--scores", metavar="CSV", help="scores CSV (subject,score)")
    p_assess.add_argument("--check-tfn", action="store_true",
                          help="also cross-check against the fuzzy-number route")

    p_compare = sub.add_parser("compare", parents=[scale_file, whitening, output],
                               help="rank groups by whitened mean value")
    p_compare.set_defaults(handler=_cmd_compare)
    src = p_compare.add_mutually_exclusive_group(required=True)
    src.add_argument("--counts", metavar="CSV", help="counts CSV, one group per set of rows")
    src.add_argument("--scores", metavar="CSV", help="scores CSV, each subject ranked as a group")

    sub.add_parser("validate-scale", parents=[scale_file, output],
                   help="check a scale file's invariants").set_defaults(handler=_cmd_validate_scale)

    p_calc = sub.add_parser("calc", parents=[output],
                            help="evaluate a grey-number expression, e.g. '[1,2] + 3 * [4,5]'")
    p_calc.set_defaults(handler=_cmd_calc)
    p_calc.add_argument("expression", help="expression over intervals [a,b], numbers, + - * / ( )")

    return parser


def _read_scale(args: argparse.Namespace) -> GradeScale:
    from .scale import default_scale, read_scale_file

    return read_scale_file(args.scale) if args.scale else default_scale()


def _load_scale(args: argparse.Namespace) -> GradeScale:
    scale = _read_scale(args)
    violations = scale.validate()
    if violations:
        raise ValueError("invalid scale: " + "; ".join(violations))
    return scale


def _reports(
    args: argparse.Namespace, scale: GradeScale, sheet: ScoreSheet | None = None
) -> list[AssessmentReport]:
    """Assess the input file: one report per counts group, and for a scores
    file one pooled "all" report of ``sheet`` when it is given, else one
    report per subject, tallied as the loader hands on that subject's scores
    so that no sheet is built."""
    from .assessment import _tally, assess, scores_to_distribution
    from .csvio import _drained_scores, load_counts_csv

    if args.counts:
        groups = load_counts_csv(args.counts, scale).items()
    elif sheet is not None:
        groups = [("all", scores_to_distribution(sheet, scale))]
    else:
        groups = (
            (subject, _tally(((subject, scores),), scale))
            for subject, scores in _drained_scores(args.scores, scale)
        )
    return [assess(dist, scale, args.t, group_id=group) for group, dist in groups]


def _cmd_assess(args: argparse.Namespace) -> int:
    scale = _load_scale(args)
    sheet = None
    if args.scores:
        from .csvio import load_scores_csv

        sheet = load_scores_csv(args.scores, scale)
    reports = _reports(args, scale, sheet)
    extras: dict[str, float] = {}
    if sheet is not None:
        from .assessment import raw_mean

        mean = raw_mean(sheet)
        difference = mean - reports[0].whitened
        if not math.isfinite(difference):
            raise ValueError(
                "difference of the raw mean and the whitened value is too large for a float"
            )
        extras = {"raw_mean": mean, "difference": difference}
    checks: list = []
    if args.check_tfn:
        from .tfn import EQUIVALENCE_TOLERANCE, check_equivalence

        checks = [check_equivalence(r.distribution, scale) for r in reports]

    if args.format == "json":
        first = {**reports[0].to_dict(), **extras}
        tail = tuple(extras.values())
        rows = ((*_report_leaves(report), *tail) for report in reports)
        if checks:
            first["tfn_check"] = vars(checks[0])
            rows = (
                (*row, c.gn_value, c.tfn_value, c.peak, c.difference, "true" if c.passed else "false")
                for row, c in zip(rows, checks)
            )
        _print_json_list(first, rows)
    else:
        for report, check in zip_longest(reports, checks):
            counts = " ".join(f"{label}:{report.distribution.count(label)}" for label in scale.labels)
            print(
                f"{report.group_id}: mean={_gn2(report.mean_gn)} whitened={_round2(report.whitened)} "
                f"grade={report.grade} n={report.n} ({counts})"
            )
            if check is not None:
                verdict = "PASS" if check.passed else "FAIL"
                print(
                    f"{report.group_id}: tfn-equivalence {verdict} "
                    f"(difference {check.difference:.1e}, tolerance {EQUIVALENCE_TOLERANCE:g})"
                )
        if extras:
            print(
                f"raw mean {_round2(extras['raw_mean'])}, "
                f"difference vs whitened {_round2(extras['difference'])}"
            )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .assessment import compare_groups

    reports = _reports(args, _load_scale(args))
    ranked: list[tuple[int, str, AssessmentReport]] = []
    rank = 1
    for group in compare_groups(reports):
        tied = " (tie)" if len(group) > 1 else ""
        ranked.extend((rank, tied, report) for report in group)
        rank += len(group)
    if args.format == "json":
        _print_json_list(
            {"rank": ranked[0][0], **ranked[0][2].to_dict()},
            ((rank, *_report_leaves(report)) for rank, _, report in ranked),
        )
    else:
        for rank, tied, report in ranked:
            print(
                f"{rank}. {report.group_id}: whitened={_round2(report.whitened)} "
                f"grade={report.grade}{tied}"
            )
    return 0


def _cmd_validate_scale(args: argparse.Namespace) -> int:
    scale = _read_scale(args)
    violations = scale.validate()
    if args.format == "json":
        print(json.dumps({"valid": not violations, "violations": violations}, indent=2))
    elif violations:
        for violation in violations:
            print(f"violation: {violation}")
    else:
        print(
            f"scale OK: {len(scale.entries)} grades over "
            f"[{scale.domain_min:g}, {scale.domain_max:g}]"
        )
    return 1 if violations else 0


def _cmd_calc(args: argparse.Namespace) -> int:
    from .expr import calc

    result = calc(args.expression)
    if args.format == "json":
        print(json.dumps({"lower": result.lower, "upper": result.upper}))
    else:
        print(result)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
