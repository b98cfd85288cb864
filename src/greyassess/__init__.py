"""Grey-number arithmetic and linguistic-grade assessment.

Grey numbers are closed real intervals standing for imprecisely known
quantities. This package provides their arithmetic, whitening to a
representative value, configurable linguistic grade scales, group
assessment from grade counts or raw score sheets, a triangular fuzzy
number cross-check, and a small expression calculator. See the
``greyassess`` console script for the command line surface.

Each public name is imported from its home submodule on first access, so
a process loads only the submodules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it. No submodule is
#: named like a public name: importing a submodule binds its name on the
#: package, which would hide the public name.
_HOMES = {
    "AssessmentReport": "assessment",
    "GradeDistribution": "assessment",
    "ScoreSheet": "assessment",
    "assess": "assessment",
    "compare_groups": "assessment",
    "mean_gn": "assessment",
    "raw_mean": "assessment",
    "scores_to_distribution": "assessment",
    "DataFormatError": "csvio",
    "load_counts_csv": "csvio",
    "load_scores_csv": "csvio",
    "BinaryOp": "expr",
    "GnExpression": "expr",
    "GnSyntaxError": "expr",
    "Literal": "expr",
    "calc": "expr",
    "eval_expression": "expr",
    "format_expression": "expr",
    "parse_expression": "expr",
    "GreyNumber": "grey",
    "IntervalError": "grey",
    "ZeroDivisorError": "grey",
    "GradeScale": "scale",
    "OutOfDomainError": "scale",
    "ScaleFormatError": "scale",
    "UnknownGradeError": "scale",
    "default_scale": "scale",
    "parse_scale_text": "scale",
    "read_scale_file": "scale",
    "validate_scale": "scale",
    "EQUIVALENCE_TOLERANCE": "tfn",
    "EquivalenceCheck": "tfn",
    "TriangularFuzzyNumber": "tfn",
    "check_equivalence": "tfn",
    "defuzzify": "tfn",
    "tfn_mean": "tfn",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
