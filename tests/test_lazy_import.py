"""The package's lazy public surface, each case in a fresh interpreter.

Public names load their home submodule on first access, and each CLI
command imports only the modules it runs. Module state is per process, so
every case runs in a subprocess that imports the package from the same
source tree as these tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greyassess

SRC = Path(greyassess.__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parents[1] / "data"


def fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


IS_THE_FUNCTION = """
import json, greyassess.assessment
print(json.dumps(greyassess.assess is greyassess.assessment.assess))
"""


@pytest.mark.parametrize(
    "first",
    [
        "from greyassess import ScoreSheet, assess",
        "import greyassess.tfn",
        "import greyassess.csvio",
        "import contextlib, io\n"
        "from greyassess.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['assess', '--counts', {str(DATA / 'table1.csv')!r}])",
    ],
    ids=["replay-import", "tfn-first", "csvio-first", "cli-assess-first"],
)
def test_assess_is_the_function_under_every_import_order(first):
    assert fresh(first + "\n" + IS_THE_FUNCTION) is True


def test_public_names():
    assert sorted(greyassess.__all__) == [
        "AssessmentReport",
        "BinaryOp",
        "DataFormatError",
        "EQUIVALENCE_TOLERANCE",
        "EquivalenceCheck",
        "GnExpression",
        "GnSyntaxError",
        "GradeDistribution",
        "GradeScale",
        "GreyNumber",
        "IntervalError",
        "Literal",
        "OutOfDomainError",
        "ScaleFormatError",
        "ScoreSheet",
        "TriangularFuzzyNumber",
        "UnknownGradeError",
        "ZeroDivisorError",
        "assess",
        "calc",
        "check_equivalence",
        "compare_groups",
        "default_scale",
        "defuzzify",
        "eval_expression",
        "format_expression",
        "load_counts_csv",
        "load_scores_csv",
        "mean_gn",
        "parse_expression",
        "parse_scale_text",
        "raw_mean",
        "read_scale_file",
        "scores_to_distribution",
        "tfn_mean",
        "validate_scale",
    ]


def test_every_public_name_is_its_home_module_object():
    wrong = fresh(
        """
import importlib, json
import greyassess
wrong = [name for name in greyassess.__all__
         if getattr(greyassess, name) is not getattr(
             importlib.import_module("greyassess." + greyassess._HOMES[name]), name)]
print(json.dumps(wrong))
"""
    )
    assert wrong == []


def test_star_import_binds_every_public_name():
    missing = fresh(
        """
import json
from greyassess import *
import greyassess
print(json.dumps([name for name in greyassess.__all__ if globals().get(name) is not getattr(greyassess, name)]))
"""
    )
    assert missing == []


def test_no_submodule_is_named_like_a_public_name():
    modules = {path.stem for path in (SRC / "greyassess").glob("*.py")}
    assert {"assessment", "cli", "tfn"} <= modules
    assert modules.isdisjoint(greyassess.__all__)


def test_dir_covers_the_public_names():
    missing = fresh(
        """
import json, greyassess
print(json.dumps(sorted(set(greyassess.__all__) - set(dir(greyassess)))))
"""
    )
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        greyassess.no_such_name


def loaded_by(*argv: str) -> set[str]:
    """The package submodules and ``decimal`` loaded by one ``cli.main`` run."""
    names = fresh(
        f"""
import contextlib, io, json, sys
from greyassess.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main({list(argv)!r})
print(json.dumps([name for name in sys.modules
                  if name == "decimal" or name.startswith("greyassess.")]))
"""
    )
    return {name.removeprefix("greyassess.") for name in names}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_calc_loads_only_the_calculator(fmt):
    assert loaded_by("calc", "--format", fmt, "[1, 2] + 3") == {"cli", "expr", "grey"}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_validate_scale_loads_only_the_scale(fmt):
    loaded = loaded_by("validate-scale", "--scale", str(DATA / "strict_scale.txt"), "--format", fmt)
    assert loaded == {"cli", "grey", "scale"}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_assess_counts_loads_no_fuzzy_route_or_calculator(fmt):
    loaded = loaded_by("assess", "--counts", str(DATA / "table1.csv"), "--format", fmt)
    assert loaded - {"decimal"} == {"assessment", "cli", "csvio", "grey", "scale"}
    assert ("decimal" in loaded) == (fmt == "text")


def test_check_tfn_loads_the_fuzzy_route():
    loaded = loaded_by("assess", "--counts", str(DATA / "table1.csv"), "--check-tfn")
    assert "tfn" in loaded and "expr" not in loaded


def heavy_stdlib_loaded_by(*argv: str) -> list[str]:
    """Which of ``dataclasses`` and ``inspect`` one ``cli.main`` run loads;
    the run must exit 0."""
    return fresh(
        f"""
import contextlib, io, json, sys
from greyassess.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({list(argv)!r})
assert code == 0, code
print(json.dumps([name for name in ("dataclasses", "inspect") if name in sys.modules]))
"""
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_calc_does_not_import_dataclasses(fmt):
    assert heavy_stdlib_loaded_by("calc", "--format", fmt, "2 * ([85,100] + [75,84])") == []


# every command but assess --check-tfn, whose fuzzy route still uses dataclasses
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate-scale"],
        ["validate-scale", "--scale", str(DATA / "strict_scale.txt")],
        ["assess", "--counts", str(DATA / "table1.csv")],
        ["compare", "--counts", str(DATA / "table1.csv")],
        ["assess", "--scores", str(DATA / "players.csv")],
        ["compare", "--scores", str(DATA / "players.csv"), "--scale", str(DATA / "strict_scale.txt")],
    ],
    ids=[
        "validate-scale",
        "validate-scale-file",
        "assess-counts",
        "compare-counts",
        "assess-scores",
        "compare-scores-scale-file",
    ],
)
def test_no_command_imports_dataclasses_or_inspect(argv, fmt):
    assert heavy_stdlib_loaded_by(*argv, "--format", fmt) == []
