"""greyassess benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload counts-many --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs building. One run generates the workload's corpus
from the seed into a temporary directory, computes exact answers with
``reference.py``, then:

* ``--trace 0``: times fresh ``validate-scale`` processes (``setup_s``), runs
  the workload's CLI command list through the lean launcher and the same
  pipeline in-process, alternately, for ``--seconds``; prints end-to-end
  metrics.
* ``--trace 1``: for ``--seconds``, alternates an untraced and a traced
  in-process replay plus a traced in-process ``cli.main`` pass; prints
  per-layer self times and counts, and the tracing overhead.

Both modes first check one CLI pass and one in-process pass against the
reference and require later CLI passes to be byte-identical to the first.
Human-readable lines go first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Set-up problems
(no package, no reference data, reference disagreeing with the paper) exit
with status 2 and no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus as corpus_mod
import reference

WORKLOADS = ("counts-many", "scores-sheet", "calc-exprs")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLE1 = ROOT / "data" / "table1.csv"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
#: What the ``greyassess`` console script runs.
ENTRY = "import sys; from greyassess.cli import main; sys.exit(main())"
SETUP_ARGV = ["validate-scale", "--format", "json"]
SETUP_SAMPLES = 15
MIN_ITERATIONS = 2

END_TO_END = {  # name: unit
    "setup_s": "s",
    "cli_wall_s": "s",
    "items_per_s": "1/s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "lib_wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

#: Per-layer metric: (unit, end-to-end metric it should move, workloads where it should).
PER_LAYER = {
    "csvio.load_counts_csv.s": ("s", "cli_wall_s lib_wall_s peak_rss_mb", "counts-many"),
    "csvio.load_scores_csv.s": ("s", "cli_wall_s lib_wall_s peak_rss_mb", "scores-sheet"),
    "csvio.rows": ("count", "cli_wall_s lib_wall_s", "scores-sheet counts-many; nil on calc-exprs"),
    "scale.read_scale_file.s": ("s", "setup_s cli_wall_s", "scores-sheet (small)"),
    "scale.validate.s": ("s", "setup_s cli_wall_s", "counts-many scores-sheet (small)"),
    "scale.classify.s": ("s", "cli_wall_s lib_wall_s", "scores-sheet; nil elsewhere"),
    "scale.classify.calls": ("count", "cli_wall_s lib_wall_s", "scores-sheet"),
    "assess.scores_to_distribution.s": ("s", "cli_wall_s lib_wall_s", "scores-sheet"),
    "assess.raw_mean.s": ("s", "cli_wall_s", "scores-sheet"),
    "assess.assess.s": ("s", "lib_wall_s cli_wall_s", "counts-many; little on scores-sheet"),
    "assess.assess.calls": ("count", "lib_wall_s cli_wall_s", "counts-many scores-sheet"),
    "assess.us_per_group": ("us", "lib_wall_s cli_wall_s", "counts-many"),
    "assess.compare_groups.s": ("s", "cli_wall_s", "counts-many scores-sheet (small)"),
    "tfn.check_equivalence.s": ("s", "cli_wall_s lib_wall_s", "counts-many only"),
    "tfn.check_equivalence.calls": ("count", "cli_wall_s lib_wall_s", "counts-many only"),
    "cli.render_json.s": ("s", "cli_wall_s", "counts-many; scores-sheet compare"),
    "cli.output_bytes": ("bytes", "cli_wall_s", "counts-many scores-sheet"),
    "cli.main.s": ("s", "cli_wall_s", "all"),
    "cli.self_s": ("s", "cli_wall_s cmd_p50_s", "all"),
    "expr.parse_expression.s": ("s", "cmd_p50_s cmd_tail_s", "calc-exprs only"),
    "expr.eval_expression.s": ("s", "cmd_p50_s cmd_tail_s", "calc-exprs only"),
    "expr.terms": ("count", "cmd_p50_s cmd_tail_s items_per_s", "calc-exprs only"),
    "grey.ops": ("count", "cmd_p50_s cmd_tail_s", "calc-exprs only"),
    "expr.failed.RecursionError": ("count", "ok_rate", "calc-exprs"),
    "expr.failed.ZeroDivisorError": ("count", "ok_rate (expected: these are correct answers)", "calc-exprs"),
    "cli.failed": ("count", "ok_rate", "calc-exprs"),
    "assess.grade_mismatch": ("count", "ok_rate", "counts-many"),
    "error_rate": ("ratio", "ok_rate", "counts-many calc-exprs"),
    "ops_total": ("count", "ok_rate", "all"),
    "ops_failed": ("count", "ok_rate", "counts-many calc-exprs"),
    "lib_wall_untraced_s": ("s", "lib_wall_s", "all"),
    "lib_wall_traced_s": ("s", "lib_wall_s", "all"),
    "trace.overhead_s": ("s", "none: cost of tracing", "all"),
    "rss.control_mb": ("MB", "peak_rss_mb floor: python -c pass", "all"),
}


class SetupError(Exception):
    """The benchmark cannot run here: no package, no reference data, or a bad reference."""


# -- launcher ----------------------------------------------------------------

class Launcher:
    """The lean launcher process; commands run one at a time through it."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT,
        )

    def run(self, cmds: list[tuple[list[str], Path, Path]]) -> tuple[float, list]:
        request = {"env": self.env, "cmds": [[argv, str(out), str(err)] for argv, out, err in cmds]}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("launcher exited unexpectedly")
        reply = json.loads(line)
        return reply["wall"], reply["results"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- workload definition -----------------------------------------------------

def cli_commands(corpus) -> list[list[str]]:
    """The workload's CLI argv list, without the interpreter prefix."""
    if corpus.workload == "counts-many":
        path = str(corpus.files["counts"])
        return [["assess", "--counts", path, "--check-tfn", "--format", "json"],
                ["compare", "--counts", path]]
    if corpus.workload == "scores-sheet":
        path, scale = str(corpus.files["scores"]), str(corpus.files["scale"])
        return [["assess", "--scores", path, "--scale", scale],
                ["compare", "--scores", path, "--scale", scale, "--format", "json"]]
    return [["calc", "--format", "json", expr.text] for expr in corpus.expressions]


def make_reference(corpus):
    if corpus.workload == "counts-many":
        return reference.counts_reference(corpus)
    if corpus.workload == "scores-sheet":
        return reference.scores_reference(corpus)
    return reference.calc_reference(corpus)


def check_cli(corpus, ref, outputs: list[tuple[int, str, str]], tally) -> None:
    """Check one CLI pass: (exit status, stdout, stderr) per command."""
    if corpus.workload == "calc-exprs":
        for i, ((status, out, err), calc_ref) in enumerate(zip(outputs, ref)):
            reference.check_calc_cli(status, out, err, calc_ref, tally, f"cli calc #{i}")
        return
    (s1, out1, err1), (s2, out2, err2) = outputs
    for name, status, err in (("first", s1, err1), ("second", s2, err2)):
        if status != 0 or err:
            tally.record(f"cli {name} command", [f"exit {status}: {err.strip()[-200:]!r}"])
    if corpus.workload == "counts-many":
        whitened = reference.check_entries(_json_or_none(out1), ref, tally, "cli assess", tfn=True)
        reference.check_compare_text(out2, ref, tally, "cli compare", whitened)
    else:
        reference.check_assess_text(out1, ref.pooled, ref.raw_mean, tally, "cli assess")
        reference.check_entries(_json_or_none(out2), ref.subjects, tally, "cli compare", rank=True)


def check_lib(corpus, ref, result: dict, tally, replay) -> None:
    """Check one in-process replay against the same reference."""
    if corpus.workload == "calc-exprs":
        for i, (outcome, calc_ref) in enumerate(zip(result["calc"], ref)):
            reference.check_calc_lib(outcome, calc_ref, tally, f"lib calc #{i}")
    elif corpus.workload == "counts-many":
        reference.check_entries(result["assess"], ref, tally, "lib assess", tfn=True)
        reference.check_entries(replay.ranked_payload(result["compare"]), ref, tally,
                                "lib compare", rank=True)
    else:
        pooled, mean = result["assess"]
        entry = pooled.to_dict()
        entry.update(raw_mean=mean, difference=mean - pooled.whitened)
        reference.check_entry(entry, ref.pooled, tally, "lib assess", raw_mean=ref.raw_mean)
        reference.check_entries(result["compare"], ref.subjects, tally, "lib compare", rank=True)


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# -- statistics --------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (pct, value, beyond).

    Falls back to the maximum (pct 100, nothing beyond) when there are too few samples.
    """
    xs = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        value = xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]
        beyond = len(xs) - bisect.bisect_right(xs, value)
        if beyond >= 10:
            return pct, value, beyond
    return 100.0, xs[-1], 0


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "greyassess").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# -- the run -----------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, launcher: Launcher, preset: str = "full") -> None:
        import replay  # imports the package; sys.path is set by then

        self.replay = replay
        self.trace = trace
        self.seconds = seconds
        self.launcher = launcher
        self.workdir = workdir
        self.info: dict[str, object] = {}
        started = time.perf_counter()
        self.corpus = corpus_mod.build(workload, seed, workdir, preset)
        self.ref = make_reference(self.corpus)
        self.info["corpus_s"] = time.perf_counter() - started
        self.prefix = [sys.executable, "-c", ENTRY]
        self.argvs = cli_commands(self.corpus)
        self.cmds = [(self.prefix + argv, workdir / f"out{i}", workdir / f"err{i}")
                     for i, argv in enumerate(self.argvs)]
        self.tally = reference.Tally()
        self.unstable = 0
        self.rss_kb: list[int] = []

    # one CLI pass through the launcher: list wall, per-command walls, outputs
    def cli_pass(self) -> tuple[float, list[float], list[tuple[int, bytes, bytes]]]:
        wall, results = self.launcher.run(self.cmds)
        outputs = [(status, out.read_bytes(), err.read_bytes())
                   for (status, (_, out, err)) in zip((r[1] for r in results), self.cmds)]
        self.rss_kb.extend(r[2] for r in results)
        return wall, [r[0] for r in results], outputs

    def lib_pass(self, sp=None) -> tuple[float, dict]:
        gc.collect()
        replay_fn = self.replay.REPLAYS[self.corpus.workload]
        started = time.perf_counter()
        result = replay_fn(self.corpus, sp or self.replay.untraced)
        return time.perf_counter() - started, result

    def check_first_passes(self) -> tuple[float, float]:
        """Check one CLI pass and one in-process pass; return their wall times."""
        cli_wall, _, outputs = self.cli_pass()
        self.first_outputs = outputs
        self.output_bytes = sum(len(out) for _, out, _ in outputs)
        check_cli(self.corpus, self.ref,
                  [(s, o.decode("utf-8", "replace"), e.decode("utf-8", "replace")) for s, o, e in outputs],
                  self.tally)
        lib_wall, result = self.lib_pass()
        self.lib_failures = {}
        if self.corpus.workload == "calc-exprs":
            for outcome in result["calc"]:
                if outcome[0] == "raised":
                    key = f"{outcome[2]}.failed.{outcome[1]}"
                    self.lib_failures[key] = self.lib_failures.get(key, 0) + 1
        check_lib(self.corpus, self.ref, result, self.tally, self.replay)
        return cli_wall, lib_wall

    def compare_to_first(self, outputs) -> None:
        if outputs != self.first_outputs:
            self.unstable += 1

    def loop(self, body) -> int:
        """Call body() until --seconds would be exceeded; at least MIN_ITERATIONS times."""
        started = time.perf_counter()
        iterations = 0
        while True:
            body()
            iterations += 1
            elapsed = time.perf_counter() - started
            if iterations >= MIN_ITERATIONS and elapsed * (iterations + 1) / iterations > self.seconds:
                return iterations

    def control_rss_mb(self) -> float:
        _, results = self.launcher.run([([sys.executable, "-c", "pass"],
                                         self.workdir / "control.out", self.workdir / "control.err")])
        return results[0][2] / 1024

    def end_to_end(self) -> dict[str, float]:
        control = self.control_rss_mb()
        setup_cmd = [(self.prefix + SETUP_ARGV, self.workdir / "setup.out", self.workdir / "setup.err")]
        self.launcher.run(setup_cmd)  # a first start may compile bytecode
        setup, statuses = [], set()
        for _ in range(SETUP_SAMPLES):
            wall, results = self.launcher.run(setup_cmd)
            setup.append(wall)
            statuses.add(results[0][1])
        if statuses != {0} or _json_or_none(setup_cmd[0][1].read_text()) != {"valid": True, "violations": []}:
            self.tally.record("setup validate-scale", [f"exit {statuses}, output not a clean report"])
        cli_first, lib_first = self.check_first_passes()
        # in-process passes per iteration: about half the CLI time, so the
        # cheap calc replay still gets many samples
        lib_repeats = max(1, min(20, round(0.5 * cli_first / lib_first)))
        cmd_walls: list[list[float]] = [[] for _ in self.cmds]
        lib_walls: list[float] = []

        def iteration() -> None:
            _, walls, outputs = self.cli_pass()
            self.compare_to_first(outputs)
            for samples, wall in zip(cmd_walls, walls):
                samples.append(wall)
            lib_walls.extend(self.lib_pass()[0] for _ in range(lib_repeats))

        iterations = self.loop(iteration)
        # one list pass, typical: each command's median wall, summed
        cli_wall = sum(statistics.median(samples) for samples in cmd_walls)
        if self.corpus.workload == "calc-exprs":
            latencies = [wall for samples in cmd_walls for wall in samples]
        else:  # the list's assess command
            latencies = cmd_walls[0]
        pct, tail_value, beyond = tail(latencies)
        self.info.update({
            "iterations": iterations, "setup samples": len(setup), "lib samples": len(lib_walls),
            "cmd samples": len(latencies), "cmd_tail percentile": pct, "cmd_tail samples beyond": beyond,
            "rss control (python -c pass) MB": round(control, 1),
        })
        return {
            "setup_s": statistics.median(setup),
            "cli_wall_s": cli_wall,
            "items_per_s": self.corpus.items / cli_wall,
            "cmd_p50_s": statistics.median(latencies),
            "cmd_tail_s": tail_value,
            "lib_wall_s": statistics.median(lib_walls),
            "peak_rss_mb": max(self.rss_kb) / 1024,
            "ok_rate": (self.tally.ops - self.tally.failed) / self.tally.ops,
        }

    def per_layer(self) -> dict[str, float]:
        control = self.control_rss_mb()
        self.check_first_passes()
        replay = self.replay
        scores = ([c / 100 for _, cents in self.corpus.subjects for c in cents]
                  if self.corpus.workload == "scores-sheet" else None)
        untraced: list[float] = []
        traced: list[float] = []
        layers: list[dict[str, list]] = []
        escaped: dict[str, int] = {}

        def iteration() -> None:
            untraced.append(self.lib_pass()[0])
            tracer = replay.Tracer()
            traced.append(self.lib_pass(tracer.span)[0])
            if scores is not None:
                replay.classify_pooled(self.corpus.files["scale"], scores, tracer.span)
            gc.collect()
            escaped.clear()
            escaped.update(replay.cli_in_process(self.argvs, tracer.span))
            layers.append(replay.self_times(tracer.spans))

        iterations = self.loop(iteration)
        per_iteration = [layer_values(agg) for agg in layers]
        metrics = {name: statistics.median(values[name] for values in per_iteration)
                   for name in per_iteration[0]}
        metrics.update({
            "cli.output_bytes": self.output_bytes,
            "expr.failed.RecursionError": self.lib_failures.get("expr.failed.RecursionError", 0),
            "expr.failed.ZeroDivisorError": self.lib_failures.get("expr.failed.ZeroDivisorError", 0),
            "cli.failed": sum(escaped.values()),
            "assess.grade_mismatch": self.tally.grade_mismatch,
            "error_rate": self.tally.failed / self.tally.ops,
            "ops_total": self.tally.ops,
            "ops_failed": self.tally.failed,
            "lib_wall_untraced_s": statistics.median(untraced),
            "lib_wall_traced_s": statistics.median(traced),
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
            "rss.control_mb": control,
        })
        metrics = {name: metrics[name] for name in PER_LAYER}
        self.info.update({"iterations": iterations, "exceptions escaping cli.main": dict(escaped),
                          "lib failures": dict(self.lib_failures)})
        self.layer_table = layers[len(layers) // 2]
        return metrics


def layer_values(agg: dict[str, list]) -> dict[str, float]:
    """Per-layer figures of one traced iteration, from ``replay.self_times``."""
    def own(name: str) -> float:
        return agg.get(name, [0.0])[0]

    def calls(name: str) -> int:
        return agg.get(name, [0.0, 0.0, 0])[2]

    # spans that replay the work inside cli.main, so cli.main minus them is CLI glue
    replayed = sum(entry[0] for name, entry in agg.items()
                   if name not in ("cli.main", "scale.classify") and not name.startswith("cmd."))
    values = {name: own(name[:-2]) for name in PER_LAYER if name.endswith(".s")}
    values.update({
        "csvio.rows": calls("csvio.load_counts_csv") + calls("csvio.load_scores_csv"),
        "scale.classify.calls": calls("scale.classify"),
        "assess.assess.calls": calls("assess.assess"),
        "assess.us_per_group": (1e6 * own("assess.assess") / calls("assess.assess")
                                if calls("assess.assess") else 0.0),
        "tfn.check_equivalence.calls": calls("tfn.check_equivalence"),
        "cli.self_s": own("cli.main") - replayed,
        "expr.terms": calls("expr.parse_expression"),
        "grey.ops": calls("expr.eval_expression"),
    })
    return values


def describe(run: Run, metrics: dict[str, float], units: dict[str, str]) -> None:
    corpus = run.corpus
    print(f"workload {corpus.workload} seed {corpus.seed} preset {corpus.preset} "
          f"trace {int(run.trace)} seconds {run.seconds:g}")
    print(f"corpus: {corpus.items} {corpus.item_kind}, {corpus.rows} csv rows, "
          f"{len(run.argvs)} CLI commands per pass, digest {corpus.digest}")
    print(f"git {git_sha()} src {source_digest()} python {platform.python_version()} "
          f"nproc {len(os.sched_getaffinity(0))}")
    for key, value in run.info.items():
        print(f"  {key}: {value}")
    tally = run.tally
    print(f"ops {tally.ops}, failed {tally.failed} (error_rate {tally.failed / tally.ops:.6f}), "
          f"unexpected {tally.unexpected}, grade mismatches {tally.grade_mismatch}, "
          f"unstable CLI passes {run.unstable}")
    for defect, n in sorted(tally.known.items()):
        print(f"  known defect {defect}: {n} ops ({reference.KNOWN_DEFECTS[defect]})")
    for example in tally.examples:
        print(f"  unexpected: {example}")
    if run.trace:
        print("spans of the middle iteration (self s, total s, count, spans):")
        for name, (own, total, count, n) in sorted(run.layer_table.items()):
            print(f"  {name:34s} {own:10.6f} {total:10.6f} {count:9d} {n:6d}")
    for name, value in metrics.items():
        moves = f"  -> {PER_LAYER[name][1]} on {PER_LAYER[name][2]}" if name in PER_LAYER else ""
        print(f"{name} = {value:.6g} {units[name]}{moves}")


def run_once(workload: str, seed: int, seconds: float, trace: bool, preset: str = "full"):
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=base) as tmp, \
                Launcher(child_env()) as launcher:
            run = Run(workload, seed, seconds, trace, Path(tmp), launcher, preset)
            check_import(launcher, Path(tmp))
            metrics = run.per_layer() if trace else run.end_to_end()
    finally:
        try:
            base.rmdir()
        except OSError:
            pass
    return run, metrics


def check_import(launcher: Launcher, workdir: Path) -> None:
    """CLI processes must import the package from this checkout's src/."""
    out, err = workdir / "import.out", workdir / "import.err"
    _, results = launcher.run([([sys.executable, "-c", "import greyassess; print(greyassess.__file__)"],
                                out, err)])
    where = out.read_text().strip()
    if results[0][1] != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"CLI processes do not import greyassess from {SRC}: {where or err.read_text()}")


def prepare() -> None:
    if not (SRC / "greyassess" / "cli.py").is_file():
        raise SetupError(f"no greyassess package under {SRC}")
    if not TABLE1.is_file():
        raise SetupError(f"reference data {TABLE1} is missing")
    sys.path.insert(0, str(SRC))
    import greyassess

    if not Path(greyassess.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"greyassess imported from {greyassess.__file__}, not {SRC}")
    try:
        reference.check_table1(TABLE1)
    except (ValueError, KeyError) as exc:
        raise SetupError(f"reference check on {TABLE1} could not run: {exc}") from None


def self_check() -> int:
    """Tiny corpora through generator, reference, both passes and span bookkeeping."""
    import replay

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = ([(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END.items())
          and [(m["name"], m["unit"]) for m in declared["per_layer"]]
          == [(name, spec[0]) for name, spec in PER_LAYER.items()]
          and [w["name"] for w in declared["workloads"]] == list(WORKLOADS))
    print(f"BENCHMARK.json matches the metric tables: {'ok' if ok else 'FAIL'}")
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 2], ["b", 2.0, 3.0, 1, 0],
             ["a", 5.0, 9.0, 0, 1]]
    got = replay.self_times(spans)
    want = {"root": [3.0, 10.0, 0, 1], "a": [6.0, 7.0, 3, 2], "b": [1.0, 1.0, 0, 1]}
    print(f"span bookkeeping: {'ok' if got == want else f'FAIL {got}'}")
    ok = ok and got == want
    for workload in WORKLOADS:
        for trace in (False, True):
            run, metrics = run_once(workload, 1, 0.1, trace, preset="tiny")
            fine = run.tally.unexpected == 0 and run.unstable == 0 and all(
                math.isfinite(v) for v in metrics.values())
            if trace:
                fine = fine and bool(run.layer_table) and all(
                    -1e-6 <= own <= total + 1e-9 for own, total, _, _ in run.layer_table.values())
            print(f"{workload} trace {int(trace)}: ops {run.tally.ops} failed {run.tally.failed} "
                  f"known {dict(run.tally.known)} unexpected {run.tally.unexpected}: "
                  f"{'ok' if fine else 'FAIL'}")
            for example in run.tally.examples:
                print(f"  {example}")
            ok = ok and fine
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="greyassess benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run tiny corpora through every check and exit")
    args = parser.parse_args(argv)
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    try:
        prepare()
        if args.self_check:
            return self_check()
        run, metrics = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, reference.ReferenceCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = dict(END_TO_END)
    units.update({name: spec[0] for name, spec in PER_LAYER.items()})
    describe(run, metrics, units)
    correct = run.tally.unexpected == 0 and run.unstable == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.ops,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
