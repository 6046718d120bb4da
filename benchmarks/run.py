"""sliceforge benchmark: end-to-end metrics with tracing off, per-layer metrics
from a separate traced run.

Run from the root of a sliceforge checkout::

    python3 benchmarks/run.py                       # every workload, both modes
    python3 benchmarks/run.py --workload cv-64 --seed 3 --seconds 40 --trace 0

``--trace 0`` prepares the workload several times through the program's own
commands (the median is ``setup_s``), then runs the measured command in a
fresh child process, one at a time, until ``--seconds`` have passed. After
each child it times a fixed reference task (``reference.py``) in its own
process; command times are reported relative to it, which cancels the
host's slow speed drift.
``--trace 1`` prepares once, then alternates an untraced child with a child
that runs the same command through ``cli.main`` under ``tracer.py``, and
reports the per-layer metrics. Every run's outputs are checked and hashed;
a failed check or a digest that differs from the first counts as a failure
and its timings are left out. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, measured_args, setup_steps

# Modules that import numpy or sliceforge are imported inside functions, once
# main() has capped OPENBLAS_NUM_THREADS and put src/ on sys.path.
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SECONDS = 40
# setup is repeated at least this often and for at least this long; setup_s is the median
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 3.0
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "x",
    "slices_per_ref": "slices/ref",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "val_loss": "nats",
}


@dataclass
class Child:
    rc: int
    wall_s: float
    timed_out: bool


def spawn(argv: list, env: dict, cwd: Path, stdout: Path, stderr: Path) -> Child:
    """Run one child to completion and time it."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, wall >= CHILD_TIMEOUT_S)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    facts: dict = field(default_factory=dict)


class Bench:
    """One benchmark invocation: checkout root, child environment, scratch space."""

    def __init__(self, root: Path, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.work = root / WORK_DIR / f"{os.getpid()}"
        self.out = root / OUT_DIR
        self.env = dict(os.environ)
        self.env.pop("SLICEFORGE_SEED", None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.log = 0

    def sliceforge(self, args: list, traced_spans: Path | None = None) -> Child:
        """One sliceforge command in a fresh interpreter, optionally traced.
        An untraced command writes its peak RSS for ``last_peak_mb``."""
        self.log += 1
        if traced_spans is None:
            argv = [sys.executable, str(BENCH_DIR / "child.py"),
                    str(self.work / "logs" / f"{self.log}.peak"), *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(traced_spans), "--", *args]
        logs = self.work / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        return spawn(argv, self.env, self.root, logs / f"{self.log}.out", logs / f"{self.log}.err")

    def last_peak_mb(self) -> float:
        return int((self.work / "logs" / f"{self.log}.peak").read_text()) / 1024.0

    def last_stdout(self) -> Path:
        return self.work / "logs" / f"{self.log}.out"

    def last_stderr_tail(self) -> str:
        text = (self.work / "logs" / f"{self.log}.err").read_text(errors="replace").strip()
        return text.splitlines()[-1] if text else ""


class SetupError(Exception):
    """The workload could not be prepared; the benchmark cannot run."""


def prepare(bench: Bench, w, dest: Path, traced: bool):
    """Make the workload's inputs; returns (Prepared, setup wall, generate spans)."""
    from checks import CheckFailed, check_model

    prepared, steps = setup_steps(w, bench.seed, dest)
    wall = 0.0
    spans = []
    for i, args in enumerate(steps):
        span_file = dest / f"setup-{i}.npz" if traced and args[0] == "generate" else None
        child = bench.sliceforge(args, span_file)
        if child.rc != 0:
            raise SetupError(f"setup `sliceforge {args[0]}` exited {child.rc}: "
                             f"{bench.last_stderr_tail()}")
        wall += child.wall_s
        if span_file is not None:
            spans.append(span_file)
    if prepared.model is not None:
        try:
            check_model(prepared.model)
        except CheckFailed as exc:
            raise SetupError(str(exc)) from exc
    return prepared, wall, spans


def measure_once(bench: Bench, w, prepared, n: int, traced: bool):
    """One measured command; returns (Child, Outcome, spans file or None)."""
    from checks import CheckFailed, check_cv, check_eval

    out = bench.work / f"run-{n}"
    out.mkdir(parents=True)
    spans = bench.work / f"spans-{n}.npz" if traced else None
    child = bench.sliceforge(measured_args(w, prepared, out), spans)
    try:
        if child.rc != 0:
            reason = "timed out" if child.timed_out else f"exit code {child.rc}"
            raise CheckFailed(f"{reason}: {bench.last_stderr_tail()}")
        if w.command == "run":
            facts = check_cv(out, prepared.manifest, w.k, w.epochs)
        else:
            facts = check_eval(out / "eval.json", bench.last_stdout(), prepared.manifest,
                               prepared.model)
        if not traced:
            facts["peak_rss_mb"] = bench.last_peak_mb()
        outcome = Outcome(True, facts=facts)
    except (CheckFailed, OSError, LookupError, TypeError, ValueError) as exc:
        outcome = Outcome(False, reason=f"{type(exc).__name__}: {exc}")
    shutil.rmtree(out)
    return child, outcome, spans


class Runs:
    """Outcomes of the measured runs; the first passing digest is the reference."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def accept(self, outcome: Outcome) -> bool:
        self.attempted += 1
        if outcome.ok and self.digest is not None and outcome.facts["digest"] != self.digest:
            outcome = Outcome(False, reason=f"digest {outcome.facts['digest'][:12]} differs "
                                            f"from {self.digest[:12]}")
        if not outcome.ok:
            self.failures.append(outcome.reason)
            return False
        self.digest = self.digest or outcome.facts["digest"]
        return True


def end_to_end(bench: Bench, w) -> dict:
    """Tracing off: setup_s over repeated preparations, then timed children,
    each followed by one timing of the reference task."""
    from reference import reference_s

    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_SECONDS:
        if setups:
            shutil.rmtree(prepared.root)
        prepared, wall, _ = prepare(bench, w, bench.work / f"setup-{len(setups)}", traced=False)
        setups.append(wall)
    runs = Runs()
    walls, refs, rss, facts = [], [], [], None
    reference_s()  # the first pass allocates and warms up; it is not kept
    start = time.perf_counter()
    while runs.attempted < MIN_SAMPLES or time.perf_counter() - start < bench.seconds:
        child, outcome, _ = measure_once(bench, w, prepared, runs.attempted, traced=False)
        ref = reference_s()
        if runs.accept(outcome):
            walls.append(child.wall_s)
            refs.append(ref)
            rss.append(outcome.facts["peak_rss_mb"])
            facts = outcome.facts
    metrics, samples, absolute = {}, {}, {}
    if walls:
        wall, ref, n = statistics.median(walls), statistics.median(refs), len(walls)
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "wall_rel": (wall / ref, n),
            "slices_per_ref": (facts["work"] * ref / wall, n),
            "peak_rss_mb": (statistics.median(rss), n),
            "accuracy": (facts["accuracy"], n),
            "val_loss": (facts["val_loss"], n),
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, (v, _) in values.items()}
        samples = {name: n for name, (_, n) in values.items()}
        # the absolute figures are printed and recorded, but drift too much to gate
        absolute = {"wall_s": {"value": wall, "unit": "s"},
                    "slices_per_s": {"value": facts["work"] / wall, "unit": "slices/s"},
                    "reference_s": {"value": ref, "unit": "s"}}
    return {"runs": runs, "metrics": metrics, "samples": samples, "absolute": absolute,
            "raw": {"setup_s": setups, "wall_s": walls, "reference_s": refs, "peak_rss_mb": rss}}


def traced(bench: Bench, w) -> dict:
    """Tracing on: untraced and traced children alternate; per-layer metrics."""
    from layer_metrics import COUNTS, UNITS, command_metrics
    from tracer import load_spans

    prepared, _, gen_spans = prepare(bench, w, bench.work / "setup", traced=True)
    generate_s = sum(command_metrics(*load_spans(p))["data.generate_synthetic_s"]
                     for p in gen_spans)
    runs = Runs()
    plain_walls, traced_walls, per_run = [], [], []
    last_spans = None
    start = time.perf_counter()
    pairs = 0
    while not pairs or time.perf_counter() - start < bench.seconds:
        # alternate which kind runs first, so neither always follows the checks
        for is_traced in (False, True) if pairs % 2 == 0 else (True, False):
            child, outcome, spans = measure_once(bench, w, prepared, runs.attempted, is_traced)
            if not is_traced:
                if runs.accept(outcome):
                    plain_walls.append(child.wall_s)
                continue
            if outcome.ok:
                m = command_metrics(*load_spans(spans))
                if m["cli.other_s"] < 0:
                    outcome = Outcome(False, reason="cli phase spans exceed the traced wall")
                elif per_run and any(m[c] != per_run[0][c] for c in COUNTS):
                    diff = [c for c in COUNTS if m[c] != per_run[0][c]]
                    outcome = Outcome(False, reason=f"traced counts changed between runs: {diff}")
            if runs.accept(outcome):
                traced_walls.append(child.wall_s)
                per_run.append(m)
                if last_spans is not None:
                    last_spans.unlink()
                last_spans = spans
            elif spans.exists():
                spans.unlink()
        pairs += 1
    metrics = {}
    if per_run and plain_walls:
        for name, unit in UNITS.items():
            if name == "bench.trace_overhead_frac":
                value = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
            elif name == "data.generate_synthetic_s":
                value = generate_s
            elif name in COUNTS:
                value = per_run[0][name]
            else:
                value = statistics.median(r[name] for r in per_run)
            metrics[name] = {"value": value, "unit": unit}
        bench.out.mkdir(exist_ok=True)
        shutil.copyfile(last_spans, bench.out / f"{w.name}-spans.npz")
    return {"runs": runs, "metrics": metrics, "last_traced": per_run[-1] if per_run else None,
            "samples": {"traced": len(traced_walls), "untraced": len(plain_walls)},
            "raw": {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls}}


def environment(root: Path, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(w, trace: int, env: dict, result: dict) -> None:
    runs = result["runs"]
    mode = "per-layer, traced run" if trace else "end-to-end, tracing off"
    print(f"== {w.name} ({mode}) ==")
    print(f"why: {w.why}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"runs: {runs.attempted} attempted, {len(runs.failures)} failed, "
          f"failed_frac {len(runs.failures) / max(runs.attempted, 1):.4g}, "
          f"digest {runs.digest or 'none'}")
    for reason in runs.failures:
        print(f"  failed: {reason}")
    samples = result["samples"]
    for name, m in result["metrics"].items():
        note = f"median of {samples[name]}" if name in samples else ""
        print(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']:<9} {note}")
    for name, m in result.get("absolute", {}).items():
        print(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']:<9} median, not gated")
    if trace and result["metrics"]:
        m = result["last_traced"]
        phases = sum(m[f"cli.{p}_s"] for p in ("load", "split", "fit", "final_eval", "save"))
        print(f"  medians over {samples['traced']} traced and {samples['untraced']} untraced runs;"
              f" last traced run: cli phases {phases:.6g} s + cli.other_s {m['cli.other_s']:.6g} s"
              f" = {phases + m['cli.other_s']:.6g} s = cli.traced_wall_s {m['cli.traced_wall_s']:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all", *WORKLOADS), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sliceforge" / "cli.py").is_file():
        print(f"error: {root} is not a sliceforge checkout (no src/sliceforge/cli.py)",
              file=sys.stderr)
        return 2
    # one BLAS thread unless asked otherwise: with a thread pool, peak RSS of the
    # same cv-64 run moved between 84 and 92 MB from one period to the next
    nproc = os.cpu_count() or 1
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS") or 1)
    except ValueError:
        requested = 1
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(requested, nproc)))
    sys.path.insert(0, str(root / "src"))

    # a terminated benchmark still kills and reaps its child and removes its scratch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, args.seed, args.seconds)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    env = environment(root, args.seed)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            for trace in modes:
                w = WORKLOADS[name]
                result = (traced if trace else end_to_end)(bench, w)
                report(w, trace, env, result)
                attempted += result["runs"].attempted
                failed += len(result["runs"].failures)
                if not result["metrics"]:
                    print(f"error: {name}: no run passed its checks", file=sys.stderr)
                    return 1
                prefix = "" if len(names) * len(modes) == 1 else f"{name}/"
                metrics.update({prefix + k: v for k, v in result["metrics"].items()})
                bench.out.mkdir(exist_ok=True)
                record = {"workload": name, "trace": trace, "env": env,
                          "digest": result["runs"].digest, "failures": result["runs"].failures,
                          "samples": result["samples"], "raw": result["raw"],
                          "metrics": result["metrics"], "absolute": result.get("absolute", {})}
                (bench.out / f"{name}-trace{trace}.json").write_text(
                    json.dumps(record, indent=1) + "\n", encoding="utf-8")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
