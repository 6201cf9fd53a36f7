"""The rcl benchmark: one workload and one seed, run through `rcl.cli.main`.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; it imports rcl from `src/`. Set-up
runs the workload's input generator in a fresh interpreter several times
(that includes `import rcl.cli`) and checks that it wrote the same bytes
each time. The workload's commands then run back to back in this process,
in rounds (closed loop, one caller, program defaults for threads), until
another round would overrun `--seconds`; at least two rounds run so every
command's `result.json` is compared with an earlier run of it. Every output
is checked (see `check_output`); a command that fails a check counts in
`failed`.

`wall_s` is host-normalised. Fixed reference kernels that call nothing
in rcl (see `host_slowdown`) run before and after every command; each
command's time is divided by the mean of the two slowdowns measured
around it, the factor by which the kernels ran slower than their nominal
times. On a shared host whose speed drifts by
1.5x or more over minutes this cancels the drift, which the kernels feel
too; a slower program still reads slower by its own factor. Each workload
uses the kernels that do the kind of work its commands do, since those
track its slowdowns best. The raw times are in the run record.

With `--trace 0` the last line of standard output reports the end-to-end
metrics; with `--trace 1`, rounds alternate untraced and traced, and it
reports the per-layer metrics of the traced rounds. The line before it is
the run record: per-command times, values and check results. Both, and the
spans of a traced run, are also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import operator
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import rcl.cli
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import rcl from {SRC}: {exc}")
if Path(rcl.__file__).resolve().parent != SRC / "rcl":
    raise SystemExit(f"perfbench: rcl imported from {rcl.__file__}, not from {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from rcl.constraints import DEFAULT_TOL, build_system, check_mechanism  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2
MARKET_GAP_BOUND = 1e-7      # the acceptance suite's bound on |closed form - oracle|
SUMMARY_KINDS = ("solve", "oracle", "menu", "equivalence")
TIMED_KINDS = ("solve", "oracle", "menu", "equivalence", "market")
OUT_DIR = ROOT / ".perfbench_out"

_REF_RNG = np.random.default_rng(0)
_REF_MATRICES = _REF_RNG.random((6, 3, 3)) + 3.0 * np.eye(3)
_REF_RHS = _REF_RNG.random((6, 3))
_REF_ROWS = _REF_RNG.random((40, 24))


def _interpreter_work() -> int:
    """Pure interpreter work, like the menu's subset loop."""
    total = 0
    for i in range(120_000):
        total += i * i % 7
    return total


def _array_work() -> float:
    """Small-array numpy calls, like a solver iteration: a tiny linear
    solve, a stack, a matrix-vector product, reductions and a clip."""
    y = np.full(24, 0.5)
    total = 0.0
    for k in range(300):
        x = np.linalg.solve(_REF_MATRICES[k % 6], _REF_RHS[k % 6])
        rows = np.stack([x, 0.5 * x, x - 1.0])
        slack = _REF_ROWS @ y
        total += float(np.max(slack)) + float(np.sum(rows))
        if np.any(slack > 100.0):
            total += 1.0
        y = np.clip(y - 1e-3 * slack[:24], 0.0, 1.0)
    return total


# Each kernel with its fastest time on the calm 2-core host of the
# baseline record, so that normalised times read about as raw seconds there.
KERNELS = {"interpreter": (_interpreter_work, 0.0080), "array": (_array_work, 0.0075)}
KERNEL_REPEATS = 3           # one run of a kernel is too short to gauge the host
WORKLOAD_KERNELS = {
    "solve_reinsurance": ("array",),
    "solve_market": ("array",),
    "certify": ("interpreter", "array"),
}


class SetupError(RuntimeError):
    pass


def host_slowdown(kernels: tuple[str, ...] = tuple(KERNELS)) -> float:
    """Run the named kernels KERNEL_REPEATS times; return their time over
    their nominal time. The kernels call nothing in rcl, so a change to the
    program leaves this alone."""
    start = time.perf_counter()
    for _ in range(KERNEL_REPEATS):
        for name in kernels:
            KERNELS[name][0]()
    nominal = KERNEL_REPEATS * math.fsum(KERNELS[n][1] for n in kernels)
    return (time.perf_counter() - start) / nominal


@dataclass
class CommandRun:
    command: workloads.Command
    seconds: float
    code: object                      # exit code, or the exception it raised
    stderr: str = ""
    slowdown: float = math.nan        # mean host slowdown just before and after
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


@dataclass
class Round:
    traced: bool
    runs: list[CommandRun]

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.runs)


def set_up(workload: str, seed: int, work: Path) -> tuple[list[float], Path, list[str]]:
    """Generate the inputs SETUP_REPEATS times, each in a fresh interpreter.

    Returns the set-up times, the first input directory, and a problem if
    the repeats did not write byte-identical files. The times are raw: the
    set-up runs in another process, whose slowdown the kernels run here
    did not track.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, dirs = [], []
    for k in range(SETUP_REPEATS):
        out = work / f"inputs{k}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=170,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"input generator exited {proc.returncode}: {proc.stderr}")
        dirs.append(out)
    contents = [{p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in dirs]
    problems = [] if all(c == contents[0] for c in contents) else [
        "input generator wrote different bytes for the same seed"]
    return times, dirs[0], problems


def run_command(command: workloads.Command, out: Path) -> CommandRun:
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = rcl.cli.main([*command.args, "--out", str(out)])
    except Exception as exc:  # a crash fails the command, not the benchmark
        code = f"raised {type(exc).__name__}"
        err.write(traceback.format_exc())
    return CommandRun(command, time.perf_counter() - start, code, err.getvalue())


def summary_violation(command: workloads.Command, path: Path, cache: dict) -> float:
    """Largest IC/IR violation of the mechanism in a summary.csv, re-checked
    from the command's own instance."""
    if command.label not in cache:
        config = rcl.cli.parse_args(list(command.args))
        inst = (rcl.build_preset(config.preset) if config.preset is not None
                else rcl.load_instance(config.instance))
        cache[command.label] = build_system(rcl.to_utility_units(inst))
    report = check_mechanism(cache[command.label], rcl.cli.load_summary_mechanism(path),
                             DEFAULT_TOL)
    return max(report.max_ic_violation, report.max_ir_violation)


def check_output(run: CommandRun, out: Path, seen: dict, cache: dict):
    """Check one command's outputs, adding to run.problems and run.facts.

    Checks: exit code 0; result.json byte-identical to the first run of the
    command; every summary.csv feasible at the solver tolerance; equivalence
    reports equal; market oracle gaps within MARKET_GAP_BOUND; ae-check
    passes on the preset that must pass it.
    """
    if run.code != 0:
        run.problems.append(f"exit {run.code}: {run.stderr.strip()[-300:]}")
        return
    command, facts = run.command, run.facts
    try:
        raw = (out / "result.json").read_bytes()
        if raw != seen.setdefault(command.label, raw):
            run.problems.append("result.json differs from an earlier run of the command")
        doc = json.loads(raw)
        if command.kind in ("solve", "oracle"):
            facts["value"] = doc["result"]["value"]
        elif command.kind == "menu":
            facts["value"] = doc["menu_value"]
        elif command.kind == "equivalence":
            facts["equivalence_gap"] = doc["report"]["gap"]
            if doc["report"]["equal"] is not True:
                run.problems.append(f"menu and mechanism values differ by {doc['report']['gap']}")
        elif command.kind == "market":
            gap = max(t[form]["oracle_gap"] for t in doc["types"] for form in ("cara", "log"))
            facts["market_oracle_gap"] = gap
            if not gap <= MARKET_GAP_BOUND:
                run.problems.append(f"market oracle gap {gap} above {MARKET_GAP_BOUND}")
        elif command.kind == "ae-check" and doc["report"]["passed"] is not True:
            run.problems.append("ae-check refused a utility that passes the tail check")
        if command.kind in SUMMARY_KINDS:
            violation = summary_violation(command, out / "summary.csv", cache)
            facts["max_violation"] = violation
            if not violation <= DEFAULT_TOL:
                run.problems.append(f"summary.csv violates IC/IR by {violation}")
        if command.kind == "solve":
            with open(out / "trace.csv") as fh:
                facts["trace_rows"] = sum(1 for _ in fh) - 1
    except (OSError, ValueError, KeyError, TypeError, rcl.RclError) as exc:
        run.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    facts["bytes_written"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def run_round(commands, work: Path, seen: dict, cache: dict, index: int,
              tracer: tracing.Tracer | None = None, runner=run_command,
              slowdown=host_slowdown) -> Round:
    """Run every command once, back to back, measuring the host slowdown
    between them; check outputs after the round."""
    runs = []
    outs = []
    if tracer is not None:
        tracing.install_on_rcl(tracer)
    try:
        before = slowdown()
        for command in commands:
            out = work / "out" / command.label
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            if tracer is not None:
                tracer.command = f"{index}:{command.label}"
            run = runner(command, out)
            after = slowdown()
            run.slowdown = (before + after) / 2
            before = after
            runs.append(run)
            outs.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for run, out in zip(runs, outs):
        check_output(run, out, seen, cache)
    return Round(tracer is not None, runs)


def command_seconds(rounds: list[Round], i: int) -> float:
    """Command i's normalised time: the median over rounds."""
    return statistics.median(rd.runs[i].seconds / rd.runs[i].slowdown for rd in rounds)


def end_to_end(rounds: list[Round], setup_times: list[float]) -> dict[str, float]:
    """wall_s sums each command's normalised time (the record keeps the raw
    times); setup_s is the median of the set-up times."""
    values = [r.facts["value"] for r in rounds[0].runs if "value" in r.facts]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": math.fsum(command_seconds(rounds, i) for i in range(len(rounds[0].runs))),
        "value_mean": statistics.fmean(values),
    }


def kind_seconds(rounds: list[Round]) -> dict[str, float]:
    """Median over rounds of the summed time of each command kind."""
    return {
        kind: statistics.median(
            math.fsum(r.seconds for r in rd.runs if r.command.kind == kind) for rd in rounds)
        for kind in TIMED_KINDS
    }


def per_layer(rounds: list[Round], tracer: tracing.Tracer) -> dict[str, float]:
    traced = [rd for rd in rounds if rd.traced]
    plain = [rd for rd in rounds if not rd.traced]
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    metrics["cli.bytes_written"] = statistics.fmean(
        sum(r.facts.get("bytes_written", 0) for r in rd.runs) for rd in traced)
    metrics["cli.trace_rows"] = statistics.fmean(
        sum(r.facts.get("trace_rows", 0) for r in rd.runs) for rd in traced)
    metrics["trace.overhead_s"] = (statistics.median(rd.wall for rd in traced)
                                   - statistics.median(rd.wall for rd in plain))
    for kind, seconds in kind_seconds(plain).items():
        metrics[f"command.{kind}_s"] = seconds
    return metrics


def record(rounds: list[Round], setup_times: list[float], problems: list[str]) -> dict:
    """The audit record of a run: what each command did and how long it took."""
    first = rounds[0].runs
    facts = [r.facts for rd in rounds for r in rd.runs]

    def most(key):
        found = [f[key] for f in facts if key in f]
        return max(found) if found else None

    commands = {}
    for i, run in enumerate(first):
        plain_runs = [rd.runs[i] for rd in rounds if not rd.traced]
        times = [r.seconds for r in plain_runs]
        slowdowns = [r.slowdown for r in plain_runs]
        commands[run.command.label] = {
            "kind": run.command.kind,
            "args": list(run.command.args),
            "median_s": statistics.median(times) if times else math.nan,
            "fastest_s": min(times, default=math.nan),
            "normalised_median_s": statistics.median(map(operator.truediv, times, slowdowns))
            if times else math.nan,
            "runs_s": times,
            "slowdowns": slowdowns,
            **{k: v for k, v in run.facts.items() if k != "bytes_written"},
        }
    attempted = sum(len(rd.runs) for rd in rounds)
    failures = problems + [f"round {n} {r.command.label}: {p}"
                           for n, rd in enumerate(rounds) for r in rd.runs
                           for p in r.problems]
    failed = sum(1 for rd in rounds for r in rd.runs if r.problems)
    plain = [rd for rd in rounds if not rd.traced]
    return {
        "rounds": len(rounds),
        "setup_runs_s": setup_times,
        "commands": commands,
        **{f"{kind}_s": s for kind, s in kind_seconds(plain).items()},
        "max_violation": most("max_violation"),
        "equivalence_gap_max": most("equivalence_gap"),
        "market_oracle_gap_max": most("market_oracle_gap"),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.environ.pop("RCL_THREADS", None)  # the market pool runs at its default size
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        slowdown = functools.partial(host_slowdown, WORKLOAD_KERNELS[workload])
        setup_times, inputs, problems = set_up(workload, seed, work)
        commands = workloads.commands(workload, inputs)
        tracer = tracing.Tracer() if trace else None
        seen: dict = {}
        cache: dict = {}
        rounds: list[Round] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            traced = trace and len(rounds) % 2 == 1
            begun = time.perf_counter()
            rounds.append(run_round(commands, work, seen, cache, len(rounds),
                                    tracer if traced else None, slowdown=slowdown))
            now = time.perf_counter()
            longest = max(longest, now - begun)
            if len(rounds) >= MIN_ROUNDS and now - start + longest > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec = {"workload": workload, "seed": seed, "trace": int(trace),
           **record(rounds, setup_times, problems)}
    metrics = per_layer(rounds, tracer) if trace else end_to_end(rounds, setup_times)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    result = {
        "correct": rec["failed"] == 0 and not problems,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    saved = {"record": rec, "result": result}
    if trace:
        saved["spans"] = tracer.dump()
    (OUT_DIR / f"{name}.json").write_text(json.dumps(saved) + "\n")
    return {"record": rec, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rcl benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
