"""Tests of the benchmark's own code: input generation, span arithmetic,
output checks and the metric names BENCHMARK.json declares."""

from __future__ import annotations

import json
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import rcl

import run
import workloads
from tracer import Span, Tracer, covered, self_times
from workloads import Command

DECLARED = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_same_seed_same_bytes(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.generate(workload, seed, tmp_path / name)
    assert _files(tmp_path / "a") and _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    for command in workloads.commands(workload, tmp_path / "a"):
        if "--instance" in command.args:
            assert Path(command.args[command.args.index("--instance") + 1]).is_file()


def test_random_instance_keeps_wealth_interior():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = workloads.random_instance(rng, 2, 3)
        assert np.all(inst.e_a + inst.contract_lo > 0.0)


def test_covered_merges_overlapping_intervals_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        Span(1, None, "cli.main", "c", 0.0, 10.0),
        Span(2, 1, "solver.grid_oracle", "c", 1.0, 4.0),
        Span(3, 2, "solver.enumerate_best_assignment", "c", 2.0, 3.0),
        Span(4, 1, "market.tilted_density", "c", 3.0, 6.0),  # overlaps span 2
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def _fake_modules():
    solver = types.ModuleType("fake.solver")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + 1\n"
        "def _private():\n    return 0\n",
        solver.__dict__,
    )
    cli = types.ModuleType("fake.cli")
    cli.outer = solver.outer
    cli.inner = solver.inner
    cli.ThreadPoolExecutor = ThreadPoolExecutor
    exec(
        "def main():\n"
        "    with ThreadPoolExecutor(2) as pool:\n"
        "        list(pool.map(lambda _: inner(), range(2)))\n"
        "    return outer()\n",
        cli.__dict__,
    )
    return solver, cli


def test_tracer_nests_calls_across_modules_and_pool_threads():
    solver, cli = _fake_modules()
    originals = (solver.outer, cli.outer, solver._private)
    tracer = Tracer()
    tracer.install({"solver": solver, "cli": cli}, [solver, cli])
    assert cli.main() == 2
    tracer.uninstall()
    assert (solver.outer, cli.outer, solver._private) == originals
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["cli.main"]
    (outer,) = by_name["solver.outer"]
    assert root.parent is None and outer.parent == root.id
    parents = sorted(s.parent for s in by_name["solver.inner"])
    assert parents == sorted([root.id, root.id, outer.id])  # pool workers -> root
    assert "solver._private" not in by_name


def _instance_file(tmp_path: Path) -> Path:
    path = tmp_path / "inst.json"
    rcl.save_instance(workloads.random_instance(np.random.default_rng(5), 2, 2), path)
    return path


def _market_file(tmp_path: Path) -> Path:
    doc = workloads.market_document(np.random.default_rng(5), n_nodes=12, n_types=3)
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    return path


def _small_commands(tmp_path: Path) -> list[Command]:
    inst, market = str(_instance_file(tmp_path)), str(_market_file(tmp_path))
    return [
        Command("solve", "solve", ("solve", "--instance", inst, "--max-iters", "20")),
        Command("oracle", "oracle", ("oracle", "--instance", inst, "--levels", "3")),
        Command("menu", "menu", ("menu", "--instance", inst, "--levels", "2")),
        Command("equivalence", "equivalence",
                ("equivalence", "--instance", inst, "--levels", "2")),
        Command("market", "market", ("market", "--instance", market, "--beta", "0.5,1.0")),
        Command("ae", "ae-check", ("ae-check", "--preset", "reinsurance_wholeline")),
    ]


def test_metric_names_match_benchmark_json(tmp_path):
    commands = _small_commands(tmp_path)
    tracer = Tracer()
    seen, cache = {}, {}
    rounds = [run.run_round(commands, tmp_path, seen, cache, 0),
              run.run_round(commands, tmp_path, seen, cache, 1, tracer)]
    assert all(not r.problems for rd in rounds for r in rd.runs)
    e2e = run.end_to_end(rounds, [0.5, 0.6, 0.7])
    layers = run.per_layer(rounds, tracer)
    assert set(e2e) == {m["name"] for m in DECLARED["end_to_end"]}
    assert set(layers) == {m["name"] for m in DECLARED["per_layer"]}
    assert e2e["setup_s"] == 0.6 and e2e["value_mean"] > 0.0
    assert layers["solver.iterations"] == 20
    assert layers["solver.assignments"] == 3 ** 4 + 4 ** 2  # oracle + equivalence
    assert layers["menu.subsets"] == 2 * (2 ** 4 - 1)       # menu + equivalence
    assert 0.0 < layers["market.density_reuse"] < 1.0
    assert layers["cli.trace_rows"] == 20


def _writer(payloads):
    """A stand-in for run_command that writes scripted result.json bytes."""
    calls = iter(payloads)

    def runner(command, out):
        code, body = next(calls)
        if body is not None:
            (out / "result.json").write_text(body)
        return run.CommandRun(command, 0.01, code)

    return runner


def test_nonzero_exit_and_changed_output_count_as_failed(tmp_path):
    commands = [Command("a", "ae-check", ("ae-check",)), Command("b", "ae-check", ("ae-check",))]
    good = json.dumps({"report": {"passed": True}})
    changed = json.dumps({"report": {"passed": True}, "extra": 1})
    runner = _writer([(0, good), (1, None), (0, changed), (0, good)])
    seen = {}
    rounds = [run.run_round(commands, tmp_path, seen, {}, k, runner=runner) for k in (0, 1)]
    rec = run.record(rounds, [0.1], [])
    assert (rec["attempted"], rec["failed"]) == (4, 2)
    assert rec["fail_ratio"] == 0.5
    assert any("exit 1" in f for f in rec["failures"])
    assert any("differs" in f for f in rec["failures"])


def test_times_are_divided_by_the_slowdown_around_them(tmp_path):
    commands = [Command("a", "ae-check", ("ae-check",)), Command("b", "ae-check", ("ae-check",))]
    good = json.dumps({"report": {"passed": True}})
    runner = _writer([(0, good)] * 4)
    slowdowns = iter([1.0, 3.0, 5.0, 2.0, 2.0, 2.0])
    rounds = [run.run_round(commands, tmp_path, {}, {}, k, runner=runner,
                            slowdown=slowdowns.__next__) for k in (0, 1)]
    assert [r.slowdown for rd in rounds for r in rd.runs] == [2.0, 4.0, 2.0, 2.0]
    rounds[0].runs[0].facts["value"] = 0.5  # value_mean needs one attained value
    e2e = run.end_to_end(rounds, [0.4])
    # medians over the two rounds of 0.01/2, 0.01/2 and of 0.01/4, 0.01/2
    assert e2e["wall_s"] == pytest.approx(0.005 + 0.00375)
    assert e2e["setup_s"] == 0.4


def test_host_slowdown_is_one_at_nominal_speed(monkeypatch):
    clock = iter([10.0, 10.0 + run.KERNEL_REPEATS * 0.0155])
    monkeypatch.setattr(run.time, "perf_counter", clock.__next__)
    assert run.host_slowdown(("interpreter", "array")) == pytest.approx(
        0.0155 / (run.KERNELS["interpreter"][1] + run.KERNELS["array"][1]))


def test_infeasible_summary_is_caught(tmp_path):
    inst = str(_instance_file(tmp_path))
    command = Command("oracle", "oracle", ("oracle", "--instance", inst, "--levels", "3"))
    out = tmp_path / "out"
    out.mkdir()
    result = run.run_command(command, out)
    run.check_output(result, out, {}, {})
    assert result.problems == [] and result.facts["max_violation"] <= 1e-8

    lines = (out / "summary.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = "-50.0"  # type 0's utility level on atom 0, far below reservation
    lines[1] = ",".join(fields)
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    again = run.CommandRun(command, 0.0, 0)
    run.check_output(again, out, {}, {})
    assert any("violates IC/IR" in p for p in again.problems)
