"""Spans around the public functions of rcl's modules, and the per-layer
metrics derived from them.

`Tracer.install` replaces every public module-level function of each layer
module with a timing wrapper, at every module that binds it (so the call
`rcl.cli` makes to `grid_oracle`, and the one `grid_oracle` makes to
`enumerate_best_assignment`, both pass through a wrapper and nest).
`Tracer.uninstall` puts the originals back. Spans stay in memory; the
benchmark writes them out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from dataclasses import asdict, dataclass, field

import rcl

LAYERS = ("presets", "model", "transform", "constraints", "solver", "menu",
          "market", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str            # "<layer>.<function>"
    command: str | None  # label of the benchmark command the span belongs to
    start: float
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children of one span can overlap (worker threads of the market pool),
    so the covered part is the union of their intervals, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


# Per-function facts recorded on the span: (args, kwargs, result) -> dict.
EXTRACTORS = {
    "solver.solve_mechanism": lambda a, kw, r: {"iterations": r.iterations},
    "solver.enumerate_best_assignment": lambda a, kw, r: {"assignments": r[2]},
    "menu.solve_menu": lambda a, kw, r: {"subsets": 2 ** len(a[0]) - 1},
    "market.tilted_density": lambda a, kw, r: {"key": [id(a[0]), a[1]]},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a span opened on an empty stack of a worker thread belongs to
            # the command (root) span that started the pool
            parent = stack[-1].id if stack else self._root
            span = Span(next(self._ids), parent, name, self.command, time.perf_counter())
            if parent is None:
                self._root = span.id
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if self._root == span.id:
                    self._root = None
                self.spans.append(span)
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        return traced

    def install(self, layer_modules: dict[str, object], binding_modules):
        """Wrap each layer module's public functions wherever they are bound."""
        wrappers: dict[int, object] = {}
        for layer, module in layer_modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for module in binding_modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def install_on_rcl(tracer: Tracer):
    """Install the tracer on the rcl package: one layer per module."""
    layer_modules = {layer: importlib.import_module(f"rcl.{layer}") for layer in LAYERS}
    tracer.install(layer_modules, [rcl, *layer_modules.values()])


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics of the traced rounds, per round.

    `<fn>_s` is the inclusive span time of that function; names with `self`
    (and `market.budget_oracle_s`, `cli.self_s`) exclude child spans. Rates
    and ratios of a layer that did no work are 0.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, float] = {}
    cli_self = 0.0
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + own[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.layer == "cli":
            cli_self += own[s.id]
        if s.name != "market.tilted_density":
            for key, value in s.info.items():
                info[key] = info.get(key, 0) + value
    # one density per (command run, market model, drift type) is the minimum
    density_keys = {(s.command, *s.info["key"]) for s in spans
                    if s.name == "market.tilted_density" and s.info}

    def t(name):
        return total.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = info.get("iterations", 0)
    assignments = info.get("assignments", 0)
    subsets = info.get("subsets", 0)
    density_calls = calls.get("market.tilted_density", 0)
    metrics = {
        "solver.iterations": iterations,
        "solver.ms_per_iter": 1e3 * ratio(self_total.get("solver.solve_mechanism", 0.0),
                                          iterations),
        "solver.enumerate_s": t("solver.enumerate_best_assignment"),
        "solver.assignments": assignments,
        "solver.massign_per_s": 1e-6 * ratio(assignments,
                                             t("solver.enumerate_best_assignment")),
        "solver.oracle_self_s": self_total.get("solver.grid_oracle", 0.0),
        "solver.contract_values_s": t("solver.contract_values"),
        "solver.contract_values_calls": calls.get("solver.contract_values", 0),
        "solver.principal_value_s": t("solver.principal_value"),
        "menu.solve_menu_s": t("menu.solve_menu"),
        "menu.subsets": subsets,
        "menu.ksubsets_per_s": 1e-3 * ratio(subsets, t("menu.solve_menu")),
        "menu.extract_mechanism_s": t("menu.extract_mechanism"),
        "menu.equivalence_self_s": self_total.get("menu.equivalence_check", 0.0),
        "market.tilted_density_s": t("market.tilted_density"),
        "market.tilted_density_calls": density_calls,
        "market.density_reuse": ratio(len(density_keys), density_calls),
        "market.closed_forms_s": t("market.cara_optimal") + t("market.log_optimal"),
        "market.budget_oracle_s": self_total.get("market.verify_budget_optimality", 0.0),
        "market.delegation_s": t("market.delegation_value"),
        "market.entropy_s": t("market.relative_entropy"),
        "constraints.build_system_s": t("constraints.build_system"),
        "constraints.build_system_calls": calls.get("constraints.build_system", 0),
        "constraints.check_mechanism_s": t("constraints.check_mechanism"),
        "constraints.check_mechanism_calls": calls.get("constraints.check_mechanism", 0),
        "presets.build_s": t("presets.build_preset_bundle"),
        "model.load_instance_s": t("model.load_instance"),
        "transform.to_utility_units_s": t("transform.to_utility_units"),
        "transform.ae_check_s": t("transform.ae_check"),
        "cli.self_s": cli_self,
    }
    # times and counts above are totals over the traced rounds; ratios are not
    ratios = {"solver.ms_per_iter", "solver.massign_per_s", "menu.ksubsets_per_s",
              "market.density_reuse"}
    return {k: (v if k in ratios else v / rounds) for k, v in metrics.items()}
