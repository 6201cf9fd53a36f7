"""Command-line runner: configuration, batch execution, report emission.

Every command reads its input through one reader, `_load` (a market
preset is a market document, read like a `--instance` file), and writes
through the one writer at the end of `run`. It writes `result.json` into
the output directory; the mechanism-producing commands also write
`summary.csv` (one row per type and atom). `market` holds no market code:
`rcl.market.market_report` reads the document, with `--alpha` and `--beta`
winning over its fields. `solve` reports the certified `bound` and `gap` in
`result.json` and writes `trace.csv` with one `iter,bound` row per dual
iteration. Outputs are byte-identical for identical configuration: floats
are rendered via their shortest round-trip representation and JSON keys
are sorted.

`parse_args` builds its argparse parser once per process (`_parser`) and
reuses it, since a parse leaves no state in it: a caller that runs `main`
many times in one process pays for the build once.

Exit codes: 0 success, 1 invalid input (bad flags included, and flags the
command does not use) or caps exceeded, 2 the solve did not certify its
mechanism: it is infeasible, or its gap is above `--tol` (for instance
because `--max-iters` stopped the dual early).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .constraints import FeasibilityReport, Mechanism, build_system, check_mechanism, ic_rows
from .errors import RclError
from .market import market_report
from .menu import _check_menu_cap, equivalence_check, extract_mechanism, solve_menu
from .model import WEALTH_FLOOR, Instance, _dumps, _load_json, load_instance
from .presets import PRESET_NAMES, build_preset, build_preset_bundle
from .solver import SolveOptions, grid_contracts, grid_oracle, solve_mechanism
from .transform import ae_check, from_utility_units, to_utility_units

COMMANDS = ("solve", "menu", "equivalence", "market", "ae-check", "oracle")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    instance: str | None = None
    out: str = "out"
    max_iters: int | None = None
    tol: float | None = None
    levels: int | None = None
    beta: tuple[float, ...] | None = None
    alpha: float | None = None

    def echo(self) -> dict:
        doc = asdict(self)
        doc.pop("out")  # output location is not part of the computation
        return doc


def _write_csv(path: Path, header: list[str], rows: list[list]):
    """csv writes a float cell as its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(path: Path, uu, mech: Mechanism, feasibility: FeasibilityReport):
    """Per-type, per-atom table of the mechanism with its constraint slacks,
    read off its feasibility report: the IC rows, then the IR rows. Float
    cells go to csv as their repr, the text csv writes for a float."""
    n = uu.n_types
    slacks = np.array([row["slack"] for row in feasibility.row_slacks])
    ic, ir_slack = np.split(slacks, [n * (n - 1)])
    own = ic_rows(np.indices((n, n))[0])  # the type each IC row belongs to
    min_ic = np.where(own == np.arange(n)[:, None], ic, np.inf).min(axis=1, initial=np.inf)
    rows = []
    for j, label in enumerate(uu.base.report_labels()):
        x = from_utility_units(uu, mech.assignment[j])
        slack_cells = [float.__repr__(ir_slack[j]), float.__repr__(min_ic[j])]
        for atom, c, x_i in zip(uu.states.atoms, mech.assignment[j].tolist(), x.tolist()):
            rows.append([label, atom, float.__repr__(c), float.__repr__(x_i), *slack_cells])
    _write_csv(
        path,
        ["type_label", "atom", "c_value", "x_value", "ir_slack", "min_ic_slack"],
        rows,
    )


def load_summary_mechanism(path) -> Mechanism:
    """Re-ingest a summary.csv into the mechanism it describes."""
    by_type: dict[str, list[float]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            label = row["type_label"]
            if label not in by_type:
                by_type[label] = []
                order.append(label)
            by_type[label].append(float(row["c_value"]))
    return Mechanism(np.array([by_type[label] for label in order]))


def _warn_clamps(uu):
    """Warn of floored wealth through this module's logger, which shows the
    message on the stderr of the moment and passes it on to any handler a
    caller set up."""
    if not uu.clamped_atoms:
        return
    # imported here: only this warning needs logging, which adds 3% to the
    # import of rcl.cli
    import logging

    log = logging.getLogger(__name__)
    handler = logging.StreamHandler(sys.stderr)
    log.addHandler(handler)
    try:
        log.warning("warning: wealth floored at %g on atoms %s when transforming the "
                    "lower contract bound", WEALTH_FLOOR, uu.clamped_atoms)
    finally:
        log.removeHandler(handler)


def _load(config: RunConfig) -> Instance | dict:
    """The one reader: the named preset or the --instance file, as a market
    document for `market` and as an instance for every other command."""
    if (config.preset is None) == (config.instance is None):
        raise RclError("provide exactly one of --preset or --instance")
    if config.command != "market":
        if config.preset is not None:
            return build_preset(config.preset)
        return load_instance(config.instance)
    if config.instance is not None:
        return _load_json(config.instance)
    doc = build_preset_bundle(config.preset).market
    if doc is None:
        raise RclError(
            f"preset {config.preset!r} carries no market model; "
            "use cara_hedging or log_delegation"
        )
    return doc


# the commands each optional flag applies to; --preset, --instance and --out
# apply to every command
_FLAG_COMMANDS = {
    "max_iters": ("solve",),
    "tol": ("solve",),
    "levels": ("oracle", "menu", "equivalence"),
    "alpha": ("market",),
    "beta": ("market",),
}


def _check_flags(config: RunConfig):
    """A flag the command does not read is an input error, not a no-op."""
    for name, commands in _FLAG_COMMANDS.items():
        if getattr(config, name) is not None and config.command not in commands:
            flag = "--" + name.replace("_", "-")
            raise RclError(f"{flag} does not apply to {config.command}")


def _levels(config: RunConfig, default: int) -> int:
    return config.levels if config.levels is not None else default


# The mechanism commands: each body maps the loaded utility-units instance to
# its result.json body, the mechanism for summary.csv with its feasibility
# report, its trace (or None) and its exit code.

def _solve(config: RunConfig, uu):
    flags = {"max_iters": config.max_iters, "tol": config.tol}
    result = solve_mechanism(
        uu, SolveOptions(**{k: v for k, v in flags.items() if v is not None}))
    code = EXIT_OK if result.converged else EXIT_NOT_CONVERGED
    doc = {"result": result.to_json(), "clamped_atoms": uu.clamped_atoms}
    return doc, result.mechanism, result.feasibility, result.trace, code


def _oracle(config: RunConfig, uu):
    result = grid_oracle(uu, _levels(config, 3))
    doc = {"result": result.to_json(), "clamped_atoms": uu.clamped_atoms}
    return doc, result.mechanism, result.feasibility, None, EXIT_OK


def _candidates(config: RunConfig, uu):  # the cap is checked before the grid is built
    levels = _levels(config, 2)
    _check_menu_cap(max(levels, 0) ** uu.n_atoms, uu.n_types)
    return grid_contracts(uu, levels)


def _feasibility(uu, mech: Mechanism) -> FeasibilityReport:
    """The report of a command whose own result carries none."""
    return check_mechanism(build_system(uu), mech)


def _menu(config: RunConfig, uu):
    menu, value = solve_menu(_candidates(config, uu), uu)
    mech = extract_mechanism(menu, uu)
    doc = {"menu_value": value, "menu": menu.contracts.tolist(),
           "mechanism": mech.to_json()}
    return doc, mech, _feasibility(uu, mech), None, EXIT_OK


def _equivalence(config: RunConfig, uu):
    candidates = _candidates(config, uu)
    report = equivalence_check(candidates, uu)
    witness = Mechanism(candidates[report.witness_assignment])
    return {"report": report.to_json()}, witness, _feasibility(uu, witness), None, EXIT_OK


_MECHANISM_COMMANDS = {"solve": _solve, "oracle": _oracle, "menu": _menu,
                       "equivalence": _equivalence}


def run(config: RunConfig) -> int:
    out = Path(config.out)
    try:
        _check_flags(config)
        uu = mech = feasibility = trace = None
        code = EXIT_OK
        if config.command in _MECHANISM_COMMANDS:
            uu = to_utility_units(_load(config))
            _warn_clamps(uu)
            doc, mech, feasibility, trace, code = _MECHANISM_COMMANDS[config.command](config, uu)
        elif config.command == "ae-check":
            doc = {"report": ae_check(_load(config).u).to_json()}
        elif config.command == "market":
            doc = market_report(_load(config), config.alpha, config.beta)
        else:
            raise RclError(f"unknown command {config.command!r}")
        # encoded whole before the file is opened, and written in one call;
        # `_dumps` gives json.dumps(indent=2, sort_keys=True)'s bytes
        text = _dumps({"config": config.echo(), **doc})
        # made only now, so an input error leaves no empty output directory
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(text + "\n")
        if trace is not None:
            _write_csv(out / "trace.csv", ["iter", "bound"], trace)
        if mech is not None:
            _write_summary(out / "summary.csv", uu, mech, feasibility)
        return code
    except RclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad flag is invalid input; exit 2 is kept for non-convergence
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"error: {message}\n")


def _numbers(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(b) for b in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


@cache
def _parser() -> _Parser:
    """The one parser of the process; parse_args keeps no state in it."""
    parser = _Parser(prog="rcl", description="Robust contracting lab: solve, delegate, certify.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--preset", choices=PRESET_NAMES)
    parser.add_argument("--instance", help="path to an instance JSON document")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--max-iters", type=int, help="cap on the solver's dual iterations")
    parser.add_argument("--tol", type=float, help="feasibility and gap tolerance of solve")
    parser.add_argument("--levels", type=int, help="grid levels per atom")
    parser.add_argument("--beta", type=_numbers,
                        help="profit share(s) kept by the agent, comma separated for sweeps")
    parser.add_argument("--alpha", type=float, help="CARA risk aversion")
    return parser


def parse_args(argv) -> RunConfig:
    return RunConfig(**vars(_parser().parse_args(argv)))


def main(argv=None) -> int:
    return run(parse_args(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main())
