"""Command-line front end: identity suites, power budgets, relaxation runs, oracle checks.

Configuration is a flat INI-style file with sections (atom, bath, grid,
langevin, oracle, tolerances, output); many values can also be set by a
command-line flag, and flags win.  Every key is declared once, in ``_SCHEMA``:
its default text, type, range rule, optional ``auto`` rule and flag.  Every
command is deterministic given (config, seed): output files carry a hash of
the resolved physics configuration (worker count, output format and output
paths are excluded from the hash so byte-identical outputs are reproducible at
any parallelism and whatever is printed).

Exit codes: 0 pass, 1 physics-invariant failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import fdr, flux
from .greens import AtomParams, BathSpec, FrequencyGrid, NyquistError, check_nyquist

EXIT_PASS = 0
EXIT_PHYSICS_FAIL = 1
EXIT_CONFIG_ERROR = 2

_MIN_TRAJ_FOR_POWER = 50  # below this, relax reports WARN instead of judging
# the longest record or history numpy will build: it refuses complex128 arrays
# of more elements with a ValueError, and below this an oversized one raises
# MemoryError, which the commands map to a config error
_MAX_SAMPLES = np.iinfo(np.intp).max // 16


class ConfigError(Exception):
    """Configuration problem; carries the offending section.key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class _Rule(NamedTuple):
    test: Callable[[object], bool]
    text: str  # completes "must be ..."
    choices: tuple | None = None  # the accepted values of a one-of-a-set rule


_POSITIVE = _Rule(lambda v: 0 < v < math.inf, "positive and finite")
_NON_NEGATIVE = _Rule(lambda v: 0 <= v < math.inf, ">= 0 and finite")
_AT_LEAST_ONE = _Rule(lambda v: v >= 1, ">= 1")
_FINITE = _Rule(math.isfinite, "finite")
_FORMATS = _Rule(("json", "csv").__contains__, "json or csv", ("json", "csv"))

_COMMANDS = {
    "fdr-check": "run the identity suites",
    "budget": "compute the power budget",
    "relax": "run the Langevin ensemble and compare variances",
    "oracle": "compare late-time vs brute-force Hadamard values",
}


def _word(text: str) -> str:
    return text.strip().lower()


class _Key(NamedTuple):
    """One config key: its default text, parser, range rule, RunConfig attribute and flag."""

    section: str
    key: str
    default: str | None  # the text a config file would hold; None: absent unless given
    type: Callable[[str], object]
    rule: _Rule | None
    attr: str | None  # None: a hand-written rule in load_config consumes the value
    flag: str | None = None
    commands: tuple = tuple(_COMMANDS)  # the commands that take the flag
    auto: float | None = None  # the text "auto" resolves to auto / gamma


_SCHEMA = (
    _Key("atom", "m", "1.0", float, _POSITIVE, None),
    _Key("atom", "omega", "1.0", float, _POSITIVE, None, "--omega"),
    # exactly one of e / gamma may be given; the other is derived
    _Key("atom", "e", None, float, _POSITIVE, None),
    _Key("atom", "gamma", "0.01", float, _POSITIVE, None, "--gamma"),
    _Key("bath", "beta", "vacuum", str, None, None, "--beta"),  # or --vacuum
    _Key("grid", "cutoff", "100.0", float, _POSITIVE, "cutoff", "--cutoff"),
    _Key("grid", "n_points", "65536", int, None, "n_points", "--grid-points"),
    _Key("langevin", "dt", "0.05", float, _POSITIVE, "langevin_dt", "--dt", ("relax",)),
    _Key("langevin", "t_total", "auto", float, _POSITIVE, "t_total", "--t-total", ("relax",),
         auto=200.0),
    _Key("langevin", "n_traj", "400", int, _AT_LEAST_ONE, "n_traj", "--n-traj", ("relax",)),
    _Key("langevin", "seed", "12345", int, _NON_NEGATIVE, "seed", "--seed", ("relax",)),
    _Key("langevin", "t_burn", "auto", float, _NON_NEGATIVE, "t_burn", auto=20.0),
    _Key("oracle", "r", "30.0", float, _POSITIVE, "oracle_r", "--r", ("oracle",)),
    _Key("oracle", "t", "auto", float, _POSITIVE, "oracle_t", "--t", ("oracle",), auto=40.0),
    _Key("oracle", "dt_obs", "0.0", float, _FINITE, "oracle_dt_obs", "--dt-obs", ("oracle",)),
    _Key("oracle", "time_step", "0.02", float, _POSITIVE, "oracle_time_step", "--time-step",
         ("oracle",)),
    _Key("tolerances", "fdr_rtol", "1e-12", float, _NON_NEGATIVE, "fdr_rtol", "--fdr-rtol",
         ("fdr-check",)),
    _Key("tolerances", "fdr_atol", "1e-15", float, _NON_NEGATIVE, "fdr_atol"),
    _Key("tolerances", "budget_rtol", "1e-10", float, _NON_NEGATIVE, "budget_rtol"),
    _Key("tolerances", "oracle_rtol", "0.01", float, _NON_NEGATIVE, "oracle_rtol"),
    _Key("output", "format", "json", _word, _FORMATS, "out_format", "--format", ("budget",)),
    _Key("output", "directory", "out", str, None, "out_dir", "--out"),
    _Key("run", "workers", "1", int, _AT_LEAST_ONE, "workers", "--workers", ("relax",)),
)
_ROWS = {(row.section, row.key): row for row in _SCHEMA}
# the worker count is an execution detail: --workers sets it, a config file cannot
_FILE_SECTIONS = {row.section for row in _SCHEMA} - {"run"}


@dataclass
class RunConfig:
    atom: AtomParams
    bath: BathSpec
    cutoff: float
    n_points: int
    langevin_dt: float
    t_total: float
    n_traj: int
    seed: int
    t_burn: float
    oracle_r: float
    oracle_t: float
    oracle_dt_obs: float
    oracle_time_step: float
    fdr_rtol: float
    fdr_atol: float
    budget_rtol: float
    oracle_rtol: float
    out_format: str
    out_dir: str
    workers: int
    resolved: dict

    def config_hash(self) -> str:
        # workers, the printed format and the output directory are execution
        # details, not physics
        excluded = (("run", "workers"), ("output", "format"), ("output", "directory"))
        items = sorted(
            (f"{sect}.{key}", val)
            for (sect, key), val in self.resolved.items()
            if (sect, key) not in excluded
        )
        blob = "\n".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(blob.encode()).hexdigest()


def _value(row: _Key, text: str, gamma: float):
    """Parse one key's text and apply its range rule; ``auto`` resolves to row.auto / gamma."""
    field = f"{row.section}.{row.key}"
    if row.auto is not None and _word(text) == "auto":
        value = row.auto / gamma
    else:
        try:
            value = row.type(text)
        except ValueError:
            raise ConfigError(field, f"cannot parse {text!r} as {row.type.__name__}") from None
    if row.rule is not None and not row.rule.test(value):
        raise ConfigError(field, f"must be {row.rule.text}, got {value!r}")
    return value


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Resolve defaults, an optional INI file, and flag overrides into a RunConfig."""
    given = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError("config", f"parse error: {exc}") from None
        for sect in parser.sections():
            if sect not in _FILE_SECTIONS:
                raise ConfigError(sect, "unknown config section")
            given.update(((sect, key), val) for key, val in parser.items(sect))
    given.update((key, str(val)) for key, val in (overrides or {}).items() if val is not None)
    for sect, key in given:
        if (sect, key) not in _ROWS:
            raise ConfigError(f"{sect}.{key}", "unknown config key")

    values = {key: row.default for key, row in _ROWS.items() if row.default is not None}
    values.update(given)
    if ("atom", "e") in given:  # e replaces the default gamma
        if ("atom", "gamma") in given:
            raise ConfigError("atom", "give exactly one of e / gamma (the other is derived)")
        del values["atom", "gamma"]

    def field(sect, key, gamma=math.nan):
        return _value(_ROWS[sect, key], values[sect, key], gamma)

    m, omega = field("atom", "m"), field("atom", "omega")
    if ("atom", "e") in values:
        atom = AtomParams(e=field("atom", "e"), m=m, omega=omega)
    else:
        atom = AtomParams.from_damping(gamma=field("atom", "gamma"), m=m, omega=omega)
    if not (math.isfinite(atom.e) and 0 < atom.gamma < math.inf):
        raise ConfigError("atom", f"derived e={atom.e!r}, gamma={atom.gamma!r} must be positive and finite")

    beta_text = values["bath", "beta"]
    if _word(beta_text) in ("vacuum", "inf", "infinity"):
        bath = BathSpec.vacuum()
    else:
        try:
            bath = BathSpec(float(beta_text))
        except ValueError:
            message = f"must be vacuum or a positive number, got {beta_text!r}"
            raise ConfigError("bath.beta", message) from None

    fields = {row.attr: field(row.section, row.key, atom.gamma) for row in _SCHEMA if row.attr}
    try:
        FrequencyGrid(fields["cutoff"], fields["n_points"])
    except ValueError as exc:  # grid.cutoff passed its rule: n_points is at fault
        raise ConfigError("grid.n_points", str(exc)) from None
    if not fields["oracle_t"] - fields["oracle_dt_obs"] > 0:
        raise ConfigError(
            "oracle.dt_obs",
            f"the second time t - dt_obs must be positive, got t={fields['oracle_t']!r}, "
            f"dt_obs={fields['oracle_dt_obs']!r}",
        )

    # freeze the resolved textual config for hashing
    resolved = dict(values)
    resolved["atom", "gamma_derived"] = repr(atom.gamma)
    resolved["atom", "e_derived"] = repr(atom.e)
    for row in _SCHEMA:
        if row.auto is not None:
            resolved[row.section, row.key] = repr(fields[row.attr])
    return RunConfig(atom=atom, bath=bath, resolved=resolved, **fields)


def _length_key(duration_key: str, duration: float, step_key: str, step: float) -> str:
    """The key to blame for a record of ``duration / step`` samples that is too long.

    The step, when it is below its default and the duration would fit at that
    default; otherwise the duration.
    """
    default = float(_ROWS[tuple(step_key.split("."))].default)
    if step < default and duration / default < _MAX_SAMPLES:
        return step_key
    return duration_key


def _check_length(key: str, n_samples: float):
    """Reject a record or history too long for numpy to build, naming ``key``.

    Checked by the command that builds it, not in load_config: the ``auto``
    lengths scale as 1/gamma, and fdr-check and budget, which build neither,
    must keep working at a tiny gamma.
    """
    if not n_samples < _MAX_SAMPLES:
        message = f"{n_samples:.3g} samples exceed the largest complex128 array, {_MAX_SAMPLES} elements"
        raise ConfigError(key, message)


def _out_path(cfg: RunConfig, name: str) -> Path:
    directory = Path(cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def _write_json(cfg: RunConfig, name: str, payload: dict):
    payload = dict(payload)
    payload["config_sha256"] = cfg.config_hash()
    path = _out_path(cfg, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def cmd_fdr_check(cfg: RunConfig) -> int:
    grid = FrequencyGrid(cfg.cutoff, cfg.n_points)
    tol = dict(rtol=cfg.fdr_rtol, atol=cfg.fdr_atol)
    reports = [
        fdr.check_field_fdr(grid, 0.0, cfg.bath, **tol),
        # a second separation exercises the finite-r kernel nodes; parity checks its kernel's mirror
        fdr.check_field_fdr(grid, 1.0 / cfg.atom.omega, cfg.bath, **tol),
        fdr.check_atom_fdr_reduction(grid, cfg.atom, cfg.bath, **tol),
        fdr.check_parity(grid, cfg.atom, cfg.bath, **tol),
    ]
    for rep in reports:
        print(rep.format_line())
    all_passed = all(rep.passed for rep in reports)
    _write_json(
        cfg,
        "fdr_report.json",
        {"reports": [rep.to_dict() for rep in reports], "passed": all_passed},
    )
    return EXIT_PASS if all_passed else EXIT_PHYSICS_FAIL


def cmd_budget(cfg: RunConfig, sweep: list[float] | None = None) -> int:
    cutoffs = sweep if sweep else [cfg.cutoff]
    budgets = []
    for lam in cutoffs:
        budgets.append(flux.power_budget(cfg.atom, cfg.bath, FrequencyGrid(lam, cfg.n_points)))
    header = ",".join(flux.PowerBudget.CSV_COLUMNS)
    path = _out_path(cfg, "budget.csv")
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={cfg.config_hash()}\n")
        fh.write(header + "\n")
        for b in budgets:
            fh.write(b.csv_row() + "\n")
    violations = {repr(b.cutoff): b.closure_violations(cfg.budget_rtol) for b in budgets}
    ok = not any(v for v in violations.values())
    if cfg.out_format == "csv":
        print(header)
        for b in budgets:
            print(b.csv_row())
    else:
        # strict JSON: the vacuum's beta = inf is null here, and stays inf in budget.csv
        rows = [dict(b.to_dict(), beta=None if math.isinf(b.beta) else b.beta) for b in budgets]
        print(json.dumps({"budgets": rows, "passed": ok}, sort_keys=True))
    for lam, v in violations.items():
        for line in v:
            print(f"FAIL budget[Lambda={lam}]: {line}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_PHYSICS_FAIL


def cmd_relax(cfg: RunConfig) -> int:
    length_key = _length_key("langevin.t_total", cfg.t_total, "langevin.dt", cfg.langevin_dt)
    _check_length(length_key, cfg.t_total / cfg.langevin_dt)
    try:
        check_nyquist("dt", cfg.langevin_dt, cfg.cutoff)
    except NyquistError as exc:
        raise ConfigError("langevin.dt", str(exc)) from None
    # imported here, once the config is known to be good and before
    # run_ensemble forks its pool: the other commands, and a rejected dt, never
    # load the time-domain engine or the scipy modules it needs
    from . import langevin

    try:
        result = langevin.run_ensemble(
            cfg.atom,
            cfg.bath,
            cutoff=cfg.cutoff,
            dt=cfg.langevin_dt,
            t_total=cfg.t_total,
            n_traj=cfg.n_traj,
            master_seed=cfg.seed,
            t_burn=cfg.t_burn,
            workers=cfg.workers,
        )
    except langevin.BurnInError as exc:
        raise ConfigError("langevin.t_burn", str(exc)) from None
    except langevin.BandError as exc:
        raise ConfigError("grid.cutoff", str(exc)) from None
    except MemoryError as exc:
        raise ConfigError(length_key, f"the record is too long to hold: {exc}") from None
    predicted = langevin.predicted_variance(cfg.atom, cfg.bath, cfg.cutoff, cfg.n_points)
    stats = result.stats
    rel_dev = abs(stats.var_q - predicted) / predicted
    # undefined without a finite, nonzero scatter (one trajectory, or none);
    # a NaN standard error gives a NaN n_sigma, which stays visible
    n_sigma = None if stats.se_var_q in (0.0, math.inf) else abs(stats.var_q - predicted) / stats.se_var_q
    warned = cfg.n_traj < _MIN_TRAJ_FOR_POWER
    passed = warned or (n_sigma is not None and n_sigma <= 3.0)

    # decimated series so the file stays plot-sized whatever the step count
    stride = max(1, (result.n_steps + 1) // 2000)
    # the elements of result.times()[::stride], without building the whole axis
    times = result.dt * np.arange(0, result.n_steps + 1, stride)
    series = result.var_q_series[::stride]
    path = _out_path(cfg, "relax_series.csv")
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={cfg.config_hash()}\n")
        fh.write("t,var_q\n")
        for t, v in zip(times.tolist(), series.tolist()):
            fh.write(f"{t!r},{v!r}\n")

    # statistics that are undefined, rather than non-finite, are written as
    # null so the file stays strict JSON; a NaN still reads back as NaN
    stats_out = stats.to_dict()
    if stats.n_traj < 2:  # one trajectory has no scatter to take an error from
        stats_out.update(se_mean_q=None, se_var_q=None, se_var_qdot=None)
    payload = {
        "stats": stats_out,
        "predicted_var_q": predicted,
        "rel_deviation": rel_dev,
        "n_sigma": n_sigma,
        "warned_low_power": warned,
        "passed": passed,
    }
    _write_json(cfg, "relax_stats.json", payload)
    status = "WARN" if warned else ("PASS" if passed else "FAIL")
    sigma_text = "undefined" if n_sigma is None else f"{n_sigma:.2f}"
    print(
        f"{status} relax: var_q={stats.var_q:.6e} +- {stats.se_var_q:.1e} "
        f"predicted={predicted:.6e} rel_dev={rel_dev:.2%} n_sigma={sigma_text}"
    )
    if warned:
        print(f"WARN statistical power insufficient (n_traj={cfg.n_traj} < {_MIN_TRAJ_FOR_POWER})")
    return EXIT_PASS if passed else EXIT_PHYSICS_FAIL


def cmd_oracle(cfg: RunConfig) -> int:
    frame = flux.ObservationFrame(
        r=cfg.oracle_r, t=cfg.oracle_t, t_prime=cfg.oracle_t - cfg.oracle_dt_obs
    )
    # the emission history spans max(t, t') = max(t, t - dt_obs)
    history = max(frame.t, frame.t_prime)
    duration_key = "oracle.dt_obs" if cfg.oracle_dt_obs < 0 else "oracle.t"
    length_key = _length_key(duration_key, history, "oracle.time_step", cfg.oracle_time_step)
    history_samples = history / cfg.oracle_time_step
    _check_length(length_key, history_samples)
    try:
        check_nyquist("time_step", cfg.oracle_time_step, cfg.cutoff)
    except NyquistError as exc:
        raise ConfigError("oracle.time_step", str(exc)) from None
    # inside the light cone every lag kernel is a Filon sum over a node array
    # that grows with cutoff * r, however short the history; with the Nyquist
    # bound, cutoff * r stays below about pi * history_samples, so it is finite
    kernel_nodes = flux._filon_panels(cfg.cutoff, frame.r) + 1 if history > frame.r else 0
    _check_length("oracle.r", kernel_nodes)
    margin_ok = frame.late_time_ok(cfg.atom.gamma)
    grid = FrequencyGrid(cfg.cutoff, cfg.n_points)
    late = flux.interacting_hadamard_late(frame, cfg.atom, cfg.bath, grid)
    try:
        direct = flux.interacting_hadamard_direct(
            frame,
            cfg.atom,
            cfg.bath,
            time_step=cfg.oracle_time_step,
            cutoff=cfg.cutoff,
        )
    except MemoryError as exc:
        if kernel_nodes > history_samples:
            message = f"{kernel_nodes} lag-kernel nodes are too many to hold: {exc}"
            raise ConfigError("oracle.r", message) from None
        raise ConfigError(length_key, f"the emission history is too long to hold: {exc}") from None
    rel_dev = abs(late - direct.total) / max(abs(direct.total), 1e-300)
    passed = (rel_dev <= cfg.oracle_rtol) if margin_ok else True
    payload = {
        "frame": {"r": frame.r, "t": frame.t, "t_prime": frame.t_prime},
        "late_time_margin_ok": margin_ok,
        "late_value": late,
        "direct": direct.to_dict(),
        "rel_deviation": rel_dev,
        "passed": passed,
    }
    _write_json(cfg, "oracle.json", payload)
    if margin_ok:
        status = "PASS" if passed else "FAIL"
        print(f"{status} oracle: late={late:.6e} direct={direct.total:.6e} rel_dev={rel_dev:.2%}")
    else:
        print(
            f"NOTE transient regime (late-time margin violated): late={late:.6e} "
            f"direct={direct.total:.6e} rel_dev={rel_dev:.2%}; the direct value is ground truth"
        )
    return EXIT_PASS if passed else EXIT_PHYSICS_FAIL


@functools.cache  # built once per process, however often an in-process caller runs main
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomflux",
        description="Energy-budget and fluctuation-dissipation toolkit for a static "
        "harmonic atom in a massless scalar field",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", metavar="PATH", default=None)
        for row in _SCHEMA:
            if row.flag is None or command not in row.commands:
                continue
            dest = f"{row.section}.{row.key}"
            group = sub
            if dest == "bath.beta":  # --beta X | --vacuum: two spellings of one key
                group = sub.add_mutually_exclusive_group()
                group.add_argument("--vacuum", dest=dest, action="store_const", const="vacuum")
            group.add_argument(
                row.flag,
                dest=dest,
                # text keys reach load_config as typed; a choice is checked here
                type=row.type if row.type in (float, int) else None,
                choices=row.rule.choices if row.rule else None,
            )
        if command == "budget":
            sub.add_argument("--sweep", default=None, metavar="L1,L2,...",
                             help="comma-separated cutoff sweep")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {tuple(dest.split(".")): val for dest, val in vars(args).items() if "." in dest}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "fdr-check":
            return cmd_fdr_check(cfg)
        if args.command == "budget":
            sweep = None
            if args.sweep is not None:
                try:
                    sweep = [float(tok) for tok in args.sweep.split(",") if tok.strip()]
                except ValueError:
                    raise ConfigError("budget.sweep", f"cannot parse {args.sweep!r}") from None
                if not sweep or not all(map(_POSITIVE.test, sweep)):
                    message = f"must list one or more cutoffs, each {_POSITIVE.text}, got {args.sweep!r}"
                    raise ConfigError("budget.sweep", message)
            return cmd_budget(cfg, sweep)
        if args.command == "relax":
            return cmd_relax(cfg)
        return cmd_oracle(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
