"""Command-line front end: identity suites, power budgets, relaxation runs, oracle checks.

Configuration is a flat INI-style file with sections (atom, bath, grid,
langevin, oracle, tolerances, output); any value can be overridden by a
command-line flag of the same name, and flags win.  Every command is
deterministic given (config, seed): output files carry a hash of the resolved
physics configuration (worker count and output paths are excluded from the
hash so byte-identical outputs are reproducible at any parallelism).

Exit codes: 0 pass, 1 physics-invariant failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import fdr, flux
from .greens import AtomParams, BathSpec, FrequencyGrid

EXIT_PASS = 0
EXIT_PHYSICS_FAIL = 1
EXIT_CONFIG_ERROR = 2

_MIN_TRAJ_FOR_POWER = 50  # below this, relax reports WARN instead of judging


class ConfigError(Exception):
    """Configuration problem; carries the offending section.key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


_DEFAULTS = {
    "atom": {"m": "1.0", "omega": "1.0"},  # exactly one of e / gamma may join these
    "bath": {"beta": "vacuum"},
    "grid": {"cutoff": "100.0", "n_points": "65536"},
    "langevin": {
        "dt": "0.05",
        "t_total": "auto",  # 200 / gamma
        "n_traj": "400",
        "seed": "12345",
        "t_burn": "auto",  # 20 / gamma
    },
    "oracle": {
        "r": "30.0",
        "t": "auto",  # 40 / gamma
        "dt_obs": "0.0",
        "time_step": "0.02",
        "n_kappa": "8192",
    },
    "tolerances": {
        "fdr_rtol": "1e-12",
        "fdr_atol": "1e-15",
        "budget_rtol": "1e-10",
        "oracle_rtol": "0.01",
        "relax_rtol": "0.05",
    },
    "output": {"format": "json", "directory": "out"},
}


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
    oracle_n_kappa: int
    fdr_rtol: float
    fdr_atol: float
    budget_rtol: float
    oracle_rtol: float
    relax_rtol: float
    out_format: str
    out_dir: str
    workers: int
    resolved: dict

    def config_hash(self) -> str:
        # workers and output directory are execution details, not physics
        items = sorted(
            (f"{sect}.{key}", val)
            for (sect, key), val in self.resolved.items()
            if (sect, key) not in (("run", "workers"), ("output", "directory"))
        )
        blob = "\n".join(f"{k}={v}" for k, v in items)
        return hashlib.sha256(blob.encode()).hexdigest()


def _parse_float(field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(field, f"cannot parse {text!r} as a number") from None


def _parse_int(field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(field, f"cannot parse {text!r} as an integer") from None


def _positive(field: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(field, f"must be positive and finite, got {value!r}")
    return value


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Resolve defaults, an optional INI file, and flag overrides into a RunConfig."""
    values = {(s, k): v for s, sect in _DEFAULTS.items() for k, v in sect.items()}
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
            if sect not in _DEFAULTS and sect != "atom":
                raise ConfigError(sect, "unknown config section")
            for key, val in parser.items(sect):
                values[(sect, key)] = val
    for (sect, key), val in (overrides or {}).items():
        if val is not None:
            values[(sect, key)] = str(val)

    known_atom = {"e", "gamma", "m", "omega"}
    for sect, key in values:
        if sect == "atom" and key not in known_atom:
            raise ConfigError(f"atom.{key}", "unknown atom parameter")

    def _atom(key):
        return _positive(f"atom.{key}", _parse_float(f"atom.{key}", values[("atom", key)]))

    m = _atom("m")
    omega = _atom("omega")
    has_e = ("atom", "e") in values
    has_gamma = ("atom", "gamma") in values
    if has_e and has_gamma:
        raise ConfigError("atom", "give exactly one of e / gamma (the other is derived)")
    if has_e:
        atom = AtomParams(e=_atom("e"), m=m, omega=omega)
    elif has_gamma:
        atom = AtomParams.from_damping(gamma=_atom("gamma"), m=m, omega=omega)
    else:
        atom = AtomParams.from_damping(gamma=0.01, m=m, omega=omega)
        values[("atom", "gamma")] = "0.01"
    if not (math.isfinite(atom.e) and 0 < atom.gamma < math.inf):
        raise ConfigError("atom", f"derived e={atom.e!r}, gamma={atom.gamma!r} must be positive and finite")

    beta_text = values[("bath", "beta")].strip().lower()
    if beta_text in ("vacuum", "inf", "infinity"):
        bath = BathSpec.vacuum()
    else:
        beta = _parse_float("bath.beta", values[("bath", "beta")])
        try:
            bath = BathSpec(beta)
        except ValueError as exc:
            raise ConfigError("bath.beta", str(exc)) from None

    cutoff = _positive("grid.cutoff", _parse_float("grid.cutoff", values[("grid", "cutoff")]))
    n_points = _parse_int("grid.n_points", values[("grid", "n_points")])
    try:
        FrequencyGrid(cutoff, n_points)
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None

    def _auto_float(field, text, auto_value):
        if text.strip().lower() == "auto":
            return float(auto_value)
        return _parse_float(field, text)

    lv_dt = _positive("langevin.dt", _parse_float("langevin.dt", values[("langevin", "dt")]))
    t_total = _positive(
        "langevin.t_total",
        _auto_float("langevin.t_total", values[("langevin", "t_total")], 200.0 / atom.gamma),
    )
    n_traj = _parse_int("langevin.n_traj", values[("langevin", "n_traj")])
    if n_traj < 1:
        raise ConfigError("langevin.n_traj", f"must be >= 1, got {n_traj}")
    seed = _parse_int("langevin.seed", values[("langevin", "seed")])
    t_burn = _auto_float("langevin.t_burn", values[("langevin", "t_burn")], 20.0 / atom.gamma)
    if not 0 <= t_burn < math.inf:
        raise ConfigError("langevin.t_burn", f"must be >= 0 and finite, got {t_burn!r}")

    oracle_r = _positive("oracle.r", _parse_float("oracle.r", values[("oracle", "r")]))
    oracle_t = _auto_float("oracle.t", values[("oracle", "t")], 40.0 / atom.gamma)
    oracle_dt_obs = _parse_float("oracle.dt_obs", values[("oracle", "dt_obs")])
    oracle_time_step = _positive(
        "oracle.time_step", _parse_float("oracle.time_step", values[("oracle", "time_step")])
    )
    oracle_n_kappa = _parse_int("oracle.n_kappa", values[("oracle", "n_kappa")])
    if oracle_n_kappa < 2 or oracle_n_kappa % 2:
        raise ConfigError("oracle.n_kappa", f"must be an even integer >= 2, got {oracle_n_kappa}")

    tol = {
        k: _parse_float(f"tolerances.{k}", values[("tolerances", k)])
        for k in ("fdr_rtol", "fdr_atol", "budget_rtol", "oracle_rtol", "relax_rtol")
    }
    for k, v in tol.items():
        if not 0 <= v < math.inf:
            raise ConfigError(f"tolerances.{k}", f"must be >= 0 and finite, got {v!r}")

    out_format = values[("output", "format")].strip().lower()
    if out_format not in ("json", "csv"):
        raise ConfigError("output.format", f"must be json or csv, got {out_format!r}")
    out_dir = values[("output", "directory")]
    workers = _parse_int("run.workers", values.get(("run", "workers"), "1"))
    if workers < 1:
        raise ConfigError("run.workers", "must be >= 1")

    # freeze the resolved textual config for hashing
    resolved = dict(values)
    resolved[("atom", "gamma_derived")] = repr(atom.gamma)
    resolved[("atom", "e_derived")] = repr(atom.e)
    resolved[("langevin", "t_total")] = repr(t_total)
    resolved[("langevin", "t_burn")] = repr(t_burn)
    resolved[("oracle", "t")] = repr(oracle_t)

    return RunConfig(
        atom=atom,
        bath=bath,
        cutoff=cutoff,
        n_points=n_points,
        langevin_dt=lv_dt,
        t_total=t_total,
        n_traj=n_traj,
        seed=seed,
        t_burn=t_burn,
        oracle_r=oracle_r,
        oracle_t=oracle_t,
        oracle_dt_obs=oracle_dt_obs,
        oracle_time_step=oracle_time_step,
        oracle_n_kappa=oracle_n_kappa,
        fdr_rtol=tol["fdr_rtol"],
        fdr_atol=tol["fdr_atol"],
        budget_rtol=tol["budget_rtol"],
        oracle_rtol=tol["oracle_rtol"],
        relax_rtol=tol["relax_rtol"],
        out_format=out_format,
        out_dir=out_dir,
        workers=workers,
        resolved=resolved,
    )


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
    reports = [
        fdr.check_field_fdr(grid, 0.0, cfg.bath, rtol=cfg.fdr_rtol, atol=cfg.fdr_atol),
        fdr.check_atom_fdr_reduction(grid, cfg.atom, cfg.bath, rtol=cfg.fdr_rtol, atol=cfg.fdr_atol),
        fdr.check_parity(grid, cfg.atom, cfg.bath, rtol=cfg.fdr_rtol, atol=cfg.fdr_atol),
    ]
    # a second field-FDR separation exercises the finite-r kernel nodes
    reports.insert(1, fdr.check_field_fdr(grid, 1.0 / cfg.atom.omega, cfg.bath,
                                          rtol=cfg.fdr_rtol, atol=cfg.fdr_atol))
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
        grid = FrequencyGrid(lam, cfg.n_points)
        budgets.append(flux.power_budget(cfg.atom, cfg.bath, grid))
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
        print(json.dumps({"budgets": [b.to_dict() for b in budgets], "passed": ok}, sort_keys=True))
    for lam, v in violations.items():
        for line in v:
            print(f"FAIL budget[Lambda={lam}]: {line}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_PHYSICS_FAIL


def cmd_relax(cfg: RunConfig) -> int:
    # imported here, before run_ensemble forks its pool: the other commands
    # never load the time-domain engine or the scipy modules it needs
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
    except langevin.NyquistError as exc:
        raise ConfigError("langevin.dt", str(exc)) from None
    except langevin.BurnInError as exc:
        raise ConfigError("langevin.t_burn", str(exc)) from None
    predicted = langevin.predicted_variance(cfg.atom, cfg.bath, cfg.cutoff, cfg.n_points)
    stats = result.stats
    rel_dev = abs(stats.var_q - predicted) / predicted
    se_rel = stats.se_var_q / predicted
    n_sigma = abs(stats.var_q - predicted) / stats.se_var_q if stats.se_var_q > 0 else math.inf
    warned = cfg.n_traj < _MIN_TRAJ_FOR_POWER
    # the relative bound is floored at 3 standard errors so small (but not
    # WARN-level) ensembles are judged by significance, not by their noise
    passed = warned or (rel_dev <= max(cfg.relax_rtol, 3.0 * se_rel) and n_sigma <= 3.0)

    # decimated series so the file stays plot-sized whatever the step count
    stride = max(1, (result.n_steps + 1) // 2000)
    times = result.times()[::stride]
    series = result.var_q_series[::stride]
    path = _out_path(cfg, "relax_series.csv")
    with open(path, "w") as fh:
        fh.write(f"# config_sha256={cfg.config_hash()}\n")
        fh.write("t,var_q\n")
        for t, v in zip(times.tolist(), series.tolist()):
            fh.write(f"{t!r},{v!r}\n")

    payload = {
        "stats": stats.to_dict(),
        "predicted_var_q": predicted,
        "rel_deviation": rel_dev,
        "n_sigma": n_sigma,
        "warned_low_power": warned,
        "passed": passed,
    }
    _write_json(cfg, "relax_stats.json", payload)
    status = "WARN" if warned else ("PASS" if passed else "FAIL")
    print(
        f"{status} relax: var_q={stats.var_q:.6e} +- {stats.se_var_q:.1e} "
        f"predicted={predicted:.6e} rel_dev={rel_dev:.2%} n_sigma={n_sigma:.2f}"
    )
    if warned:
        print(f"WARN statistical power insufficient (n_traj={cfg.n_traj} < {_MIN_TRAJ_FOR_POWER})")
    return EXIT_PASS if passed else EXIT_PHYSICS_FAIL


def cmd_oracle(cfg: RunConfig) -> int:
    frame = flux.ObservationFrame(
        r=cfg.oracle_r, t=cfg.oracle_t, t_prime=cfg.oracle_t - cfg.oracle_dt_obs
    )
    margin_ok = frame.late_time_ok(cfg.atom.gamma)
    grid = FrequencyGrid(cfg.cutoff, cfg.n_points)
    late = flux.interacting_hadamard_late(frame, cfg.atom, cfg.bath, grid, enforce_margin=False)
    direct = flux.interacting_hadamard_direct(
        frame,
        cfg.atom,
        cfg.bath,
        time_step=cfg.oracle_time_step,
        cutoff=cfg.cutoff,
        n_kappa=cfg.oracle_n_kappa,
    )
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


def _add_common_flags(sub):
    sub.add_argument("--config", metavar="PATH", default=None)
    sub.add_argument("--omega", type=float, default=None)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument("--beta", default=None)
    sub.add_argument("--vacuum", action="store_true")
    sub.add_argument("--cutoff", type=float, default=None)
    sub.add_argument("--grid-points", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", metavar="DIR", default=None)
    sub.add_argument("--format", choices=("json", "csv"), default=None)


def _overrides_from_args(args) -> dict:
    over = {
        ("atom", "omega"): args.omega,
        ("atom", "gamma"): args.gamma,
        ("bath", "beta"): "vacuum" if args.vacuum else args.beta,
        ("grid", "cutoff"): args.cutoff,
        ("grid", "n_points"): args.grid_points,
        ("langevin", "seed"): args.seed,
        ("run", "workers"): args.workers,
        ("output", "directory"): args.out,
        ("output", "format"): args.format,
    }
    for name, target in (
        ("n_traj", ("langevin", "n_traj")),
        ("dt", ("langevin", "dt")),
        ("t_total", ("langevin", "t_total")),
        ("fdr_rtol", ("tolerances", "fdr_rtol")),
        ("oracle_r", ("oracle", "r")),
        ("oracle_t", ("oracle", "t")),
        ("dt_obs", ("oracle", "dt_obs")),
        ("time_step", ("oracle", "time_step")),
    ):
        if hasattr(args, name):
            over[target] = getattr(args, name)
    return over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="atomflux",
        description="Energy-budget and fluctuation-dissipation toolkit for a static "
        "harmonic atom in a massless scalar field",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("fdr-check", help="run the identity suites")
    _add_common_flags(sub)
    sub.add_argument("--fdr-rtol", dest="fdr_rtol", type=float, default=None)

    sub = subs.add_parser("budget", help="compute the power budget")
    _add_common_flags(sub)
    sub.add_argument("--sweep", default=None, metavar="L1,L2,...",
                     help="comma-separated cutoff sweep")

    sub = subs.add_parser("relax", help="run the Langevin ensemble and compare variances")
    _add_common_flags(sub)
    sub.add_argument("--n-traj", dest="n_traj", type=int, default=None)
    sub.add_argument("--dt", dest="dt", type=float, default=None)
    sub.add_argument("--t-total", dest="t_total", type=float, default=None)

    sub = subs.add_parser("oracle", help="compare late-time vs brute-force Hadamard values")
    _add_common_flags(sub)
    sub.add_argument("--r", dest="oracle_r", type=float, default=None)
    sub.add_argument("--t", dest="oracle_t", type=float, default=None)
    sub.add_argument("--dt-obs", dest="dt_obs", type=float, default=None)
    sub.add_argument("--time-step", dest="time_step", type=float, default=None)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        if args.command == "fdr-check":
            return cmd_fdr_check(cfg)
        if args.command == "budget":
            sweep = None
            if args.sweep:
                try:
                    sweep = [float(tok) for tok in args.sweep.split(",") if tok.strip()]
                except ValueError:
                    raise ConfigError("budget.sweep", f"cannot parse {args.sweep!r}") from None
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
