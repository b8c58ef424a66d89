"""Command-line interface: config resolution, exit codes, output files, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from atomflux.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_PASS,
    EXIT_PHYSICS_FAIL,
    ConfigError,
    _parser,
    load_config,
    main,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_load_config_defaults():
    cfg = load_config(None, {})
    assert cfg.atom.omega == 1.0
    assert cfg.atom.gamma == pytest.approx(0.01, rel=1e-14)
    assert cfg.bath.is_vacuum
    assert cfg.cutoff == 100.0
    assert cfg.workers == 1
    assert cfg.t_burn == pytest.approx(20.0 / cfg.atom.gamma, rel=1e-12)
    assert cfg.t_total == pytest.approx(200.0 / cfg.atom.gamma, rel=1e-12)
    # pinned: every output file carries this hash, so a moved default shows here
    assert cfg.config_hash() == "ffa4e3af00f7adc054b4fd21ff8977021cca79eee82ca558dd5d0d31e3a8e957"


def test_readme_config_example_is_the_default_config(tmp_path):
    text = README.read_text()
    ini = text.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(ini)
    assert load_config(str(path), {}).config_hash() == load_config(None, {}).config_hash()


def test_load_config_file_and_override(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[atom]\ngamma = 0.05\nomega = 2.0\n\n[bath]\nbeta = 1.5\n\n"
        "[grid]\ncutoff = 40.0\nn_points = 1024\n"
    )
    cfg = load_config(str(path), {})
    assert cfg.atom.omega == 2.0 and cfg.bath.beta == 1.5 and cfg.cutoff == 40.0
    # flags win over the file
    cfg2 = load_config(str(path), {("grid", "cutoff"): 55.0, ("bath", "beta"): "vacuum"})
    assert cfg2.cutoff == 55.0 and cfg2.bath.is_vacuum


def test_load_config_rejects_bad_beta():
    with pytest.raises(ConfigError, match="bath.beta"):
        load_config(None, {("bath", "beta"): "warm"})


def test_load_config_rejects_e_and_gamma_together(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[atom]\ne = 1.0\ngamma = 0.1\n")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(str(path), {})


def test_load_config_accepts_e(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[atom]\ne = 1.0\nm = 2.0\n")
    cfg = load_config(str(path), {})
    assert cfg.atom.e == 1.0
    assert cfg.atom.gamma == pytest.approx(1.0 / (16.0 * math.pi), rel=1e-14)


def test_load_config_rejects_unknown_atom_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[atom]\ncharge = 1.0\n")
    with pytest.raises(ConfigError, match="atom.charge"):
        load_config(str(path), {})


@pytest.mark.parametrize("text, field", [
    ("[grid]\ncutof = 50\n", "grid.cutof"),
    ("[output]\nfromat = csv\n", "output.fromat"),
    ("[run]\nworkers = 2\n", "run"),
    ("[oracle]\nn_kappa = 8192\n", "oracle.n_kappa"),  # the oracle derives its panel count
])
def test_unknown_key_in_a_config_file_exits_2(tmp_path, capsys, text, field):
    path = tmp_path / "run.ini"
    path.write_text(text)
    code = main(["fdr-check", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR
    assert f"config error: {field}: unknown config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_beta_and_vacuum_are_mutually_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fdr-check", "--beta", "2.0", "--vacuum", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert "not allowed with argument" in capsys.readouterr().err


def test_flags_per_command():
    subs = next(a for a in _parser()._actions if a.choices)
    common = {"--config", "--omega", "--gamma", "--beta", "--vacuum", "--cutoff", "--grid-points",
              "--out"}
    expected = {
        "fdr-check": common | {"--fdr-rtol"},
        "budget": common | {"--sweep", "--format"},
        "relax": common | {"--n-traj", "--dt", "--t-total", "--seed", "--workers"},
        "oracle": common | {"--r", "--t", "--dt-obs", "--time-step"},
    }
    for command, sub in subs.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == expected.pop(command)
    assert not expected


def test_config_hash_excludes_workers_and_outdir():
    base = load_config(None, {})
    more_workers = load_config(None, {("run", "workers"): 16, ("output", "directory"): "elsewhere"})
    assert base.config_hash() == more_workers.config_hash()
    different = load_config(None, {("atom", "omega"): 2.0})
    assert base.config_hash() != different.config_hash()


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------


def test_cmd_fdr_check_passes(tmp_path, capsys):
    code = main(["fdr-check", "--vacuum", "--gamma", "0.05", "--grid-points", "4096",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out.count("PASS") >= 3 and "FAIL" not in out
    report = json.loads((tmp_path / "fdr_report.json").read_text())
    assert report["passed"] is True
    assert "config_sha256" in report


def test_fdr_report_bytes_do_not_depend_on_the_output_format(tmp_path):
    # the format changes only what budget prints, so it stays out of config_sha256
    reports = []
    for fmt in ("json", "csv"):
        out = tmp_path / fmt
        config = tmp_path / f"{fmt}.ini"
        config.write_text(f"[output]\nformat = {fmt}\n")
        code = main(["fdr-check", "--config", str(config), "--vacuum", "--gamma", "0.05",
                     "--grid-points", "4096", "--out", str(out)])
        assert code == EXIT_PASS
        reports.append((out / "fdr_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_cmd_fdr_check_impossible_tolerance_fails(tmp_path):
    code = main(["fdr-check", "--gamma", "0.05", "--grid-points", "4096",
                 "--fdr-rtol", "1e-20", "--out", str(tmp_path)])
    assert code == EXIT_PHYSICS_FAIL


def test_cmd_fdr_check_bad_beta_exits_2(tmp_path, capsys):
    code = main(["fdr-check", "--beta", "warm", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert "bath.beta" in capsys.readouterr().err


def test_cmd_budget_vacuum(tmp_path, capsys):
    code = main(["budget", "--vacuum", "--gamma", "0.01", "--grid-points", "32768",
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == EXIT_PASS
    lines = (tmp_path / "budget.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "omega,gamma,beta,Lambda,P_r,P_cross,P_gamma,P_xi,net,est_error"
    row = lines[2].split(",")
    assert len(row) == 10
    p_r, net = float(row[4]), float(row[8])
    assert abs(net) <= 1e-10 * abs(p_r)


def test_budget_stdout_is_strict_json_with_a_null_vacuum_beta(tmp_path, capsys, monkeypatch):
    # the vacuum's beta = inf prints as null and stays inf in budget.csv; a
    # NaN flow still prints as NaN, so a faulty flow cannot pass for undefined
    from dataclasses import replace

    from atomflux import flux

    argv = ["budget", "--vacuum", "--gamma", "0.1", "--grid-points", "4096", "--out", str(tmp_path)]
    assert main(argv) == EXIT_PASS
    [budget] = _strict_json(capsys.readouterr().out)["budgets"]
    assert budget["beta"] is None and budget["gamma"] == 0.1
    assert (tmp_path / "budget.csv").read_text().splitlines()[2].split(",")[2] == "inf"
    power_budget = flux.power_budget
    monkeypatch.setattr(flux, "power_budget", lambda *args: replace(power_budget(*args), p_r=math.nan))
    main(argv)
    [budget] = json.loads(capsys.readouterr().out)["budgets"]
    assert budget["beta"] is None and math.isnan(budget["P_r"])


def test_cmd_budget_thermal_and_sweep(tmp_path):
    code = main(["budget", "--beta", "1.0", "--gamma", "0.1", "--grid-points", "16384",
                 "--sweep", "10,100,1000", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    lines = (tmp_path / "budget.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 3  # hash, header, three rows
    p_rs = [float(line.split(",")[4]) for line in lines[2:]]
    assert p_rs[0] < p_rs[1] < p_rs[2]
    for line in lines[2:]:
        cols = [float(x) for x in line.split(",")]
        assert abs(cols[8]) <= 1e-10 * abs(cols[4])  # net vs P_r at every cutoff


def test_cmd_budget_bad_sweep(tmp_path, capsys):
    code = main(["budget", "--sweep", "10,abc", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR


def _config_file(argv, tmp_path_factory):
    """``argv`` with the config text after ``--config`` written to a file and replaced by its path."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config") + 1
    path = tmp_path_factory.mktemp("config") / "run.ini"
    path.write_text(argv[i])
    return [*argv[:i], str(path), *argv[i + 1 :]]


RELAX_ARGS = [
    "relax", "--gamma", "0.25", "--beta", "1.0", "--cutoff", "10.0",
    "--grid-points", "4096", "--dt", "0.2", "--t-total", "240",
]


def test_cmd_relax_default_dt_above_nyquist_is_config_error(tmp_path, capsys):
    # the default dt = 0.05 exceeds pi / cutoff at the default cutoff of 100
    code = main(["relax", "--gamma", "0.1", "--beta", "1.0", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error: langevin.dt" in err
    assert "pi/cutoff" in err
    assert not (tmp_path / "relax_stats.json").exists()


def test_cmd_relax_rejects_dt_before_loading_the_engine(tmp_path):
    # the README relax line: its dt is checked before the engine and
    # scipy.signal are imported, so the error costs no import time
    code = (
        "import sys; from atomflux import cli; "
        f"code = cli.main(['relax', '--gamma', '0.1', '--beta', '1.0', '--out', {str(tmp_path)!r}]); "
        "print(code, [m for m in ('scipy.signal', 'atomflux.langevin') if m in sys.modules])"
    )
    import atomflux

    env = dict(os.environ, PYTHONPATH=str(Path(atomflux.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == f"{EXIT_CONFIG_ERROR} []"
    assert "config error: langevin.dt: dt=0.05 violates the Nyquist bound" in done.stderr


@pytest.mark.parametrize(
    "argv, field",
    [
        (["relax", "--n-traj", "0"], "langevin.n_traj"),
        (["relax", "--gamma", "0.1", "--cutoff", "20", "--t-total", "100"], "langevin.t_burn"),
        (["oracle", "--time-step", "-1"], "oracle.time_step"),
        (["budget", "--gamma", "inf"], "atom.gamma"),
        (["budget", "--cutoff", "inf"], "grid.cutoff"),
        (["fdr-check", "--fdr-rtol", "nan"], "tolerances.fdr_rtol"),
        (["oracle", "--t", "-5", "--cutoff", "20", "--grid-points", "4096"], "oracle.t"),
        (["oracle", "--dt-obs", "1e300"], "oracle.dt_obs"),
        (["oracle", "--dt-obs", "nan"], "oracle.dt_obs"),
        (["budget", "--sweep", "100,-5"], "budget.sweep"),
        (["budget", "--sweep", "100,inf"], "budget.sweep"),
        (["oracle", "--dt-obs=-1e300"], "oracle.dt_obs"),
        (["oracle", "--t", "1e300"], "oracle.t"),
        (["relax", "--t-total", "1e300"], "langevin.t_total"),
        (["relax", "--dt", "1e-300", "--cutoff", "20"], "langevin.dt"),
        (["oracle", "--time-step", "1e-300"], "oracle.time_step"),
        (["relax", "--seed", "-1", "--gamma", "0.1", "--cutoff", "20", "--n-traj", "2", "--t-total", "300"],
         "langevin.seed"),
        (["budget", "--grid-points", "15"], "grid.n_points"),
        (["budget", "--sweep", ","], "budget.sweep"),
        (["oracle", "--cutoff", "1000"], "oracle.time_step"),
        # a 4e17-sample history numpy can hold, but 1.07e19 lag-kernel nodes past the index range
        (["oracle", "--r", "8e15", "--t", "8.000000000000001e15", "--grid-points", "4096"], "oracle.r"),
        (["relax", "--t-total", "1e17", "--dt", "0.05", "--cutoff", "20", "--n-traj", "2", "--gamma", "0.5"],
         "langevin.t_total"),
        (["oracle", "--t", "4e16", "--cutoff", "20", "--grid-points", "4096"], "oracle.t"),
        # below one mode spacing the band holds only the zero mode, whose vacuum spectrum is 0
        (["relax", "--vacuum", "--gamma", "0.1", "--cutoff", "0.0001", "--n-traj", "60", "--t-total", "300"],
         "grid.cutoff"),
        # the kernels take omega and the cutoff to the fourth power, which overflows from 2^256 on
        (["fdr-check", "--omega", "1e200"], "atom.omega"),
        (["relax", "--omega", "1e100", "--beta", "1", "--cutoff", "20", "--n-traj", "2", "--t-total", "2100"],
         "atom.omega"),
        (["budget", "--cutoff", "1e200"], "grid.cutoff"),
        (["budget", "--sweep", "10,1e200"], "budget.sweep"),
        # the damping gamma = e^2/(8 pi m) is a rate too, and e^2 must be finite
        (["oracle", "--gamma", "1e200", "--cutoff", "20", "--grid-points", "64"], "atom.gamma"),
        (["fdr-check", "--config", "[atom]\ne = 1e200\n"], "atom.e"),
        (["fdr-check", "--config", "[atom]\ne = 1e100\n"], "atom.e"),
    ],
    ids=[
        "n_traj_zero", "burn_in_exceeds_record", "negative_time_step", "infinite_gamma",
        "infinite_cutoff", "nan_tolerance", "negative_oracle_t", "dt_obs_past_switch_on",
        "nan_dt_obs", "negative_sweep_cutoff", "infinite_sweep_cutoff",
        "history_past_intp", "oracle_t_past_intp", "record_past_intp",
        "relax_step_past_intp", "oracle_step_past_intp", "negative_seed", "odd_grid_points",
        "empty_sweep", "time_step_past_nyquist", "lag_kernel_nodes_past_intp",
        "record_past_complex128", "oracle_history_past_complex128", "zero_mode_band",
        "omega_fourth_power_overflows", "relax_omega_fourth_power_overflows",
        "cutoff_fourth_power_overflows", "sweep_cutoff_fourth_power_overflows",
        "gamma_fourth_power_overflows", "coupling_square_overflows", "derived_gamma_fourth_power_overflows",
    ],
)
def test_bad_input_exits_2_naming_the_key(tmp_path, tmp_path_factory, capsys, argv, field):
    # each of these used to end in a traceback with exit 1, which means "physics failed"
    code = main(_config_file(argv, tmp_path_factory) + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_rates_below_two_to_the_256_are_accepted():
    # 2^256 is the first rate whose fourth power overflows a float
    below = math.nextafter(2.0**256, 0.0)
    assert below**4 < math.inf
    cfg = load_config(None, {("atom", "omega"): repr(below), ("grid", "cutoff"): repr(below)})
    assert cfg.atom.omega == cfg.cutoff == below
    for key in (("atom", "omega"), ("grid", "cutoff")):
        with pytest.raises(ConfigError, match=".".join(key)):
            load_config(None, {key: repr(2.0**256)})


def test_huge_grid_config_allocates_nothing():
    # a grid is walked piece by piece and builds no array when it is made, so
    # a grid of 10^12 points is a valid config that costs only time
    import tracemalloc

    tracemalloc.start()
    try:
        cfg = load_config(None, {("grid", "n_points"): "1000000000000"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.n_points == 10**12
    assert peak < 1 << 20


def test_fdr_check_at_tiny_gamma_is_not_bound_by_record_lengths(tmp_path):
    # the auto t_total and oracle t scale as 1/gamma, so at gamma = 1e-16 relax
    # and the oracle could not index their records; fdr-check builds neither
    code = main(["fdr-check", "--gamma", "1e-16", "--grid-points", "4096", "--out", str(tmp_path)])
    assert code == EXIT_PASS


def test_cmd_relax_record_too_long_to_hold_is_config_error(tmp_path, capsys, monkeypatch):
    # a real oversized allocation can succeed under memory overcommit and then
    # exhaust the machine, so the engine's MemoryError is simulated
    from atomflux import langevin

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 73.0 TiB")

    monkeypatch.setattr(langevin, "run_ensemble", no_memory)
    code = main(RELAX_ARGS + ["--n-traj", "2", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert "config error: langevin.t_total:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--dt-obs=-1e9"], "oracle.dt_obs"),
        (["--t", "1e9"], "oracle.t"),
        (["--time-step", "1e-12"], "oracle.time_step"),
        (["--r", "1e5", "--t", "100010"], "oracle.r"),
    ],
    ids=["dt_obs_sets_the_length", "t_sets_the_length", "time_step_sets_the_length", "r_sets_the_length"],
)
def test_cmd_oracle_history_too_long_to_hold_is_config_error(
    tmp_path, tmp_path_factory, capsys, monkeypatch, argv, field
):
    # as for relax, the engine's MemoryError is simulated: at dt_obs = -1e9 the
    # history would need 373 GiB.  At r = 1e5, just inside the light cone, the
    # lag kernels' 2.7e7 Filon nodes outnumber the history's 5e6 samples
    from atomflux import flux

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 373. GiB")

    monkeypatch.setattr(flux, "interacting_hadamard_direct", no_memory)
    argv = _config_file(["oracle", "--cutoff", "20", "--grid-points", "4096", *argv], tmp_path_factory)
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_oracle_outside_the_light_cone_is_not_bound_by_kernel_nodes(tmp_path, capsys):
    # at t < r every term vanishes and no lag kernel is built, so a distance
    # whose kernels could not be indexed is still a valid frame
    code = main(["oracle", "--r", "1e17", "--cutoff", "20", "--grid-points", "4096", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    assert capsys.readouterr().out.startswith("WARN oracle:")
    # the direct total is 0 there, so the relative error is undefined, not a 1e-300 quotient
    [check] = _strict_json((tmp_path / "oracle.json").read_text())["checks"]
    assert check["kind"] == "warn" and check["reference"] == 0.0 and check["error"] is None


def test_load_config_rejects_non_finite_atom_values():
    for key in ("m", "omega", "gamma", "e"):
        for bad in ("inf", "nan", "-1", "0"):
            with pytest.raises(ConfigError, match=f"atom.{key}"):
                load_config(None, {("atom", key): bad})


def test_cmd_relax_small_ensemble(tmp_path, capsys):
    code = main(RELAX_ARGS + ["--n-traj", "64", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    stats = json.loads((tmp_path / "relax_stats.json").read_text())
    assert [c["kind"] for c in stats["checks"]] == ["statistical"]
    series = (tmp_path / "relax_series.csv").read_text().splitlines()
    assert series[1] == "t,var_q"
    assert len(series) > 10
    rows = [tuple(float(x) for x in line.split(",")) for line in series[2:]]
    assert rows[0] == (0.0, 0.0) and all(math.isfinite(v) for _, v in rows)


def test_cmd_relax_low_power_warns_but_passes(tmp_path, capsys):
    code = main(RELAX_ARGS + ["--n-traj", "10", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out.startswith("WARN relax:")
    stats = json.loads((tmp_path / "relax_stats.json").read_text())
    assert [c["kind"] for c in stats["checks"]] == ["warn"]


def _strict_json(text):
    """Parse ``text`` as standard JSON: NaN, Infinity and -Infinity are refused."""

    def refuse(constant):
        raise ValueError(f"the non-JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_relax_stats_of_one_trajectory_write_undefined_errors_as_null(tmp_path, capsys):
    # one trajectory has no scatter, so its standard errors are undefined
    argv = ["relax", "--gamma", "0.1", "--beta", "1.0", "--cutoff", "20", "--n-traj", "1", "--t-total", "300"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.startswith("WARN relax:") and "error=undefined" in out
    stats = _strict_json((tmp_path / "relax_stats.json").read_text())
    [check] = stats["checks"]
    assert stats["passed"] is True and check["kind"] == "warn" and check["passed"] is False
    assert [stats["stats"][k] for k in ("se_mean_q", "se_var_q", "se_var_qdot")] == [None] * 3
    assert check["error"] is None and math.isfinite(stats["stats"]["var_q"])


def test_relax_stats_of_zero_scatter_write_undefined_n_sigma_as_null(tmp_path, capsys, monkeypatch):
    # without scatter n_sigma is undefined: written as null, printed as
    # undefined, and the verdict fails
    from dataclasses import replace

    from atomflux import langevin

    run_ensemble = langevin.run_ensemble

    def no_scatter(*args, **kwargs):
        result = run_ensemble(*args, **kwargs)
        result.stats = replace(result.stats, se_var_q=0.0)
        return result

    monkeypatch.setattr(langevin, "run_ensemble", no_scatter)
    argv = ["relax", "--gamma", "0.1", "--beta", "1.0", "--cutoff", "20", "--n-traj", "50", "--t-total", "300"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_PHYSICS_FAIL
    out = capsys.readouterr().out
    assert out.startswith("FAIL relax:") and "error=undefined" in out
    stats = _strict_json((tmp_path / "relax_stats.json").read_text())
    assert stats["passed"] is False and stats["checks"][0]["error"] is None
    assert stats["stats"]["se_var_q"] == 0.0


def test_relax_stats_write_a_nan_statistic_as_nan_not_null(tmp_path, capsys, monkeypatch):
    # null is kept for undefined statistics; a NaN from a faulty ensemble must
    # read back as non-finite, not as a null a finiteness check would pass
    from dataclasses import replace

    from atomflux import langevin

    run_ensemble = langevin.run_ensemble

    def nan_stats(*args, **kwargs):
        result = run_ensemble(*args, **kwargs)
        result.stats = replace(result.stats, var_q=math.nan, se_var_q=math.nan)
        return result

    monkeypatch.setattr(langevin, "run_ensemble", nan_stats)
    argv = ["relax", "--gamma", "0.1", "--beta", "1.0", "--cutoff", "20", "--n-traj", "2", "--t-total", "300"]
    main(argv + ["--out", str(tmp_path)])
    stats = json.loads((tmp_path / "relax_stats.json").read_text())
    [check] = stats["checks"]
    values = (stats["stats"]["var_q"], stats["stats"]["se_var_q"], stats["rel_deviation"],
              check["value"], check["error"])
    assert all(isinstance(v, float) and math.isnan(v) for v in values)


def test_cmd_relax_seed_reproducible(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(RELAX_ARGS + ["--n-traj", "32", "--seed", "7", "--out", str(d)]) == EXIT_PASS
    assert (d1 / "relax_series.csv").read_bytes() == (d2 / "relax_series.csv").read_bytes()
    assert (d1 / "relax_stats.json").read_bytes() == (d2 / "relax_stats.json").read_bytes()


def test_cmd_oracle_late_time(tmp_path, capsys):
    code = main(["oracle", "--vacuum", "--gamma", "0.1", "--cutoff", "20",
                 "--grid-points", "16384", "--r", "15", "--time-step", "0.02",
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS
    payload = json.loads((tmp_path / "oracle.json").read_text())
    [check] = payload["checks"]
    assert check["kind"] == "convergence" and check["reference"] == payload["direct"]["total"]
    assert check["error"] <= check["tolerance"] == 0.01
    assert payload["config_sha256"] == "b44904e610872a783ab7858b45b8cbe90028742ba8fec619b8b0b093ee4cb37d"


def test_readme_oracle_line_passes(tmp_path, capsys):
    line = next(ln for ln in README.read_text().splitlines() if ln.startswith("atomflux oracle"))
    argv = line.split("#", 1)[0].split()[1:]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("PASS oracle:")


def test_cmd_oracle_transient_regime_not_fatal(tmp_path, capsys):
    code = main(["oracle", "--vacuum", "--gamma", "0.1", "--cutoff", "20",
                 "--grid-points", "4096", "--r", "2", "--t", "20", "--time-step", "0.01",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out.startswith("WARN oracle:")
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["checks"][0]["kind"] == "warn"


def _verdict(argv, tmp_path, capsys, name, stream="out"):
    """Run ``argv``; check that exit code, JSON ``passed`` and the checks agree, and that
    one line per check was printed to ``stream``.  Returns the exit code and the checks."""
    code = main(argv + ["--out", str(tmp_path)])
    printed = getattr(capsys.readouterr(), stream).splitlines()
    payload = _strict_json((tmp_path / name).read_text())
    checks = payload["checks"]
    assert checks and (code == EXIT_PASS) == payload["passed"]
    assert payload["passed"] == all(c["passed"] for c in checks if c["kind"] != "warn")
    assert code in (EXIT_PASS, EXIT_PHYSICS_FAIL)
    status = ["WARN" if c["kind"] == "warn" else "PASS" if c["passed"] else "FAIL" for c in checks]
    assert [line.split(":")[0] for line in printed] == [
        f"{s} {c['name']}" for s, c in zip(status, checks)
    ]
    return code, checks


def test_fdr_check_verdict_agrees_with_its_checks(tmp_path, capsys):
    argv = ["fdr-check", "--gamma", "0.05", "--grid-points", "4096"]
    code, checks = _verdict(argv, tmp_path / "pass", capsys, "fdr_report.json")
    assert code == EXIT_PASS and len(checks) == 4 and {c["kind"] for c in checks} == {"exact"}
    report = json.loads((tmp_path / "pass" / "fdr_report.json").read_text())
    for check, rep in zip(checks, report["reports"]):
        assert (check["error"], check["tolerance"], check["passed"]) == (
            rep["max_rel_residual"], rep["rtol"], rep["passed"])
    code, checks = _verdict(argv + ["--fdr-rtol", "1e-20"], tmp_path / "fail", capsys, "fdr_report.json")
    assert code == EXIT_PHYSICS_FAIL and not all(c["passed"] for c in checks)


def test_budget_verdict_agrees_with_its_checks(tmp_path, tmp_path_factory, capsys):
    # the check lines go to stderr: stdout carries the rows, with the same verdict
    argv = ["budget", "--vacuum", "--gamma", "0.1", "--grid-points", "4096", "--sweep", "10,100"]
    code, checks = _verdict(argv, tmp_path / "pass", capsys, "budget.json", "err")
    assert code == EXIT_PASS and len(checks) == 10
    budget = _strict_json((tmp_path / "pass" / "budget.json").read_text())
    assert [row["Lambda"] for row in budget["budgets"]] == [10.0, 100.0]
    main(argv + ["--out", str(tmp_path / "again")])
    assert _strict_json(capsys.readouterr().out) == {"budgets": budget["budgets"], "passed": True}
    # at a zero tolerance the net flux, rounding away from 0, fails
    zero = _config_file(["--config", "[tolerances]\nbudget_rtol = 0\n"], tmp_path_factory)
    code, checks = _verdict(argv + zero, tmp_path / "fail", capsys, "budget.json", "err")
    assert code == EXIT_PHYSICS_FAIL
    assert not all(c["passed"] for c in checks if c["name"].endswith(" net"))


def test_relax_verdict_agrees_with_its_checks(tmp_path, capsys, monkeypatch):
    code, [check] = _verdict(RELAX_ARGS + ["--n-traj", "64"], tmp_path / "pass", capsys, "relax_stats.json")
    assert code == EXIT_PASS and check["kind"] == "statistical" and check["tolerance"] == 3.0
    code, [check] = _verdict(RELAX_ARGS + ["--n-traj", "10"], tmp_path / "warn", capsys, "relax_stats.json")
    assert code == EXIT_PASS and check["kind"] == "warn"

    from dataclasses import replace

    from atomflux import langevin

    run_ensemble = langevin.run_ensemble

    def far_off(*args, **kwargs):  # a variance 10% off its prediction, with a tight error
        result = run_ensemble(*args, **kwargs)
        result.stats = replace(result.stats, var_q=1.1 * result.stats.var_q, se_var_q=1e-6)
        return result

    monkeypatch.setattr(langevin, "run_ensemble", far_off)
    code, [check] = _verdict(RELAX_ARGS + ["--n-traj", "64"], tmp_path / "fail", capsys, "relax_stats.json")
    assert code == EXIT_PHYSICS_FAIL and check["error"] > 3.0
    # below 50 trajectories the same miss only warns
    code, [check] = _verdict(RELAX_ARGS + ["--n-traj", "10"], tmp_path / "miss", capsys, "relax_stats.json")
    assert code == EXIT_PASS and check["kind"] == "warn" and check["passed"] is False


def test_oracle_verdict_agrees_with_its_checks(tmp_path, tmp_path_factory, capsys):
    argv = ["oracle", "--vacuum", "--gamma", "0.1", "--cutoff", "20", "--grid-points", "4096",
            "--r", "15", "--time-step", "0.02"]
    code, [check] = _verdict(argv, tmp_path / "pass", capsys, "oracle.json")
    assert code == EXIT_PASS and check["kind"] == "convergence"
    zero = _config_file(["--config", "[tolerances]\noracle_rtol = 0\n"], tmp_path_factory)
    code, [check] = _verdict(argv + zero, tmp_path / "fail", capsys, "oracle.json")
    assert code == EXIT_PHYSICS_FAIL and check["error"] > 0.0
    # before the late-time margin the comparison only warns, at any tolerance
    code, [check] = _verdict(argv + zero + ["--t", "20"], tmp_path / "warn", capsys, "oracle.json")
    assert code == EXIT_PASS and check["kind"] == "warn" and check["passed"] is False


def test_import_cli_loads_no_heavy_scipy_modules():
    # only relax and the oracle need these; the other commands should not pay
    # their import time.  Every exported name must resolve, and resolving them
    # must not load the time-domain engine either
    code = (
        "import sys, atomflux, atomflux.cli; "
        "[getattr(atomflux, name) for name in atomflux.__all__]; "
        "print([m for m in ('scipy.signal', 'scipy.integrate', 'scipy.fft') if m in sys.modules])"
    )
    import atomflux

    env = dict(os.environ, PYTHONPATH=str(Path(atomflux.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_oracle_command_loads_neither_scipy_signal_nor_langevin(tmp_path):
    # the lag kernels' chirp-z transforms run in numpy.fft, and the oracle
    # never touches the Langevin engine
    code = (
        "import sys; from atomflux import cli; "
        "code = cli.main(['oracle', '--vacuum', '--gamma', '0.5', '--cutoff', '10', "
        "'--grid-points', '1024', '--r', '2', '--t', '60', '--time-step', '0.05', "
        f"'--out', {str(tmp_path)!r}]); "
        "print(code, [m for m in ('scipy.signal', 'atomflux.langevin') if m in sys.modules])"
    )
    import atomflux

    env = dict(os.environ, PYTHONPATH=str(Path(atomflux.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "oracle.json").is_file()


def test_frequency_domain_commands_load_no_scipy_module(tmp_path):
    # fdr-check, budget and the oracle run on numpy alone: scipy belongs to
    # the Langevin engine, which none of them imports
    runs = [
        ["fdr-check", "--vacuum", "--gamma", "0.05", "--grid-points", "4096"],
        ["budget", "--beta", "1.0", "--grid-points", "4096"],
        ["oracle", "--vacuum", "--gamma", "0.5", "--cutoff", "10", "--grid-points", "1024", "--r", "2",
         "--t", "60", "--time-step", "0.05"],
    ]
    code = (
        "import sys; from atomflux import cli; "
        f"codes = [cli.main([*argv, '--out', {str(tmp_path)!r}]) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'atomflux.langevin'))"
    )
    import atomflux

    env = dict(os.environ, PYTHONPATH=str(Path(atomflux.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"
    assert (tmp_path / "oracle.json").is_file()
