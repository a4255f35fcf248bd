"""End-to-end command-line runs: configs, exit codes, determinism."""

import json
import subprocess

import numpy as np
import pytest

from kposim import cli
from kposim import dynamics as dyn
from kposim import fileio as io
from kposim import fockspace as fs
from kposim import model as md
from kposim import tomography as tg
from kposim.errors import FitError, ReconstructionError, UsageError


def _write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _quasi_config(tmp_path, dim=30):
    return _write_config(tmp_path, "quasi.json", {
        "system": {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0, "dim": dim},
        "p_over_K_grid": {"start": 0.9, "stop": 1.2, "count": 3},
        "delta_over_K_grid": {"start": 0.1, "stop": 0.5, "count": 3},
    })


def test_quasi_surface_run(tmp_path):
    cfg = _quasi_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["quasi-surface", "--config", cfg, "--out", str(out)]) == 0
    summary = io.read_json(out / "quasi-surface" / "summary.json")
    assert abs(summary["splitting_MHz"] - 0.318) < 0.005
    assert 1.2 <= summary["gap_over_K"] <= 1.6
    table = io.read_csv(out / "quasi-surface" / "surface.csv")
    assert len(table["splitting_over_K"]) == 9


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {
        "system": {"K_MHz": 3.1, "dim": 20},
        "p_over_K_grid": {"start": 0.9, "stop": 1.2, "count": 3},
        "delta_over_K_grid": {"start": 0.1, "stop": 0.5, "count": 3},
        "detunng_grid": {"start": 0, "stop": 1, "count": 2},
    })
    rc = cli.main(["quasi-surface", "--config", cfg,
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert err["exit_code"] == 2
    assert "detunng_grid" in err["message"]


def test_map_cat_cd_mode_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "map.json", {
        "system": {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0, "dim": 8},
        "cd_mode": "chirp",
    })
    rc = cli.main(["map-cat", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "cd_mode" in err["message"]


def test_unknown_experiment_is_a_usage_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(UsageError, match="unknown experiment 'rabi'.*rabi-drive"):
        cli.run_experiment("rabi", {}, str(out))
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["quasi-surface", "--config",
                   str(tmp_path / "nonexistent.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"


def test_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc = cli.main(["quasi-surface", "--config", str(p),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["exit_code"] == 2


def test_physics_error_exits_3(tmp_path, capsys):
    # a +-3 window at dim 16 exceeds the truncation-safe Wigner extent
    cfg = _write_config(tmp_path, "wig.json", {
        "system": {"K_MHz": 3.1, "dim": 16},
        "state": {"kind": "fock", "n": 0},
        "points": 9,
        "extent": 3.0,
    })
    rc = cli.main(["wigner", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "TruncationError"
    assert err["exit_code"] == 3


@pytest.mark.parametrize("key, value, message", [
    ("reconstruct", "no", "reconstruct must be a boolean"),
    ("noise_sigma", -0.1, "noise_sigma must be >= 0"),
])
def test_simulated_wigner_invalid_option_exits_2(tmp_path, capsys, key, value,
                                                message):
    cfg = _write_config(tmp_path, "wig.json", {
        "system": {"K_MHz": 3.1, "dim": 8},
        "state": {"kind": "fock", "n": 0},
        "points": 9,
        "mode": "simulated",
        key: value,
    })
    rc = cli.main(["wigner", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert message in err["message"]


@pytest.mark.parametrize("mode, key, value", [
    ("ideal", "noise_sigma", -1.0),
    ("simulated", "kerr_correct_ns", 10.0),
])
def test_wigner_key_of_the_other_mode_exits_2(tmp_path, capsys, mode, key,
                                              value):
    cfg = _write_config(tmp_path, "wig.json", {
        "system": {"K_MHz": 3.1, "dim": 8},
        "state": {"kind": "fock", "n": 0},
        "points": 9,
        "mode": mode,
        key: value,
    })
    rc = cli.main(["wigner", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert key in err["message"]


def test_wigner_ideal_summary(tmp_path):
    cfg = _write_config(tmp_path, "wig.json", {
        "system": {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0, "dim": 30},
        "state": {"kind": "model_even"},
        "points": 41,
    })
    out = tmp_path / "out"
    assert cli.main(["wigner", "--config", cfg, "--out", str(out)]) == 0
    summary = io.read_json(out / "wigner" / "summary.json")
    assert summary["parity"] == pytest.approx(1.0, abs=1e-3)
    assert summary["w_origin"] == pytest.approx(2.0 / np.pi, abs=1e-3)
    assert 0.97 <= summary["integral"] <= 1.01


def test_cat_rabi_symmetry_summary(tmp_path):
    cfg = _write_config(tmp_path, "crabi.json", {
        "system": {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0,
                   "beta_MHz": 0.65, "dim": 30},
        "detuning_grid_MHz": {"start": -2.0, "stop": 2.0, "count": 5},
        "time_grid_ns": {"start": 0.0, "stop": 400.0, "count": 5},
        "symmetrized": True,
    })
    out = tmp_path / "out"
    assert cli.main(["cat-rabi", "--config", cfg, "--out", str(out)]) == 0
    summary = io.read_json(out / "cat-rabi" / "summary.json")
    assert summary["rms_asymmetry"] <= 1e-3
    assert summary["resonant_row_detuning_MHz"] == pytest.approx(0.0, abs=1e-12)
    table = io.read_csv(out / "cat-rabi" / "detuning_map.csv")
    assert len(table["parity"]) == 25


def test_quasi_surface_rerun_is_byte_identical(tmp_path):
    cfg = _quasi_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["quasi-surface", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["quasi-surface", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("surface.csv", "summary.json"):
        b1 = (out1 / "quasi-surface" / name).read_bytes()
        b2 = (out2 / "quasi-surface" / name).read_bytes()
        assert b1 == b2


def test_noisy_wigner_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "noisy.json", {
        "system": {"K_MHz": 3.1, "Delta_MHz": 1.0, "dim": 30},
        "state": {"kind": "cat_even", "alpha": 1.154},
        "points": 9,
        "mode": "simulated",
        "pulse_duration_ns": 20.0,
        "noise_sigma": 0.01,
        "seed": 42,
    })
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["wigner", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["wigner", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("record.jsonl", "wigner.csv", "summary.json"):
        b1 = (out1 / "wigner" / name).read_bytes()
        b2 = (out2 / "wigner" / name).read_bytes()
        assert b1 == b2
    # the seeded noise actually perturbed the record
    clean = dict(json.loads((out1 / "wigner" / "summary.json").read_text()))
    assert clean["noise_sigma"] == 0.01


def test_simulated_wigner_with_reconstruction(tmp_path):
    # small space so the record covers dim^2 unknowns quickly
    cfg = _write_config(tmp_path, "recon.json", {
        "system": {"K_MHz": 3.1, "Delta_MHz": 1.0, "dim": 12},
        "state": {"kind": "cat_even", "alpha": 0.9},
        "points": 13,
        "mode": "simulated",
        "pulse_duration_ns": 0.5,
        "reconstruct": True,
    })
    out = tmp_path / "out"
    assert cli.main(["wigner", "--config", cfg, "--out", str(out)]) == 0
    summary = io.read_json(out / "wigner" / "summary.json")
    # finite-pulse Kerr distortion is part of the simulated record, so the
    # reconstruction tracks the ideal state closely but not perfectly
    assert summary["reconstruction_fidelity"] > 0.95
    assert summary["reconstruction_purity"] > 0.9
    assert (out / "wigner" / "record.jsonl").exists()
    # the summary fidelity against the target cat is <psi|rho_hat|psi>,
    # free of the square-rooted roundoff of the mixed-state formula
    alphas, parities = io.read_record_jsonl(out / "wigner" / "record.jsonl")
    rho_hat = tg.reconstruct_density(tg.MeasurementRecord(alphas, parities), 12)
    psi = fs.cat_state(0.9, "even", 12).amplitudes
    exact = float(np.real(np.vdot(psi, rho_hat.entries @ psi)))
    assert summary["reconstruction_fidelity"] == pytest.approx(exact, abs=1e-13)


def test_check_mode_verifies_convergence(tmp_path):
    cfg = _quasi_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["quasi-surface", "--config", cfg, "--out", str(out),
                   "--check"])
    assert rc == 0
    summary = io.read_json(out / "quasi-surface" / "summary.json")
    moves = summary["check"]
    assert "splitting_MHz" in moves
    assert moves["splitting_MHz"]["moved"] <= 1e-4


def test_check_rerun_propagates_on_refined_params(tmp_path, monkeypatch):
    seen = []
    propagate_many = dyn.propagate_many

    def spy(params, *args, **kwargs):
        seen.append((params.dim, params.rtol, params.atol))
        return propagate_many(params, *args, **kwargs)

    monkeypatch.setattr(dyn, "propagate_many", spy)
    cfg = _write_config(tmp_path, "map.json", {
        "system": {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0, "dim": 8},
        "samples": 3,
    })
    assert cli.main(["map-cat", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--check"]) == 0
    # one batched propagation of both Fock kets, at the defaults, then
    # refined
    assert seen == [(8, 1e-8, 1e-10), (16, 0.5e-8, 0.5e-10)]


def test_svg_flag_writes_plots(tmp_path):
    cfg = _quasi_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["quasi-surface", "--config", cfg, "--out", str(out),
                     "--svg"]) == 0
    svg = (out / "quasi-surface" / "surface.svg").read_text()
    assert svg.startswith("<svg")


def test_console_script_help():
    proc = subprocess.run(["kposim", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("quasi-surface", "cat-rabi", "wigner", "qpt", "relax"):
        assert name in proc.stdout


def _grid(start, stop, count):
    return {"start": start, "stop": stop, "count": count}


_SYSTEM = {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0, "beta_MHz": 0.65,
           "dim": 8}

# the smallest valid config of every experiment (its "system" block, if any,
# replaces _SYSTEM)
MINIMAL_CONFIGS = {
    "rabi-drive": {"amplitude_MHz": 1.0, "detuning_grid_MHz": _grid(-1, 1, 2),
                   "time_grid_ns": _grid(0, 100, 2)},
    "rabi-pump": {"amplitude_MHz": 1.0, "detuning_grid_MHz": _grid(-1, 1, 2),
                  "time_grid_ns": _grid(0, 100, 2)},
    "map-cat": {"samples": 2},
    "cat-size": {"delta_grid_MHz": _grid(0, 1, 2), "wigner_points": 9},
    "relax": {"system": dict(_SYSTEM, kappa_per_us=0.1),
              "wait_grid_us": _grid(0, 4.5, 10)},
    "quasi-surface": {"system": dict(_SYSTEM, dim=20),
                      "p_over_K_grid": _grid(0.9, 1.2, 2),
                      "delta_over_K_grid": _grid(0.1, 0.5, 2)},
    "cat-rabi": {"detuning_grid_MHz": _grid(-1, 1, 2),
                 "time_grid_ns": _grid(0, 100, 2)},
    "cat-ramsey": {"delta_peak_grid_MHz": _grid(0, 10, 2),
                   "tau_Z_grid_ns": _grid(100, 200, 2)},
    "tls-compare": {"detuning_grid_MHz": _grid(-1, 1, 2),
                    "time_grid_ns": _grid(0, 100, 2)},
    "qpt": {"kind": "z2"},
    "wigner": {"points": 9},
}


def _minimal(name, **changes):
    return {"system": _SYSTEM, **MINIMAL_CONFIGS[name], **changes}


def _run_rejected(tmp_path, capsys, name, cfg):
    """Run a config that must be rejected: exit 2, a ConfigError, and nothing
    on disk, not even the output root.  Returns the error message."""
    out = tmp_path / "o"
    rc = cli.main([name, "--config", _write_config(tmp_path, "c.json", cfg),
                   "--out", str(out)])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (rc, err["error"], err["exit_code"]) == (2, "ConfigError", 2)
    assert not out.exists()
    return err["message"]


@pytest.mark.parametrize("name", sorted(cli.RUNNERS))
def test_minimal_config_runs_and_rejects_an_unknown_key(tmp_path, capsys,
                                                        name):
    cfg = _write_config(tmp_path, "ok.json", _minimal(name))
    assert cli.main([name, "--config", cfg,
                     "--out", str(tmp_path / "ok")]) == 0
    message = _run_rejected(tmp_path, capsys, name,
                            _minimal(name, bogus_key=1))
    assert "bogus_key" in message


def test_cat_rabi_rejects_a_short_phase_grid_before_computing(tmp_path,
                                                              capsys):
    message = _run_rejected(tmp_path, capsys, "cat-rabi", _minimal(
        "cat-rabi", phi_grid_rad=_grid(0.0, 1.0, 1)))
    assert "phi_grid_rad.count" in message


@pytest.mark.parametrize("name, changes, key", [
    ("map-cat", {"tau_ramp_ns": [300]}, "tau_ramp_ns"),
    ("map-cat", {"tau_ramp_ns": 10 ** 400}, "tau_ramp_ns"),
    ("map-cat", {"samples": 2.0}, "samples"),
    ("map-cat", {"system": dict(_SYSTEM, K_MHz=None)}, "system.K_MHz"),
    ("quasi-surface", {"p_over_K_grid": _grid("0.9", 1.2, 2)},
     "p_over_K_grid.start"),
    ("wigner", {"state": {"kind": "fock", "n": True}}, "state.n"),
    ("wigner", {"state": {"kind": "fock", "alpha": 1.0}}, "alpha"),
    ("wigner", {"mode": "simulated", "noise_sigma": 0.01, "seed": -1},
     "seed"),
    ("wigner", {"extent": -1.0}, "extent"),
    ("wigner", {"extent": None}, "extent"),
    ("map-cat", {"samples": "x"}, "samples"),
    ("qpt", {"kind": "x2", "tau_Z_ns": 500.0}, "tau_Z_ns"),
    ("qpt", {"kind": "x2", "tau_ramp_ns": 300.0}, "tau_ramp_ns"),
    ("qpt", {"kind": "z2", "tau_ramp_ns": 300.0}, "tau_ramp_ns"),
    ("qpt", {"kind": "mapping", "tau_Z_ns": 500.0}, "tau_Z_ns"),
])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, name, changes,
                                          key):
    assert key in _run_rejected(tmp_path, capsys, name,
                                _minimal(name, **changes))


def test_config_root_must_be_an_object(tmp_path, capsys):
    assert "must be an object" in _run_rejected(tmp_path, capsys, "map-cat",
                                                [_minimal("map-cat")])


def test_non_string_out_dir_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _minimal("map-cat", out_dir=5))
    assert cli.main(["map-cat", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "out_dir" in err["message"]


def test_output_root_under_a_regular_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _write_config(tmp_path, "c.json", _minimal("map-cat"))
    assert cli.main(["map-cat", "--config", cfg,
                     "--out", str(blocker / "o")]) == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (err["error"], err["exit_code"]) == ("NotADirectoryError", 4)


def test_nonpositive_z2_gate_time_is_a_usage_error(tmp_path, capsys):
    # as in cat-ramsey, whose chirp schedule rejects a zero gate time
    cfg = _write_config(tmp_path, "c.json", _minimal("qpt", tau_Z_ns=0))
    assert cli.main(["qpt", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ScheduleError"
    assert "tau_Z" in err["message"]


# the files of every experiment at its minimal config with --svg, besides
# summary.json
_LAYOUT = {
    "rabi-drive": ["map.csv", "map.svg"],
    "rabi-pump": ["map.csv", "map.svg"],
    "map-cat": ["mapping.csv", "mapping.svg"],
    "cat-size": ["cat_size.csv", "cat_size.svg"],
    "relax": ["populations.csv", "axes.csv", "axes.svg"],
    "quasi-surface": ["surface.csv", "surface.svg"],
    "cat-rabi": ["detuning_map.csv", "detuning_map.svg"],
    "cat-ramsey": ["ramsey.csv", "ramsey.svg"],
    "tls-compare": ["symmetrized.csv", "symmetrized.svg", "standard.csv",
                    "standard.svg"],
    "qpt": ["chi.json", "chi.csv", "chi_real.svg", "chi_imag.svg"],
    "wigner": ["wigner.csv", "wigner.svg"],
}


def _tree(root):
    """The sorted paths of the files under ``root``, relative to it."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file())


@pytest.mark.parametrize("name", sorted(cli.RUNNERS))
def test_artifact_layout_and_byte_identical_rerun(tmp_path, name):
    cfg = _write_config(tmp_path, "c.json", _minimal(name))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli.main([name, "--config", cfg, "--out", str(out),
                         "--svg"]) == 0
    tree = _tree(out1)
    assert tree == sorted(f"{name}/{f}"
                          for f in _LAYOUT[name] + ["summary.json"])
    assert _tree(out2) == tree
    for f in tree:
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


def test_check_writes_the_rerun_tables_without_plots(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _minimal("relax"))
    out = tmp_path / "o"
    assert cli.main(["relax", "--config", cfg, "--out", str(out), "--svg",
                     "--check"]) == 0
    assert _tree(out) == sorted(
        ["relax/summary.json", "relax/populations.csv", "relax/axes.csv",
         "relax/axes.svg", "relax/check/populations.csv",
         "relax/check/axes.csv"])


def test_failed_check_leaves_both_tables_and_no_summary(tmp_path, capsys):
    # truncation at dim 8: the cat size moves by 0.14 under the rerun,
    # against a tolerance of 0.05
    cfg = _write_config(tmp_path, "c.json", _minimal("cat-size"))
    out = tmp_path / "o"
    assert cli.main(["cat-size", "--config", cfg, "--out", str(out), "--svg",
                     "--check"]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConvergenceError"
    assert "max_relative_deviation" in err["message"]
    assert _tree(out) == ["cat-size/cat_size.csv", "cat-size/cat_size.svg",
                          "cat-size/check/cat_size.csv"]


def test_cat_size_column_equals_the_per_state_path():
    # the runner maps its states as one stack; each size must equal the one
    # read off that state's own map
    cfg = {"system": dict(_SYSTEM, dim=20), "wigner_points": 21,
           "delta_grid_MHz": _grid(0.0, 1.0, 3)}
    config = cli._Config(cfg, "config")
    params = cli._system(config)
    table = cli.RUNNERS["cat-size"](config, params)[2]["cat_size"][0]
    axis = tg.default_grid(params.dim, points=21)
    deltas = np.linspace(0.0, 2 * np.pi, 3)   # the runner's grid, rad/us
    assert len(table["size"]) == deltas.size
    for d, size in zip(deltas, table["size"]):
        basis = md.cat_basis_from_model(params.with_(Delta=float(d)))
        rho = fs.DensityMatrix(0.5 * basis.plus_cat.to_density().entries
                               + 0.5 * basis.minus_cat.to_density().entries)
        assert size == tg.cat_size(tg.wigner_ideal(rho, axis, axis))


def test_check_fails_on_a_declared_value_the_rerun_lacks(tmp_path, capsys,
                                                         monkeypatch):
    dims = []
    cat_rabi_map, fit = dyn.cat_rabi_map, dyn.fit_damped_cosine

    def spy(params, *args, **kwargs):
        dims.append(params.dim)
        return cat_rabi_map(params, *args, **kwargs)

    def fit_fails_when_refined(*args, **kwargs):
        if dims[-1] == 16:
            raise FitError("no oscillation resolved")
        return fit(*args, **kwargs)

    monkeypatch.setattr(dyn, "cat_rabi_map", spy)
    monkeypatch.setattr(dyn, "fit_damped_cosine", fit_fails_when_refined)
    # the resonant row of this grid fits at dim 8 (3.09 MHz)
    cfg = _write_config(tmp_path, "c.json", _minimal(
        "cat-rabi", detuning_grid_MHz=_grid(-1, 1, 3),
        time_grid_ns=_grid(0, 600, 13)))
    out = tmp_path / "o"
    assert cli.main(["cat-rabi", "--config", cfg, "--out", str(out),
                     "--check"]) == 3
    assert dims == [8, 16]
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConvergenceError"
    assert "resonant_rabi_MHz is None in the --check rerun" in err["message"]
    assert not (out / "cat-rabi" / "summary.json").exists()


@pytest.mark.parametrize("name", sorted(cli.RUNNERS))
def test_a_runner_writes_nothing(monkeypatch, name):
    def refuse(path, text):
        raise AssertionError(f"a runner wrote {path}")

    monkeypatch.setattr(io, "_write_text", refuse)
    config = cli._Config(_minimal(name), "config")
    summary, _, files = cli.RUNNERS[name](config, cli._system(config))
    assert summary["experiment"] == name
    assert files


def test_a_run_that_raises_writes_nothing(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ReconstructionError("no fit to the record")

    monkeypatch.setattr(tg, "reconstruct_density", fail)
    cfg = _write_config(tmp_path, "c.json", _minimal(
        "wigner", mode="simulated", reconstruct=True))
    out = tmp_path / "o"
    assert cli.main(["wigner", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ReconstructionError"
    assert not out.exists()
