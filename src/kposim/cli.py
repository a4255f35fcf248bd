"""Command-line experiment runners with deterministic file outputs.

Each subcommand reads a JSON config (units spelled out in the key names:
``K_MHz``, ``tau_ramp_ns``, ...), runs one experiment, and writes CSV data,
a ``summary.json``, and optional SVG plots under ``<out>/<experiment>/``.
Reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 2 config error, 3 physics/convergence error,
4 I/O error.  Failures print a machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dynamics as dyn
from . import fileio as io
from . import fockspace as fs
from . import model as md
from . import qpt as qp
from . import spectral as sp
from . import tomography as tg
from .errors import ConfigError, ConvergenceError, KposimError, UsageError
from .units import TWO_PI, angular_to_mhz, mhz_to_angular, ns_to_us, us_to_ns

SYSTEM_KEYS = {"K_MHz", "P_MHz", "Delta_MHz", "beta_MHz", "kappa_per_us",
               "dim"}
GRID_KEYS = {"start", "stop", "count"}


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; "
                          f"allowed {sorted(allowed)}")


def _finite(value, where):
    v = float(value)
    if not np.isfinite(v):
        raise ConfigError(f"{where}: value must be finite, got {value}")
    return v


def _grid(cfg, key, where, required=True, scale=1.0):
    """Parse a {start, stop, count} block into a linspace (count >= 2)."""
    if key not in cfg:
        if required:
            raise ConfigError(f"{where}: missing grid {key!r}")
        return None
    g = cfg[key]
    _check_keys(g, GRID_KEYS, f"{where}.{key}")
    for k in GRID_KEYS:
        if k not in g:
            raise ConfigError(f"{where}.{key}: missing {k!r}")
    count = g["count"]
    if not isinstance(count, int) or count < 2:
        raise ConfigError(f"{where}.{key}: count must be an integer >= 2, "
                          f"got {count!r}")
    start = _finite(g["start"], f"{where}.{key}.start")
    stop = _finite(g["stop"], f"{where}.{key}.stop")
    return np.linspace(start * scale, stop * scale, count)


def _system(cfg, refine=False):
    """The SystemParams of the config's ``system`` block.

    With ``refine`` they are those of the ``--check`` rerun: dim doubled,
    ``rtol`` and ``atol`` halved.
    """
    where = "config.system"
    if "system" not in cfg:
        raise ConfigError("config: missing 'system' block")
    s = cfg["system"]
    _check_keys(s, SYSTEM_KEYS, where)
    if "K_MHz" not in s:
        raise ConfigError(f"{where}: missing 'K_MHz'")
    kwargs = {}
    for key in ("K_MHz", "P_MHz", "Delta_MHz", "beta_MHz", "kappa_per_us"):
        if key in s:
            kwargs[key] = _finite(s[key], f"{where}.{key}")
    dim = s.get("dim", 30)
    if not isinstance(dim, int) or dim < 2:
        raise ConfigError(f"{where}.dim: must be an integer >= 2")
    params = md.SystemParams.from_mhz(dim=dim, **kwargs)
    if refine:
        params = params.with_(dim=2 * dim, rtol=0.5 * params.rtol,
                              atol=0.5 * params.atol)
    return params


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _write_map(out, stem, names, rows, cols, values, svg=False, title="",
               xlabel="", ylabel=""):
    """Write a (rows x cols) map to ``<stem>.csv``, one line per cell, row by
    row, and with ``svg`` its heatmap, rows along y, to ``<stem>.svg``."""
    io.write_csv(os.path.join(out, f"{stem}.csv"), {
        names[0]: np.repeat(rows, cols.size),
        names[1]: np.tile(cols, rows.size),
        names[2]: values.reshape(-1),
    })
    if svg:
        io.svg_heatmap(os.path.join(out, f"{stem}.svg"), cols, rows, values,
                       title=title, xlabel=xlabel, ylabel=ylabel)


# ---------------------------------------------------------------------------
# experiment runners; each takes (cfg, params, out, svg) and returns
# (summary, checks) where checks maps summary scalar names to the tolerance
# used by --check


def _run_rabi(which):
    def run(cfg, params, out, svg):
        _check_keys(cfg, {"system", "amplitude_MHz", "detuning_grid_MHz",
                          "time_grid_ns", "out_dir"}, "config")
        if "amplitude_MHz" not in cfg:
            raise ConfigError("config: missing 'amplitude_MHz'")
        amp = mhz_to_angular(_finite(cfg["amplitude_MHz"], "amplitude_MHz"))
        det = _grid(cfg, "detuning_grid_MHz", "config", scale=TWO_PI)
        tus = ns_to_us(_grid(cfg, "time_grid_ns", "config"))
        pmap = dyn.rabi_map(params, which, amp, det, tus)
        dmhz = det / TWO_PI
        tns = us_to_ns(tus)
        _write_map(out, "map", ("detuning_MHz", "time_ns", "p0"), dmhz, tns,
                   pmap, svg, f"rabi-{which}", "time (ns)", "detuning (MHz)")
        i, j = np.unravel_index(int(np.argmin(pmap)), pmap.shape)
        summary = {
            "experiment": f"rabi-{which}",
            "min_p0": float(pmap[i, j]),
            "min_at_detuning_MHz": float(dmhz[i]),
            "min_at_time_ns": float(tns[j]),
            "final_row_mean_p0": float(np.mean(pmap[:, -1])),
        }
        return summary, {"min_p0": 0.02}
    return run


def _run_map_cat(cfg, params, out, svg):
    _check_keys(cfg, {"system", "tau_ramp_ns", "counterdiabatic", "samples",
                      "out_dir"}, "config")
    tau = ns_to_us(_finite(cfg.get("tau_ramp_ns", 300.0), "tau_ramp_ns"))
    cd = cfg.get("counterdiabatic", True)
    if not isinstance(cd, bool):
        raise ConfigError("counterdiabatic must be a boolean")
    nsamp = cfg.get("samples", 41)
    if not isinstance(nsamp, int) or nsamp < 2:
        raise ConfigError("samples must be an integer >= 2")
    sched = md.ramp_schedule(params.P_max, tau, params.Delta,
                             counterdiabatic=cd)
    basis = md.cat_basis_from_model(params)
    lossless = params.with_(kappa=0.0)
    times = np.linspace(0.0, tau, nsamp)
    cols = {"time_ns": us_to_ns(times)}
    finals = {}
    trajs = dyn.propagate_many(lossless, sched,
                               [fs.fock_state(k, params.dim) for k in (0, 1)],
                               sample_times=times)
    for label, bvec, traj in zip(("even", "odd"), (basis.plus_cat.amplitudes,
                                                   basis.minus_cat.amplitudes),
                                 trajs):
        fid = [abs(np.vdot(bvec, s.amplitudes)) ** 2 for s in traj.states]
        cols[f"fid_{label}"] = fid
        finals[label] = fid[-1]
    io.write_csv(os.path.join(out, "mapping.csv"), cols)
    if svg:
        io.svg_lines(os.path.join(out, "mapping.svg"), cols["time_ns"],
                     {"even": cols["fid_even"], "odd": cols["fid_odd"]},
                     title="map-cat", xlabel="time (ns)", ylabel="fidelity")
    summary = {
        "experiment": "map-cat",
        "final_fidelity_even": finals["even"],
        "final_fidelity_odd": finals["odd"],
        "frame_phase_rad": float(sched.total_frame_phase),
        "counterdiabatic": cd,
    }
    return summary, {"final_fidelity_even": 5e-3, "final_fidelity_odd": 5e-3}


def _run_cat_size(cfg, params, out, svg):
    _check_keys(cfg, {"system", "delta_grid_MHz", "wigner_points", "out_dir"},
                "config")
    deltas = _grid(cfg, "delta_grid_MHz", "config", scale=TWO_PI)
    points = cfg.get("wigner_points", 81)
    if not isinstance(points, int) or points < 9:
        raise ConfigError("wigner_points must be an integer >= 9")
    sizes, formula = [], []
    for d in deltas:
        p_i = params.with_(Delta=float(d))
        basis = md.cat_basis_from_model(p_i)
        # parity-mixed state: the lobe position is only the map maximum
        # once the interference fringes are washed out
        rho = fs.DensityMatrix(
            0.5 * basis.plus_cat.to_density().entries
            + 0.5 * basis.minus_cat.to_density().entries)
        axis = tg.default_grid(p_i.dim, points=points)
        wm = tg.wigner_ideal(rho, axis, axis)
        sizes.append(tg.cat_size(wm))
        formula.append(np.sqrt((p_i.P_max + p_i.Delta) / p_i.K))
    sizes = np.array(sizes)
    formula = np.array(formula)
    io.write_csv(os.path.join(out, "cat_size.csv"), {
        "Delta_MHz": deltas / TWO_PI,
        "size": sizes,
        "stationary_radius": formula,
    })
    if svg:
        io.svg_lines(os.path.join(out, "cat_size.svg"), deltas / TWO_PI,
                     {"size": sizes, "formula": formula},
                     title="cat-size", xlabel="Delta (MHz)", ylabel="|alpha|")
    rel = np.abs(sizes - formula) / formula
    summary = {
        "experiment": "cat-size",
        "rms_relative_deviation": float(np.sqrt(np.mean(rel ** 2))),
        "max_relative_deviation": float(np.max(rel)),
    }
    return summary, {"max_relative_deviation": 0.05}


def _run_relax(cfg, params, out, svg):
    _check_keys(cfg, {"system", "wait_grid_us", "prepare", "tau_ramp_ns",
                      "out_dir"}, "config")
    waits = _grid(cfg, "wait_grid_us", "config")
    prepare = cfg.get("prepare", "ramp")
    tau = ns_to_us(_finite(cfg.get("tau_ramp_ns", 300.0), "tau_ramp_ns"))
    res = dyn.relaxation_experiment(params, waits, prepare=prepare,
                                    tau_ramp=tau)
    pop_cols = {"wait_us": waits}
    plus_cat_run = res.populations["z"]
    for k, label in enumerate(fs.CARDINAL_LABELS):
        name = label.replace("+", "plus_").replace("-", "minus_")
        pop_cols[f"p_{name}"] = plus_cat_run[k]
    io.write_csv(os.path.join(out, "populations.csv"), pop_cols)
    sd_cols = {"wait_us": waits}
    for axis in ("z", "x", "y"):
        sd_cols[f"sum_{axis}"] = res.sums[axis]
        sd_cols[f"diff_{axis}"] = res.differences[axis]
    io.write_csv(os.path.join(out, "axes.csv"), sd_cols)
    decay = dyn.fit_exp_decay(waits, res.differences["z"])
    osc = dyn.fit_damped_cosine(waits, res.differences["x"])
    split_mhz = angular_to_mhz(sp.qubit_splitting(
        params.K, params.P_max, params.Delta, params.dim)[0])
    if svg:
        io.svg_lines(os.path.join(out, "axes.svg"), waits,
                     {"diff_z": sd_cols["diff_z"], "diff_x": sd_cols["diff_x"],
                      "sum_z": sd_cols["sum_z"]},
                     title="relax", xlabel="wait (us)", ylabel="population")
    summary = {
        "experiment": "relax",
        "T_z_us": decay.decay_time,
        "oscillation_MHz": osc.frequency,
        "oscillation_decay_us": (1.0 / osc.rate) if osc.rate > 0 else None,
        "splitting_MHz": split_mhz,
        "frequency_vs_splitting": float(
            abs(osc.frequency - split_mhz) / split_mhz),
    }
    return summary, {"T_z_us": 0.5, "oscillation_MHz": 0.02}


def _run_quasi_surface(cfg, params, out, svg):
    _check_keys(cfg, {"system", "p_over_K_grid", "delta_over_K_grid",
                      "out_dir"}, "config")
    pg = _grid(cfg, "p_over_K_grid", "config")
    dg = _grid(cfg, "delta_over_K_grid", "config")
    surf = sp.splitting_surface(params.K, pg, dg, params.dim)
    _write_map(out, "surface",
               ("P_over_K", "Delta_over_K", "splitting_over_K"), pg, dg, surf,
               svg, "quasi-surface", "Delta/K", "P/K")
    spec = sp.quasienergies(params.K, params.P_max, params.Delta, params.dim)
    summary = {
        "experiment": "quasi-surface",
        "splitting_MHz": spec.splitting_mhz,
        "gap_over_K": float(spec.gap / params.K),
        "surface_min_over_K": float(np.min(surf)),
        "surface_max_over_K": float(np.max(surf)),
    }
    return summary, {"splitting_MHz": 1e-4, "gap_over_K": 1e-4}


def _run_cat_rabi(cfg, params, out, svg):
    _check_keys(cfg, {"system", "detuning_grid_MHz", "time_grid_ns",
                      "phi_grid_rad", "symmetrized", "out_dir"}, "config")
    det = _grid(cfg, "detuning_grid_MHz", "config", scale=TWO_PI)
    tus = ns_to_us(_grid(cfg, "time_grid_ns", "config"))
    sym = cfg.get("symmetrized", True)
    if not isinstance(sym, bool):
        raise ConfigError("symmetrized must be a boolean")
    pmap = dyn.cat_rabi_map(params, det, tus, symmetrized=sym)
    dmhz = det / TWO_PI
    tns = us_to_ns(tus)
    _write_map(out, "detuning_map", ("detuning_MHz", "time_ns", "parity"),
               dmhz, tns, pmap, svg, "cat-rabi", "time (ns)",
               "drive detuning (MHz)")
    asym = np.sqrt(np.mean((pmap - pmap[::-1]) ** 2)) if (
        np.allclose(dmhz, -dmhz[::-1])) else None
    k0 = int(np.argmin(np.abs(det)))
    try:
        rabi_mhz = dyn.fit_damped_cosine(tus, pmap[k0]).frequency
    except KposimError:
        rabi_mhz = None  # grid too short to resolve the oscillation
    summary = {
        "experiment": "cat-rabi",
        "rms_asymmetry": None if asym is None else float(asym),
        "resonant_rabi_MHz": rabi_mhz,
        "resonant_row_detuning_MHz": float(dmhz[k0]),
        "symmetrized": sym,
    }
    checks = {"resonant_rabi_MHz": 0.05} if rabi_mhz is not None else {}
    phig = _grid(cfg, "phi_grid_rad", "config", required=False)
    if phig is not None:
        phmap = dyn.cat_rabi_phase_map(params, phig, tus, symmetrized=sym)
        _write_map(out, "phase_map", ("phi_rad", "time_ns", "parity"), phig,
                   tns, phmap, svg, "cat-rabi phase", "time (ns)",
                   "drive phase (rad)")
        summary["phase_rows"] = int(phig.size)
    return summary, checks


def _ripple_metric(row):
    """RMS of the high-frequency residual after a 5-point moving average."""
    if row.size < 7:
        raise UsageError("ripple metric needs at least 7 sweep points")
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(row, kernel, mode="same")
    resid = (row - smooth)[3:-3]
    return float(np.sqrt(np.mean(resid ** 2)))


def _run_cat_ramsey(cfg, params, out, svg):
    _check_keys(cfg, {"system", "delta_peak_grid_MHz", "tau_Z_grid_ns",
                      "ripple_beta_grid_MHz", "out_dir"}, "config")
    dps = _grid(cfg, "delta_peak_grid_MHz", "config", scale=TWO_PI)
    taus = ns_to_us(_grid(cfg, "tau_Z_grid_ns", "config"))
    cal = qp.calibrate_x2(params)
    pmap = dyn.cat_ramsey_map(params, dps, taus, cal["duration"])
    dmhz = dps / TWO_PI
    tns = us_to_ns(taus)
    _write_map(out, "ramsey", ("delta_peak_MHz", "tau_Z_ns", "parity"), dmhz,
               tns, pmap, svg, "cat-ramsey", "tau_Z (ns)", "chirp depth (MHz)")
    summary = {
        "experiment": "cat-ramsey",
        "x2_duration_ns": us_to_ns(cal["duration"]),
        "parity_range": [float(np.min(pmap)), float(np.max(pmap))],
        "fringe_column_span": float(np.ptp(pmap[:, -1])),
    }
    checks = {"x2_duration_ns": 2.0}
    betas = _grid(cfg, "ripple_beta_grid_MHz", "config", required=False,
                  scale=TWO_PI)
    if betas is not None:
        tau_fix = taus[-1]
        ripples = []
        for b in betas:
            p_b = params.with_(beta=float(b), kappa=0.0)
            cal_b = qp.calibrate_x2(p_b)
            row = dyn.cat_ramsey_map(p_b, dps, [tau_fix], cal_b["duration"])
            ripples.append(_ripple_metric(row[:, 0]))
        io.write_csv(os.path.join(out, "ripple.csv"), {
            "beta_MHz": betas / TWO_PI,
            "ripple_rms": np.array(ripples),
        })
        if svg:
            io.svg_lines(os.path.join(out, "ripple.svg"), betas / TWO_PI,
                         {"ripple": np.array(ripples)}, title="ramsey ripple",
                         xlabel="beta (MHz)", ylabel="ripple RMS")
        summary["ripple_rms"] = [float(r) for r in ripples]
        summary["ripple_monotone_increase"] = bool(
            ripples[-1] > ripples[0])
    return summary, checks


def _run_tls_compare(cfg, params, out, svg):
    _check_keys(cfg, {"system", "Omega_R_MHz", "detuning_grid_MHz",
                      "time_grid_ns", "out_dir"}, "config")
    if "Omega_R_MHz" in cfg:
        omega = mhz_to_angular(_finite(cfg["Omega_R_MHz"], "Omega_R_MHz"))
    else:
        basis = md.cat_basis_from_model(params)
        omega = 2.0 * params.beta * qp.x2_coupling(basis)
    det = _grid(cfg, "detuning_grid_MHz", "config", scale=TWO_PI)
    tus = ns_to_us(_grid(cfg, "time_grid_ns", "config"))
    maps = {}
    for variant in ("symmetrized", "standard"):
        maps[variant] = dyn.tls_rabi_map(variant, omega, det, tus)
    dmhz = det / TWO_PI
    tns = us_to_ns(tus)
    for variant, m in maps.items():
        _write_map(out, variant, ("detuning_MHz", "time_ns", "p_excited"),
                   dmhz, tns, m, svg, f"TLS {variant}", "time (ns)",
                   "detuning (MHz)")
    diff = float(np.sqrt(np.mean((maps["symmetrized"] - maps["standard"]) ** 2)))
    summary = {
        "experiment": "tls-compare",
        "Omega_R_MHz": angular_to_mhz(omega),
        "rms_between_variants": diff,
        "evenness_symmetrized": float(np.sqrt(np.mean(
            (maps["symmetrized"] - maps["symmetrized"][::-1]) ** 2))),
        "evenness_standard": float(np.sqrt(np.mean(
            (maps["standard"] - maps["standard"][::-1]) ** 2))),
    }
    return summary, {"rms_between_variants": 1e-6}


def _run_qpt(cfg, params, out, svg):
    _check_keys(cfg, {"system", "kind", "tau_ramp_ns", "tau_Z_ns",
                      "detuning_offset_MHz", "out_dir"}, "config")
    kind = cfg.get("kind", "mapping")
    if kind not in ("mapping", "x2", "z2"):
        raise ConfigError(f"kind must be 'mapping', 'x2' or 'z2', got {kind!r}")
    tau_ramp = ns_to_us(_finite(cfg.get("tau_ramp_ns", 300.0), "tau_ramp_ns"))
    tau_Z = ns_to_us(_finite(cfg.get("tau_Z_ns", 500.0), "tau_Z_ns"))
    offset = mhz_to_angular(_finite(cfg.get("detuning_offset_MHz", 0.0),
                                    "detuning_offset_MHz"))
    res = qp.qpt_experiment(kind, params, tau_ramp=tau_ramp, tau_Z=tau_Z,
                            detuning_offset=offset)
    io.write_chi_json(os.path.join(out, "chi.json"), res.chi)
    io.write_chi_csv(os.path.join(out, "chi.csv"), res.chi)
    if svg:
        io.svg_chi_bars(os.path.join(out, "chi_real.svg"), res.chi,
                        part="real", title=f"chi real ({kind})")
        io.svg_chi_bars(os.path.join(out, "chi_imag.svg"), res.chi,
                        part="imag", title=f"chi imag ({kind})")
    diag = np.diag(res.chi.chi).real
    summary = {
        "experiment": "qpt",
        "kind": kind,
        "process_fidelity": res.fidelity,
        "chi_diag": [float(v) for v in diag],
        "max_leakage": float(max(res.leakages)),
        "tp_residual": res.chi.tp_residual,
        "calibration": {k: (float(v) if isinstance(v, (int, float)) else v)
                        for k, v in res.calibration.items()},
    }
    return summary, {"process_fidelity": 0.01}


_WIGNER_STATE_KEYS = {"kind", "alpha", "n"}
_WIGNER_KEYS = {"system", "state", "points", "extent", "mode", "out_dir"}
# keys only one mode reads; a key of the other mode is a ConfigError
_WIGNER_MODE_KEYS = {"ideal": {"kerr_correct_ns"}, "simulated": {
    "pulse_duration_ns", "noise_sigma", "seed", "reconstruct"}}


def _wigner_state(cfg, params):
    block = cfg.get("state", {"kind": "model_even"})
    _check_keys(block, _WIGNER_STATE_KEYS, "config.state")
    kind = block.get("kind", "model_even")
    if kind in ("model_even", "model_odd"):
        basis = md.cat_basis_from_model(params)
        return (basis.plus_cat if kind == "model_even" else basis.minus_cat)
    if kind in ("cat_even", "cat_odd"):
        alpha = complex(_finite(block.get("alpha", 1.0), "state.alpha"))
        return fs.cat_state(alpha, "even" if kind == "cat_even" else "odd",
                            params.dim)
    if kind == "coherent":
        alpha = complex(_finite(block.get("alpha", 1.0), "state.alpha"))
        return fs.coherent_state(alpha, params.dim)
    if kind == "fock":
        n = block.get("n", 0)
        if not isinstance(n, int) or n < 0:
            raise ConfigError("state.n must be a nonnegative integer")
        return fs.fock_state(n, params.dim)
    raise ConfigError(f"unknown state kind {kind!r}")


def _run_wigner(cfg, params, out, svg):
    mode = cfg.get("mode", "ideal")
    if mode not in ("ideal", "simulated"):
        raise ConfigError(f"mode must be 'ideal' or 'simulated', got {mode!r}")
    _check_keys(cfg, _WIGNER_KEYS | _WIGNER_MODE_KEYS[mode],
                f"config ({mode} mode)")
    state = _wigner_state(cfg, params)
    points = cfg.get("points", 81)
    if not isinstance(points, int) or points < 9:
        raise ConfigError("points must be an integer >= 9")
    extent = cfg.get("extent")
    if extent is None:
        re = tg.default_grid(params.dim, points=points)
        im = re
    else:
        ext = _finite(extent, "extent")
        re = np.linspace(-ext, ext, points)
        im = np.linspace(-ext, ext, points)
    rho = state.to_density()
    summary = {"experiment": "wigner", "mode": mode}
    if mode == "ideal":
        tau_corr = cfg.get("kerr_correct_ns")
        if tau_corr is not None:
            rho = tg.kerr_correct(rho, params.K, params.Delta, ns_to_us(
                _finite(tau_corr, "kerr_correct_ns")))
            summary["kerr_correct_ns"] = float(tau_corr)
        wm = tg.wigner_ideal(rho, re, im)
    else:
        dur = ns_to_us(_finite(cfg.get("pulse_duration_ns", 20.0),
                               "pulse_duration_ns"))
        sigma = _finite(cfg.get("noise_sigma", 0.0), "noise_sigma")
        if sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        reconstruct = cfg.get("reconstruct", False)
        if not isinstance(reconstruct, bool):
            raise ConfigError("reconstruct must be a boolean")
        alphas = tg.grid_points(re, im)
        record = tg.simulate_ld_tomography(params, rho, alphas,
                                           pulse_duration=dur)
        parities = record.parities
        if sigma > 0:
            seed = cfg.get("seed", 0)
            if not isinstance(seed, int):
                raise ConfigError("seed must be an integer")
            rng = np.random.default_rng(seed)
            parities = np.clip(parities
                               + sigma * rng.standard_normal(parities.shape),
                               -1.0, 1.0)
            record = tg.MeasurementRecord(record.alphas, parities)
        io.write_record_jsonl(os.path.join(out, "record.jsonl"), record)
        wm = record.to_wigner(re, im)
        summary["pulse_duration_ns"] = us_to_ns(dur)
        summary["noise_sigma"] = sigma
        if reconstruct:
            rec = tg.reconstruct_density(record, params.dim)
            # the target ket selects the exact <psi|rec|psi> path
            fid = fs.state_fidelity(state, rec)
            summary["reconstruction_fidelity"] = float(fid)
            summary["reconstruction_purity"] = float(rec.purity())
    _write_map(out, "wigner", ("re", "im", "W"), re, im, wm.values.T)
    if svg:
        # Re alpha runs along x: the plot is the transpose of the CSV order
        io.svg_heatmap(os.path.join(out, "wigner.svg"), re, im, wm.values,
                       title="wigner", xlabel="Re alpha", ylabel="Im alpha")
    summary["integral"] = float(wm.integral())
    summary["w_origin"] = float(wm.at_origin())
    summary["parity"] = float(wm.at_origin() * np.pi / 2.0)
    # integral is deliberately absent from the checks: the map-safe grid
    # extent grows with dim, so the Riemann integral legitimately moves
    return summary, {"parity": 1e-3}


RUNNERS = {
    "rabi-drive": _run_rabi("drive"),
    "rabi-pump": _run_rabi("pump"),
    "map-cat": _run_map_cat,
    "cat-size": _run_cat_size,
    "relax": _run_relax,
    "quasi-surface": _run_quasi_surface,
    "cat-rabi": _run_cat_rabi,
    "cat-ramsey": _run_cat_ramsey,
    "tls-compare": _run_tls_compare,
    "qpt": _run_qpt,
    "wigner": _run_wigner,
}


def run_experiment(name, cfg, out_root, svg=False, check=False):
    """Execute one experiment and write its artifacts; returns the summary.

    With ``check`` the experiment reruns on the refined SystemParams of
    :func:`_system`, and no summary value the runner declares may move by
    more than its tolerance.
    """
    if name not in RUNNERS:
        raise UsageError(f"unknown experiment {name!r}; known: "
                         f"{', '.join(RUNNERS)}")
    runner = RUNNERS[name]
    out = io.ensure_dir(os.path.join(out_root, name))
    summary, tolerances = runner(cfg, _system(cfg), out, svg)
    if check:
        out2 = io.ensure_dir(os.path.join(out, "check"))
        summary2, _ = runner(cfg, _system(cfg, refine=True), out2, False)
        moves = {}
        for key, tol in tolerances.items():
            a, b = summary.get(key), summary2.get(key)
            if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
                continue
            moves[key] = {"value": a, "check_value": b, "tolerance": tol,
                          "moved": abs(a - b)}
            if abs(a - b) > tol:
                raise ConvergenceError(
                    f"{name}: summary value {key} moved {abs(a - b):.3e} "
                    f"under doubled dim / halved tolerance "
                    f"(> declared {tol:.3e})")
        summary["check"] = moves
    io.write_json(os.path.join(out, "summary.json"), summary)
    return summary


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kposim",
        description="Kerr parametric oscillator cat-qubit experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output root directory (default from config "
                            "out_dir, else ./out)")
        p.add_argument("--check", action="store_true",
                       help="re-run at doubled dim / halved tolerance and "
                            "verify summary stability")
        p.add_argument("--svg", action="store_true",
                       help="also write SVG plots")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_root = args.out or cfg.get("out_dir") or "out"
        run_experiment(args.experiment, cfg, out_root, svg=args.svg,
                       check=args.check)
        return 0
    except (ConfigError, UsageError) as e:
        _emit_error(e, 2)
        return 2
    except KposimError as e:
        _emit_error(e, 3)
        return 3
    except OSError as e:
        _emit_error(e, 4)
        return 4


def _emit_error(exc, code):
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
