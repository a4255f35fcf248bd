"""Command-line experiment runners with deterministic file outputs.

Each subcommand reads a JSON config (units spelled out in the key names:
``K_MHz``, ``tau_ramp_ns``, ...) and runs one experiment; once it has
returned, CSV data, a ``summary.json``, and optional SVG plots are written
under ``<out>/<experiment>/``.  Reruns with the same config and seed are
byte-identical.

Exit codes: 0 success, 2 config error, 3 physics/convergence error,
4 I/O error.  Failures print a machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

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

_REQUIRED = object()


class _Config:
    """One JSON object of a config, read through typed getters.

    Every getter records its key, and :meth:`done` rejects the keys no
    getter asked for, so the keys a runner reads are the keys it accepts.
    Numbers are JSON numbers, integers are not booleans, and a key given as
    ``null`` is a type error, not an absent key.
    """

    def __init__(self, data, where):
        if not isinstance(data, dict):
            raise ConfigError(f"{where} must be an object, "
                              f"got {type(data).__name__}")
        self.data, self.where, self.read = data, where, set()

    def _get(self, key, default, ok, expected, minimum=None, strict=False):
        self.read.add(key)
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError(f"{self.where}: missing {key!r}")
            return default
        value = self.data[key]
        if not ok(value):
            raise ConfigError(f"{self.where}.{key} must be {expected}, "
                              f"got {value!r}")
        if minimum is not None and (value <= minimum if strict
                                    else value < minimum):
            raise ConfigError(f"{self.where}.{key} must be "
                              f"{'>' if strict else '>='} {minimum}, "
                              f"got {value!r}")
        return value

    def number(self, key, default=_REQUIRED, minimum=None, strict=False):
        """A finite number, >= ``minimum`` (> with ``strict``)."""
        value = self._get(key, default, lambda v: isinstance(v, (int, float))
                          and not isinstance(v, bool)
                          and abs(v) <= sys.float_info.max,
                          "a finite number", minimum, strict)
        return None if value is None else float(value)

    def integer(self, key, default=_REQUIRED, minimum=None):
        return self._get(key, default, lambda v: isinstance(v, int)
                         and not isinstance(v, bool), "an integer", minimum)

    def flag(self, key, default):
        return self._get(key, default, lambda v: isinstance(v, bool),
                         "a boolean")

    def text(self, key, default):
        return self._get(key, default, lambda v: isinstance(v, str),
                         "a string")

    def choice(self, key, default, options):
        return self._get(key, default, lambda v: v in options,
                         f"one of {list(options)}")

    def section(self, key, default=_REQUIRED):
        """The reader of the object under ``key``, or of ``default`` if it
        is absent; None for an absent key whose default is None."""
        value = self._get(key, default, lambda v: isinstance(v, dict),
                          "an object")
        return None if value is None else _Config(value,
                                                  f"{self.where}.{key}")

    def grid(self, key, scale=1.0, required=True):
        """The linspace of a {start, stop, count} block (count >= 2); None
        for an absent optional grid."""
        g = self.section(key, _REQUIRED if required else None)
        if g is None:
            return None
        start, stop = g.number("start"), g.number("stop")
        count = g.integer("count", minimum=2)
        g.done()
        return np.linspace(start * scale, stop * scale, count)

    def done(self):
        unknown = sorted(set(self.data) - self.read)
        if unknown:
            raise ConfigError(f"{self.where}: unknown keys {unknown}; "
                              f"allowed {sorted(self.read)}")


def _system(config, refine=False):
    """The SystemParams of the ``system`` block of the config's _Config.

    With ``refine`` they are those of the ``--check`` rerun: dim doubled,
    ``rtol`` and ``atol`` halved.
    """
    s = config.section("system")
    K_MHz = s.number("K_MHz")
    rest = {key: s.number(key, 0.0)
            for key in ("P_MHz", "Delta_MHz", "beta_MHz", "kappa_per_us")}
    dim = s.integer("dim", 30, minimum=2)
    s.done()
    params = md.SystemParams.from_mhz(K_MHz, dim=dim, **rest)
    if refine:
        params = params.with_(dim=2 * dim, rtol=0.5 * params.rtol,
                              atol=0.5 * params.atol)
    return params


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")


def _map(names, rows, cols, values, title="", xlabel="", ylabel=""):
    """The table of a (rows x cols) map, one line per cell, row by row, and
    the plot of its heatmap, rows along y."""
    return ({names[0]: np.repeat(rows, cols.size),
             names[1]: np.tile(cols, rows.size),
             names[2]: values.reshape(-1)},
            partial(io.svg_heatmap, x=cols, y=rows, values=values,
                    title=title, xlabel=xlabel, ylabel=ylabel))


# ---------------------------------------------------------------------------
# experiment runners; each takes (cfg, params), cfg a _Config it reads in
# full and closes with cfg.done() before it computes, writes nothing, and
# returns (summary, checks, files): checks maps summary scalars to their
# --check tolerance, files each artifact stem to (data, plot) for _write


def _run_rabi(which):
    def run(cfg, params):
        amp = mhz_to_angular(cfg.number("amplitude_MHz"))
        det = cfg.grid("detuning_grid_MHz", scale=TWO_PI)
        tus = ns_to_us(cfg.grid("time_grid_ns"))
        cfg.done()
        pmap = dyn.rabi_map(params, which, amp, det, tus)
        dmhz = det / TWO_PI
        tns = us_to_ns(tus)
        files = {"map": _map(("detuning_MHz", "time_ns", "p0"), dmhz, tns,
                             pmap, f"rabi-{which}", "time (ns)",
                             "detuning (MHz)")}
        i, j = np.unravel_index(int(np.argmin(pmap)), pmap.shape)
        summary = {
            "experiment": f"rabi-{which}",
            "min_p0": float(pmap[i, j]),
            "min_at_detuning_MHz": float(dmhz[i]),
            "min_at_time_ns": float(tns[j]),
            "final_row_mean_p0": float(np.mean(pmap[:, -1])),
        }
        return summary, {"min_p0": 0.02}, files
    return run


def _run_map_cat(cfg, params):
    tau = ns_to_us(cfg.number("tau_ramp_ns", 300.0))
    cd = cfg.flag("counterdiabatic", True)
    nsamp = cfg.integer("samples", 41, minimum=2)
    cfg.done()
    sched = md.ramp_schedule(params.P_max, tau, params.Delta,
                             counterdiabatic=cd)
    basis = md.cat_basis_from_model(params)
    times = np.linspace(0.0, tau, nsamp)
    cols = {"time_ns": us_to_ns(times)}
    traj = dyn.propagate_many(params.with_(kappa=0.0), sched,
                              [fs.fock_state(k, params.dim) for k in (0, 1)],
                              sample_times=times)
    cats = np.array([basis.plus_cat.amplitudes, basis.minus_cat.amplitudes])
    # |<cat|psi(t)>|^2 as the dot products of np.vdot
    overlaps = cats.conj()[:, None, None, :] @ traj.states[..., None]
    cols["fid_even"], cols["fid_odd"] = np.abs(overlaps[..., 0, 0]) ** 2
    plot = partial(io.svg_lines, x=cols["time_ns"],
                   series={"even": cols["fid_even"], "odd": cols["fid_odd"]},
                   title="map-cat", xlabel="time (ns)", ylabel="fidelity")
    summary = {
        "experiment": "map-cat",
        "final_fidelity_even": cols["fid_even"][-1],
        "final_fidelity_odd": cols["fid_odd"][-1],
        "frame_phase_rad": float(sched.total_frame_phase),
        "counterdiabatic": cd,
    }
    return (summary, {"final_fidelity_even": 5e-3, "final_fidelity_odd": 5e-3},
            {"mapping": (cols, plot)})


def _run_cat_size(cfg, params):
    deltas = cfg.grid("delta_grid_MHz", scale=TWO_PI)
    points = cfg.integer("wigner_points", 81, minimum=9)
    cfg.done()
    rhos = []
    for d in deltas:
        basis = md.cat_basis_from_model(params.with_(Delta=float(d)))
        # parity-mixed state: the lobe position is only the map maximum
        # once the interference fringes are washed out
        rhos.append(fs.DensityMatrix(
            0.5 * basis.plus_cat.to_density().entries
            + 0.5 * basis.minus_cat.to_density().entries))
    maps = tg.wigner_maps(rhos, tg.default_grid(params.dim, points=points))
    sizes = np.array([tg.cat_size(wm) for wm in maps])
    formula = np.sqrt((params.P_max + deltas) / params.K)
    table = {
        "Delta_MHz": deltas / TWO_PI,
        "size": sizes,
        "stationary_radius": formula,
    }
    plot = partial(io.svg_lines, x=deltas / TWO_PI,
                   series={"size": sizes, "formula": formula},
                   title="cat-size", xlabel="Delta (MHz)", ylabel="|alpha|")
    rel = np.abs(sizes - formula) / formula
    summary = {
        "experiment": "cat-size",
        "rms_relative_deviation": float(np.sqrt(np.mean(rel ** 2))),
        "max_relative_deviation": float(np.max(rel)),
    }
    return (summary, {"max_relative_deviation": 0.05},
            {"cat_size": (table, plot)})


def _run_relax(cfg, params):
    waits = cfg.grid("wait_grid_us")
    prepare = cfg.choice("prepare", "ramp", ("ramp", "ideal"))
    tau = ns_to_us(cfg.number("tau_ramp_ns", 300.0))
    cfg.done()
    res = dyn.relaxation_experiment(params, waits, prepare=prepare,
                                    tau_ramp=tau)
    pop_cols = {"wait_us": waits}
    for label, p in zip(fs.CARDINAL_LABELS, res.populations["z"]):
        name = label.replace("+", "plus_").replace("-", "minus_")
        pop_cols[f"p_{name}"] = p
    sd_cols = {"wait_us": waits}
    for axis in ("z", "x", "y"):
        sd_cols[f"sum_{axis}"] = res.sums[axis]
        sd_cols[f"diff_{axis}"] = res.differences[axis]
    decay = dyn.fit_exp_decay(waits, res.differences["z"])
    osc = dyn.fit_damped_cosine(waits, res.differences["x"])
    split_mhz = angular_to_mhz(sp.qubit_splitting(
        params.K, params.P_max, params.Delta, params.dim)[0])
    plot = partial(
        io.svg_lines, x=waits,
        series={k: sd_cols[k] for k in ("diff_z", "diff_x", "sum_z")},
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
    return (summary, {"T_z_us": 0.5, "oscillation_MHz": 0.02},
            {"populations": (pop_cols, None), "axes": (sd_cols, plot)})


def _run_quasi_surface(cfg, params):
    pg = cfg.grid("p_over_K_grid")
    dg = cfg.grid("delta_over_K_grid")
    cfg.done()
    surf = sp.splitting_surface(params.K, pg, dg, params.dim)
    files = {"surface": _map(("P_over_K", "Delta_over_K", "splitting_over_K"),
                             pg, dg, surf, "quasi-surface", "Delta/K", "P/K")}
    spec = sp.quasienergies(params.K, params.P_max, params.Delta, params.dim)
    summary = {
        "experiment": "quasi-surface",
        "splitting_MHz": spec.splitting_mhz,
        "gap_over_K": float(spec.gap / params.K),
        "surface_min_over_K": float(np.min(surf)),
        "surface_max_over_K": float(np.max(surf)),
    }
    return summary, {"splitting_MHz": 1e-4, "gap_over_K": 1e-4}, files


def _run_cat_rabi(cfg, params):
    det = cfg.grid("detuning_grid_MHz", scale=TWO_PI)
    tus = ns_to_us(cfg.grid("time_grid_ns"))
    phig = cfg.grid("phi_grid_rad", required=False)
    sym = cfg.flag("symmetrized", True)
    cfg.done()
    pmap = dyn.cat_rabi_map(params, det, tus, symmetrized=sym)
    dmhz = det / TWO_PI
    tns = us_to_ns(tus)
    files = {"detuning_map": _map(("detuning_MHz", "time_ns", "parity"),
                                  dmhz, tns, pmap, "cat-rabi", "time (ns)",
                                  "drive detuning (MHz)")}
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
    if phig is not None:
        phmap = dyn.cat_rabi_phase_map(params, phig, tus, symmetrized=sym)
        files["phase_map"] = _map(("phi_rad", "time_ns", "parity"), phig, tns,
                                  phmap, "cat-rabi phase", "time (ns)",
                                  "drive phase (rad)")
        summary["phase_rows"] = int(phig.size)
    return summary, checks, files


def _ripple_metric(row):
    """RMS of the high-frequency residual after a 5-point moving average."""
    if row.size < 7:
        raise UsageError("ripple metric needs at least 7 sweep points")
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(row, kernel, mode="same")
    resid = (row - smooth)[3:-3]
    return float(np.sqrt(np.mean(resid ** 2)))


def _run_cat_ramsey(cfg, params):
    dps = cfg.grid("delta_peak_grid_MHz", scale=TWO_PI)
    taus = ns_to_us(cfg.grid("tau_Z_grid_ns"))
    betas = cfg.grid("ripple_beta_grid_MHz", scale=TWO_PI, required=False)
    cfg.done()
    cal = qp.calibrate_x2(params)
    pmap = dyn.cat_ramsey_map(params, dps, taus, cal["duration"])
    dmhz = dps / TWO_PI
    tns = us_to_ns(taus)
    files = {"ramsey": _map(("delta_peak_MHz", "tau_Z_ns", "parity"), dmhz,
                            tns, pmap, "cat-ramsey", "tau_Z (ns)",
                            "chirp depth (MHz)")}
    summary = {
        "experiment": "cat-ramsey",
        "x2_duration_ns": us_to_ns(cal["duration"]),
        "parity_range": [float(np.min(pmap)), float(np.max(pmap))],
        "fringe_column_span": float(np.ptp(pmap[:, -1])),
    }
    if betas is not None:
        ripples = []
        for b in betas:
            p_b = params.with_(beta=float(b), kappa=0.0)
            cal_b = qp.calibrate_x2(p_b)
            row = dyn.cat_ramsey_map(p_b, dps, [taus[-1]], cal_b["duration"])
            ripples.append(_ripple_metric(row[:, 0]))
        files["ripple"] = (
            {"beta_MHz": betas / TWO_PI, "ripple_rms": np.array(ripples)},
            partial(io.svg_lines, x=betas / TWO_PI,
                    series={"ripple": np.array(ripples)},
                    title="ramsey ripple", xlabel="beta (MHz)",
                    ylabel="ripple RMS"))
        summary["ripple_rms"] = [float(r) for r in ripples]
        summary["ripple_monotone_increase"] = bool(
            ripples[-1] > ripples[0])
    return summary, {"x2_duration_ns": 2.0}, files


def _run_tls_compare(cfg, params):
    omega_mhz = cfg.number("Omega_R_MHz", None)
    det = cfg.grid("detuning_grid_MHz", scale=TWO_PI)
    tus = ns_to_us(cfg.grid("time_grid_ns"))
    cfg.done()
    omega = (2.0 * params.beta * qp.x2_coupling(md.cat_basis_from_model(params))
             if omega_mhz is None else mhz_to_angular(omega_mhz))
    maps = {variant: dyn.tls_rabi_map(variant, omega, det, tus)
            for variant in ("symmetrized", "standard")}
    dmhz = det / TWO_PI
    tns = us_to_ns(tus)
    files = {variant: _map(("detuning_MHz", "time_ns", "p_excited"), dmhz,
                           tns, m, f"TLS {variant}", "time (ns)",
                           "detuning (MHz)")
             for variant, m in maps.items()}
    diff = float(np.sqrt(np.mean((maps["symmetrized"] - maps["standard"]) ** 2)))
    summary = {
        "experiment": "tls-compare",
        "Omega_R_MHz": angular_to_mhz(omega),
        "rms_between_variants": diff,
    }
    for variant, m in maps.items():
        summary[f"evenness_{variant}"] = float(
            np.sqrt(np.mean((m - m[::-1]) ** 2)))
    return summary, {"rms_between_variants": 1e-6}, files


def _run_qpt(cfg, params):
    kind = cfg.choice("kind", "mapping", ("mapping", "x2", "z2"))
    # each kind reads, and so accepts, only its own gate time
    times = {}
    if kind == "mapping":
        times["tau_ramp"] = ns_to_us(cfg.number("tau_ramp_ns", 300.0))
    elif kind == "z2":
        times["tau_Z"] = ns_to_us(cfg.number("tau_Z_ns", 500.0))
    offset = mhz_to_angular(cfg.number("detuning_offset_MHz", 0.0))
    cfg.done()
    res = qp.qpt_experiment(kind, params, detuning_offset=offset, **times)
    files = {"chi": (res.chi, None)}
    for part in ("real", "imag"):
        files[f"chi_{part}"] = (None, partial(
            io.svg_chi_bars, process_matrix=res.chi, part=part,
            title=f"chi {part} ({kind})"))
    summary = {
        "experiment": "qpt",
        "kind": kind,
        "process_fidelity": res.fidelity,
        "chi_diag": [float(v) for v in np.diag(res.chi.chi).real],
        "max_leakage": float(max(res.leakages)),
        "tp_residual": res.chi.tp_residual,
        "calibration": {k: (float(v) if isinstance(v, (int, float)) else v)
                        for k, v in res.calibration.items()},
    }
    return summary, {"process_fidelity": 0.01}, files


def _wigner_state(block, params):
    """The state of the ``state`` block: ``alpha`` is read for the cat and
    coherent kinds, ``n`` for ``fock``."""
    kind = block.choice("kind", "model_even", (
        "model_even", "model_odd", "cat_even", "cat_odd", "coherent", "fock"))
    if kind in ("cat_even", "cat_odd", "coherent"):
        alpha = complex(block.number("alpha", 1.0))
    elif kind == "fock":
        n = block.integer("n", 0, minimum=0)
    block.done()
    if kind in ("model_even", "model_odd"):
        basis = md.cat_basis_from_model(params)
        return (basis.plus_cat if kind == "model_even" else basis.minus_cat)
    if kind == "coherent":
        return fs.coherent_state(alpha, params.dim)
    if kind == "fock":
        return fs.fock_state(n, params.dim)
    return fs.cat_state(alpha, "even" if kind == "cat_even" else "odd",
                        params.dim)


def _run_wigner(cfg, params):
    mode = cfg.choice("mode", "ideal", ("ideal", "simulated"))
    state_block = cfg.section("state", {})
    points = cfg.integer("points", 81, minimum=9)
    ext = cfg.number("extent", None, minimum=0, strict=True)
    # each mode reads, and so accepts, only its own keys
    if mode == "ideal":
        tau_corr = cfg.number("kerr_correct_ns", None)
    else:
        dur = ns_to_us(cfg.number("pulse_duration_ns", 20.0))
        sigma = cfg.number("noise_sigma", 0.0, minimum=0)
        seed = cfg.integer("seed", 0, minimum=0)
        reconstruct = cfg.flag("reconstruct", False)
    cfg.done()
    state = _wigner_state(state_block, params)
    re = im = (tg.default_grid(params.dim, points=points) if ext is None
               else np.linspace(-ext, ext, points))
    rho = state.to_density()
    summary = {"experiment": "wigner", "mode": mode}
    files = {}
    if mode == "ideal":
        if tau_corr is not None:
            rho = tg.kerr_correct(rho, params.K, params.Delta,
                                  ns_to_us(tau_corr))
            summary["kerr_correct_ns"] = tau_corr
        wm = tg.wigner_ideal(rho, re, im)
    else:
        alphas = tg.grid_points(re, im)
        record = tg.simulate_ld_tomography(params, rho, alphas,
                                           pulse_duration=dur)
        parities = record.parities
        if sigma > 0:
            rng = np.random.default_rng(seed)
            parities = np.clip(parities
                               + sigma * rng.standard_normal(parities.shape),
                               -1.0, 1.0)
            record = tg.MeasurementRecord(record.alphas, parities)
        files["record"] = (record, None)
        wm = record.to_wigner(re, im)
        summary["pulse_duration_ns"] = us_to_ns(dur)
        summary["noise_sigma"] = sigma
        if reconstruct:
            rec = tg.reconstruct_density(record, params.dim)
            # the target ket selects the exact <psi|rec|psi> path
            fid = fs.state_fidelity(state, rec)
            summary["reconstruction_fidelity"] = float(fid)
            summary["reconstruction_purity"] = float(rec.purity())
    table, _ = _map(("re", "im", "W"), re, im, wm.values.T)
    # Re alpha runs along x: the plot is the transpose of the CSV order
    files["wigner"] = (table, partial(
        io.svg_heatmap, x=re, y=im, values=wm.values, title="wigner",
        xlabel="Re alpha", ylabel="Im alpha"))
    summary["integral"] = float(wm.integral())
    summary["w_origin"] = float(wm.at_origin())
    summary["parity"] = float(wm.at_origin() * np.pi / 2.0)
    # integral is deliberately absent from the checks: the map-safe grid
    # extent grows with dim, so the Riemann integral legitimately moves
    return summary, {"parity": 1e-3}, files


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


def _write(out, files, svg):
    """Write a runner's ``files`` under ``out``: named columns as CSV, a
    ProcessMatrix as JSON and CSV, a MeasurementRecord as JSONL, and with
    ``svg`` each plot, an SVG writer bound to all but its path."""
    for stem, (data, plot) in files.items():
        path = os.path.join(out, stem)
        if isinstance(data, qp.ProcessMatrix):
            io.write_chi_json(path + ".json", data)
            io.write_chi_csv(path + ".csv", data)
        elif isinstance(data, tg.MeasurementRecord):
            io.write_record_jsonl(path + ".jsonl", data)
        elif data is not None:
            io.write_csv(path + ".csv", data)
        if svg and plot is not None:
            plot(path + ".svg")


def run_experiment(name, cfg, out_root, svg=False, check=False):
    """Execute one experiment and write its artifacts; returns the summary.

    Artifacts go to ``<out_root or config out_dir or "out">/<name>/``, made
    by the first artifact written after the run returns, so a rejected
    config or a run that raises writes nothing.  With ``check`` the
    experiment reruns on the refined SystemParams of :func:`_system`, its
    tables go to ``check/``, and a summary value the runner declares that is
    no number in either run or moves by more than its tolerance raises.
    """
    if name not in RUNNERS:
        raise UsageError(f"unknown experiment {name!r}; known: "
                         f"{', '.join(RUNNERS)}")
    runner = RUNNERS[name]
    config = _Config(cfg, "config")
    out_dir = config.text("out_dir", None)  # read even when out_root wins
    out = os.path.join(out_root or out_dir or "out", name)
    summary, tolerances, files = runner(config, _system(config))
    _write(out, files, svg)
    if check:
        summary2, _, files2 = runner(config, _system(config, refine=True))
        _write(os.path.join(out, "check"), files2, False)
        moves = {}
        for key, tol in tolerances.items():
            a, b = summary.get(key), summary2.get(key)
            for value, run in ((a, "run"), (b, "--check rerun")):
                if not isinstance(value, (int, float)):
                    raise ConvergenceError(f"{name}: summary value {key} is "
                                           f"{value!r} in the {run}")
            moves[key] = {"value": a, "check_value": b, "tolerance": tol,
                          "moved": abs(a - b)}
            if not abs(a - b) <= tol:  # a NaN fails too
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
    args = build_parser().parse_args(argv)
    try:
        run_experiment(args.experiment, load_config(args.config), args.out,
                       svg=args.svg, check=args.check)
        return 0
    except (ConfigError, UsageError) as e:
        return _emit_error(e, 2)
    except KposimError as e:
        return _emit_error(e, 3)
    except OSError as e:
        return _emit_error(e, 4)


def _emit_error(exc, code):
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
