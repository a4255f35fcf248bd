"""Top-level acceptance checks: one test per release criterion.

Each test pins a headline quantitative result at its stated tolerance, using
the package's public entry points end to end.  Where a stated runtime bound
applies, the test measures wall time.
"""

import json
import time

import numpy as np
import pytest

import oracles as orc
from kposim import cli
from kposim import dynamics as dyn
from kposim import fockspace as fs
from kposim import model as md
from kposim import qpt
from kposim import spectral as sp
from kposim import tomography as tg
from kposim import units

PARAMS = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=30)
K = PARAMS.K


def test_01_qubit_splitting_value():
    t0 = time.perf_counter()
    spec = sp.quasienergies(PARAMS.K, PARAMS.P_max, PARAMS.Delta, 30)
    elapsed = time.perf_counter() - t0
    assert abs(spec.splitting_mhz - 0.318) < 0.005
    assert elapsed < 1.0


def test_02_stationary_points_on_parameter_grid():
    t0 = time.perf_counter()
    for pk in np.linspace(0.5, 3.0, 10):
        for dk in np.linspace(0.0, 1.0, 10):
            pts = sp.stationary_points(K, pk * K, dk * K)
            # the lobe pair: classical-energy maxima away from the origin
            lobes = [abs(p.alpha) for p in pts
                     if p.kind == "maximum" and abs(p.alpha) > 1e-6]
            target = np.sqrt(pk + dk)
            assert len(lobes) == 2, \
                f"no bifurcated lobe pair at P/K={pk}, Delta/K={dk}"
            for mag in lobes:
                assert abs(mag - target) / target < 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_03_splitting_trends_along_pump_and_detuning():
    pks = np.linspace(0.5, 3.0, 10)
    mags = np.array([abs(sp.quasienergies(K, pk * K, 0.0, 30).splitting)
                     for pk in pks])
    # |splitting| strictly decreasing with pump amplitude at zero detuning
    assert np.all(np.diff(mags) < 0)
    # and at least one sign change along the detuning axis at P/K = 1.01
    row = np.array([sp.quasienergies(K, 1.01 * K, dk * K, 30).splitting
                    for dk in np.linspace(0.05, 1.2, 24)])
    assert np.any(np.diff(np.sign(row)) != 0)


def test_04_coherence_oscillates_at_the_splitting():
    wg = np.linspace(0.0, 6.0, 61)
    res = dyn.relaxation_experiment(PARAMS, wg, prepare="ideal")
    fit = dyn.fit_damped_cosine(wg, res.differences["x"])
    splitting = sp.quasienergies(PARAMS.K, PARAMS.P_max, PARAMS.Delta,
                                 30).splitting_mhz
    assert abs(fit.frequency - splitting) / splitting < 0.02


def test_05_relaxation_time_and_parity_transfer():
    t0 = time.perf_counter()
    wg = np.linspace(0.0, 6.0, 61)
    res = dyn.relaxation_experiment(PARAMS.with_(kappa=0.1), wg,
                                    prepare="ramp")
    elapsed = time.perf_counter() - t0
    t_z = 1.0 / dyn.fit_exp_decay(wg, res.differences["z"]).rate
    assert 3.2 <= t_z <= 5.3
    # single-photon loss initially converts the even cat into the odd one
    pz = res.populations["z"]
    assert pz[0, 0] > 0.99 and pz[1, 0] < 1e-6
    assert np.all(np.diff(pz[1, :5]) > 0)
    assert np.all(np.diff(pz[0, :5]) < 0)
    assert elapsed < 120.0


def test_06_mapping_fidelity_and_process_tomography():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    basis = md.cat_basis_from_model(PARAMS)
    out = dyn.propagate(PARAMS, sched, fs.fock_state(0, 30)).states[-1]
    fid = abs(np.vdot(basis.plus_cat.amplitudes, out)) ** 2
    assert fid >= 0.99
    res = qpt.qpt_experiment("mapping", PARAMS)
    assert res.fidelity >= 0.95
    assert abs(res.chi.component("XX")) < 0.01
    assert abs(res.chi.component("ZZ")) < 0.01


def test_07_drive_detuning_map_is_even():
    det = units.TWO_PI * np.linspace(-2.0, 2.0, 17)
    tgrid = np.linspace(0.0, 0.9, 13)
    kpo = dyn.cat_rabi_map(PARAMS, det, tgrid, symmetrized=True)
    assert np.sqrt(np.mean((kpo - kpo[::-1]) ** 2)) <= 1e-3
    # two-level comparison at the projected Rabi rate, with the excited
    # fraction converted to the parity observable the oscillator map records
    basis = md.cat_basis_from_model(PARAMS)
    omega = 2.0 * PARAMS.beta * qpt.x2_coupling(basis)
    rd = 1.0 - 2.0 * dyn.tls_rabi_map("symmetrized", omega, det, tgrid)
    rs = 1.0 - 2.0 * dyn.tls_rabi_map("standard", omega, det, tgrid)
    assert np.sqrt(np.mean((rd - rd[::-1]) ** 2)) <= 1e-3
    # the symmetrized two-level model reproduces the oscillator pattern;
    # the single-tone one does not
    rms_rd = np.sqrt(np.mean((kpo - rd) ** 2))
    rms_rs = np.sqrt(np.mean((kpo - rs) ** 2))
    assert rms_rd < 0.5 * rms_rs


def test_08_wigner_origin_identity_and_normalization():
    rng = np.random.default_rng(7)
    pi25 = fs.parity_op(25)
    for _ in range(20):
        rho = orc.random_density(25, rng)
        w0 = tg.wigner_ideal(fs.DensityMatrix(rho), [0.0], [0.0]).values[0, 0]
        assert abs(w0 - (2.0 / np.pi) * np.real(np.trace(pi25 @ rho))) < 1e-10
    grid = tg.default_grid(40)
    f0 = fs.dm(fs.fock_state(0, 40))
    f3 = fs.dm(fs.fock_state(3, 40))
    coh = fs.dm(fs.coherent_state(1.7, 40))
    states = [f0, f3, coh,
              fs.dm(fs.cat_state(1.154, "even", 40)),
              fs.dm(fs.cat_state(1.154, "odd", 40)),
              0.5 * f0 + 0.3 * coh + 0.2 * f3]
    for rho in states:
        integral = tg.wigner_ideal(fs.DensityMatrix(rho), grid).integral()
        assert 0.97 <= integral <= 1.01


def test_09_reconstruction_from_parity_records():
    cat = fs.cat_state(1.154, "even", 20)
    g = np.linspace(-3.0, 3.0, 41)
    rec = tg.ideal_record(cat, tg.grid_points(g, g))
    assert fs.state_fidelity(tg.reconstruct_density(rec, 20), cat) >= 0.99
    rng = np.random.default_rng(1234)
    noisy = np.clip(rec.parities + rng.normal(0.0, 0.01, rec.parities.size),
                    -1.0, 1.0)
    rho_n = tg.reconstruct_density(tg.MeasurementRecord(rec.alphas, noisy), 20)
    assert fs.state_fidelity(rho_n, cat) >= 0.97


def test_10_chi_matrix_closed_forms():
    inputs = qpt.standard_input_states()
    ident = qpt.chi_matrix(inputs, inputs)
    assert np.max(np.abs(ident.chi - np.diag([1.0, 0, 0, 0]))) < 1e-9
    paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.diag([1.0, -1.0]).astype(complex))
    for idx, u in zip((1, 2, 3), paulis):
        pm = qpt.chi_matrix(inputs, [u @ r @ u.conj().T for r in inputs])
        hot = np.zeros((4, 4))
        hot[idx, idx] = 1.0
        assert np.max(np.abs(pm.chi - hot)) < 1e-9
    u = (np.eye(2) - 1j * paulis[0]) / np.sqrt(2.0)
    pm = qpt.chi_matrix(inputs, [u @ r @ u.conj().T for r in inputs])
    closed = np.zeros((4, 4), dtype=complex)
    closed[0, 0] = closed[1, 1] = 0.5
    closed[0, 1] = 0.5j
    closed[1, 0] = -0.5j
    assert np.max(np.abs(pm.chi - closed)) < 1e-9


def test_11_gate_fidelity_ordering_under_loss():
    lossy = PARAMS.with_(kappa=0.1)
    res_x = qpt.qpt_experiment("x2", lossy)
    res_z = qpt.qpt_experiment("z2", lossy, tau_Z=0.5)
    assert res_z.fidelity < res_x.fidelity
    # photon loss flips between the cat pair, so the slower z gate picks up
    # predominantly X-type error
    assert res_z.chi.component("XX").real > res_z.chi.component("-iY-iY").real


def test_12_adiabatic_gap_band():
    gap = sp.energy_gap(PARAMS.K, PARAMS.P_max, PARAMS.Delta, 30)
    assert 1.2 <= gap / PARAMS.K <= 1.6


def test_13_reruns_are_byte_identical(tmp_path):
    quasi = tmp_path / "quasi.json"
    quasi.write_text(json.dumps({
        "system": {"K_MHz": 3.1, "P_MHz": 3.13, "Delta_MHz": 1.0, "dim": 30},
        "p_over_K_grid": {"start": 0.9, "stop": 1.2, "count": 3},
        "delta_over_K_grid": {"start": 0.1, "stop": 0.5, "count": 3},
    }))
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps({
        "system": {"K_MHz": 3.1, "Delta_MHz": 1.0, "dim": 30},
        "state": {"kind": "cat_even", "alpha": 1.154},
        "points": 9,
        "mode": "simulated",
        "pulse_duration_ns": 20.0,
        "noise_sigma": 0.01,
        "seed": 42,
    }))
    for cfg, name, files in (
            (quasi, "quasi-surface", ("surface.csv", "summary.json")),
            (noisy, "wigner", ("record.jsonl", "wigner.csv", "summary.json"))):
        out1 = tmp_path / f"{name}-r1"
        out2 = tmp_path / f"{name}-r2"
        assert cli.main([name, "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main([name, "--config", str(cfg), "--out", str(out2)]) == 0
        for fname in files:
            assert (out1 / name / fname).read_bytes() == \
                (out2 / name / fname).read_bytes()
