"""Wigner maps, simulated displaced-parity tomography, and reconstruction."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import oracles as orc
from kposim import dynamics as dyn
from kposim import fockspace as fs
from kposim import model as md
from kposim import spectral as sp
from kposim import tomography as tg
from kposim import units
from kposim.errors import (GridExtentError, InvalidDimensionError,
                           ReconstructionError, TruncationError, UsageError)

PARAMS = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=30)
TWO_OVER_PI = 2.0 / np.pi


def test_origin_value_equals_parity_expectation():
    # W(0) = (2/pi) <Pi> for arbitrary mixed states
    rng = np.random.default_rng(7)
    pi = fs.parity_op(25)
    worst = 0.0
    for _ in range(20):
        rho = orc.random_density(25, rng)
        w0 = tg.wigner_ideal(fs.DensityMatrix(rho), [0.0], [0.0]).values[0, 0]
        worst = max(worst, abs(w0 - TWO_OVER_PI * np.real(np.trace(pi @ rho))))
    assert worst < 1e-10


def test_vacuum_is_gaussian():
    grid = np.linspace(-1.5, 1.5, 7)
    wm = tg.wigner_ideal(fs.fock_state(0, 30), grid, grid)
    b = grid[None, :] + 1j * grid[:, None]
    expected = TWO_OVER_PI * np.exp(-2.0 * np.abs(b) ** 2)
    assert np.max(np.abs(wm.values - expected)) < 1e-8


def test_fock_states_alternate_sign_at_origin():
    for n in range(5):
        wm = tg.wigner_ideal(fs.fock_state(n, 30), [0.0])
        assert wm.at_origin() == pytest.approx(TWO_OVER_PI * (-1) ** n,
                                               abs=1e-12)


def test_even_cat_matches_closed_form():
    re = np.linspace(-2.0, 2.0, 21)
    wm = tg.wigner_ideal(fs.cat_state(1.1542, "even", 40), re, re)
    assert np.max(np.abs(wm.values - orc.even_cat_wigner(1.1542, re, re))) < 1e-6


def test_odd_cat_negative_at_origin():
    wm = tg.wigner_ideal(fs.cat_state(1.1542, "odd", 30), [0.0])
    assert wm.at_origin() == pytest.approx(-TWO_OVER_PI, abs=1e-12)


def test_wigner_is_linear_in_the_state():
    grid = np.linspace(-1.0, 1.0, 5)
    r1 = fs.dm(fs.coherent_state(0.6, 25))
    r2 = fs.dm(fs.fock_state(2, 25))
    mix = tg.wigner_ideal(fs.DensityMatrix(0.3 * r1 + 0.7 * r2), grid, grid)
    w1 = tg.wigner_ideal(fs.DensityMatrix(r1), grid, grid)
    w2 = tg.wigner_ideal(fs.DensityMatrix(r2), grid, grid)
    assert np.max(np.abs(mix.values - 0.3 * w1.values - 0.7 * w2.values)) < 1e-12


def test_displacement_covariance():
    # W_{D rho D+}(beta) = W_rho(beta - alpha0)
    a0 = 0.5 + 0.3j
    st = fs.cat_state(0.8, "even", 40)
    a = orc.ladder(40)
    d = expm(a0 * a.conj().T - np.conj(a0) * a)
    shifted = fs.StateVector(d @ st.amplitudes)
    reg = np.linspace(-1.2, 1.2, 9)
    w_shift = tg.wigner_ideal(shifted, reg + a0.real, reg + a0.imag)
    w_orig = tg.wigner_ideal(st, reg, reg)
    assert np.max(np.abs(w_shift.values - w_orig.values)) < 1e-12


def test_wigner_magnitude_bound():
    grid = np.linspace(-2.0, 2.0, 15)
    for state in (fs.cat_state(1.1542, "even", 30),
                  fs.coherent_state(1.2j, 30), fs.fock_state(3, 30)):
        wm = tg.wigner_ideal(state, grid, grid)
        assert np.max(np.abs(wm.values)) <= TWO_OVER_PI + 1e-12


def test_wigner_map_validation():
    grid = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(UsageError):
        tg.WignerMap(grid, grid, np.zeros((4, 3)))
    with pytest.raises(UsageError):
        tg.WignerMap(grid, grid, np.full((3, 3), 1.0))  # exceeds 2/pi
    wm = tg.WignerMap(np.array([0.5, 1.0]), np.array([0.5, 1.0]),
                      np.zeros((2, 2)))
    with pytest.raises(UsageError):
        wm.at_origin()


def test_integral_normalization():
    grid40 = tg.default_grid(40)
    assert tg.wigner_ideal(fs.fock_state(0, 40), grid40).integral() == \
        pytest.approx(1.0, abs=1e-3)
    assert 0.97 <= tg.wigner_ideal(fs.coherent_state(1.7, 40),
                                   grid40).integral() <= 1.01


def test_default_grid_clips_to_truncation_safe_extent():
    g30 = tg.default_grid(30)
    assert g30.size == 81
    assert g30[-1] == pytest.approx(np.sqrt(30) / 2.0, abs=1e-12)
    g40 = tg.default_grid(40)
    assert g40[-1] == pytest.approx(3.0, abs=1e-12)  # the full default window
    assert g40[0] == -g40[-1]


def test_extent_guard():
    with pytest.raises(TruncationError):
        tg.wigner_ideal(fs.fock_state(0, 16), np.linspace(-3.0, 3.0, 5))


# ---------------------------------------------------------------------------
# simulated measurement pulses


def test_pulse_record_converges_to_ideal_parities():
    cat = fs.cat_state(1.1542, "even", 30)
    pts = tg.grid_points(np.linspace(-2.0, 2.0, 9), [0.0])
    ref = tg.ideal_record(cat, pts)
    rms = {}
    for dur in (0.02, 0.01, 0.005, 5e-5):
        rec = tg.simulate_ld_tomography(PARAMS, cat, pts, pulse_duration=dur)
        rms[dur] = float(np.sqrt(np.mean((rec.parities - ref.parities) ** 2)))
    # Kerr distortion during the pulse shrinks with the pulse duration
    assert rms[0.02] == pytest.approx(0.044274582835538145, abs=1e-9)
    assert rms[0.01] == pytest.approx(0.015235178663095575, abs=1e-9)
    assert rms[0.005] == pytest.approx(0.004327592837187596, abs=1e-9)
    assert rms[0.02] > rms[0.01] > rms[0.005] > rms[5e-5]
    assert rms[5e-5] < 1e-4


@pytest.mark.parametrize("kappa", [0.0, 0.1])
@pytest.mark.parametrize("form", ["ket", "density"])
def test_record_rows_match_per_point_propagation(form, kappa):
    # the record stacks the points of equal Im alpha; scrambled points on
    # ragged rows must each come back to their own slot.  Without loss every
    # point is exact from its own eigh, bit for bit, the origin's too, and a
    # ket stays a ket; with loss the stacked DOP853 solve bounds the error of
    # the whole row, and a ket is promoted to exactly its density matrix
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=10,
                                 kappa_per_us=kappa)
    rng = np.random.default_rng(3)
    if form == "ket":
        v = rng.normal(size=10) + 1j * rng.normal(size=10)
        state = fs.StateVector(v / np.linalg.norm(v))
    else:
        state = fs.DensityMatrix(orc.random_density(10, rng))
    grid = tg.grid_points(np.linspace(-1.0, 1.0, 5), [-0.5, 0.0, 0.5])
    # rows of 5, 4, 3 and 1 points
    al = np.random.default_rng(4).permutation(
        np.append(np.delete(grid, [2, 10, 14]), 0.3 + 0.7j))
    rec = tg.simulate_ld_tomography(p, state, al, pulse_duration=0.02)
    drives = -al / tg._linear_displacement_gain(0.02, p.Delta)
    signs = np.diagonal(fs.parity_op(10)).real
    ref = []
    for d in drives:
        seg = md.Segment(duration=0.02, detuning=md.Constant(p.Delta),
                         drive=md.Constant(abs(d)), drive_detuning=0.0,
                         drive_phase=-np.angle(d) if abs(d) > 0 else 0.0)
        traj = dyn.propagate(p, md.PulseSchedule((seg,)), state)
        ref.append(np.clip(traj.populations[-1] @ signs, -1.0, 1.0))
    assert 0j in al
    if kappa == 0.0:
        assert np.array_equal(rec.parities, ref)
    else:
        assert np.max(np.abs(rec.parities - ref)) < 10 * p.rtol
    if form == "ket":
        dens = tg.simulate_ld_tomography(p, fs.DensityMatrix(fs.dm(state)),
                                         al, pulse_duration=0.02)
        if kappa == 0.0:
            assert np.max(np.abs(rec.parities - dens.parities)) < 1e-13
        else:
            assert np.array_equal(rec.parities, dens.parities)


@pytest.mark.parametrize("state", [
    fs.fock_state(0, 8), np.ones(10), 2.0 * np.eye(10) / 10.0],
    ids=["wrong-dim", "unnormalized-ket", "trace-2"])
def test_record_rejects_bad_states_before_propagating(state, monkeypatch):
    def no_propagation(*args, **kwargs):
        raise AssertionError("a segment was propagated")

    monkeypatch.setattr(dyn, "_segment", no_propagation)
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=10)
    with pytest.raises(UsageError):
        tg.simulate_ld_tomography(p, state, [0.0, 0.5j], pulse_duration=0.02)


@pytest.mark.parametrize("duration, detuning", [
    (0.02, units.mhz_to_angular(1.0)), (0.02, 0.0), (0.3, -7.0)])
def test_linear_displacement_gain_matches_the_integrated_pulse(duration,
                                                               detuning):
    def rhs(t, y):
        dal = -1j * detuning * (y[0] + 1j * y[1]) - 1j
        return [dal.real, dal.imag]

    sol = solve_ivp(rhs, (0.0, duration), [0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    ref = complex(sol.y[0, -1], sol.y[1, -1])
    gain = tg._linear_displacement_gain(duration, detuning)
    assert abs(gain - ref) < 1e-12 * abs(ref)


def test_record_validation_and_to_wigner():
    with pytest.raises(UsageError):
        tg.MeasurementRecord(np.array([0.0 + 0j]), np.array([1.5]))
    grid = np.linspace(-1.0, 1.0, 5)
    rec = tg.ideal_record(fs.fock_state(0, 20), tg.grid_points(grid, grid))
    wm = rec.to_wigner(grid, grid)
    direct = tg.wigner_ideal(fs.fock_state(0, 20), grid, grid)
    assert np.max(np.abs(wm.values - direct.values)) < 1e-10


def test_wigner_columns_match_the_pointwise_definition():
    # W(x + iy) = (2/pi) Tr[Pi D† rho D] with D = D(iy) D(x), point by point
    # through expm, on axes of different lengths, both off the origin; an
    # off-axis coherent state catches a swapped axis or a conjugation
    re = np.linspace(-0.6, 1.5, 7)
    im = np.linspace(-0.2, 1.1, 5)
    pts = tg.grid_points(re, im)
    coh = fs.dm(fs.coherent_state(0.7 + 0.4j, 30))
    for rho in (orc.random_density(12, np.random.default_rng(11)), coh):
        dim = rho.shape[0]
        a, adag = fs.ladder_ops(dim)
        pi = fs.parity_op(dim)
        expected = np.empty((im.size, re.size))
        observables = np.empty((pts.size, dim, dim), dtype=complex)
        for r, y in enumerate(im):
            for c, x in enumerate(re):
                d = expm(1j * y * (adag + a)) @ expm(x * (adag - a))
                expected[r, c] = TWO_OVER_PI * np.real(
                    np.trace(pi @ d.conj().T @ rho @ d))
                observables[r * re.size + c] = d @ pi @ d.conj().T
        wm = tg.wigner_ideal(fs.DensityMatrix(rho), re, im)
        assert np.max(np.abs(wm.values - expected)) < 1e-12
        # the record and the reconstruction design split D the same way, so
        # the map equals the record of the same points even where the
        # truncation makes the order matter (0.075 apart on the random state)
        rec = tg.ideal_record(fs.DensityMatrix(rho), pts)
        assert np.max(np.abs(wm.values - TWO_OVER_PI * rec.parities.reshape(
            im.size, re.size))) < 1e-12
        assert np.max(np.abs(tg._displacements(dim).observables(pts)
                             - observables)) < 1e-12


def test_model_cat_map_is_converged_in_the_truncation():
    # the default grid bounds each axis by sqrt(dim)/2, so its corners reach
    # |alpha| = 3.87 at dim 30; there the map stays within 1e-3 of the same
    # state embedded in 120 levels (6.3e-3 with D(x) D(iy))
    cat = md.cat_basis_from_model(PARAMS).plus_cat
    padded = np.zeros(120, dtype=complex)
    padded[:30] = cat.amplitudes
    grid = tg.default_grid(30)
    w30 = tg.wigner_ideal(cat, grid)
    w120 = tg.wigner_ideal(fs.StateVector(padded), grid)
    assert np.max(np.abs(w30.values - w120.values)) < 1e-3


def test_parity_is_conserved_under_pure_kerr():
    seg = md.Segment(duration=0.4, pump=md.Constant(0.0),
                     detuning=md.Constant(0.0))
    traj = dyn.propagate(PARAMS, md.PulseSchedule((seg,)),
                         fs.coherent_state(1.3, 30),
                         sample_times=np.linspace(0.0, 0.4, 9))
    pi = fs.parity_op(30)
    pars = [float(np.real(np.vdot(s, pi @ s))) for s in traj.states]
    assert np.ptp(pars) < 1e-12


def test_kerr_correction_round_trip():
    # free Kerr + detuning evolution is undone exactly by the phase correction
    cat = fs.cat_state(1.1542, "even", 30)
    tau = 0.13
    seg = md.Segment(duration=tau, pump=md.Constant(0.0),
                     detuning=md.Constant(PARAMS.Delta))
    out = dyn.propagate(PARAMS, md.PulseSchedule((seg,)), cat).states[-1]
    fixed = tg.kerr_correct(fs.dm(out), PARAMS.K, PARAMS.Delta, tau)
    assert fs.state_fidelity(fixed, cat) > 1.0 - 1e-6
    assert abs(fixed.purity() - 1.0) < 1e-10


def test_kerr_correction_does_not_undo_pump():
    cat = fs.cat_state(1.1542, "even", 30)
    tau = 0.13
    seg = md.Segment(duration=tau, pump=md.Constant(PARAMS.P_max),
                     detuning=md.Constant(PARAMS.Delta))
    out = dyn.propagate(PARAMS, md.PulseSchedule((seg,)), cat).states[-1]
    fixed = tg.kerr_correct(fs.dm(out), PARAMS.K, PARAMS.Delta, tau)
    fid = fs.state_fidelity(fixed, cat)
    assert fid == pytest.approx(0.7150202312826022, abs=1e-6)
    assert fid < 0.99


def test_kerr_correction_validation():
    rho = fs.dm(fs.fock_state(0, 10))
    with pytest.raises(UsageError):
        tg.kerr_correct(rho, PARAMS.K, PARAMS.Delta, -0.1)
    same = tg.kerr_correct(rho, PARAMS.K, PARAMS.Delta, 0.0)
    assert np.max(np.abs(same.entries - rho)) < 1e-15


# ---------------------------------------------------------------------------
# reconstruction


def _dense_record(rho, dim=20):
    g = np.linspace(-3.0, 3.0, 41)
    return tg.ideal_record(rho, tg.grid_points(g, g))


def test_reconstruction_noiseless():
    cat = fs.cat_state(1.1542, "even", 20)
    rho_hat = tg.reconstruct_density(_dense_record(cat), 20)
    assert fs.state_fidelity(rho_hat, cat) > 0.9999


def test_reconstruction_with_gaussian_readout_noise():
    cat = fs.cat_state(1.1542, "even", 20)
    rec = _dense_record(cat)
    rng = np.random.default_rng(1234)
    noisy = np.clip(rec.parities + rng.normal(0.0, 0.01, rec.parities.size),
                    -1.0, 1.0)
    rho_hat = tg.reconstruct_density(tg.MeasurementRecord(rec.alphas, noisy), 20)
    fid = fs.state_fidelity(rho_hat, cat)
    # the least-squares optimum, certified by an independent projected-
    # gradient run to a KKT residual below 1e-14
    assert fid == pytest.approx(0.98985564805, abs=1e-9)
    assert fid >= 0.97


def test_reconstruction_of_even_odd_mixture():
    mix = 0.5 * fs.dm(fs.cat_state(1.1542, "even", 20)) + \
        0.5 * fs.dm(fs.cat_state(1.1542, "odd", 20))
    rho_hat = tg.reconstruct_density(_dense_record(fs.DensityMatrix(mix)), 20)
    assert rho_hat.purity() == pytest.approx(0.5, abs=1e-6)
    assert fs.state_fidelity(rho_hat, mix) > 0.9999


def test_reconstruction_idempotent():
    cat = fs.cat_state(1.1542, "even", 20)
    rec = _dense_record(cat)
    rng = np.random.default_rng(1234)
    noisy = np.clip(rec.parities + rng.normal(0.0, 0.01, rec.parities.size),
                    -1.0, 1.0)
    first = tg.reconstruct_density(tg.MeasurementRecord(rec.alphas, noisy), 20)
    second = tg.reconstruct_density(_dense_record(first), 20)
    assert fs.state_fidelity(second, first) > 1.0 - 1e-6


def test_reconstruction_in_odd_dimension():
    # at odd dim Tr Pi = 1, so every observable has a nonzero trace offset
    g = np.linspace(-1.5, 1.5, 11)
    cat = fs.cat_state(0.9, "odd", 7)
    rho_hat = tg.reconstruct_density(tg.ideal_record(cat, tg.grid_points(g, g)),
                                     7)
    assert fs.state_fidelity(rho_hat, cat) > 1.0 - 1e-9
    # a full-rank state is its own least-squares warm start, so the first
    # projected step already stays put
    mixed = orc.random_density(7, np.random.default_rng(3))
    rec = tg.ideal_record(fs.DensityMatrix(mixed), tg.grid_points(g, g))
    rho_hat = tg.reconstruct_density(rec, 7, max_iters=1)
    assert np.max(np.abs(rho_hat.entries - mixed)) < 1e-12


def test_reconstruction_error_paths():
    cat = fs.cat_state(1.1542, "even", 20)
    rec = _dense_record(cat)
    with pytest.raises(ReconstructionError):
        tg.reconstruct_density(rec, 20, cond_limit=1.0)
    rng = np.random.default_rng(1234)
    noisy = np.clip(rec.parities + rng.normal(0.0, 0.01, rec.parities.size),
                    -1.0, 1.0)
    with pytest.raises(ReconstructionError):
        tg.reconstruct_density(tg.MeasurementRecord(rec.alphas, noisy), 20,
                               max_iters=2, tol=1e-14)


def test_reconstruction_needs_enough_points():
    g = np.linspace(-2.0, 2.0, 5)
    rec = tg.ideal_record(fs.fock_state(0, 20), tg.grid_points(g, g))
    with pytest.raises(UsageError):
        tg.reconstruct_density(rec, 20)  # 25 < 400 points


def test_wigner_maps_equal_the_per_state_maps_bit_for_bit():
    # one shared displacement per row must not change a single bit
    rng = np.random.default_rng(11)
    states = [fs.cat_state(1.1, "even", 20),
              fs.DensityMatrix(orc.random_density(20, rng)),
              fs.coherent_state(0.7 - 0.4j, 20)]
    re, im = np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 1.5, 7)
    maps = tg.wigner_maps(states, re, im)
    assert len(maps) == len(states)
    for state, wm in zip(states, maps):
        one = tg.wigner_ideal(state, re, im)
        assert np.array_equal(wm.values, one.values)
        assert np.array_equal(wm.re_grid, re)
        assert np.array_equal(wm.im_grid, im)
        assert np.array_equal(tg.wigner_maps([state], re, im)[0].values,
                              one.values)


def test_wigner_maps_reject_an_empty_stack_and_mixed_dims():
    grid = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(UsageError, match="nonempty"):
        tg.wigner_maps([], grid)
    with pytest.raises(InvalidDimensionError, match="one dim"):
        tg.wigner_maps([fs.fock_state(0, 12), fs.fock_state(0, 14)], grid)


# ---------------------------------------------------------------------------
# cat size


def test_cat_size_of_parity_mixture():
    mix = 0.5 * fs.dm(fs.cat_state(1.1542, "even", 30)) + \
        0.5 * fs.dm(fs.cat_state(1.1542, "odd", 30))
    grid = tg.default_grid(30)
    size = tg.cat_size(tg.wigner_ideal(fs.DensityMatrix(mix), grid))
    assert size == pytest.approx(1.1650735202074691, abs=1e-9)
    step = grid[1] - grid[0]
    assert abs(size - 1.1542) < step + 0.02 * 1.1542


def test_cat_size_of_coherent_state():
    wm = tg.wigner_ideal(fs.coherent_state(0.9, 30), tg.default_grid(30))
    assert tg.cat_size(wm) == pytest.approx(0.9, abs=1e-3)


def test_cat_size_tracks_stationary_amplitude_with_detuning():
    # pair-mixture lobe positions follow sqrt((P + Delta)/K) within a few
    # percent of the grid-limited estimate
    for dmhz in (0.5, 1.0, 1.5):
        dl = units.mhz_to_angular(dmhz)
        spec = sp.quasienergies(PARAMS.K, PARAMS.P_max, dl, 30)
        i_e, i_o = spec.qubit_indices
        pair = 0.5 * (fs.dm(spec.states[:, i_e]) + fs.dm(spec.states[:, i_o]))
        wm = tg.wigner_ideal(fs.DensityMatrix(pair),
                             tg.default_grid(30, points=61))
        target = np.sqrt((PARAMS.P_max + dl) / PARAMS.K)
        assert abs(tg.cat_size(wm) - target) / target < 0.05


def test_cat_size_boundary_guard():
    # a maximum on the grid edge is reported, not silently refined
    grid = np.linspace(-0.5, 0.5, 11)
    wm = tg.wigner_ideal(fs.coherent_state(0.9, 30), grid, grid)
    with pytest.raises(GridExtentError):
        tg.cat_size(wm)
