"""Hamiltonian construction, pulse envelopes, and the model cat basis."""

import numpy as np
import pytest
from scipy.integrate import DOP853, trapezoid

from kposim import dynamics as dyn
from kposim import fockspace as fs
from kposim import model as md
from kposim import units
from kposim.errors import BasisError, ScheduleError, UsageError

import oracles as orc


PARAMS = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=30)


def test_params_units_roundtrip():
    assert PARAMS.K == pytest.approx(2 * np.pi * 3.1)
    assert units.angular_to_mhz(PARAMS.P_max) == pytest.approx(3.13)
    assert PARAMS.dim == 30


def test_params_validation():
    with pytest.raises(UsageError):
        md.SystemParams.from_mhz(-1.0)
    with pytest.raises(UsageError):
        md.SystemParams.from_mhz(3.1, kappa_per_us=-0.2)


@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("value", [0.0, -1e-9])
def test_params_tolerances_must_be_positive(name, value):
    with pytest.raises(UsageError, match=name):
        PARAMS.with_(**{name: value})


@pytest.mark.parametrize("name", ["K", "P_max", "Delta", "beta", "kappa",
                                  "rtol", "atol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_params_fields_must_be_finite(name, value):
    # a NaN kappa would fail "kappa > 0" and silently run without loss
    with pytest.raises(UsageError, match=f"{name} must be finite"):
        PARAMS.with_(**{name: value})


def test_kerr_only_hamiltonian_diagonal():
    p = md.SystemParams.from_mhz(3.1, 0.0, 0.0, 0.0, dim=12)
    sched = md.hold_schedule(1.0, 0.0, 0.0)
    h = md.hamiltonian_at(p, sched, 0.5)
    n = np.arange(12)
    assert np.max(np.abs(np.diag(h) - (-0.5 * p.K * n * (n - 1)))) < 1e-12
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_hamiltonian_matches_handbuilt():
    sched = md.hold_schedule(1.0, PARAMS.P_max, PARAMS.Delta)
    h = md.hamiltonian_at(PARAMS, sched, 0.3)
    ref = orc.kpo_hamiltonian(PARAMS.K, PARAMS.P_max, PARAMS.Delta, 30)
    # entries reach ~1e3 rad/us; 1e-9 absolute is still machine-level here
    assert np.max(np.abs(h - ref)) < 1e-9


def test_hamiltonian_hermitian_along_schedule():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta).then(
        md.drive_schedule(0.2, PARAMS.beta, 1.0, 0.4, PARAMS.P_max, PARAMS.Delta))
    for t in np.linspace(0.0, sched.total_duration, 41):
        h = md.hamiltonian_at(PARAMS, sched, t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_hamiltonian_time_out_of_range():
    sched = md.hold_schedule(0.5, PARAMS.P_max, PARAMS.Delta)
    with pytest.raises(ScheduleError):
        md.hamiltonian_at(PARAMS, sched, 0.7)


def test_parity_conservation_without_drive():
    # [H, Pi] = 0 exactly at every t when beta = 0
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta).then(
        md.chirp_schedule(2.0, 0.4, PARAMS.P_max, PARAMS.Delta))
    pi = fs.parity_op(30)
    for t in (0.0, 0.11, 0.3, 0.45, 0.7):
        h = md.hamiltonian_at(PARAMS, sched, t)
        assert np.max(np.abs(h @ pi - pi @ h)) == 0.0


def test_schedule_evaluation_deterministic():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    h1 = md.hamiltonian_at(PARAMS, sched, 0.1234567)
    h2 = md.hamiltonian_at(PARAMS, sched, 0.1234567)
    assert np.array_equal(h1, h2)


def test_ramp_envelope_endpoints():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    seg = sched.segments[0]
    assert seg.pump.value(0.0) == pytest.approx(0.0, abs=1e-12)
    assert seg.pump.value(0.3) == pytest.approx(PARAMS.P_max, abs=1e-9)
    # sin^2(pi t / 2 tau) profile at the midpoint
    assert seg.pump.value(0.15) == pytest.approx(0.5 * PARAMS.P_max)


def test_counterdiabatic_term_midpoint():
    # the auxiliary chirp depth at t = tau/2 corresponds to 0.3 P_max
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    seg = sched.segments[0]
    cd = seg.detuning.value(0.15) - seg.detuning_value(0.15)
    assert cd == pytest.approx(0.3 * PARAMS.P_max, rel=1e-9)
    # off at both ends: the detuning returns to the nominal value
    assert seg.detuning_value(0.0) == pytest.approx(PARAMS.Delta)
    assert seg.detuning_value(0.3) == pytest.approx(PARAMS.Delta, abs=1e-9)


def test_ramp_without_counterdiabatic():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta,
                             counterdiabatic=False)
    seg = sched.segments[0]
    assert seg.detuning_value(0.15) == pytest.approx(PARAMS.Delta)


def test_mapping_fidelity_against_expm_oracle():
    # adaptive integrator vs independent fine-step midpoint-expm product
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    basis = md.cat_basis_from_model(PARAMS)
    psi_pkg = dyn.propagate(PARAMS, sched, fs.fock_state(0, 30)).states[-1]
    psi_orc = orc.expm_propagate(PARAMS, sched, fs.fock_state(0, 30).amplitudes,
                                 n_steps=3000)
    assert abs(np.vdot(psi_pkg, psi_orc)) ** 2 > 1.0 - 1e-9
    fid = abs(np.vdot(basis.plus_cat.amplitudes, psi_pkg)) ** 2
    assert fid == pytest.approx(0.9912650608839326, abs=1e-9)
    assert fid >= 0.99


def test_chirp_zero_depth_is_wait():
    sched = md.chirp_schedule(0.0, 0.5, PARAMS.P_max, PARAMS.Delta)
    assert sched.total_frame_phase == 0.0
    basis = md.cat_basis_from_model(PARAMS)
    out = dyn.propagate(PARAMS, sched, basis.plus_cat).states[-1]
    # identity up to the deterministic quasienergy phase
    assert abs(np.vdot(basis.plus_cat.amplitudes, out)) ** 2 > 1.0 - 1e-9


def test_chirp_frame_phase_closed_form():
    # integral of sin^2(pi t / tau) over the pulse is tau/2
    dp, tau = 3.7, 0.42
    sched = md.chirp_schedule(dp, tau, PARAMS.P_max, PARAMS.Delta)
    assert sched.total_frame_phase == pytest.approx(dp * tau / 4.0, rel=1e-12)


def test_chirp_rotates_plus_coh_counterclockwise():
    basis = md.cat_basis_from_model(PARAMS)
    cards = fs.cardinal_states(basis)
    azimuths = []
    for dp_mhz in (0.0, 0.3, 0.6, 0.9, 1.2):
        sched = md.chirp_schedule(units.mhz_to_angular(dp_mhz), 0.5,
                                  PARAMS.P_max, PARAMS.Delta)
        out = dyn.propagate(PARAMS, sched, cards["+Coh"]).states[-1]
        arr = fs.cardinal_populations(out, basis)
        azimuths.append(np.arctan2(arr[4] - arr[5], arr[2] - arr[3]))
    assert np.all(np.diff(azimuths) > 0)


def test_double_chirp_frame_phase_and_parity():
    # a sin^2 chirp is its own time reverse; two in a row give delta*tau/2
    # and, with no drive on, conserve the parity-sector populations exactly
    dp = units.mhz_to_angular(1.0)
    single = md.chirp_schedule(dp, 0.4, PARAMS.P_max, PARAMS.Delta)
    double = single.then(single)
    assert double.total_frame_phase == pytest.approx(dp * 0.4 / 2.0, rel=1e-12)
    basis = md.cat_basis_from_model(PARAMS)
    psi0 = fs.cardinal_states(basis)["+Coh"]
    out = dyn.propagate(PARAMS, double, psi0).states[-1]
    even = np.arange(30) % 2 == 0
    p_even0 = np.sum(np.abs(psi0.amplitudes[even]) ** 2)
    p_even1 = np.sum(np.abs(out[even]) ** 2)
    assert abs(p_even1 - p_even0) < 1e-8


def test_drive_under_a_constant_chirp_is_not_static():
    # a constant chirp advances the frame phase, which the drive phase
    # subtracts, so H(t) turns even at zero drive detuning
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=12)
    seg = md.Segment(duration=0.5, pump=md.Constant(p.P_max),
                     detuning=md.Constant(p.Delta),
                     chirp=md.Constant(units.mhz_to_angular(1.0)),
                     drive=md.Constant(p.beta))
    sched = md.PulseSchedule((seg,))
    assert not seg.is_static()
    assert md.Segment(duration=0.5, chirp=md.Constant(1.0)).is_static()
    h_a = md.hamiltonian_at(p, sched, 0.1)
    h_b = md.hamiltonian_at(p, sched, 0.4)
    assert np.max(np.abs(h_a - h_b)) > 1.0
    psi0 = fs.fock_state(0, 12)
    out = dyn.propagate(p.with_(rtol=1e-10, atol=1e-12), sched,
                        psi0).states[-1]
    ref = orc.expm_propagate(p, sched, psi0.amplitudes, n_steps=2000)
    assert np.max(np.abs(out - ref)) < 1e-6


@pytest.mark.parametrize("chirp_mhz", [None, 2.0])
def test_drive_zero_at_its_start_keeps_its_phase(chirp_mhz):
    # a half-sine drive starts at zero, so c at the segment start is real;
    # the complex drive terms after it must still carry the phase, alone
    # and after a chirp that retards it
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=12)
    sched = _zero_start_drive(p, md.SinBump(3.0 * p.beta, 0.15), 0.0, 0.7)
    if chirp_mhz is not None:
        sched = md.chirp_schedule(units.mhz_to_angular(chirp_mhz), 0.2,
                                  p.P_max, p.Delta).then(sched)
    psi0 = fs.fock_state(0, 12)
    out = dyn.propagate(p.with_(rtol=1e-10, atol=1e-12), sched,
                        psi0).states[-1]
    ref = orc.expm_propagate(p, sched, psi0.amplitudes, n_steps=2000)
    assert np.max(np.abs(out - ref)) < 1e-6


def test_drive_two_level_leakage():
    # weak resonant drive on the Kerr ladder stays a |0>,|1> two-level system
    beta = 0.05 * PARAMS.K
    tg = np.linspace(0.0, np.pi / beta, 60)
    sched = md.drive_schedule(tg[-1], beta, 0.0, 0.0, 0.0, 0.0)
    traj = dyn.propagate(PARAMS, sched, fs.fock_state(0, 30), sample_times=tg)
    leak = max(1.0 - abs(s[0]) ** 2 - abs(s[1]) ** 2 for s in traj.states)
    assert leak < 0.02


def test_tls_variants_agree_on_resonance():
    for t in (0.0, 0.37, 1.9):
        hd = orc.tls_rabi_hamiltonian("symmetrized", 2.0, 0.0, t)
        hs = orc.tls_rabi_hamiltonian("standard", 2.0, 0.0, t)
        sx = np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(hd - sx)) < 1e-12
        assert np.max(np.abs(hs - sx)) < 1e-12


def test_tls_unknown_variant():
    with pytest.raises(UsageError):
        orc.tls_rabi_hamiltonian("other", 1.0, 0.0, 0.0)
    with pytest.raises(UsageError, match="variant"):
        dyn.tls_rabi_map("other", 1.0, [0.0], [0.0])


def test_tls_symmetrized_map_even():
    det = np.linspace(-4.0, 4.0, 9)
    tg = np.linspace(0.0, 2.0, 11)
    m = dyn.tls_rabi_map("symmetrized", 2.5, det, tg)
    assert np.max(np.abs(m - m[::-1, :])) < 1e-9


def test_tls_standard_chevron_closed_form():
    det = np.array([-3.0, -1.0, 0.0, 2.0])
    tg = np.linspace(0.0, 3.0, 25)
    m = dyn.tls_rabi_map("standard", 2.0, det, tg)
    for d, row in zip(det, m):
        assert np.max(np.abs(row - orc.chevron_excited(2.0, d, tg))) < 1e-8


@pytest.mark.parametrize("variant", ["standard", "symmetrized"])
def test_tls_map_matches_the_integrated_hamiltonian(variant):
    det = np.array([-3.0, -1.0, 0.0, 0.4, 2.0])
    tg = np.linspace(0.0, 3.0, 25)
    m = dyn.tls_rabi_map(variant, 2.0, det, tg)
    for d, row in zip(det, m):
        ref = orc.tls_excited(variant, 2.0, d, tg)
        assert np.max(np.abs(row - ref)) < 1e-8


@pytest.mark.parametrize("case", ["chirp-ramp", "drive-after-chirp",
                                  "symmetrized-drive"])
def test_hamiltonian_terms_rebuild_the_hamiltonian(case):
    # Kerr diagonal + sum_i c_i(t) O_i, with the segment's coefficient
    # function and hand-built O_i, inside every segment and on both of its
    # boundaries
    p = PARAMS.with_(dim=12)
    if case == "chirp-ramp":
        sched = md.ramp_schedule(p.P_max, 0.3, p.Delta).then(
            md.hold_schedule(0.1, p.P_max, p.Delta))
    elif case == "drive-after-chirp":
        sched = md.chirp_schedule(units.mhz_to_angular(2.0), 0.2, p.P_max,
                                  p.Delta).then(
            md.drive_schedule(0.15, p.beta, 1.3, 0.7, p.P_max, p.Delta))
    else:
        seg = md.Segment(duration=0.15, pump=md.Constant(p.P_max),
                         detuning=md.Constant(p.Delta),
                         drive=md.Cosine(p.beta, 1.3, 0.7))
        sched = md.ramp_schedule(p.P_max, 0.3, p.Delta).then((seg,))
    a = orc.ladder(p.dim)
    ad = a.conj().T
    ops = (ad @ a, ad @ ad + a @ a, ad, a)
    kerr = -0.5 * p.K * (ad @ ad @ a @ a)
    start = 0.0
    for index, seg in enumerate(sched.segments):
        c = sched.coefficients(index)
        for frac in (0.0, 0.37, 0.81, 1.0):
            t = start + frac * seg.duration
            h = kerr + sum(ci * op for ci, op in zip(c(t), ops))
            ref = md.hamiltonian_at(p, sched, t, index)
            assert np.max(np.abs(h - ref)) < 1e-12
        start += seg.duration


def _zero_start_drive(p, drive, drive_detuning, drive_phase):
    return md.PulseSchedule((md.Segment(
        duration=0.15, pump=md.Constant(p.P_max),
        detuning=md.Constant(p.Delta), drive=drive,
        drive_detuning=drive_detuning, drive_phase=drive_phase),))


def _stack_family(case):
    """Schedules of equal segment durations that differ member by member."""
    p = PARAMS
    if case == "ramp-then-hold":
        # SinSquaredRamp pumps, SinBump chirps beside a zero chirp
        return [md.ramp_schedule(P, 0.3, D, counterdiabatic=cd).then(
            md.hold_schedule(0.1, P, D))
            for P, D, cd in ((p.P_max, p.Delta, True), (0.7 * p.P_max, 0.0,
                                                        True),
                             (p.P_max, p.Delta, False))]
    if case == "chirp-then-drive":
        # the chirp's frame phase retards the drive phase after it
        return [md.chirp_schedule(units.mhz_to_angular(dp), 0.2, p.P_max,
                                  p.Delta).then(
            md.drive_schedule(0.15, p.beta, dd, phi, p.P_max, p.Delta))
            for dp, dd, phi in ((0.0, 0.0, 0.0), (2.0, 1.3, 0.7),
                                (4.0, 0.0, -0.4))]
    if case == "zero-at-start":
        # every drive is zero where its segment starts, so each member's c
        # gives a real row there; the drive phases must survive after it
        def member(dp, drive, dd, phi):
            return md.chirp_schedule(units.mhz_to_angular(dp), 0.2, p.P_max,
                                     p.Delta).then(_zero_start_drive(
                                         p, drive, dd, phi))
        return [member(0.0, md.SinBump(p.beta, 0.15), 0.0, 0.7),
                member(0.0, md.SinSquaredRamp(p.beta, 0.15), 1.3, 0.0),
                member(2.0, md.SinBump(p.beta, 0.15), 0.0, 0.0)]
    if case == "shared":
        # every term the same in every member
        return [md.ramp_schedule(p.P_max, 0.3, p.Delta).then(
            md.drive_schedule(0.15, p.beta, 1.3, 0.7, p.P_max, p.Delta))] * 3
    # one envelope class per member in the drive slot, Cosine at omega = 0
    # and omega != 0, with and without a drive detuning
    drives = [(md.Cosine(p.beta, 0.0, 0.3), 0.0), (md.Cosine(p.beta, 2.5), 0.0),
              (md.Cosine(p.beta, -1.5, 0.9), 1.1), (md.Constant(p.beta), 0.8),
              (md.Constant(0.0), 0.0), (md.SinSquaredRamp(p.beta, 0.2), 0.0),
              (md.SinBump(p.beta, 0.2), -0.6),
              (md.SinSquaredBump(p.beta, 0.2), 0.0)]
    return [md.PulseSchedule((md.Segment(
        duration=0.2, pump=md.Constant(p.P_max), detuning=md.Constant(p.Delta),
        chirp=md.SinSquaredBump(units.mhz_to_angular(1.0), 0.2) if k == 6
        else md.Constant(0.0),
        drive=drive, drive_detuning=dd, drive_phase=0.2 * k),))
        for k, (drive, dd) in enumerate(drives)]


@pytest.mark.parametrize("case", ["ramp-then-hold", "chirp-then-drive",
                                  "zero-at-start", "shared",
                                  "envelope-classes"])
def test_coefficient_stack_is_each_members_coefficients(case):
    # bit for bit, at both ends of every segment and inside it; a term
    # flagged still is the same at every time.  An array of times, such as
    # the stage times of a DOP853 step, gives each time's rows bit for bit.
    scheds = _stack_family(case)
    start = 0.0
    for index, seg in enumerate(scheds[0].segments):
        stack, moving = md.coefficient_stack(scheds, index)
        # the ends, two inner points, a step's stage times and a dense grid,
        # on which a last-bit difference between the scalar and the array
        # form of an envelope shows
        fracs = np.concatenate(([0.0, 0.37, 0.81, 1.0],
                                0.52 + 0.06 * DOP853.C[1:],
                                np.linspace(0.0, 1.0, 401)))
        times = start + fracs * seg.duration
        at_once = stack(times)
        assert at_once.shape == (times.size, len(scheds), 4)
        assert stack(times[:15].reshape(3, 5)).shape == (3, 5, len(scheds), 4)
        for t, stacked in zip(times, at_once):
            rows = stack(t)
            assert rows.shape == (len(scheds), 4)
            assert np.array_equal(stacked, rows)
            for row, sched in zip(rows, scheds):
                assert np.array_equal(row, sched.coefficients(index)(t))
            assert np.array_equal(rows[:, ~moving], at_once[0][:, ~moving])
        start += seg.duration


@pytest.mark.parametrize("P_rel, Delta_rel, dim", [
    (1.01, 0.32, 30),     # the operating point
    (1.01, 0.32, 31),     # odd dim: the even sector is one level larger
    (0.5, -0.5, 17),      # alpha_c = 0 at a nonzero pump
    (0.2, -1.0, 16),      # P + Delta < 0: alpha_c clipped to 0
])
def test_qubit_pair_matches_the_complex_hermitian_oracle(P_rel, Delta_rel,
                                                         dim):
    K = PARAMS.K
    sectors, picks, overlaps = md._qubit_pair(K, P_rel * K, Delta_rel * K, dim)
    energies, want_picks, want_overlaps = orc.qubit_pair(
        K, P_rel * K, Delta_rel * K, dim)
    for (vals, _), want in zip(sectors, energies):
        np.testing.assert_allclose(vals[0], want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))
    assert list(picks[0]) == want_picks
    np.testing.assert_allclose(np.abs(overlaps[0]), want_overlaps, rtol=0,
                               atol=1e-10)


def test_sector_eigenvectors_are_real():
    # the sector blocks are real symmetric; a complex cast would double the
    # cost of every sector solve
    sectors = md._qubit_pair(PARAMS.K, [PARAMS.P_max, 0.0],
                             [PARAMS.Delta, 0.0], 15)[0]
    for energies, states in sectors:
        assert energies.dtype == np.float64
        assert states.dtype == np.float64


def test_cat_basis_overlap_with_analytic_cat():
    basis = md.cat_basis_from_model(PARAMS)
    alpha_c = np.sqrt((PARAMS.P_max + PARAMS.Delta) / PARAMS.K)
    even = fs.cat_state(alpha_c, "even", 30)
    odd = fs.cat_state(alpha_c, "odd", 30)
    plus, minus = basis.plus_cat.amplitudes, basis.minus_cat.amplitudes
    assert abs(np.vdot(plus, even.amplitudes)) ** 2 >= 0.98
    assert abs(np.vdot(minus, odd.amplitudes)) ** 2 >= 0.98
    assert abs(np.vdot(plus, minus)) < 1e-10


def test_cat_basis_phase_convention():
    # <+Coh|+Cat> = 1/sqrt(2), real positive by construction
    basis = md.cat_basis_from_model(PARAMS)
    plus_coh = fs.cardinal_states(basis)["+Coh"]
    ov = np.vdot(plus_coh.amplitudes, basis.plus_cat.amplitudes)
    assert ov.real > 0
    assert abs(ov.imag) < 1e-12


def test_cat_basis_exact_at_zero_detuning():
    # with Delta = 0 the Hamiltonian factors and the analytic cats are exact
    # eigenstates, so the overlap saturates at 1 for every pump strength
    for p_over_k in (1.0, 2.0, 4.0):
        p = md.SystemParams.from_mhz(3.1, 3.1 * p_over_k, 0.0, dim=40)
        basis = md.cat_basis_from_model(p)
        target = fs.cat_state(np.sqrt(p_over_k), "even", 40)
        assert abs(np.vdot(basis.plus_cat.amplitudes,
                           target.amplitudes)) ** 2 > 1.0 - 1e-9


def test_cat_basis_converges_to_analytic_cats():
    # at finite detuning the eigenstates approach the analytic cats
    # monotonically as the pump grows
    overlaps = []
    for p_over_k in (1.0, 1.5, 2.0, 3.0, 4.0):
        p = md.SystemParams.from_mhz(3.1, 3.1 * p_over_k, 0.3 * 3.1, dim=40)
        basis = md.cat_basis_from_model(p)
        alpha_c = np.sqrt((p.P_max + p.Delta) / p.K)
        target = fs.cat_state(alpha_c, "even", 40)
        overlaps.append(abs(np.vdot(basis.plus_cat.amplitudes,
                                    target.amplitudes)) ** 2)
    assert np.all(np.diff(overlaps) > 0)
    assert overlaps[0] > 0.98
    assert overlaps[-1] > 1.0 - 1e-3


def test_cat_basis_rejects_far_from_cat_regime():
    # detuning-dominated spectrum: eigenstates are Fock-like, not cats
    p = md.SystemParams.from_mhz(3.1, 0.05, 3.0, dim=30)
    with pytest.raises(BasisError):
        md.cat_basis_from_model(p)


def test_cosine_envelope_value_and_integral():
    env = md.Cosine(1.3, 2.1, 0.4)
    ts = np.linspace(0.0, 1.5, 7)
    for t in ts:
        assert env.value(t) == pytest.approx(1.3 * np.cos(2.1 * t + 0.4))
    # integral against a fine Riemann sum
    tt = np.linspace(0.0, 1.5, 200001)
    riemann = trapezoid(1.3 * np.cos(2.1 * tt + 0.4), tt)
    assert env.integral(1.5) == pytest.approx(riemann, abs=1e-8)


def test_resonant_cosine_drive_with_a_phase_is_static():
    # A cos(phi) is constant in time: the segment is propagated exactly
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=20)
    assert md.Cosine(p.beta, 0.0, 0.7).is_constant()
    assert not md.Cosine(p.beta, 1.3, 0.0).is_constant()
    seg = md.Segment(duration=0.5, pump=md.Constant(p.P_max),
                     detuning=md.Constant(p.Delta),
                     drive=md.Cosine(p.beta, 0.0, 0.7))
    assert seg.is_static()
    traj = dyn.propagate(p, md.PulseSchedule((seg,)), fs.fock_state(0, 20))
    assert traj.meta["segments"] == [{"solver": "eigh", "nfev": 0}]


def test_pump_continuity_check():
    ramp = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    with pytest.raises(ScheduleError):
        ramp.then(md.hold_schedule(0.2, 0.0, PARAMS.Delta))
