"""Propagation, Rabi maps, relaxation series, and curve fitting."""

import threading

import numpy as np
import pytest

from kposim import dynamics as dyn
from kposim import fockspace as fs
from kposim import model as md
from kposim import units
from kposim.errors import (AccuracyError, DegenerateDataError, FitError,
                           UsageError)
from kposim.parallel import parallel_map

import oracles as orc


PARAMS = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=30)


def test_parallel_map_runs_in_order_in_the_calling_thread():
    seen = []

    def fn(x):
        seen.append((x, threading.get_ident()))
        return 10 * x

    assert parallel_map(fn, [3, 1, 2]) == [30, 10, 20]
    caller = threading.get_ident()
    assert seen == [(3, caller), (1, caller), (2, caller)]


def test_parallel_map_raises_the_first_failure_and_stops():
    class ItemError(Exception):
        pass

    ran = []

    def fn(x):
        ran.append(x)
        if x >= 2:
            raise ItemError(x)
        return x

    with pytest.raises(ItemError) as info:
        parallel_map(fn, [0, 1, 2, 3, 4])
    assert info.value.args == (2,)
    assert ran == [0, 1, 2]


def test_constant_diagonal_hamiltonian_exact_phases():
    # pure Kerr evolution of a Fock superposition: amplitudes pick up
    # e^{-i E_n t} with E_n = -(K/2) n(n-1)
    p = md.SystemParams.from_mhz(3.1, 0.0, 0.0, 0.0, dim=12)
    amps = np.zeros(12, dtype=complex)
    amps[[0, 1, 3]] = np.sqrt([0.5, 0.3, 0.2])
    psi0 = fs.StateVector(amps)
    t_end = 0.7
    sched = md.hold_schedule(t_end, 0.0, 0.0)
    out = dyn.propagate(p, sched, psi0).states[-1]
    n = np.arange(12)
    expected = amps * np.exp(1j * 0.5 * p.K * n * (n - 1) * t_end)
    assert np.max(np.abs(out - expected)) < 1e-9


def test_single_photon_decay():
    # H diagonal and rho diagonal: populations decay exactly as rate eqs say
    p = md.SystemParams.from_mhz(3.1, 0.0, 0.0, 0.0, dim=8, kappa_per_us=0.1)
    sched = md.hold_schedule(3.0, 0.0, 0.0)
    times = np.linspace(0.5, 3.0, 6)
    traj = dyn.propagate(p, sched, fs.fock_state(1, 8), sample_times=times)
    for t, state in zip(times, traj.states):
        assert state[1, 1].real == pytest.approx(np.exp(-0.1 * t), abs=1e-6)


def test_lindblad_matches_rk4_oracle():
    p = md.SystemParams.from_mhz(3.1, 2.0, 0.5, dim=12)
    sched = md.hold_schedule(1.0, p.P_max, p.Delta)
    rho0 = fs.DensityMatrix(fs.dm(fs.cat_state(1.0, "even", 12)))
    out = dyn.propagate(p.with_(kappa=0.3), sched, rho0).states[-1]
    # agreement is limited by the oracle's own fixed-step error (~3e-8 here)
    ref = orc.rk4_propagate_lindblad(p, sched, rho0.entries, 0.3, n_steps=8000)
    assert np.max(np.abs(out - ref)) < 1e-7


def _phased_drive_schedule(p, duration):
    # constant drive at zero drive detuning with a nonzero phase: a static
    # segment, and the shape of one displaced-parity tomography point
    return md.drive_schedule(duration, p.beta, 0.0, 0.7, p.P_max, p.Delta)


def test_exact_density_path_matches_the_ket_path_for_a_pure_state():
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=16)
    sched = _phased_drive_schedule(p, 0.4)
    psi0 = md.cat_basis_from_model(p).plus_cat
    times = np.linspace(0.0, 0.4, 6)
    kets = dyn.propagate(p, sched, psi0, sample_times=times)
    rhos = dyn.propagate(p, sched, fs.DensityMatrix(fs.dm(psi0)),
                         sample_times=times)
    assert rhos.meta["branch"] == "lindblad"
    assert rhos.meta["nfev"] == 0
    for ket, rho in zip(kets.states, rhos.states):
        assert np.max(np.abs(rho - np.outer(ket, ket.conj()))) < 1e-12


def test_exact_density_path_matches_expm_for_a_mixed_state():
    from scipy.linalg import expm

    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=12)
    sched = _phased_drive_schedule(p, 0.5)
    rho0 = orc.random_density(12, np.random.default_rng(3))
    times = np.array([0.05, 0.2, 0.35, 0.5])
    traj = dyn.propagate(p, sched, fs.DensityMatrix(rho0), sample_times=times)
    H = md.hamiltonian_at(p, sched, 0.25)
    for t, rho in zip(times, traj.states):
        u = expm(-1j * H * t)
        assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-10


def test_mixed_static_and_driven_schedule_matches_the_ket_path():
    # driven ramp, static drive pulse, driven chirp, static hold
    ramp = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    sched = (ramp.then(_phased_drive_schedule(PARAMS, 0.1))
             .then(md.chirp_schedule(units.mhz_to_angular(1.0), 0.2,
                                     PARAMS.P_max, PARAMS.Delta))
             .then(md.hold_schedule(0.15, PARAMS.P_max, PARAMS.Delta)))
    times = np.array([0.2, 0.35, 0.4, 0.5, 0.7, 0.75])
    psi0 = fs.fock_state(0, 30)
    tight = PARAMS.with_(rtol=1e-10, atol=1e-12)
    kets = dyn.propagate(tight, sched, psi0, sample_times=times)
    rhos = dyn.propagate(tight, sched, fs.DensityMatrix(fs.dm(psi0)),
                         sample_times=times)
    assert [s["solver"] for s in rhos.meta["segments"]] == \
        ["eigenframe DOP853", "eigh", "eigenframe DOP853", "eigh"]
    for ket, rho in zip(kets.states, rhos.states):
        assert np.max(np.abs(rho - np.outer(ket, ket.conj()))) < 1e-8


@pytest.mark.parametrize("case", ["phased-drive-mixed", "pumped-hold-cat"])
def test_lossy_static_segment_matches_liouvillian_expm(case):
    # a constant drive with a nonzero phase breaks parity, so the eigenframe
    # path integrates the dissipator; a drive-free hold is exact per parity
    # block
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=10)
    if case == "phased-drive-mixed":
        sched = _phased_drive_schedule(p, 0.5)
        rho0 = orc.random_density(10, np.random.default_rng(5))
        times = np.array([0.05, 0.2, 0.35, 0.5])
        solver = "eigenframe DOP853"
    else:
        sched = md.hold_schedule(2.0, p.P_max, p.Delta)
        rho0 = fs.dm(fs.cat_state(1.0, "even", 10))
        times = np.linspace(0.25, 2.0, 8)
        solver = "parity-block expm"
    traj = dyn.propagate(p.with_(kappa=0.2), sched, fs.DensityMatrix(rho0),
                         sample_times=times)
    assert traj.meta["segments"][0]["solver"] == solver
    ref = orc.expm_propagate_lindblad(p, sched, rho0, 0.2, times)
    for rho, r in zip(traj.states, ref):
        assert np.max(np.abs(rho - r)) < 1e-8


def test_lossy_static_and_driven_schedule_matches_liouvillian_expm():
    # lossy hold, driven ramp, lossy hold; the tolerances are tightened so
    # that the driven segment's integration error stays clear of the bound
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=6)
    sched = md.hold_schedule(0.1, 0.0, p.Delta).then(
        md.ramp_schedule(p.P_max, 0.3, p.Delta)).then(
        md.hold_schedule(0.2, p.P_max, p.Delta))
    rho0 = orc.random_density(6, np.random.default_rng(7))
    times = np.array([0.05, 0.1, 0.25, 0.4, 0.5, 0.6])
    traj = dyn.propagate(p.with_(kappa=0.2, rtol=1e-10, atol=1e-12), sched,
                         fs.DensityMatrix(rho0), sample_times=times)
    assert [s["solver"] for s in traj.meta["segments"]] == \
        ["parity-block expm", "eigenframe DOP853", "parity-block expm"]
    ref = orc.expm_propagate_lindblad(p, sched, rho0, 0.2, times, n_steps=160)
    for rho, r in zip(traj.states, ref):
        assert np.max(np.abs(rho - r)) < 1e-8


@pytest.mark.parametrize("dim, times", [
    (10, np.linspace(0.25, 2.0, 8)),
    (7, np.linspace(0.25, 2.0, 8)),
    (10, np.array([0.01, 0.3, 0.35, 1.2, 1.9, 2.0])),
    (10, np.linspace(0.25, 2.0, 8)
     + 5e-12 * np.array([0, 1, -1, 1, 0, -1, 1, 0])),
], ids=["dim10", "dim7", "nonuniform", "jittered"])
def test_exact_hold_matches_liouvillian_expm(dim, times):
    # a mixed state fills both parity blocks; the odd dim gives them
    # unequal even and odd sectors.  The jittered gaps (|delta| ||L||_1
    # up to 8e-9) reuse one exponential through the first-order correction
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=dim)
    sched = md.hold_schedule(2.0, p.P_max, p.Delta)
    rho0 = orc.random_density(dim, np.random.default_rng(11))
    traj = dyn.propagate(p.with_(kappa=0.2), sched, fs.DensityMatrix(rho0),
                         sample_times=times)
    assert traj.meta["segments"] == [{"solver": "parity-block expm",
                                      "nfev": 0}]
    assert np.array_equal(traj.times, times)
    ref = orc.expm_propagate_lindblad(p, sched, rho0, 0.2, times)
    for rho, r in zip(traj.states, ref):
        assert np.max(np.abs(rho - r)) < 1e-11


class _Flat(md.Envelope):
    """A constant level that does not call itself constant."""

    def __init__(self, level):
        self.level = level

    def value(self, t):
        return self.level

    def integral(self, t):
        return self.level * t


def test_exact_hold_matches_tight_dop853_on_the_relax_grid():
    # the relax benchmark's hold: dim 16, 46 samples over 4.5 us, from the
    # cat-Bloch x cardinal; a pump that is flat but not flagged constant
    # sends the same hold through DOP853
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=16,
                                 kappa_per_us=0.1)
    wg = np.linspace(0.0, 4.5, 46)
    rho0 = fs.cardinal_states(md.cat_basis_from_model(p))["+Coh"]
    exact = dyn.propagate(p, md.hold_schedule(4.5, p.P_max, p.Delta), rho0,
                          sample_times=wg)
    seg = md.Segment(duration=4.5, pump=_Flat(p.P_max),
                     detuning=md.Constant(p.Delta))
    ref = dyn.propagate(p.with_(rtol=1e-12, atol=1e-14),
                        md.PulseSchedule((seg,)), rho0, sample_times=wg)
    assert exact.meta["segments"][0]["solver"] == "parity-block expm"
    assert ref.meta["segments"][0]["solver"] == "eigenframe DOP853"
    for rho, r in zip(exact.states, ref.states):
        assert np.max(np.abs(rho - r)) < 1e-10


def test_exact_hold_takes_one_exponential_per_block(monkeypatch):
    # np.linspace(0, 6, 61) has 7 distinct float gaps; they share one step
    calls = []
    real_expm = dyn.expm

    def counting(x):
        calls.append(x.shape)
        return real_expm(x)

    monkeypatch.setattr(dyn, "expm", counting)
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=8,
                                 kappa_per_us=0.1)
    wg = np.linspace(0.0, 6.0, 61)
    traj = dyn.propagate(p, md.hold_schedule(6.0, p.P_max, p.Delta),
                         fs.fock_state(0, 8), sample_times=wg)
    assert np.array_equal(traj.times, wg)
    assert calls == [(32, 32), (32, 32)]


@pytest.mark.parametrize("dim", [7, 10])
def test_parity_blocks_are_the_liouvillian_on_their_index_sets(dim):
    # the exact hold relies on L never linking r + c even to r + c odd
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=dim)
    H = md.hamiltonian_at(p, md.hold_schedule(1.0, p.P_max, p.Delta), 0.5)
    L = orc.liouvillian(H, 0.2)
    (even, block_e), (odd, block_o) = dyn._parity_blocks(H, 0.2)
    assert np.array_equal(np.sort(np.concatenate([even, odd])),
                          np.arange(dim ** 2))
    for index, block in ((even, block_e), (odd, block_o)):
        assert np.max(np.abs(block - L[np.ix_(index, index)])) < 1e-14
    assert not np.any(L[np.ix_(even, odd)])
    assert not np.any(L[np.ix_(odd, even)])


def test_holds_above_the_exact_dim_take_dop853():
    # the block exponentials cost O(dim**6); past the largest exact dim a
    # hold goes back to the eigenframe DOP853 path
    top = dyn._EXACT_HOLD_MAX_DIM
    solvers = []
    for dim in (top, top + 1):
        p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=dim,
                                     kappa_per_us=0.1)
        traj = dyn.propagate(p, md.hold_schedule(0.02, p.P_max, p.Delta),
                             fs.DensityMatrix(fs.dm(fs.fock_state(0, dim))))
        solvers.append(traj.meta["segments"][0]["solver"])
    assert solvers == ["parity-block expm", "eigenframe DOP853"]


def test_exact_density_path_checks_trace_and_positivity():
    # the second state of each stack is bad from its first sample on; the
    # error names that earliest failing sample
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=8)
    sched = _phased_drive_schedule(p, 0.2)
    good = fs.DensityMatrix(fs.dm(fs.fock_state(0, 8)))
    heavy = 1.1 * good.entries
    with pytest.raises(AccuracyError, match=r"trace drifted to 1\.1.* "
                       r"t = 0\.100000 us"):
        dyn.propagate_many(p, sched, [good, heavy], sample_times=[0.1, 0.2])
    negative = np.diag([1.05, -0.05, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(AccuracyError, match="negative population .* "
                       r"t = 0\.100000 us"):
        dyn.propagate_many(p, sched, [good, negative],
                           sample_times=[0.1, 0.2])


def test_ket_path_checks_the_norm():
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=8)
    long_ket = 1.1 * fs.fock_state(1, 8).amplitudes
    with pytest.raises(AccuracyError, match=r"norm drifted to 1\.1.* "
                       r"t = 0\.100000 us"):
        dyn.propagate_many(p, _phased_drive_schedule(p, 0.2),
                           [fs.fock_state(0, 8), long_ket],
                           sample_times=[0.1, 0.2])


def test_meta_reports_the_solver_of_each_segment():
    # one displaced-parity tomography point: a static density segment
    p = md.SystemParams.from_mhz(3.1, 0.0, 1.0, 0.0, dim=12)
    seg = md.Segment(duration=0.02, detuning=md.Constant(p.Delta),
                     drive=md.Constant(40.0), drive_phase=-1.1)
    point = dyn.propagate(p, md.PulseSchedule((seg,)),
                          fs.DensityMatrix(fs.dm(fs.fock_state(0, 12))))
    assert point.meta == {"nfev": 0, "branch": "lindblad",
                          "segments": [{"solver": "eigh", "nfev": 0}]}
    ramp = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta).then(
        md.hold_schedule(0.1, PARAMS.P_max, PARAMS.Delta))
    traj = dyn.propagate(PARAMS, ramp, fs.fock_state(0, 30))
    driven, hold = traj.meta["segments"]
    assert driven["solver"] == "eigenframe DOP853" and driven["nfev"] > 0
    assert hold == {"solver": "eigh", "nfev": 0}
    assert traj.meta["nfev"] == driven["nfev"]
    lossy = dyn.propagate(PARAMS.with_(dim=12, kappa=0.1),
                          md.hold_schedule(0.5, PARAMS.P_max, PARAMS.Delta),
                          fs.fock_state(0, 12))
    assert lossy.meta == {"nfev": 0, "branch": "lindblad",
                          "segments": [{"solver": "parity-block expm",
                                        "nfev": 0}]}


def _count_solves(monkeypatch):
    calls = []
    real_solve_ivp = dyn.solve_ivp

    def counting(*args, **kwargs):
        sol = real_solve_ivp(*args, **kwargs)
        calls.append(sol.nfev)
        return sol

    monkeypatch.setattr(dyn, "solve_ivp", counting)
    return calls


def test_sample_free_segment_is_integrated_once(monkeypatch):
    # pulse - chirp - pulse Ramsey: the chirp carries no sample
    x2 = md.drive_schedule(0.1, PARAMS.beta, 0.0, 0.0, PARAMS.P_max,
                           PARAMS.Delta)
    chirp = md.chirp_schedule(units.mhz_to_angular(1.0), 0.3, PARAMS.P_max,
                              PARAMS.Delta)
    sched = x2.then(chirp).then(x2)
    calls = _count_solves(monkeypatch)
    psi0 = md.cat_basis_from_model(PARAMS).plus_cat
    traj = dyn.propagate(PARAMS, sched, psi0)
    assert len(calls) == 1
    assert [s["nfev"] for s in traj.meta["segments"]] == [0, calls[0], 0]
    assert traj.meta["nfev"] == calls[0]


@pytest.mark.parametrize("kappa", [0.0, 0.1])
@pytest.mark.parametrize("sample_times", [[0.0, 5e-16, 0.1], [1e-15, 0.1],
                                          [1e-15]])
def test_every_requested_sample_is_returned(sample_times, kappa):
    # samples within 1e-15 of 0 are the initial state, reported at 0
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, kappa, dim=8)
    psi0 = fs.fock_state(0, 8)
    traj = dyn.propagate(p, md.hold_schedule(0.2, p.P_max, p.Delta), psi0,
                         sample_times=sample_times)
    assert len(traj.times) == len(sample_times)
    start = psi0.amplitudes if kappa == 0.0 else fs.dm(psi0)
    for t, requested, state in zip(traj.times, sample_times, traj.states):
        if requested <= 1e-15:
            assert t == 0.0
            assert np.array_equal(state, start)
        else:
            assert t == requested


def _four_segment_schedules(p, path):
    # four segments of one solver path; their pumps meet at the boundaries
    durations = (0.1, 0.15, 0.1, 0.1)
    if path == "parity-block expm":
        segs = [md.hold_schedule(d, p.P_max, delta).segments[0]
                for d, delta in zip(durations, p.Delta * np.array(
                    [1.0, 0.5, 1.0, 0.8]))]
    else:
        # a drive detuning moves the drive phase, so the segment is driven
        omega = 0.0 if path == "eigh" else 2.0
        segs = [md.drive_schedule(d, p.beta, omega, phi, p.P_max,
                                  p.Delta).segments[0]
                for d, phi in zip(durations, (0.0, 0.7, -0.4, 1.2))]
    return md.PulseSchedule(tuple(segs)), [md.PulseSchedule((s,)) for s in segs]


@pytest.mark.parametrize("path, kappa", [
    ("eigh", 0.0), ("eigenframe DOP853", 0.0), ("eigenframe DOP853", 0.1),
    ("parity-block expm", 0.1)], ids=["eigh-ket", "DOP853-ket",
                                      "DOP853-density", "parity-block expm"])
def test_segment_ends_hand_on_the_state_of_chained_runs(path, kappa):
    # segment 0 is sampled inside and at its end, segment 1 not, segment 2
    # inside only and segment 3 inside and at its end; each segment's end
    # state is where the next one starts.  The schedule's end, summed to
    # 0.44999999999999996, is requested as 0.45 and reported at the end.
    p = PARAMS.with_(dim=8, kappa=kappa)
    whole, parts = _four_segment_schedules(p, path)
    psi0 = fs.StateVector(np.sqrt([0.5, 0.5, 0, 0, 0, 0, 0, 0]) + 0j)
    traj = dyn.propagate(p, whole, psi0,
                         sample_times=[0.05, 0.1, 0.3, 0.4, 0.45])
    assert [s["solver"] for s in traj.meta["segments"]] == [path] * 4
    assert list(traj.times) == [0.05, 0.1, 0.3, 0.4, whole.total_duration]
    first = dyn.propagate(p, parts[0], psi0, sample_times=[0.05, 0.1])
    second = dyn.propagate(p, parts[1], first.states[-1])
    third = dyn.propagate(p, parts[2], second.states[-1],
                          sample_times=[0.3 - 0.25, 0.1])
    fourth = dyn.propagate(p, parts[3], third.states[-1],
                           sample_times=[0.4 - 0.35, 0.1])
    chained = np.concatenate([first.states, third.states[:1], fourth.states])
    assert np.max(np.abs(traj.states - chained)) < 1e-12


@pytest.mark.parametrize("lossy", [False, True])
def test_segment_ending_after_its_last_sample_is_one_solve(monkeypatch, lossy):
    # the only sample sits mid-segment; the solve still runs on to t1 in one
    # call, for a driven ket segment and for a lossy static parity-breaking
    # pulse
    if lossy:
        p = PARAMS.with_(dim=12, kappa=0.1)
        sched = _phased_drive_schedule(p, 0.4)
    else:
        p = PARAMS
        sched = md.ramp_schedule(p.P_max, 0.3, p.Delta)
    calls = _count_solves(monkeypatch)
    traj = dyn.propagate(p, sched, fs.fock_state(0, p.dim),
                         sample_times=[0.15])
    assert traj.meta["segments"] == [{"solver": "eigenframe DOP853",
                                      "nfev": calls[0]}]
    assert len(calls) == 1


def test_propagation_stops_at_the_last_sample(monkeypatch):
    # a ramp, then a lossy hold: the only sample sits in the ramp, so the
    # hold is never propagated
    p = PARAMS.with_(dim=8, kappa=0.1)
    sched = md.ramp_schedule(p.P_max, 0.3, p.Delta).then(
        md.hold_schedule(0.2, p.P_max, p.Delta))
    calls = _count_solves(monkeypatch)
    traj = dyn.propagate(p, sched, fs.fock_state(0, 8), sample_times=[0.1])
    assert list(traj.times) == [0.1]
    assert len(calls) == 1
    assert traj.meta["segments"] == [{"solver": "eigenframe DOP853",
                                      "nfev": calls[0]}]


def test_driven_segment_ends_on_its_own_hamiltonian():
    # the solver's last stages sit on the boundary, where a strong drive
    # switches on; the state there must not see it
    ramp = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    kick = md.drive_schedule(0.05, 50.0, 0.0, 0.3, PARAMS.P_max, PARAMS.Delta)
    psi0 = fs.fock_state(0, 30)
    alone = dyn.propagate(PARAMS, ramp, psi0).states[-1]
    both = dyn.propagate(PARAMS, ramp.then(kick), psi0,
                         sample_times=[0.3, 0.35])
    assert np.max(np.abs(both.states[0] - alone)) < 1e-12


def test_unitary_norm_preserved():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    traj = dyn.propagate(PARAMS, sched, fs.fock_state(0, 30),
                         sample_times=np.linspace(0.03, 0.3, 10))
    for s in traj.states:
        assert abs(np.linalg.norm(s) - 1.0) < 1e-8


def test_lindblad_trace_and_positivity():
    sched = md.hold_schedule(2.0, PARAMS.P_max, PARAMS.Delta)
    basis = md.cat_basis_from_model(PARAMS)
    traj = dyn.propagate(PARAMS.with_(kappa=0.1), sched, basis.plus_cat,
                         sample_times=np.linspace(0.25, 2.0, 8))
    for s in traj.states:
        assert abs(np.trace(s).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0] > -1e-7


def test_purity_nonincreasing_under_loss():
    # early-time contraction of a mixed state under loss; at much longer
    # times the purity climbs back toward 1 as everything decays to vacuum,
    # so the window stays short of that turnaround
    p = md.SystemParams.from_mhz(3.1, 0.0, 0.0, 0.0, dim=10)
    ent = 0.6 * fs.dm(fs.fock_state(0, 10)) + 0.4 * fs.dm(fs.fock_state(2, 10))
    rho0 = fs.DensityMatrix(ent)
    sched = md.hold_schedule(1.0, 0.0, 0.0)
    traj = dyn.propagate(p.with_(kappa=0.2), sched, rho0,
                         sample_times=np.linspace(0.0, 1.0, 9))
    purities = [np.trace(s @ s).real for s in traj.states]
    assert np.all(np.diff(purities) < 1e-10)


def test_lossy_ramp_drops_an_anti_hermitian_input_part():
    # the density RHS takes sigma G† as (G sigma)†, which holds only for a
    # Hermitian sigma; an input just inside DensityMatrix's 1e-10 Hermiticity
    # check must evolve as its Hermitian part does
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=12,
                                 kappa_per_us=0.2)
    rng = np.random.default_rng(11)
    rho = orc.random_density(12, rng)
    k = rng.uniform(-1.0, 1.0, (12, 12))
    skewed = fs.DensityMatrix(rho + 0.49e-10j * (k + k.T) / 2)
    ramp = md.ramp_schedule(p.P_max, 0.3, p.Delta)
    out = dyn.propagate(p, ramp, skewed)
    ref = dyn.propagate(p, ramp, fs.DensityMatrix(rho))
    assert out.meta["segments"][0]["solver"] == "eigenframe DOP853"
    assert np.max(np.abs(out.states[-1] - ref.states[-1])) < 1e-13


def test_parity_conserved_without_drive():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta).then(
        md.hold_schedule(0.5, PARAMS.P_max, PARAMS.Delta))
    pi = fs.parity_op(30)
    traj = dyn.propagate(PARAMS, sched, fs.fock_state(0, 30),
                         sample_times=np.linspace(0.1, 0.8, 8))
    for s in traj.states:
        assert abs(np.vdot(s, pi @ s).real - 1.0) < 1e-8


def test_tolerance_convergence():
    sched = md.ramp_schedule(PARAMS.P_max, 0.3, PARAMS.Delta)
    out1 = dyn.propagate(PARAMS, sched, fs.fock_state(0, 30)).states[-1]
    out2 = dyn.propagate(PARAMS.with_(rtol=0.5 * PARAMS.rtol,
                                      atol=0.5 * PARAMS.atol),
                         sched, fs.fock_state(0, 30)).states[-1]
    pops1 = np.abs(out1) ** 2
    pops2 = np.abs(out2) ** 2
    assert np.max(np.abs(pops1 - pops2)) < 1e-6


def test_sample_time_validation():
    sched = md.hold_schedule(1.0, 0.0, 0.0)
    p = md.SystemParams.from_mhz(3.1, dim=8)
    with pytest.raises(UsageError):
        dyn.propagate(p, sched, fs.fock_state(0, 8),
                      sample_times=np.array([0.2, 0.1]))
    with pytest.raises(UsageError):
        dyn.propagate(p, sched, fs.fock_state(0, 8),
                      sample_times=np.array([0.5, 1.5]))


def _batch_case(case):
    """(params, schedule, initials, sample times, solver, tolerance)."""
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=10)
    rng = np.random.default_rng(13)
    cat = md.cat_basis_from_model(p).plus_cat
    kets = [fs.fock_state(0, 10), fs.fock_state(3, 10), cat]
    mixed = [fs.DensityMatrix(orc.random_density(10, rng)) for _ in range(2)]
    times = np.array([0.0, 0.1, 0.25, 0.4])
    if case == "parity-block expm":
        return (p.with_(kappa=0.2), md.hold_schedule(0.4, p.P_max, p.Delta),
                mixed + kets[:1], times, case, 1e-12)
    if case == "eigh-ket":
        return (p, _phased_drive_schedule(p, 0.4), kets, times, "eigh",
                1e-12)
    if case == "eigh-density":
        # one density matrix turns the whole batch into density matrices
        return (p, _phased_drive_schedule(p, 0.4), kets[:2] + mixed[:1],
                times, "eigh", 1e-12)
    ramp = md.ramp_schedule(p.P_max, 0.4, p.Delta)
    if case == "DOP853-ket":
        return p, ramp, kets, times, "eigenframe DOP853", 10 * p.rtol
    return (p.with_(kappa=0.2), ramp, mixed + kets[1:2], times,
            "eigenframe DOP853", 10 * p.rtol)


@pytest.mark.parametrize("case", ["parity-block expm", "eigh-ket",
                                  "eigh-density", "DOP853-ket",
                                  "DOP853-density"])
def test_batch_matches_separate_runs(case):
    # DOP853 bounds the error of the whole stack, so a batched state may
    # differ from its own run by the solve tolerance, not by roundoff
    p, sched, initials, times, solver, tol = _batch_case(case)
    batch = dyn.propagate_many(p, sched, initials, sample_times=times)
    assert len(batch.states) == len(initials)
    density = batch.meta["branch"] == "lindblad"
    assert batch.meta["segments"][0]["solver"] == solver
    for initial, states in zip(initials, batch.states):
        if density and isinstance(initial, fs.StateVector):
            initial = fs.DensityMatrix(fs.dm(initial))
        alone = dyn.propagate(p, sched, initial, sample_times=times)
        assert np.array_equal(batch.times, alone.times)
        for s, r in zip(states, alone.states):
            assert np.max(np.abs(s - r)) < tol


def _per_state_case(case):
    """(params, one schedule per state, initials, sample times, solver, tol)."""
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=10)
    rng = np.random.default_rng(17)
    cat = md.cat_basis_from_model(p).plus_cat
    kets = [fs.fock_state(0, 10), fs.fock_state(3, 10), cat]
    mixed = [fs.DensityMatrix(orc.random_density(10, rng)) for _ in range(3)]
    times = np.array([0.0, 0.1, 0.25, 0.4])

    def drive(d, phi=0.0):
        return md.drive_schedule(0.4, p.beta, d, phi, p.P_max, p.Delta)

    def pump(d):
        return md.PulseSchedule((md.Segment(
            duration=0.4, pump=md.Constant(p.P_max), detuning=md.Constant(d)),))

    if case == "DOP853-ket":
        return (p, [drive(-2.0), drive(0.5), drive(3.0)], kets, times,
                "eigenframe DOP853", 10 * p.rtol)
    if case == "DOP853-density":
        return (p.with_(kappa=0.2), [drive(-2.0), drive(0.5), drive(3.0)],
                mixed[:2] + kets[2:], times, "eigenframe DOP853", 10 * p.rtol)
    if case == "eigh-ket":
        return (p, [pump(-3.0), pump(0.0), pump(4.0)], kets, times, "eigh",
                1e-12)
    if case == "static-and-driven":
        # the static member shares the driven member's drive-free frame and
        # integrates its constant drive as the remainder
        return (p, [drive(0.0, 0.7), drive(2.0)], kets[1:], times,
                "eigenframe DOP853", 10 * p.rtol)
    if case == "eigh-density":
        return (p, [drive(0.0, 0.3), pump(1.0), drive(0.0, -1.1)], mixed,
                times, "eigh", 1e-12)
    # ramps to different detunings keep a frame each (F = B); the moving
    # pump and chirp are their live terms
    ramps = [md.ramp_schedule(p.P_max, 0.4, d)
             for d in (-p.Delta, 0.0, 2.0 * p.Delta)]
    if case == "ramp-ket":
        return (p, ramps, kets, times, "eigenframe DOP853", 10 * p.rtol)
    if case == "ramp-density":
        return (p.with_(kappa=0.2), ramps, mixed[:2] + kets[2:], times,
                "eigenframe DOP853", 10 * p.rtol)
    # a symmetrized drive sweep shares one frame, the drive-free midpoint H;
    # the static d = 0 column rides it with its constant drive
    cosines = [md.PulseSchedule((md.Segment(
        duration=0.4, pump=md.Constant(p.P_max), detuning=md.Constant(p.Delta),
        drive=md.Cosine(p.beta, d, phi)),))
        for d, phi in ((-2.0, 0.0), (0.0, 0.4), (3.0, -0.8))]
    if case == "cosine-ket":
        return (p, cosines, kets, times, "eigenframe DOP853", 10 * p.rtol)
    if case == "cosine-density":
        return (p.with_(kappa=0.2), cosines, mixed[:2] + kets[2:], times,
                "eigenframe DOP853", 10 * p.rtol)
    # per-state holds take DOP853; alone, each is exact
    holds = [md.hold_schedule(0.4, P, d)
             for P, d in ((p.P_max, p.Delta), (0.5 * p.P_max, 0.0),
                          (p.P_max, -p.Delta))]
    return (p.with_(kappa=0.2), holds, mixed[:2] + kets[:1], times,
            "eigenframe DOP853", 10 * p.rtol)


@pytest.mark.parametrize("case", ["DOP853-ket", "DOP853-density", "eigh-ket",
                                  "static-and-driven", "eigh-density",
                                  "holds", "cosine-ket", "cosine-density",
                                  "ramp-ket", "ramp-density"])
def test_per_state_schedules_match_separate_runs(case):
    p, scheds, initials, times, solver, tol = _per_state_case(case)
    batch = dyn.propagate_many(p, scheds, initials, sample_times=times)
    assert batch.meta["segments"] == [{"solver": solver,
                                       "nfev": batch.meta["nfev"]}]
    for sched, initial, states in zip(scheds, initials, batch.states):
        alone = dyn.propagate(p, sched, initial, sample_times=times)
        assert np.array_equal(batch.times, alone.times)
        for s, r in zip(states, alone.states):
            assert np.max(np.abs(s - r)) < tol


def test_per_state_schedule_validation():
    p = md.SystemParams.from_mhz(3.1, dim=8)
    kets = [fs.fock_state(0, 8), fs.fock_state(1, 8)]
    short, long_ = (md.hold_schedule(t, 0.0, 0.0) for t in (1.0, 1.5))
    with pytest.raises(UsageError, match="got 1 schedules for 2 states"):
        dyn.propagate_many(p, [short], kets)
    with pytest.raises(UsageError, match="got 3 schedules for 2 states"):
        dyn.propagate_many(p, [short] * 3, kets)
    with pytest.raises(UsageError, match="equal segment durations"):
        dyn.propagate_many(p, [short, long_], kets)
    # the same total split differently is not the same segment grid
    split = md.hold_schedule(0.5, 0.0, 0.0).then(md.hold_schedule(0.5, 0.0,
                                                                  0.0))
    with pytest.raises(UsageError, match="equal segment durations"):
        dyn.propagate_many(p, [short, split], kets)


def test_cat_maps_name_their_empty_grid():
    p = PARAMS.with_(dim=10)
    with pytest.raises(UsageError, match="detuning_grid and time_grid"):
        dyn.cat_rabi_map(p, [], [0.1])
    with pytest.raises(UsageError, match="phi_grid and time_grid"):
        dyn.cat_rabi_phase_map(p, [0.0], [])


def test_cat_rabi_map_is_one_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    det = units.mhz_to_angular(np.array([-1.5, -0.5, 0.5, 1.5]))
    dyn.cat_rabi_map(PARAMS.with_(dim=16), det, np.linspace(0.0, 0.3, 4))
    assert len(calls) == 1


@pytest.mark.parametrize("stack, shape", [
    pytest.param("shared", (10, 10), id="False"),
    pytest.param("equal", (10, 10), id="True"),
    pytest.param("different", (3, 10, 10), id="different-references")])
def test_one_eigh_per_segment(monkeypatch, stack, shape):
    # a shared schedule keeps one frame per segment, a (dim, dim) eigh, and
    # so do per-state schedules whose reference rows are equal; per-state
    # references that differ take one stacked eigh per segment
    p = PARAMS.with_(dim=10)
    scheds = [md.ramp_schedule(p.P_max, 0.3, Delta).then(
        md.hold_schedule(0.2, p.P_max, Delta))
        for Delta in ((p.Delta,) * 3 if stack != "different"
                      else (p.Delta, 0.0, -p.Delta))]
    kets = [fs.fock_state(k, 10) for k in range(3)]
    shapes = []
    real_eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    dyn.propagate_many(p, scheds[0] if stack == "shared" else scheds, kets)
    assert shapes == [shape] * 2


@pytest.mark.parametrize("lossy", [False, True])
def test_batch_shares_one_meta_and_one_solve(monkeypatch, lossy):
    p = PARAMS.with_(dim=10, kappa=0.2 if lossy else 0.0)
    sched = md.ramp_schedule(p.P_max, 0.3, p.Delta)
    calls = _count_solves(monkeypatch)
    batch = dyn.propagate_many(p, sched, [fs.fock_state(k, 10)
                                          for k in range(3)])
    assert len(calls) == 1
    # one read-only (B, T, dim) or (B, T, dim, dim) stack
    assert batch.states.shape == ((3, 1, 10, 10) if lossy else (3, 1, 10))
    assert not batch.states.flags.writeable
    assert batch.meta == {
        "nfev": calls[0], "branch": "lindblad" if lossy else "unitary",
        "segments": [{"solver": "eigenframe DOP853", "nfev": calls[0]}]}


def test_batch_validation():
    p = md.SystemParams.from_mhz(3.1, dim=8)
    sched = md.hold_schedule(1.0, 0.0, 0.0)
    with pytest.raises(UsageError, match="at least one state"):
        dyn.propagate_many(p, sched, [])
    with pytest.raises(UsageError, match="state dimension 6"):
        dyn.propagate_many(p, sched, [fs.fock_state(0, 8),
                                      fs.fock_state(0, 6)])
    # raw arrays are read as (dim,) kets or (dim, dim) density matrices
    for shape in ((6,), (8, 6), (8, 8, 8)):
        with pytest.raises(UsageError, match="state dimension "
                           + "x".join(map(str, shape)) + " "):
            dyn.propagate_many(p, sched, [np.zeros(shape)])


@pytest.mark.parametrize("lossy", [False, True])
def test_batch_runs_samples_of_a_returned_stack_as_state_objects(lossy):
    # a (dim,) or (dim, dim) sample goes back in as it stands, with the
    # bits and the branch of the StateVector or DensityMatrix it holds
    p = PARAMS.with_(dim=10, kappa=0.2 if lossy else 0.0)
    sched = md.drive_schedule(0.2, p.beta, 0.0, 0.0, p.P_max, p.Delta)
    first = dyn.propagate_many(p, sched, [fs.fock_state(k, 10)
                                          for k in range(2)])
    samples = first.states[:, -1]
    wrapped = [fs.DensityMatrix(s) if lossy else fs.StateVector(s)
               for s in samples]
    raw = dyn.propagate_many(p.with_(kappa=0.0), sched, samples)
    objects = dyn.propagate_many(p.with_(kappa=0.0), sched, wrapped)
    assert raw.meta == objects.meta
    assert raw.meta["branch"] == ("lindblad" if lossy else "unitary")
    assert np.array_equal(raw.states, objects.states)


# ---------------------------------------------------------------------------
# Rabi maps


def test_rabi_map_drive_features():
    # transitions of the Kerr ladder: 0->1 at zero drive detuning, and the
    # weak two-photon 0->2 feature at K/2 (from E_n = -(K/2) n(n-1))
    K = PARAMS.K
    beta = 0.05 * K
    tg = np.linspace(0.0, 4.0, 161)
    det = np.array([-0.5 * K, 0.0, 0.5 * K, 0.75 * K, 1.0 * K])
    m = dyn.rabi_map(PARAMS, "drive", beta, det, tg)
    assert m[1].min() < 0.01          # resonant stripe, full contrast
    assert m[2].min() < 0.75          # two-photon dip, partial at this span
    assert m[2].min() < m[0].min() - 0.2   # and clearly absent at -K/2
    assert m[3].min() > 0.95          # flat in between
    assert m[4].min() > 0.95


def test_rabi_map_pump_features():
    # pump features at Delta = K/2 (0->2) and 3K/2 (0->4)
    K = PARAMS.K
    tg = np.linspace(0.0, 6.0, 241)
    det = np.array([0.0, 0.5 * K, 1.0 * K, 1.5 * K, 2.0 * K])
    m = dyn.rabi_map(PARAMS, "pump", 0.2 * K, det, tg)
    assert m[1].min() < 0.05
    assert m[3].min() < 0.05
    assert m[0].min() > 0.9
    assert m[2].min() > 0.9
    assert m[4].min() > 0.9


def test_rabi_map_dim2_reduces_to_chevron():
    # with dim=2 the drive model is exactly a two-level system
    p2 = md.SystemParams.from_mhz(3.1, dim=2)
    beta = 1.3
    det = np.linspace(-3.0, 3.0, 7)
    tg = np.linspace(0.0, 2.5, 41)
    m = dyn.rabi_map(p2, "drive", beta, det, tg)
    for d, row in zip(det, m):
        ideal = 1.0 - orc.chevron_excited(2.0 * beta, d, tg)
        assert np.max(np.abs(row - ideal)) < 0.02


def test_strong_drive_resembles_coherent_state():
    # beta/K >> 1 at short times: the driven vacuum is close to |alpha = -i beta t>
    K = PARAMS.K
    beta = 10.0 * K
    t = 0.005  # t*K ~ 0.1
    sched = md.drive_schedule(t, beta, 0.0, 0.0, 0.0, 0.0)
    psi = dyn.propagate(PARAMS, sched, fs.fock_state(0, 30)).states[-1]
    target = fs.coherent_state(-1j * beta * t, 30)
    assert abs(np.vdot(target.amplitudes, psi)) ** 2 > 0.95


def _bare_drive_hamiltonian(K, d, beta):
    a = orc.ladder(30)
    ad = a.conj().T
    return d * (ad @ a) - 0.5 * K * (ad @ ad @ a @ a) + beta * (ad + a)


@pytest.mark.parametrize("which", ["drive", "pump"])
def test_rabi_map_matches_the_matrix_exponential(which):
    # each column is |<0| expm(-iHt) |0>|^2 of an independently built H
    from scipy.linalg import expm
    K = PARAMS.K
    amp = 0.3 * K
    det = np.array([-0.5 * K, 0.0, 0.5 * K, 1.5 * K])
    tg = np.linspace(0.0, 1.5, 16)
    m = dyn.rabi_map(PARAMS, which, amp, det, tg)
    assert m.shape == (det.size, tg.size)
    for d, row in zip(det, m):
        h = (_bare_drive_hamiltonian(K, d, amp) if which == "drive"
             else orc.kpo_hamiltonian(K, amp, d, 30))
        ref = [abs(expm(-1j * h * t)[0, 0]) ** 2 for t in tg]
        assert np.max(np.abs(row - ref)) < 1e-10


@pytest.mark.parametrize("which", ["drive", "pump"])
def test_rabi_map_time_grid_contract(which):
    """The Rabi map samples its time grid through ``propagate``.

    So, like ``cat_rabi_map``, it rejects a grid that is not strictly
    increasing or that holds a negative time.  The former per-column eigh
    evaluated any grid and silently returned a map for both.
    """
    for tg in (np.array([0.0, 0.6, 0.3]), np.array([-0.1, 0.2, 0.5])):
        with pytest.raises(UsageError):
            dyn.rabi_map(PARAMS, which, 1.0, np.array([0.0]), tg)


def test_rabi_map_input_validation():
    with pytest.raises(UsageError):
        dyn.rabi_map(PARAMS, "both", 1.0, np.array([0.0]), np.array([0.0, 1.0]))
    with pytest.raises(UsageError):
        dyn.rabi_map(PARAMS, "drive", 1.0, np.array([]), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# cat-qubit maps


def test_cat_rabi_map_symmetrized_even():
    det = units.mhz_to_angular(np.linspace(-1.5, 1.5, 7))
    tg = np.linspace(0.0, 0.5, 5)
    m = dyn.cat_rabi_map(PARAMS, det, tg)
    assert np.sqrt(np.mean((m - m[::-1, :]) ** 2)) < 1e-12


def test_cat_rabi_map_single_tone_asymmetric():
    # a single drive tone leaves a percent-level odd component in the map
    det = units.mhz_to_angular(np.array([-1.0, 1.0]))
    tg = np.linspace(0.0, 0.9, 7)
    m = dyn.cat_rabi_map(PARAMS, det, tg, symmetrized=False)
    assert np.max(np.abs(m[0] - m[1])) > 0.01


def test_cat_rabi_resonant_frequency():
    # on-resonance parity oscillation at 2 beta <+Cat|(a+a†)|-Cat>
    from kposim import qpt
    basis = md.cat_basis_from_model(PARAMS)
    omega_r = 2.0 * PARAMS.beta * qpt.x2_coupling(basis)
    tg = np.linspace(0.0, 1.2, 41)
    row = dyn.cat_rabi_map(PARAMS, np.array([0.0]), tg)[0]
    fit = dyn.fit_damped_cosine(tg, row)
    assert fit.frequency == pytest.approx(units.angular_to_mhz(omega_r), rel=0.01)


def test_cat_rabi_phase_map_runs():
    phis = np.linspace(0.0, np.pi, 5)
    tg = np.linspace(0.0, 0.4, 4)
    m = dyn.cat_rabi_phase_map(PARAMS, phis, tg)
    assert m.shape == (5, 4)
    assert np.max(np.abs(m)) <= 1.0 + 1e-9
    # the t=0 column is the initial +Cat parity
    assert np.max(np.abs(m[:, 0] - m[0, 0])) < 1e-9


def test_cat_ramsey_fringe():
    # deeper chirps rotate further between the two X/2 pulses; the parity
    # after the sequence sweeps out a fringe
    from kposim import qpt
    cal = qpt.calibrate_x2(PARAMS)
    dps = units.mhz_to_angular(np.linspace(0.0, 4.0, 9))
    m = dyn.cat_ramsey_map(PARAMS, dps, np.array([0.5]), cal["duration"])
    col = m[:, 0]
    assert np.ptp(col) > 1.0   # fringe swings over most of [-1, 1]
    # with no chirp the free precession between the pulses leaves the
    # sequence on the lower half of the fringe; deep chirps unwind it
    assert col[0] < -0.3
    assert col.max() > 0.8


def test_cat_ramsey_columns_match_per_point_propagation():
    # each gate time is one stack over the chirp depths; with loss the
    # stacked DOP853 solve bounds the error of the whole column
    from kposim import qpt
    p = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=12,
                                 kappa_per_us=0.1)
    x2 = qpt.calibrate_x2(p)["duration"]
    dps = units.mhz_to_angular(np.array([0.0, 1.5, 4.0]))
    taus = np.array([0.2, 0.35])
    m = dyn.cat_ramsey_map(p, dps, taus, x2)
    assert m.shape == (3, 2)
    plus_cat = md.cat_basis_from_model(p).plus_cat
    pulse = md.drive_schedule(x2, p.beta, 0.0, 0.0, p.P_max, p.Delta)
    for i, dp in enumerate(dps):
        for j, tau in enumerate(taus):
            sched = pulse.then(md.chirp_schedule(dp, tau, p.P_max,
                                                 p.Delta)).then(pulse)
            out = dyn.propagate(p, sched, plus_cat).states[-1]
            parity = np.trace(fs.parity_op(12) @ out).real
            assert abs(m[i, j] - parity) < 10 * p.rtol


# ---------------------------------------------------------------------------
# relaxation experiment


def test_relaxation_closed_system():
    wg = np.linspace(0.0, 6.0, 61)
    res = dyn.relaxation_experiment(PARAMS, wg, prepare="ideal")
    zs, zd = res.sums["z"], res.differences["z"]
    assert np.max(np.abs(zd - 1.0)) < 1e-6
    assert np.max(np.abs(zs - 1.0)) < 1e-6
    # x and y differences oscillate at the quasienergy splitting, undamped
    from kposim import spectral as sp
    split = sp.quasienergies(PARAMS.K, PARAMS.P_max, PARAMS.Delta, 30).splitting_mhz
    for axis in ("x", "y"):
        fit = dyn.fit_damped_cosine(wg, res.differences[axis])
        assert fit.frequency == pytest.approx(split, rel=1e-6)
        assert fit.rate < 1e-6


def test_relaxation_open_system():
    # shorter window than the headline experiment, enough for the z fit;
    # the oscillation-frequency check lives with the 6 us run elsewhere
    wg = np.linspace(0.0, 4.0, 41)
    res = dyn.relaxation_experiment(PARAMS.with_(kappa=0.1), wg,
                                    prepare="ramp")
    fit = dyn.fit_exp_decay(wg, res.differences["z"])
    t_z = 1.0 / fit.rate
    assert t_z == pytest.approx(3.529179264519292, abs=0.02)
    assert 3.2 <= t_z <= 5.3
    # loss flips parity: +Cat population falls while -Cat grows from zero
    pz = res.populations["z"]
    assert pz[0, 0] > 0.99
    assert pz[1, 0] < 1e-6
    assert np.all(np.diff(pz[1, :5]) > 0)
    assert np.all(np.diff(pz[0, :5]) < 0)


def test_relaxation_input_validation():
    with pytest.raises(UsageError):
        dyn.relaxation_experiment(PARAMS, np.array([0.0]), prepare="ideal")
    with pytest.raises(UsageError):
        dyn.relaxation_experiment(PARAMS, np.linspace(0, 1, 5),
                                  prepare="other")


# ---------------------------------------------------------------------------
# fitting


def test_fit_exp_decay_roundtrip():
    t = np.linspace(0.0, 10.0, 60)
    y = np.exp(-t / 4.2)
    fit = dyn.fit_exp_decay(t, y)
    assert 1.0 / fit.rate == pytest.approx(4.2, abs=1e-6)


def test_fit_damped_cosine_roundtrip():
    t = np.linspace(0.0, 10.0, 120)
    y = np.cos(2 * np.pi * 0.317 * t) * np.exp(-t / 6.6)
    fit = dyn.fit_damped_cosine(t, y)
    assert fit.frequency == pytest.approx(0.317, abs=1e-6)
    assert 1.0 / fit.rate == pytest.approx(6.6, abs=1e-5)


def test_fit_damped_cosine_with_offset_and_phase():
    t = np.linspace(0.0, 8.0, 100)
    y = 0.4 * np.cos(2 * np.pi * 0.5 * t + 0.7) * np.exp(-t / 3.0) + 0.25
    fit = dyn.fit_damped_cosine(t, y)
    assert fit.frequency == pytest.approx(0.5, abs=1e-8)
    assert fit.offset == pytest.approx(0.25, abs=1e-8)
    assert fit.phase == pytest.approx(0.7, abs=1e-6)


def test_fit_rejects_constant_series():
    t = np.linspace(0.0, 5.0, 30)
    with pytest.raises(DegenerateDataError):
        dyn.fit_damped_cosine(t, np.full(30, 0.7))


def test_fit_rejects_too_few_points():
    with pytest.raises(UsageError):
        dyn.fit_exp_decay(np.linspace(0, 1, 5), np.exp(-np.linspace(0, 1, 5)))


def test_fit_damped_cosine_needs_periods():
    # less than 1.5 periods of signal in the window
    t = np.linspace(0.0, 1.0, 40)
    y = np.cos(2 * np.pi * 0.3 * t)
    with pytest.raises((FitError, UsageError)):
        dyn.fit_damped_cosine(t, y)
