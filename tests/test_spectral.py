"""Quasienergy spectra, splitting surfaces, and classical energy analysis."""

import tracemalloc

import numpy as np
import pytest

from kposim import fockspace as fs
from kposim import model as md
from kposim import qpt
from kposim import spectral as sp
from kposim import units
from kposim.errors import TruncationError, UsageError

import oracles as orc

K = units.mhz_to_angular(3.1)
P = units.mhz_to_angular(3.13)
DELTA = units.mhz_to_angular(1.0)


def test_kerr_ladder_spectrum():
    spec = sp.quasienergies(K, 0.0, 0.0, 20)
    # energies sorted descending must match -(K/2) n(n-1) with parity (-1)^n
    n = np.arange(20)
    ladder = -0.5 * K * n * (n - 1)
    assert np.max(np.abs(np.sort(spec.energies) - np.sort(ladder))) < 1e-9
    # the degenerate top pair {|0>,|1>} carries one parity of each sign
    assert set(spec.parities[:2]) == {1, -1}


def test_headline_splitting():
    spec = sp.quasienergies(K, P, DELTA, 30)
    assert spec.splitting_mhz == pytest.approx(0.31888489419652216, abs=1e-12)
    assert abs(spec.splitting_mhz - 0.318) < 0.005
    # odd qubit level sits above the even one here
    assert spec.splitting > 0


def test_qubit_levels_are_highest():
    spec = sp.quasienergies(K, P, DELTA, 30)
    i_even, i_odd = spec.qubit_indices
    assert {i_even, i_odd} == {0, 1}
    assert spec.parities[i_even] == 1
    assert spec.parities[i_odd] == -1



def test_spectrum_and_cat_basis_pick_the_same_pair():
    # qpt takes energies from the spectrum and states from the cat basis,
    # so both must name the same two eigenstates
    for delta_mhz in np.linspace(0.0, 2.0, 9):
        params = md.SystemParams.from_mhz(3.1, 3.13, delta_mhz, dim=30)
        spec = sp.quasienergies(params.K, params.P_max, params.Delta, 30)
        basis = md.cat_basis_from_model(params)
        for k, cat in zip(spec.qubit_indices,
                          (basis.plus_cat, basis.minus_cat)):
            assert abs(np.vdot(cat.amplitudes,
                               spec.states[:, k])) == pytest.approx(
                1.0, abs=1e-12)

def test_eigenstates_have_definite_parity():
    spec = sp.quasienergies(K, P, DELTA, 30)
    pi = fs.parity_op(30)
    for k in range(6):
        psi = spec.states[:, k]
        assert abs(np.vdot(psi, pi @ psi).real) > 0.999


def test_qubit_states_are_the_normalized_parity_pair():
    spec = sp.quasienergies(K, P, DELTA, 30)
    even, odd = (spec.states[:, k] for k in spec.qubit_indices)
    pi = fs.parity_op(30)
    assert np.linalg.norm(even) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(odd) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(even, pi @ even).real == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(odd, pi @ odd).real == pytest.approx(-1.0, abs=1e-12)


def test_dim_convergence_of_top_levels():
    s30 = sp.quasienergies(K, P, DELTA, 30)
    s40 = sp.quasienergies(K, P, DELTA, 40)
    assert np.max(np.abs(s30.energies[:6] - s40.energies[:6])) < 1e-6 * K


def test_truncation_error_when_not_converged():
    with pytest.raises(TruncationError):
        sp.quasienergies(K, 40.0 * K, 0.0, 10)


def test_splitting_decays_along_pump_at_fixed_detuning():
    # exponential suppression of the splitting as the cat grows
    vals = [abs(sp.quasienergies(K, pk * K, 0.32 * K, 30).splitting)
            for pk in np.linspace(0.5, 3.0, 10)]
    assert np.all(np.diff(vals) < 0)
    assert vals[0] / vals[-1] > 50


def test_splitting_at_zero_detuning_is_degenerate():
    # at Delta = 0 the Hamiltonian factors and the cat pair is exactly
    # degenerate; the computed splitting sits at the eigensolver noise floor,
    # far below any value at finite detuning
    for pk in (0.5, 1.01, 2.0, 3.0):
        s0 = abs(sp.quasienergies(K, pk * K, 0.0, 30).splitting)
        assert s0 < 1e-3 * K
    s_finite = abs(sp.quasienergies(K, 1.01 * K, 0.32 * K, 30).splitting)
    assert abs(sp.quasienergies(K, 1.01 * K, 0.0, 30).splitting) < 1e-6 * s_finite


def test_splitting_sign_change_along_detuning():
    dg = np.linspace(0.05, 1.2, 24)
    row = np.array([sp.quasienergies(K, 1.01 * K, d * K, 30).splitting
                    for d in dg])
    signs = np.sign(row)
    assert np.any(np.diff(signs) != 0)
    # the crossing is a zero, not a jump: refine and find a tiny |splitting|
    i = int(np.where(np.diff(signs) != 0)[0][0])
    fine = np.linspace(dg[i], dg[i + 1], 51)
    fine_vals = [abs(sp.quasienergies(K, 1.01 * K, d * K, 30).splitting)
                 for d in fine]
    assert min(fine_vals) < 1e-3 * K


def test_splitting_surface_shape_and_point():
    pk = np.linspace(0.8, 1.2, 5)
    dk = np.linspace(0.1, 0.5, 5)
    surf = sp.splitting_surface(K, pk, dk, 30)
    assert surf.shape == (5, 5)
    # operating point P/K=1.01, Delta/K=0.32 sits near splitting/K ~ 0.103
    val = sp.quasienergies(K, 1.01 * K, 0.32 * K, 30).splitting / K
    assert val == pytest.approx(0.318 / 3.1, abs=0.01)


def per_point_pair(K, P, Delta, dim):
    """(picks, splitting) of one point from eigh of each sector of H.

    Each pick indexes its sector's ascending eigenvalues; the argmax over
    the overlaps with the reference cat runs in descending-energy order.
    """
    H = md.static_hamiltonian(K, P, Delta, dim)
    alpha_c = np.sqrt(max(P + Delta, 0.0) / K)
    picks, levels = [], []
    for par in (0, 1):
        vals, vecs = np.linalg.eigh(H[par::2, par::2])
        if alpha_c < 1e-6:
            ref = np.eye(dim)[par]
        else:
            ref = orc.coherent_amplitudes(alpha_c, dim)
        ref = ref[par::2] / np.linalg.norm(ref[par::2])
        k = int(np.argmax(np.abs(ref.conj() @ vecs[:, ::-1]) ** 2))
        picks.append(vals.size - 1 - k)
        levels.append(vals[::-1][k])
    return tuple(picks), levels[1] - levels[0]


def assert_stack_matches_points(K, P, Delta, dim):
    P, Delta = np.broadcast_arrays(P, Delta)
    got = sp.qubit_splitting(K, P, Delta, dim)
    picks = md._qubit_pair(K, P, Delta, dim)[1]
    for b, (p, d) in enumerate(zip(P, Delta)):
        want_picks, want = per_point_pair(K, p, d, dim)
        assert tuple(picks[b]) == want_picks
        assert abs(got[b] - want) <= 1e-12


def test_stacked_splitting_matches_per_point_on_the_surface_grid():
    for p_rel in np.linspace(0.5, 3.0, 26):
        assert_stack_matches_points(K, p_rel * K,
                                    np.linspace(0.0, 1.2, 25) * K, 30)


def test_stacked_splitting_matches_per_point_on_the_z2_nodes():
    params = md.SystemParams.from_mhz(3.1, 3.13, 1.0, dim=20)
    depth = qpt.calibrate_z2(params)["delta_peak"]
    nodes = 0.5 * (np.polynomial.legendre.leggauss(32)[0] + 1.0)
    for d in (depth, 0.25 * params.K):
        deltas = params.Delta - 0.5 * d * np.sin(np.pi * nodes) ** 2
        assert_stack_matches_points(params.K, params.P_max, deltas, 20)


def test_stack_of_one_is_the_quasienergies_splitting():
    for pk, dk in ((0.0, 0.0), (1.01, 0.32), (2.0, -0.5), (0.5, 1.0)):
        one = sp.qubit_splitting(K, pk * K, dk * K, 30)
        spec = sp.quasienergies(K, pk * K, dk * K, 30)
        assert one.shape == (1,)
        assert one[0] == spec.splitting


def test_splitting_surface_stacks_one_row_at_a_time():
    args = (K, np.linspace(0.5, 3.0, 26), np.linspace(0.0, 1.2, 25), 30)
    sp.splitting_surface(*args)
    tracemalloc.start()
    try:
        sp.splitting_surface(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row of sector blocks is ~0.3 MB; the whole grid at once is ~30 MB
    assert peak < 2e6


def test_qubit_splitting_checks_truncation_at_every_point():
    deltas = np.array([0.2, 0.5, 2.5, 0.4]) * K      # alpha_c^2 = 3.5 > 12/4
    with pytest.raises(TruncationError):
        sp.qubit_splitting(K, 1.0 * K, deltas, 12)
    assert sp.qubit_splitting(K, 1.0 * K, deltas[[0, 1, 3]], 12).shape == (3,)


def test_splitting_surface_checks_convergence_once_at_the_corner(monkeypatch):
    calls = []
    real = sp.quasienergies

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(sp, "quasienergies", spy)
    sp.splitting_surface(K, [0.8, 1.2, 1.0], [0.4, 0.1, 0.3], 30)
    assert calls == [((K, 1.2 * K, 0.4 * K, 30), {})]


def test_classical_energy_formula():
    alpha = 0.7 - 0.4j
    e = sp.classical_energy(alpha, K, P, DELTA)
    expected = (DELTA * abs(alpha) ** 2 - 0.5 * K * abs(alpha) ** 4
                + 0.5 * P * (alpha ** 2 + np.conj(alpha) ** 2).real)
    assert e == pytest.approx(expected, rel=1e-12)


def test_stationary_points_at_operating_point():
    pts = sp.stationary_points(K, P, DELTA)
    nonzero = [p for p in pts if abs(p.alpha) > 1e-6]
    assert len(nonzero) == 2
    target = np.sqrt((P + DELTA) / K)
    assert target == pytest.approx(1.1542, abs=1e-4)
    for p in nonzero:
        assert abs(p.alpha) == pytest.approx(target, rel=1e-9)
        assert abs(p.alpha.imag) < 1e-9


def test_stationary_points_symmetric_pair():
    pts = sp.stationary_points(K, P, DELTA)
    alphas = sorted(p.alpha.real for p in pts if abs(p.alpha) > 1e-6)
    assert alphas[0] == pytest.approx(-alphas[1], abs=1e-9)


def test_stationary_points_no_bifurcation():
    # P + Delta <= 0: only the origin
    pts = sp.stationary_points(K, 0.5 * K, -0.8 * K)
    assert all(abs(p.alpha) < 1e-6 for p in pts)


def test_stationary_points_grid_formula():
    # the located extrema track sqrt((P+Delta)/K) across the plane
    for pk in np.linspace(0.5, 3.0, 4):
        for dk in np.linspace(0.0, 1.0, 4):
            pts = sp.stationary_points(K, pk * K, dk * K)
            nz = [abs(p.alpha) for p in pts if abs(p.alpha) > 1e-6]
            target = np.sqrt(pk + dk)
            assert max(nz) == pytest.approx(target, rel=1e-9)


def test_stationary_points_at_a_singular_origin():
    # P = Delta: the imaginary-axis pair has merged into the flat origin
    pts = sp.stationary_points(K, 7.0 / 9.0 * K, 7.0 / 9.0 * K)
    r = np.sqrt(14.0 / 9.0)
    assert [p.kind for p in pts] == ["maximum", "degenerate", "maximum"]
    assert [p.alpha for p in pts] == [
        pytest.approx(-r, rel=1e-12), 0j, pytest.approx(r, rel=1e-12)]


def test_stationary_points_are_stationary_and_maxima_are_maxima():
    neighbours = 1e-3 * np.exp(2j * np.pi * np.arange(8) / 8)
    for pk in (-0.6, 0.0, 0.4, 1.01, 2.5):
        for dk in (-0.8, 0.0, 0.32, 1.0):
            p_, d_ = pk * K, dk * K
            pts = sp.stationary_points(K, p_, d_)
            for pt in pts:
                g, _ = sp._grad_hess(pt.alpha.real, pt.alpha.imag, K, p_, d_)
                assert np.linalg.norm(g) <= 1e-12 * (K + abs(p_) + abs(d_))
                if pt.kind == "maximum":
                    e = sp.classical_energy(pt.alpha, K, p_, d_)
                    assert all(e > sp.classical_energy(pt.alpha + n, K, p_, d_)
                               for n in neighbours)


def test_stationary_points_on_the_zero_pump_ring():
    # P = 0, Delta > 0: the ring |alpha|^2 = Delta/K is flat along itself
    pts = sp.stationary_points(K, 0.0, 0.5 * K)
    r = np.sqrt(0.5)
    ring = [p for p in pts if abs(p.alpha) > 0]
    assert [p.alpha for p in pts if abs(p.alpha) == 0] == [0j]
    assert len(ring) == 4
    assert all(p.kind == "degenerate" for p in ring)
    assert all(abs(p.alpha) == pytest.approx(r, rel=1e-12) for p in ring)
    assert {(round(p.alpha.real / r), round(p.alpha.imag / r))
            for p in ring} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_stationary_points_without_pump_or_detuning():
    pts = sp.stationary_points(K, 0.0, 0.0)
    assert [p.alpha for p in pts] == [0j]


def test_energy_gap_at_operating_point():
    gap = sp.energy_gap(K, P, DELTA, 30)
    assert gap / K == pytest.approx(1.3598872594055558, abs=1e-9)
    assert 1.2 <= gap / K <= 1.6


def test_energy_gap_monotone_in_pump():
    gaps = [sp.energy_gap(K, pk * K, DELTA, 30)
            for pk in np.linspace(1.0, 3.0, 6)]
    assert np.all(np.diff(gaps) > 0)


def test_energy_gap_kerr_ladder():
    assert sp.energy_gap(K, 0.0, 0.0, 20) == pytest.approx(K, rel=1e-12)


def test_quasienergies_input_validation():
    with pytest.raises(UsageError):
        sp.quasienergies(-1.0, P, DELTA, 30)
