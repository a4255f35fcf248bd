"""Operator and state primitives in the truncated Fock space."""

import numpy as np
import pytest
from scipy.linalg import expm

from kposim import fockspace as fs
from kposim.errors import (BasisError, InvalidDimensionError, TruncationError,
                           UsageError)

import oracles as orc


def test_ladder_smallest():
    a, ad = fs.ladder_ops(2)
    assert np.array_equal(a, [[0, 1], [0, 0]])
    assert np.array_equal(ad, a.conj().T)


def test_ladder_matrix_elements():
    a, _ = fs.ladder_ops(4)
    assert a[2, 3] == pytest.approx(np.sqrt(3))
    assert np.count_nonzero(a) == 3


def test_ladder_commutator():
    # [a, a†] = I away from the top truncated level
    a, ad = fs.ladder_ops(30)
    comm = a @ ad - ad @ a
    dev = comm[:29, :29] - np.eye(29)
    assert np.max(np.abs(dev)) < 1e-12


def test_ladder_matches_handbuilt():
    a, _ = fs.ladder_ops(17)
    assert np.array_equal(a, orc.ladder(17))


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        fs.ladder_ops(1)
    with pytest.raises(InvalidDimensionError):
        fs.parity_op(0)


def test_parity_diagonal():
    assert np.array_equal(np.diag(fs.parity_op(3)), [1, -1, 1])
    pi = fs.parity_op(12)
    for n in range(12):
        assert pi[n, n] == (-1) ** n
    assert np.array_equal(pi @ pi, np.eye(12))


def test_parity_commutes_with_number():
    pi = fs.parity_op(20)
    n = fs.number_op(20)
    assert np.array_equal(pi @ n, n @ pi)


def test_parity_anticommutes_with_a():
    a, _ = fs.ladder_ops(20)
    pi = fs.parity_op(20)
    anti = pi @ a + a @ pi
    assert np.max(np.abs(anti[:19, :19])) < 1e-12


def test_coherent_vacuum():
    psi = fs.coherent_state(0.0, 10)
    assert psi.amplitudes[0] == pytest.approx(1.0)
    assert np.max(np.abs(psi.amplitudes[1:])) == 0.0


def test_coherent_mean_photon_number():
    psi = fs.coherent_state(1.154, 40)
    nbar = np.vdot(psi.amplitudes, fs.number_op(40) @ psi.amplitudes).real
    assert nbar == pytest.approx(1.154 ** 2, abs=1e-6)


def test_coherent_overlap_closed_form():
    # <alpha|-alpha> = exp(-2|alpha|^2)
    plus = fs.coherent_state(1.0, 40)
    minus = fs.coherent_state(-1.0, 40)
    assert abs(np.vdot(plus.amplitudes, minus.amplitudes) - np.exp(-2.0)) < 1e-8


def test_coherent_matches_recursion_oracle():
    psi = fs.coherent_state(0.8 + 0.3j, 30)
    assert np.max(np.abs(psi.amplitudes - orc.coherent_amplitudes(0.8 + 0.3j, 30))) < 1e-12


def test_cached_log_factorials_leave_states_bit_identical(monkeypatch):
    from math import lgamma

    def uncached(alpha, dim):
        n = np.arange(dim)
        r = np.hypot(np.real(alpha), np.imag(alpha))
        log_mag = (-0.5 * np.float_power(r, 2) + n * np.log(r)
                   - 0.5 * np.array([lgamma(k + 1.0) for k in n]))
        return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))

    cases = [(0.7 + 0.4j, 12), (1.1542, 30), (-1.6 + 0.2j, 40), (0.3j, 8)]
    states = [(fs.coherent_state(a, d), fs.cat_state(a, "even", d),
               fs.cat_state(a, "odd", d)) for a, d in cases]
    table = fs._half_log_factorials(30)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1.0
    monkeypatch.setattr(fs, "_coherent_amplitudes", uncached)
    for (a, d), cached in zip(cases, states):
        reference = (fs.coherent_state(a, d), fs.cat_state(a, "even", d),
                     fs.cat_state(a, "odd", d))
        for got, want in zip(cached, reference):
            assert np.array_equal(got.amplitudes, want.amplitudes)


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        fs.coherent_state(4.0, 12)


def test_cat_limits_to_vacuum():
    psi = fs.cat_state(1e-8, "even", 10)
    assert abs(psi.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_cat_amplitudes_rows_are_the_cat_states():
    alphas = [1.1542, 0.7 + 0.4j, -0.3j, 1e-8, 0.0]
    for parity in ("even", "odd"):
        stack = fs.cat_amplitudes(alphas, parity, 20)
        assert stack.shape == (5, 20)
        for a, row in zip(alphas[:-1], stack):
            assert np.array_equal(row, fs.cat_state(a, parity, 20).amplitudes)
        # alpha = 0 gives the alpha -> 0 limit, |0> or |1>
        assert np.array_equal(stack[-1], np.eye(20)[int(parity == "odd")])
    with pytest.raises(UsageError):
        fs.cat_state(0.0, "odd", 20)


def test_cat_amplitudes_guard_every_alpha():
    with pytest.raises(TruncationError):
        fs.cat_amplitudes([0.5, 2.0, 0.5], "even", 12)     # |alpha|^2 = 4 > 12/4


def test_cat_parity_eigenstates():
    even = fs.cat_state(1.154, "even", 40)
    odd = fs.cat_state(1.154, "odd", 40)
    pi = fs.parity_op(40)
    e, o = even.amplitudes, odd.amplitudes
    assert np.vdot(e, pi @ e).real == pytest.approx(1.0, abs=1e-10)
    assert np.vdot(o, pi @ o).real == pytest.approx(-1.0, abs=1e-10)
    # opposite parity sectors are exactly orthogonal
    assert abs(np.vdot(e, o)) < 1e-12
    # even cat has no odd Fock amplitudes
    assert np.max(np.abs(even.amplitudes[1::2])) < 1e-12


def test_cat_normalization():
    for parity in ("even", "odd"):
        psi = fs.cat_state(0.9, parity, 30)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_displacement_generates_coherent():
    # |alpha> = D(alpha)|0>, with D(alpha) = exp(alpha a† - alpha* a)
    a = orc.ladder(30)
    d = expm(0.7 * (a.conj().T - a))
    psi = d @ fs.fock_state(0, 30).amplitudes
    assert np.max(np.abs(psi - fs.coherent_state(0.7, 30).amplitudes)) < 1e-8


def test_state_vector_norm_flag():
    with pytest.raises(UsageError):
        fs.StateVector(np.array([1.0, 1.0], dtype=complex))
    unnorm = fs.StateVector(np.array([1.0, 1.0], dtype=complex), normalized=False)
    assert np.linalg.norm(unnorm.amplitudes) == pytest.approx(np.sqrt(2))


def test_density_matrix_invariants():
    rho = fs.fock_state(2, 8).to_density()
    assert np.trace(rho.entries).real == pytest.approx(1.0)
    assert rho.purity() == pytest.approx(1.0)
    with pytest.raises(UsageError):
        fs.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


def test_state_fidelity_pure_states():
    # |<a|b>|^2 = exp(-|a-b|^2)
    psi = fs.coherent_state(0.5, 20)
    phi = fs.coherent_state(-0.5, 20)
    f = fs.state_fidelity(psi.to_density(), phi.to_density())
    assert f == pytest.approx(np.exp(-1.0), abs=1e-8)


def _even_odd_mixture(p, dim=20):
    even = fs.dm(fs.cat_state(1.1542, "even", dim))
    odd = fs.dm(fs.cat_state(1.1542, "odd", dim))
    return fs.DensityMatrix(p * even + (1.0 - p) * odd)


def test_state_fidelity_ket_and_rank_two_mixture_is_exact():
    # rank 2 in dim 20: square roots of the 18 roundoff eigenvalues would
    # bias the Uhlmann formula by ~1e-8
    rho = _even_odd_mixture(0.7)
    psi = fs.cat_state(1.1542, "even", 20)
    exact = float(np.real(np.vdot(psi.amplitudes,
                                  rho.entries @ psi.amplitudes)))
    assert fs.state_fidelity(rho, psi) == pytest.approx(exact, abs=1e-14)
    assert fs.state_fidelity(psi, rho) == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.3, 0.3), (0.3, 0.8),
                                  (0.9, 0.1), (1e-3, 0.5)])
def test_state_fidelity_rank_deficient_mixtures_closed_form(p, q):
    # commuting rank-2 states: F = (sqrt(p q) + sqrt((1-p)(1-q)))^2
    rho, sigma = _even_odd_mixture(p), _even_odd_mixture(q)
    closed = (np.sqrt(p * q) + np.sqrt((1.0 - p) * (1.0 - q))) ** 2
    for f in (fs.state_fidelity(rho, sigma), fs.state_fidelity(sigma, rho)):
        assert f == pytest.approx(closed, abs=1e-13)
        assert f <= 1.0


def _toy_basis(dim=30, alpha=1.154):
    from kposim import model as md
    return md.CatBasis(fs.cat_state(alpha, "even", dim),
                       fs.cat_state(alpha, "odd", dim))


def test_cardinal_populations_plus_cat():
    basis = _toy_basis()
    rho = basis.plus_cat.to_density()
    arr = fs.cardinal_populations(rho, basis)
    assert arr[0] == pytest.approx(1.0, abs=1e-10)  # +Cat
    assert arr[1] == pytest.approx(0.0, abs=1e-10)  # -Cat
    for k in range(2, 6):                           # equatorial cardinals
        assert arr[k] == pytest.approx(0.5, abs=1e-10)


def test_cardinal_populations_mixed_qubit():
    basis = _toy_basis()
    rho = fs.DensityMatrix(0.5 * (basis.plus_cat.to_density().entries
                                  + basis.minus_cat.to_density().entries),
                           physical=False)
    arr = fs.cardinal_populations(rho, basis)
    assert np.max(np.abs(arr - 0.5)) < 1e-10


def test_cardinal_populations_plus_icat():
    basis = _toy_basis()
    cards = fs.cardinal_states(basis)
    arr = fs.cardinal_populations(cards["+iCat"].to_density(), basis)
    assert arr[4] == pytest.approx(1.0, abs=1e-10)
    assert arr[5] == pytest.approx(0.0, abs=1e-10)


def test_qubit_block_and_cardinal_populations_match_their_loop_references():
    basis = _toy_basis(dim=12, alpha=0.9)
    rng = np.random.default_rng(5)
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    pair = (basis.plus_cat.amplitudes, basis.minus_cat.amplitudes)
    block = [[np.vdot(u, rho @ v) for v in pair] for u in pair]
    assert np.max(np.abs(fs.qubit_block(rho, basis) - block)) < 1e-15
    expect = [np.vdot(c.amplitudes, rho @ c.amplitudes).real
              for c in fs.cardinal_states(basis).values()]
    assert np.max(np.abs(fs.cardinal_populations(rho, basis) - expect)) < 1e-15


def test_stacked_reads_equal_the_per_state_reads_bit_for_bit():
    basis = _toy_basis(dim=12, alpha=0.9)
    g = np.random.default_rng(7).normal(size=(2, 3, 12, 24, 2)) @ [1, 1j]
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    for read in (fs.qubit_block, fs.cardinal_populations):
        stacked = read(rho, basis)
        assert stacked.shape[:2] == (2, 3)
        assert np.array_equal(stacked, [[read(r, basis) for r in row]
                                        for row in rho])


def test_norms_equal_the_norm_of_each_ket_bit_for_bit():
    for dim in (2, 9, 30, 61):
        kets = np.random.default_rng(dim).normal(size=(4, 5, dim, 2)) @ [1, 1j]
        assert np.array_equal(fs.norms(kets), [[np.linalg.norm(k) for k in row]
                                               for row in kets])


def test_cardinal_pair_sums_equal_qubit_population():
    # each axis pair sums to the same qubit-space population, also with
    # deliberate leakage outside the qubit plane
    basis = _toy_basis()
    vec = 0.8 * basis.plus_cat.amplitudes + 0.6j * basis.minus_cat.amplitudes
    vec = vec / np.linalg.norm(vec) * np.sqrt(0.91)
    vec[7] += 0.3  # ~9% leakage
    vec /= np.linalg.norm(vec)
    rho = fs.DensityMatrix(np.outer(vec, vec.conj()))
    arr = fs.cardinal_populations(rho, basis)
    z_sum, x_sum, y_sum = arr[0::2] + arr[1::2]
    assert abs(z_sum - x_sum) < 1e-9
    assert abs(z_sum - y_sum) < 1e-9
    assert z_sum < 0.99  # the leaked part is really outside


def test_cat_basis_rejects_a_nonorthogonal_pair():
    from kposim import model as md
    dim = 30
    p = fs.cat_state(1.154, "even", dim)
    skew = fs.StateVector((p.amplitudes + fs.cat_state(1.154, "odd", dim).amplitudes)
                          / np.sqrt(2.0))
    with pytest.raises(BasisError, match="not orthonormal"):
        md.CatBasis(p, skew)


def test_cat_basis_rejects_a_pair_skewed_below_the_state_norm_check():
    # the coherent cardinals of this pair would miss the 1e-10 norm check
    # of StateVector, so the pair itself is refused
    from kposim import model as md
    dim = 8
    one = fs.fock_state(1, dim).amplitudes + 5e-9 * fs.fock_state(0, dim).amplitudes
    with pytest.raises(BasisError, match="not orthonormal"):
        md.CatBasis(fs.fock_state(0, dim),
                    fs.StateVector(one / np.linalg.norm(one)))


def test_a_pair_just_inside_the_basis_check_yields_its_cardinal_states():
    # squared norms 1 + d and overlap d, each just under the 1e-10 check:
    # the coherent cardinals reach squared norm 1 + 2d, norm 1 + d
    from kposim import model as md
    dim, d = 8, 0.99e-10
    zero, one = fs.fock_state(0, dim).amplitudes, fs.fock_state(1, dim).amplitudes
    e = d / np.sqrt(1.0 + d)
    basis = md.CatBasis(
        fs.StateVector(np.sqrt(1.0 + d) * zero),
        fs.StateVector(np.sqrt(1.0 + d - e * e) * one + e * zero))
    cards = fs.cardinal_states(basis)
    assert np.linalg.norm(cards["+Coh"].amplitudes) == pytest.approx(
        1.0 + d, abs=1e-14)


def test_cardinal_labels_order():
    assert fs.CARDINAL_LABELS == ("+Cat", "-Cat", "+Coh", "-Coh", "+iCat", "-iCat")
