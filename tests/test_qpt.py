"""Effective-qubit extraction, chi matrices, calibration, and QPT runs."""

import numpy as np
import pytest

import oracles as orc
from kposim import fockspace as fs
from kposim import model as md
from kposim import qpt
from kposim import spectral as sp
from kposim.errors import (CalibrationError, InvalidDimensionError,
                           ScheduleError, SpanError, UsageError)

PARAMS = md.SystemParams.from_mhz(3.1, 3.13, 1.0, 0.65, dim=30)
FOCK = md.CatBasis(fs.fock_state(0, 30), fs.fock_state(1, 30))

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_effective_qubit_fock_ground_state():
    q = qpt.effective_qubit(fs.dm(fs.fock_state(0, 30)), FOCK)
    assert np.max(np.abs(q.matrix - np.diag([1.0, 0.0]))) < 1e-12
    assert q.trace == pytest.approx(1.0, abs=1e-12)
    assert q.leakage == pytest.approx(0.0, abs=1e-12)


def test_effective_qubit_cat_basis():
    basis = md.cat_basis_from_model(PARAMS)
    q = qpt.effective_qubit(basis.plus_cat.to_density(), basis)
    assert np.max(np.abs(q.matrix - np.diag([1.0, 0.0]))) < 1e-9


def test_effective_qubit_reports_leakage():
    rho = 0.95 * fs.dm(fs.fock_state(0, 30)) + 0.05 * fs.dm(fs.fock_state(5, 30))
    q = qpt.effective_qubit(rho, FOCK)
    assert q.trace == pytest.approx(0.95, abs=1e-6)
    assert q.leakage == pytest.approx(0.05, abs=1e-6)


def test_effective_qubit_is_linear():
    r1 = fs.dm(fs.fock_state(0, 30))
    r2 = fs.dm(fs.coherent_state(0.4, 30))
    both = qpt.effective_qubit(0.3 * r1 + 0.7 * r2, FOCK).matrix
    sep = (0.3 * qpt.effective_qubit(r1, FOCK).matrix
           + 0.7 * qpt.effective_qubit(r2, FOCK).matrix)
    assert np.max(np.abs(both - sep)) < 1e-12


def test_dim_mismatch_raises_the_same_error_from_both_block_readers():
    rho = fs.dm(fs.fock_state(0, 20))
    for read in (fs.cardinal_populations, qpt.effective_qubit):
        with pytest.raises(InvalidDimensionError, match="state dim 20"):
            read(rho, FOCK)
    assert issubclass(InvalidDimensionError, UsageError)


def test_qubit_density_validation():
    with pytest.raises(UsageError):
        qpt.QubitDensity(np.eye(3))
    with pytest.raises(UsageError):
        qpt.QubitDensity(np.array([[0.5, 1j], [2j, 0.5]]))
    with pytest.raises(UsageError):
        qpt.QubitDensity(np.diag([1.1, 0.2]))


def test_process_matrix_validation_and_access():
    with pytest.raises(UsageError):
        qpt.ProcessMatrix(np.eye(3))
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(UsageError):
        qpt.ProcessMatrix(bad)
    pm = qpt.ProcessMatrix(np.diag([0.5, 0.25, 0.15, 0.1]).astype(complex))
    assert pm.component("XX") == pytest.approx(0.25)
    assert pm.component("-iY-iY") == pytest.approx(0.15)
    assert pm.component("IZ") == pytest.approx(0.0)
    with pytest.raises(UsageError):
        pm.component("QQ")


def test_identity_channel_chi():
    inputs = qpt.standard_input_states()
    pm = qpt.chi_matrix(inputs, inputs)
    assert np.max(np.abs(pm.chi - np.diag([1.0, 0, 0, 0]))) < 1e-9


def test_pauli_conjugations_are_one_hot():
    inputs = qpt.standard_input_states()
    for idx, u in ((1, X), (2, Y), (3, Z)):
        outputs = [u @ r @ u.conj().T for r in inputs]
        pm = qpt.chi_matrix(inputs, outputs)
        expected = np.zeros((4, 4))
        expected[idx, idx] = 1.0
        assert np.max(np.abs(pm.chi - expected)) < 1e-9


def test_quarter_x_rotation_closed_form():
    u = (I2 - 1j * X) / np.sqrt(2.0)
    inputs = qpt.standard_input_states()
    pm = qpt.chi_matrix(inputs, [u @ r @ u.conj().T for r in inputs])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[1, 1] = 0.5
    expected[0, 1] = 0.5j
    expected[1, 0] = -0.5j
    assert np.max(np.abs(pm.chi - expected)) < 1e-9
    # cross-check against the rank-1 construction from the unitary itself
    assert np.max(np.abs(pm.chi - orc.chi_of_unitary(u))) < 1e-9
    assert np.max(np.abs(qpt.ideal_chi(u).chi - orc.chi_of_unitary(u))) < 1e-12


def test_chi_of_a_trace_decreasing_channel_reproduces_its_action():
    rng = np.random.default_rng(11)
    kraus = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
             for _ in range(3)]
    gram = sum(k.conj().T @ k for k in kraus)
    kraus = [k / np.sqrt(1.25 * np.linalg.eigvalsh(gram)[-1]) for k in kraus]

    def channel(rho):
        return sum(k @ rho @ k.conj().T for k in kraus)

    def from_chi(chi, rho):
        return sum(chi[m, n] * qpt.CHI_OPS[m] @ rho @ qpt.CHI_OPS[n].conj().T
                   for m in range(4) for n in range(4))

    inputs = qpt.standard_input_states()
    pm = qpt.chi_matrix(inputs, [channel(r) for r in inputs])
    psi = np.array([0.6, 0.8 * np.exp(0.7j)])
    fifth = np.outer(psi, psi.conj())
    for rho in [*inputs, fifth]:
        assert np.max(np.abs(from_chi(pm.chi, rho) - channel(rho))) < 1e-12
    assert pm.herm_residual < 1e-12
    assert pm.tp_residual > 0.1


def test_non_spanning_inputs_raise():
    diag_only = [np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex),
                 np.diag([0.5, 0.5]).astype(complex),
                 np.diag([0.3, 0.7]).astype(complex)]
    with pytest.raises(SpanError):
        qpt.chi_matrix(diag_only, diag_only)


def test_chi_matrix_needs_four_pairs():
    inputs = qpt.standard_input_states()
    with pytest.raises(UsageError):
        qpt.chi_matrix(inputs[:3], inputs[:3])


def test_process_fidelity_basics():
    ident = qpt.ideal_chi(I2)
    assert qpt.process_fidelity(ident, ident) == pytest.approx(1.0, abs=1e-12)
    # fully depolarizing channel: outputs are all I/2
    inputs = qpt.standard_input_states()
    pm = qpt.chi_matrix(inputs, [I2 / 2.0] * 4)
    assert np.max(np.abs(pm.chi - 0.25 * np.eye(4))) < 1e-9
    assert qpt.process_fidelity(pm, ident) == pytest.approx(0.25, abs=1e-9)


def test_process_fidelity_unitary_covariance():
    # F(chi_u, chi_w) = |Tr(u+ w)|^2 / 4 is invariant under a common rotation
    rng = np.random.default_rng(3)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = np.linalg.qr(h)[0]
    u = (I2 - 1j * X) / np.sqrt(2.0)
    w = (I2 - 1j * Z) / np.sqrt(2.0)
    f0 = qpt.process_fidelity(qpt.ideal_chi(u), qpt.ideal_chi(w))
    f1 = qpt.process_fidelity(qpt.ideal_chi(v @ u), qpt.ideal_chi(v @ w))
    assert f0 == pytest.approx(f1, abs=1e-9)
    assert f0 == pytest.approx(abs(np.trace(u.conj().T @ w)) ** 2 / 4.0,
                               abs=1e-12)


def test_process_fidelity_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(UsageError):
        qpt.process_fidelity(bad, qpt.ideal_chi(I2))


# ---------------------------------------------------------------------------
# calibration


def test_x2_coupling_value():
    basis = md.cat_basis_from_model(PARAMS)
    g = qpt.x2_coupling(basis)
    assert g == pytest.approx(2.3730882379870977, abs=1e-9)
    # large-cat limit: <+|x|-> -> 2 alpha, alpha = sqrt((P + Delta)/K)
    alpha_c = np.sqrt((PARAMS.P_max + PARAMS.Delta) / PARAMS.K)
    assert g == pytest.approx(2.0 * alpha_c, rel=0.05)


def test_calibrate_x2():
    cal = qpt.calibrate_x2(PARAMS)
    assert cal["duration"] == pytest.approx(0.08285225368239367, abs=1e-6)
    assert cal["two_level_estimate"] == pytest.approx(0.08103689076088112,
                                                      abs=1e-9)
    # the full-model optimum sits within a few percent of the two-level time
    assert abs(cal["duration"] / cal["two_level_estimate"] - 1.0) < 0.05
    assert cal["infidelity"] == pytest.approx(0.02000645208105023, abs=1e-6)
    assert cal["infidelity"] < 0.05


def test_calibrate_x2_frames_with_the_qubit_splitting():
    # the gate frames read the splitting of the cat basis's own pair
    w = qpt.calibrate_x2(PARAMS)["splitting"]
    args = (PARAMS.K, PARAMS.P_max, PARAMS.Delta, PARAMS.dim)
    assert w == sp.qubit_splitting(*args)[0]
    assert w == sp.quasienergies(*args).splitting


def test_calibrate_x2_needs_positive_drive():
    with pytest.raises(CalibrationError):
        qpt.calibrate_x2(PARAMS.with_(beta=0.0))


def test_calibrate_z2():
    cal = qpt.calibrate_z2(PARAMS)
    assert cal["delta_peak"] == pytest.approx(28.03998479523277, abs=1e-6)
    assert cal["splitting"] == pytest.approx(2.003612881897105, abs=1e-9)
    # the chirp has to dip the detuning through zero to slow the precession
    # enough for a quarter turn in 500 ns
    assert cal["delta_peak"] > 2.0 * PARAMS.Delta


def test_calibrate_z2_depth_cap():
    with pytest.raises(CalibrationError):
        qpt.calibrate_z2(PARAMS, tau_Z=0.01)


@pytest.mark.parametrize("tau_Z", [0.0, -0.5])
def test_calibrate_z2_rejects_a_nonpositive_gate_time_as_chirp_schedule_does(
        tau_Z):
    for call in (lambda: qpt.calibrate_z2(PARAMS, tau_Z=tau_Z),
                 lambda: md.chirp_schedule(1.0, tau_Z, PARAMS.P_max,
                                           PARAMS.Delta)):
        with pytest.raises(ScheduleError, match="tau_Z must be positive"):
            call()


# ---------------------------------------------------------------------------
# experiments


def test_mapping_qpt_noiseless():
    res = qpt.qpt_experiment("mapping", PARAMS)
    assert res.fidelity == pytest.approx(0.995079776107275, abs=1e-9)
    assert res.fidelity >= 0.95
    assert abs(res.chi.component("XX")) < 0.01
    assert abs(res.chi.component("ZZ")) < 0.01
    assert max(res.leakages) < 0.01
    assert min(q.trace for q in res.outputs) >= 0.99
    # physical process matrix: no significantly negative eigenvalues
    assert np.linalg.eigvalsh(res.chi.chi).min() > -1e-7
    # the mapping's target is the identity
    assert res.fidelity == qpt.process_fidelity(res.chi, qpt.ideal_chi(I2))


def test_x2_qpt_noiseless():
    res = qpt.qpt_experiment("x2", PARAMS)
    assert res.fidelity == pytest.approx(0.9679482738026499, abs=1e-9)
    assert res.fidelity >= 0.95
    # the gate action lives in the I/X block
    assert res.chi.component("XX").real == pytest.approx(0.5, abs=0.05)
    assert abs(res.chi.component("ZZ")) < 0.01


def test_z2_qpt_noiseless():
    res = qpt.qpt_experiment("z2", PARAMS)
    assert res.fidelity == pytest.approx(0.953629220203449, abs=1e-9)
    assert res.fidelity >= 0.9
    assert res.chi.component("ZZ").real == pytest.approx(0.5, abs=0.05)
    assert abs(res.chi.component("XX")) < 0.01


def test_qpt_with_loss():
    lossy = PARAMS.with_(kappa=0.1)
    f_map = qpt.qpt_experiment("mapping", lossy).fidelity
    assert f_map == pytest.approx(0.9704861762408301, abs=1e-9)
    res_x = qpt.qpt_experiment("x2", lossy)
    res_z = qpt.qpt_experiment("z2", lossy)
    assert res_x.fidelity == pytest.approx(0.9566536892753688, abs=1e-9)
    assert res_z.fidelity == pytest.approx(0.9055703590659187, abs=1e-9)
    # the slower gate pays more: photon loss hits the z rotation hardest
    assert res_z.fidelity < res_x.fidelity < f_map
    # loss acts as cat-space bit flips: X-type error beats Y-type on the chirp
    assert res_z.chi.component("XX").real > res_z.chi.component("-iY-iY").real


def test_mapping_detuning_jitter_shows_up_as_zz():
    nom = qpt.qpt_experiment("mapping", PARAMS)
    jit = qpt.qpt_experiment("mapping", PARAMS,
                             detuning_offset=0.05 * PARAMS.K)
    assert jit.fidelity == pytest.approx(0.9740551637925065, abs=1e-9)
    assert jit.fidelity < nom.fidelity
    # a pump-frequency offset leaves a phase (z-type) error, not a flip
    assert jit.chi.component("ZZ").real > 100 * nom.chi.component("ZZ").real
    assert abs(jit.chi.component("XX")) < 1e-9


def test_qpt_unknown_kind():
    with pytest.raises(UsageError):
        qpt.qpt_experiment("swap", PARAMS)
