"""Effective-qubit extraction and single-qubit process tomography.

The qubit lives in the pair of a :class:`kposim.model.CatBasis`: the cat
pair, or the Fock pair (|0>, |1>) before the mapping ramp.  Effective qubit
matrices are deliberately left unnormalized so population leaking out of the
qubit space stays visible as a trace deficit.  The chi matrix comes from one
linear solve: the channel's 4x4 superoperator from the four input/output
pairs, read in the fixed operator basis (I, X, -iY, Z).

Gate and mapping experiments are evaluated in the frame co-rotating with the
qubit's free evolution: the deterministic dynamical phase accumulated at the
quasienergy splitting (and, for the mapping ramp, the branch phases of the
reference propagation) is absorbed into the output-basis phase convention,
the same bookkeeping an experiment performs when it locks its analysis frame
to the free precession.  What remains in chi is genuine error: leakage,
loss, and miscalibration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import dynamics as dyn
from . import fockspace as fs
from . import model as md
from . import spectral as sp
from .errors import CalibrationError, ScheduleError, SpanError, UsageError

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# fixed operator basis of the chi representation; the -iY element makes all
# four matrices real, the convention the bar plots use
CHI_OPS = (_I2, _X, -1j * _Y, _Z)
CHI_LABELS = ("I", "X", "-iY", "Z")

# column 4m+n is the row-major vec of E_m (x) conj E_n, the superoperator of
# rho -> E_m rho E_n†
_CHI_FRAME = np.stack([np.kron(em, en.conj()).reshape(-1)
                       for em in CHI_OPS for en in CHI_OPS], axis=1)


@dataclass(frozen=True)
class QubitDensity:
    """2x2 effective qubit block of a full oscillator state, unnormalized."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise UsageError(f"qubit matrix must be 2x2, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise UsageError("qubit matrix not Hermitian")
        tr = np.trace(m).real
        if tr < -1e-10 or tr > 1.0 + 1e-8:
            raise UsageError(f"qubit trace {tr} outside [0, 1]")
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self):
        return float(np.trace(self.matrix).real)

    @property
    def leakage(self):
        return 1.0 - self.trace


@dataclass(frozen=True)
class ProcessMatrix:
    """chi matrix over (I, X, -iY, Z) with bookkeeping residuals.

    ``herm_residual`` is the anti-Hermitian part removed when symmetrizing;
    ``tp_residual`` reports how far sum_mn chi_mn E_n† E_m is from the
    identity (not enforced: trace-decreasing maps are legitimate here).
    """

    chi: np.ndarray
    herm_residual: float = 0.0
    tp_residual: float = 0.0
    labels: tuple = CHI_LABELS

    def __post_init__(self):
        c = np.asarray(self.chi, dtype=complex)
        if c.shape != (4, 4):
            raise UsageError(f"chi must be 4x4, got {c.shape}")
        if np.max(np.abs(c - c.conj().T)) > 1e-9:
            raise UsageError("chi not Hermitian after symmetrization")
        object.__setattr__(self, "chi", c)

    def component(self, name):
        """chi entry by label pair, e.g. component('XX') or component('IZ')."""
        half = len(name) // 2
        a, b = name[:half], name[half:]
        if a not in self.labels or b not in self.labels:
            raise UsageError(f"unknown component {name!r}; labels {self.labels}")
        return complex(self.chi[self.labels.index(a), self.labels.index(b)])


def effective_qubits(rhos, basis):
    """Project a (B, dim, dim) stack onto a CatBasis pair, unrenormalized.

    Each state's Hermitized :func:`kposim.fockspace.qubit_block`, in a
    tuple of B QubitDensity; its trace deficit measures leakage.
    """
    block = fs.qubit_block(rhos, basis)
    hermitian = 0.5 * (block + block.conj().swapaxes(-1, -2))
    return tuple(map(QubitDensity, hermitian))


# ---------------------------------------------------------------------------
# chi assembly


#: the cardinal states each process is run on, as the textbook preparation
#: set |0>, |1>, |+>, |+i> of the qubit
_PREPARED = ("+Cat", "-Cat", "+Coh", "+iCat")


def standard_input_states():
    """The qubit density matrices of the preparations :data:`_PREPARED`.

    |0><0|, |1><1|, |+><+| and |+i><+i|, from their rows of
    :data:`kposim.fockspace.CARDINAL_COEFFS`.
    """
    kets = fs.CARDINAL_COEFFS[[fs.CARDINAL_LABELS.index(c) for c in _PREPARED]]
    return [np.outer(k, k.conj()) for k in kets]


def _as_matrix(q):
    return q.matrix if isinstance(q, QubitDensity) else np.asarray(q, dtype=complex)


def chi_matrix(inputs, outputs):
    """Process matrix from four input/output effective-qubit pairs.

    Solves S R_in = R_out for the channel's 4x4 superoperator S (R holds
    the row-major vec of each state as a column) and reads chi off S in
    the fixed frame :data:`_CHI_FRAME`: S = sum_mn chi_mn E_m (x) conj E_n,
    and the frame's columns are orthogonal with norm 2.  This is the unique
    chi of the linear inversion of Chuang & Nielsen (J. Mod. Opt. 44, 2455,
    1997).  Inputs failing to span the qubit operator space raise
    :class:`SpanError`.  The returned chi is Hermitized and the removed
    anti-Hermitian residual reported.
    """
    if len(inputs) != 4 or len(outputs) != 4:
        raise UsageError("need exactly 4 input and 4 output states")
    r_in = np.stack([_as_matrix(q).reshape(-1) for q in inputs], axis=1)
    r_out = np.stack([_as_matrix(q).reshape(-1) for q in outputs], axis=1)
    sv = np.linalg.svd(r_in, compute_uv=False)
    if sv[-1] < 1e-8:
        raise SpanError(
            f"input states do not span the qubit operator space "
            f"(smallest singular value {sv[-1]:.3e})")
    sup = np.linalg.solve(r_in.T, r_out.T).T
    chi = (_CHI_FRAME.conj().T @ sup.reshape(-1) / 4.0).reshape(4, 4)
    herm_res = float(np.max(np.abs(chi - chi.conj().T)))
    chi = 0.5 * (chi + chi.conj().T)
    tp = sum(chi[m, n] * (CHI_OPS[n].conj().T @ CHI_OPS[m])
             for m in range(4) for n in range(4))
    tp_res = float(np.max(np.abs(tp - _I2)))
    return ProcessMatrix(chi, herm_residual=herm_res, tp_residual=tp_res)


def ideal_chi(unitary):
    """Rank-1 chi of a 2x2 unitary, trace-normalized."""
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (2, 2):
        raise UsageError("unitary must be 2x2")
    m = np.array([np.trace(e.conj().T @ u) / 2.0 for e in CHI_OPS])
    chi = np.outer(m, m.conj())
    chi /= np.trace(chi).real
    return ProcessMatrix(chi)


def process_fidelity(chi, ideal):
    """Tr[chi_ideal chi] with the ideal normalized to unit trace."""
    c = chi.chi if isinstance(chi, ProcessMatrix) else np.asarray(chi)
    ci = ideal.chi if isinstance(ideal, ProcessMatrix) else np.asarray(ideal)
    if np.max(np.abs(c - c.conj().T)) > 1e-8 or np.max(np.abs(ci - ci.conj().T)) > 1e-8:
        raise UsageError("process_fidelity needs Hermitian chi matrices")
    tr = np.trace(ci).real
    if abs(tr) < 1e-12:
        raise UsageError("ideal chi has zero trace")
    return float(np.real(np.trace(ci @ c)) / tr)


# ---------------------------------------------------------------------------
# gate calibration


def x2_coupling(basis):
    """Drive matrix element 2 beta_unit between the cat pair, rad/us per beta.

    The in-phase drive couples the two cat states through
    <+|a†|-> + <+|a|->; with the positive-real phase convention both terms
    are real, so a zero-phase drive rotates about the x axis.
    """
    a, adag = fs.ladder_ops(basis.dim)
    bp = basis.plus_cat.amplitudes
    bm = basis.minus_cat.amplitudes
    g = bp.conj() @ ((a + adag) @ bm)
    if abs(g.imag) > 1e-8 * max(abs(g.real), 1e-12):
        raise CalibrationError(
            f"cat-pair drive coupling is not real ({g:.3e}); "
            "basis phase convention violated")
    return float(g.real)


def calibrate_x2(params):
    """Duration of the resonant pulse implementing a quarter x rotation.

    Scans the lossless pulse duration around the two-level estimate
    t = (pi/2) / (2 beta g), beta = ``params.beta``, and maximizes overlap
    with the target action on |+Cat> (free qubit precession at the splitting
    w of :func:`kposim.spectral.qubit_splitting` divided out, returned as
    ``"splitting"``), so the calibration absorbs the drive's effect on the
    full oscillator rather than trusting the projected two-level rate.
    """
    beta = params.beta
    if beta <= 0:
        raise CalibrationError("x2 calibration needs a positive drive amplitude")
    basis = md.cat_basis_from_model(params)
    g = x2_coupling(basis)
    w = sp.qubit_splitting(params.K, params.P_max, params.Delta, params.dim)[0]
    t0 = 0.25 * np.pi / (beta * abs(g))
    bp = basis.plus_cat.amplitudes
    bm = basis.minus_cat.amplitudes
    psi0 = basis.plus_cat
    lossless = params.with_(kappa=0.0)

    def infidelity(tau):
        sched = md.drive_schedule(tau, beta, 0.0, 0.0, params.P_max,
                                  params.Delta)
        out = dyn.propagate(lossless, sched, psi0).states[-1]
        # the global phase exp(-i E_even tau) drops out of the overlap
        target = (bp - 1j * np.exp(-1j * w * tau) * bm) / np.sqrt(2.0)
        return 1.0 - abs(np.vdot(target, out)) ** 2

    res = minimize_scalar(infidelity, bounds=(0.6 * t0, 1.6 * t0),
                          method="bounded",
                          options={"xatol": 1e-7, "maxiter": 80})
    if not res.success or res.fun > 0.2:
        raise CalibrationError(
            f"x2 duration scan failed (best infidelity {res.fun:.3f})")
    return {"duration": float(res.x), "beta": float(beta),
            "coupling": g, "infidelity": float(res.fun),
            "two_level_estimate": float(t0), "splitting": float(w)}


def calibrate_z2(params, tau_Z=0.5):
    """Chirp depth (rad/us) whose adiabatic phase implements R_z(pi/2).

    The rotation relative to free precession is the integrated splitting
    deficit int [w(Delta0) - w(Delta0 - delta sin^2(pi t/tau)/2)] dt,
    evaluated by 32-node Gauss-Legendre quadrature over the pulse (one
    :func:`kposim.spectral.qubit_splitting` stack per evaluation) and
    solved for the chirp depth with a bracketing root finder.  Positive
    depth lowers the splitting, rotating counterclockwise (+z).  A pulse
    too short to reach the angle below a depth of 6K raises
    :class:`CalibrationError`; a nonpositive ``tau_Z`` raises
    :class:`ScheduleError`, as :func:`kposim.model.chirp_schedule` does.
    """
    if tau_Z <= 0:
        raise ScheduleError(f"tau_Z must be positive, got {tau_Z}")
    angle = 0.5 * np.pi
    cap = 6.0 * params.K
    K, P, dim = params.K, params.P_max, params.dim
    w0 = sp.qubit_splitting(K, P, params.Delta, dim)[0]
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t_nodes = 0.5 * tau_Z * (nodes + 1.0)
    w_scaled = 0.5 * tau_Z * weights
    prof = np.sin(np.pi * t_nodes / tau_Z) ** 2

    @functools.lru_cache(maxsize=None)  # brentq re-asks the bracket ends
    def extra_angle(depth):
        deltas = params.Delta - 0.5 * depth * prof
        w = sp.qubit_splitting(K, P, deltas, dim)
        return float(np.sum(w_scaled * (w0 - w))) - angle

    lo, hi = 0.0, 0.25 * params.K
    f_lo = extra_angle(lo)
    while extra_angle(hi) < 0.0:
        hi *= 1.6
        if hi > cap:
            raise CalibrationError(
                f"chirp depth above cap {cap:.1f} rad/us cannot reach "
                f"rotation angle {angle:.3f}")
    depth = brentq(extra_angle, lo, hi, xtol=1e-10, rtol=1e-12)
    if depth <= 0.0 and f_lo < 0.0:
        raise CalibrationError("z2 calibration found no positive chirp depth")
    return {"delta_peak": float(depth), "tau_Z": float(tau_Z),
            "angle": float(angle), "splitting": float(w0)}


# ---------------------------------------------------------------------------
# experiments


def _phase_shifted_basis(basis, phi_plus, phi_minus):
    return md.CatBasis(
        plus_cat=fs.StateVector(np.exp(1j * phi_plus)
                                * basis.plus_cat.amplitudes),
        minus_cat=fs.StateVector(np.exp(1j * phi_minus)
                                 * basis.minus_cat.amplitudes))


def _cardinal_kets(basis):
    cards = fs.cardinal_states(basis)
    return [cards[c] for c in _PREPARED]


@dataclass(frozen=True)
class QptResult:
    kind: str
    chi: ProcessMatrix
    fidelity: float
    outputs: tuple
    calibration: dict = field(default_factory=dict)

    @property
    def leakages(self):
        return tuple(q.leakage for q in self.outputs)


def qpt_experiment(kind, params, tau_ramp=0.3, tau_Z=0.5,
                   detuning_offset=0.0):
    """Run process tomography of the mapping or a cat-qubit gate.

    ``kind`` is 'mapping' (Fock qubit -> cat qubit via the counterdiabatic
    ramp), 'x2' (resonant drive pulse of calibrated duration) or 'z2'
    (pump-frequency chirp of calibrated depth over ``tau_Z``).  The process
    runs at the loss rate ``params.kappa``; calibration and reference runs
    are lossless.  ``detuning_offset`` (rad/us) shifts the detuning during
    the process run only — calibration and analysis stay at the nominal
    parameters, so the offset shows up as process error (the pump-frequency
    fluctuation study).
    """
    basis = md.cat_basis_from_model(params)
    run_params = params.with_(Delta=params.Delta + detuning_offset)

    if kind == "mapping":
        sched = md.ramp_schedule(run_params.P_max, tau_ramp, run_params.Delta)
        ref_sched = md.ramp_schedule(params.P_max, tau_ramp, params.Delta)
        fock = md.CatBasis(fs.fock_state(0, params.dim),
                           fs.fock_state(1, params.dim))
        kets = _cardinal_kets(fock)
        # reference propagation at nominal parameters fixes the output-basis
        # phases (the deterministic branch phases of the ramp)
        refs = dyn.propagate_many(params.with_(kappa=0.0), ref_sched,
                                  kets[:2]).states[:, -1]
        pair = np.array([basis.plus_cat.amplitudes,
                         basis.minus_cat.amplitudes])
        # the per-row dot products of np.vdot
        ovs = (pair.conj()[:, None, :] @ refs[:, :, None])[:, 0, 0]
        if np.abs(ovs).min() < 0.5:
            raise CalibrationError(
                f"reference mapping overlap {np.abs(ovs).min():.3f} too small "
                "to fix the output phase")
        phis = np.angle(ovs)
        out_tag_basis = _phase_shifted_basis(basis, phis[0], phis[1])
        ideal = ideal_chi(_I2)
        calibration = {"phase_plus": phis[0], "phase_minus": phis[1],
                       "tau_ramp": tau_ramp}
    elif kind in ("x2", "z2"):
        kets = _cardinal_kets(basis)
        if kind == "x2":
            cal = calibrate_x2(params)
            tau_gate = cal["duration"]
            sched = md.drive_schedule(tau_gate, cal["beta"], 0.0, 0.0,
                                      run_params.P_max, run_params.Delta)
            ideal = ideal_chi((_I2 - 1j * _X) / np.sqrt(2.0))
        else:
            cal = calibrate_z2(params, tau_Z=tau_Z)
            tau_gate = tau_Z
            sched = md.chirp_schedule(cal["delta_peak"], tau_Z,
                                      run_params.P_max, run_params.Delta)
            # counterclockwise quarter turn: R_z(pi/2)
            ideal = ideal_chi(np.diag([np.exp(-0.25j * np.pi),
                                       np.exp(0.25j * np.pi)]))
        # free-precession frame: outputs are read against the basis phases
        # freely evolved over the gate duration, up to a global phase
        out_tag_basis = _phase_shifted_basis(basis, 0.0,
                                             -cal["splitting"] * tau_gate)
        calibration = dict(cal)
        calibration["duration"] = tau_gate
    else:
        raise UsageError(f"kind must be 'mapping', 'x2' or 'z2', got {kind!r}")

    final = dyn.propagate_many(run_params, sched, kets).densities[:, -1]
    outputs = effective_qubits(final, out_tag_basis)
    chi = chi_matrix(standard_input_states(), outputs)
    fid = process_fidelity(chi, ideal)
    return QptResult(kind=kind, chi=chi, fidelity=fid,
                     outputs=outputs, calibration=calibration)
