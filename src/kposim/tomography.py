"""Wigner maps, simulated displaced-parity measurement, and reconstruction.

The Wigner function is evaluated in its displaced-parity form
W(alpha) = (2/pi) Tr[D(alpha) Pi D†(alpha) rho], with D(x + iy) split as
D(iy) D(x) for maps, records and the reconstruction design alike, one row
of fixed Im alpha at a time, each point of a row costing O(dim²); a stack
of states shares each row's displacement.  A simulated measurement applies
a short, strong displacement pulse under the full nonlinear model (the Kerr
term distorts the displacement — the effect the postprocessing correction
removes) followed by a parity readout.  A lossless record moves kets;
``propagate_many`` promotes a lossy record's states to density matrices.
Density matrices are recovered from parity records by projected least squares.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import fockspace as fs
from . import model as md
from .errors import (GridExtentError, InvalidDimensionError,
                     ReconstructionError, TruncationError, UsageError)

TWO_OVER_PI = 2.0 / np.pi


def default_grid(dim, points=81):
    """Uniform grid for one phase-space axis, capped at the safe extent.

    The displaced-parity evaluation is only trustworthy while the displaced
    state fits the truncation, i.e. for |alpha| <= sqrt(dim)/2; the +-3
    window is clipped to that bound.
    """
    extent = min(3.0, np.sqrt(dim) / 2.0)
    return np.linspace(-extent, extent, points)


@dataclass(frozen=True)
class WignerMap:
    """W(alpha) sampled on a rectangular grid.

    ``values[r, c]`` is W(re_grid[c] + 1j * im_grid[r]), in units of inverse
    phase-space area.
    """

    re_grid: np.ndarray
    im_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re_grid, dtype=float)
        im = np.asarray(self.im_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (im.size, re.size):
            raise UsageError(
                f"values shape {v.shape} != (len(im_grid), len(re_grid)) = "
                f"({im.size}, {re.size})")
        if np.max(np.abs(v)) > TWO_OVER_PI + 1e-9:
            raise UsageError(
                f"|W| exceeds 2/pi: max {np.max(np.abs(v)):.6f}")
        object.__setattr__(self, "re_grid", re)
        object.__setattr__(self, "im_grid", im)
        object.__setattr__(self, "values", v)

    def integral(self):
        """Riemann sum of W over the grid (should be ~1 for contained states)."""
        dre = self.re_grid[1] - self.re_grid[0] if self.re_grid.size > 1 else 0.0
        dim_ = self.im_grid[1] - self.im_grid[0] if self.im_grid.size > 1 else 0.0
        return float(self.values.sum() * dre * dim_)

    def at_origin(self):
        """W(0), parity/(pi/2), when the grid contains the origin."""
        r = np.argmin(np.abs(self.im_grid))
        c = np.argmin(np.abs(self.re_grid))
        if abs(self.im_grid[r]) > 1e-12 or abs(self.re_grid[c]) > 1e-12:
            raise UsageError("grid does not contain the origin")
        return float(self.values[r, c])


class _DisplacementFactory:
    """Displaced parities from two fixed eigendecompositions.

    D(x + iy) equals D(iy) D(x) up to a global phase, which cancels in
    D Pi D†.  With G = i(a† - a) = W diag(g) W† and Q = a† + a =
    V diag(q) V†, D(x) = W diag(v) W† with v = exp(-i x g) and D(iy) =
    V exp(i y q) V†, so one eigh each serves every point.  The points of a
    row of fixed y share B_y = V exp(i y q) V† W, and with P = W† Pi W
    D(x + iy) Pi D†(x + iy) = B_y ((v v†) ∘ P) B_y†.
    """

    def __init__(self, dim):
        a, adag = fs.ladder_ops(dim)
        signs = 1.0 - 2.0 * (np.arange(dim) % 2)
        g, w = np.linalg.eigh(1j * (adag - a))
        q, qv = np.linalg.eigh(adag + a)
        # read-only: one factory per dim is shared by every caller
        self._g, self._q, self._qv = map(fs._readonly, (g, q, qv))
        self._qw = fs._readonly(qv.conj().T @ w)
        self._parity = fs._readonly((w.conj().T * signs) @ w)

    def _rows(self, alphas):
        """Point indices, B_y and the v of each point, row by row."""
        ys, row, counts = np.unique(alphas.imag, return_inverse=True,
                                    return_counts=True)
        xs, col = np.unique(alphas.real, return_inverse=True)
        vs = np.exp(-1j * np.outer(xs, self._g))
        rows = np.split(np.argsort(row, kind="stable"), np.cumsum(counts)[:-1])
        for y, idx in zip(ys, rows):
            b = (self._qv * np.exp(1j * y * self._q)) @ self._qw
            yield idx, b, vs[col[idx]]

    def parities(self, rhos, alphas):
        """Tr[D(alpha) Pi D†(alpha) rho] at each of ``alphas``, shape (S, n).

        ``rhos`` is a (S, dim, dim) stack that shares each row's B_y.
        M = (B_y† rho B_y) ∘ Pᵀ costs dim³ once per state and row, and each
        point is Re[v† M v], O(dim²).
        """
        out = np.empty((len(rhos), alphas.size))
        for idx, b, v in self._rows(alphas):
            m = (b.conj().T @ rhos @ b) * self._parity.T
            out[:, idx] = np.real(np.sum((v.conj() @ m) * v, axis=-1))
        return out

    def observables(self, alphas):
        """D(alpha) Pi D†(alpha) at each of ``alphas``, shape (n, dim, dim)."""
        dim = self._g.size
        out = np.empty((alphas.size, dim, dim), dtype=complex)
        for idx, b, v in self._rows(alphas):
            inner = v[:, :, None] * v.conj()[:, None, :] * self._parity
            out[idx] = b @ inner @ b.conj().T
        return out


@functools.lru_cache(maxsize=None)
def _displacements(dim):
    """The one :class:`_DisplacementFactory` of each Fock dimension."""
    return _DisplacementFactory(dim)


def _check_extent(re_grid, im_grid, dim):
    extent = max(np.max(np.abs(re_grid)), np.max(np.abs(im_grid)))
    safe = np.sqrt(dim) / 2.0
    if extent > safe + 1e-12:
        raise TruncationError(
            f"grid extent {extent:.3f} exceeds the truncation-safe bound "
            f"sqrt(dim)/2 = {safe:.3f}; increase dim to at least "
            f"{int(np.ceil((2.0 * extent) ** 2))} or shrink the grid")


def wigner_maps(states, re_grid, im_grid=None):
    """Exact displaced-parity Wigner maps of a stack of states, one each.

    ``states`` are kets or density matrices of one dim; an empty stack or a
    state of another dim raises :class:`InvalidDimensionError`.
    """
    re = np.asarray(re_grid, dtype=float)
    im = re.copy() if im_grid is None else np.asarray(im_grid, dtype=float)
    if re.size == 0 or im.size == 0:
        raise UsageError("grids must be nonempty")
    rhos = [fs.dm(s) for s in states]
    dim = rhos[0].shape[0] if rhos else 0
    if not rhos or any(r.shape != (dim, dim) for r in rhos):
        raise InvalidDimensionError("need a nonempty stack of states of one "
                                    f"dim, got {[r.shape for r in rhos]}")
    _check_extent(re, im, dim)
    values = TWO_OVER_PI * _displacements(dim).parities(
        np.array(rhos), grid_points(re, im))
    return [WignerMap(re, im, v.reshape(im.size, re.size)) for v in values]


def wigner_ideal(rho, re_grid, im_grid=None):
    """Exact displaced-parity Wigner map of a state: a stack of one."""
    return wigner_maps([rho], re_grid, im_grid)[0]


# ---------------------------------------------------------------------------
# simulated measurement


@dataclass(frozen=True)
class MeasurementRecord:
    """Displaced-parity samples: one parity expectation per target point."""

    alphas: np.ndarray
    parities: np.ndarray

    def __post_init__(self):
        al = np.asarray(self.alphas, dtype=complex)
        pa = np.asarray(self.parities, dtype=float)
        if al.shape != pa.shape or al.ndim != 1:
            raise UsageError("alphas and parities must be matching 1-D arrays")
        if np.max(np.abs(pa)) > 1.0 + 1e-9:
            raise UsageError("|parity| exceeds 1")
        object.__setattr__(self, "alphas", al)
        object.__setattr__(self, "parities", pa)

    def to_wigner(self, re_grid, im_grid):
        """Reshape a grid-ordered record into a WignerMap (W = 2/pi * parity)."""
        re = np.asarray(re_grid, dtype=float)
        im = np.asarray(im_grid, dtype=float)
        if self.alphas.size != re.size * im.size:
            raise UsageError("record size does not match the grid")
        vals = TWO_OVER_PI * self.parities.reshape(im.size, re.size)
        return WignerMap(re, im, vals)


def _linear_displacement_gain(duration, detuning):
    """Displacement per unit complex drive amplitude in the linear model.

    The closed-form solution of d alpha/dt = -i detuning alpha - i B with
    B = 1 over the pulse, so the calibration tracks the actual pulse
    duration and frame detuning.
    """
    half = 0.5 * detuning * duration
    return complex(-1j * duration * np.exp(-1j * half) * np.sinc(half / np.pi))


def simulate_ld_tomography(params, rho, alphas, pulse_duration=0.02):
    """Displaced-parity record under a finite-duration displacement pulse.

    For each target point the drive amplitude/phase is calibrated so the
    *linear* model would displace by exactly -alpha_i; the state is then
    propagated under the full Hamiltonian with the pump off (Kerr on,
    detuning ``params.Delta``, loss ``params.kappa``) and the number parity
    is recorded.  Each row of equal Im alpha is one
    :func:`kposim.dynamics.parity_rows` stack, which bounds its memory.
    The state goes in as given: a lossless record moves kets, and
    ``propagate_many`` promotes a lossy record's states to density matrices.
    An unphysical array (a ket if 1-D, else a density matrix) or a state of
    another dim raises :class:`UsageError` before any propagation.
    """
    al = np.asarray(alphas, dtype=complex).reshape(-1)
    if al.size == 0:
        raise UsageError("alphas must be nonempty")
    if pulse_duration <= 0:
        raise UsageError(f"pulse_duration must be positive, got {pulse_duration}")
    drives = -al / _linear_displacement_gain(pulse_duration, params.Delta)
    if not isinstance(rho, (fs.StateVector, fs.DensityMatrix)):
        rho = (fs.StateVector if np.ndim(rho) == 1 else fs.DensityMatrix)(rho)
    parities = np.empty(al.size)
    for y in np.unique(al.imag):
        row = np.flatnonzero(al.imag == y)
        pulses = [md.PulseSchedule((md.Segment(
            duration=pulse_duration, detuning=md.Constant(params.Delta),
            drive=md.Constant(abs(d)), drive_detuning=0.0,
            drive_phase=-np.angle(d) if d else 0.0),)) for d in drives[row]]
        parities[row] = dyn.parity_rows(params, pulses, rho)[:, 0]
    return MeasurementRecord(al, np.clip(parities, -1.0, 1.0))


def grid_points(re_grid, im_grid):
    """Row-major (im outer, re inner) flattening matching WignerMap layout."""
    re = np.asarray(re_grid, dtype=float)
    im = np.asarray(im_grid, dtype=float)
    return (re[None, :] + 1j * im[:, None]).reshape(-1)


def ideal_record(rho, alphas):
    """Exact displaced-parity record of a state, instantaneous displacements.

    parity_i = Tr[D(a_i) Pi D†(a_i) rho] evaluated in the state's own
    truncated space — the zero-duration limit of
    :func:`simulate_ld_tomography`, and the data model inverted by
    :func:`reconstruct_density`.  Unlike a Wigner map, a record may probe
    points beyond the map-safe extent; the values then describe the
    truncated model rather than the infinite-dimensional oscillator.
    """
    al = np.asarray(alphas, dtype=complex).reshape(-1)
    if al.size == 0:
        raise UsageError("alphas must be nonempty")
    rho_arr = fs.dm(rho)
    parities = _displacements(rho_arr.shape[0]).parities(rho_arr[None], al)[0]
    return MeasurementRecord(al, np.clip(parities, -1.0, 1.0))


def kerr_correct(rho, K, Delta, tau_corr):
    """Undo free Kerr + detuning evolution accumulated over ``tau_corr``.

    Applies U† rho U with U = exp(-i (Delta n - (K/2) n(n-1)) tau_corr);
    both terms are diagonal, so the correction is an exact phase conjugation.
    """
    if tau_corr < 0:
        raise UsageError(f"tau_corr must be >= 0, got {tau_corr}")
    rho_arr = fs.dm(rho)
    n = np.arange(rho_arr.shape[0])
    phases = np.exp(-1j * (Delta * n - 0.5 * K * n * (n - 1.0)) * tau_corr)
    corrected = np.conj(phases)[:, None] * rho_arr * phases[None, :]
    return fs.DensityMatrix(corrected)


# ---------------------------------------------------------------------------
# reconstruction


def _simplex_project(evals):
    """Euclidean projection of eigenvalues onto the probability simplex."""
    u = np.sort(evals)[::-1]
    css = np.cumsum(u)
    rho_idx = np.nonzero(u * np.arange(1, len(u) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho_idx] - 1.0) / (rho_idx + 1.0)
    return np.maximum(evals - theta, 0.0)


def _project_state(m):
    """Nearest (Frobenius) density matrix to a Hermitian matrix."""
    evals, vecs = np.linalg.eigh(m)
    lam = _simplex_project(evals)
    return (vecs * lam) @ vecs.conj().T


def reconstruct_density(record, dim, max_iters=200, tol=1e-10,
                        cond_limit=1e6):
    """Density matrix from a displaced-parity record by projected least squares.

    Solves parity_i = Tr[D(a_i) Pi D†(a_i) rho] for Hermitian unit-trace rho
    in Hermitian coordinates, then runs projected gradient descent
    onto the physical (PSD, trace-1) set until the iterate moves less than
    ``tol`` in Frobenius norm.

    ``tol`` guards how far the returned state sits from the least-squares
    optimum.  A small step is not a convergence certificate: on the
    41x41-point, sigma = 0.01 noisy-cat record at dim 20, the default 1e-10
    leaves the fidelity to the target within about 5e-11 of the optimum's,
    where 1e-9 left up to 9.4e-10.  Failing to meet ``tol`` within
    ``max_iters`` raises :class:`ReconstructionError`.
    """
    al = record.alphas
    y = record.parities
    if al.size < dim * dim:
        raise UsageError(
            f"need at least dim^2 = {dim * dim} points, got {al.size}")
    obs = _displacements(dim).observables(al)
    # Each row holds the Hermitian coordinates of O - (Tr O/dim) I: its
    # diagonal, then sqrt(2) Re and sqrt(2) Im above it, so that Tr[A B] is
    # the dot product of the coordinates of A and B.  The identity direction
    # is orthogonal to every row; its zero singular value is left out.
    offset = np.real(np.trace(obs, axis1=1, axis2=2)) / dim
    upper = np.triu_indices(dim, 1)
    off_diag = np.sqrt(2.0) * obs[:, upper[0], upper[1]]
    design = np.hstack([np.real(np.diagonal(obs, axis1=1, axis2=2))
                        - offset[:, None], off_diag.real, off_diag.imag])
    sv = np.linalg.svd(design, compute_uv=False)[:-1]
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if cond > cond_limit:
        raise ReconstructionError(
            f"design matrix condition number {cond:.3e} exceeds {cond_limit:.0e}; "
            "spread the sample points")
    # the min-norm solution has no identity component, so it is traceless
    x, *_ = np.linalg.lstsq(design, y - offset, rcond=None)
    n_up = upper[0].size
    delta = np.zeros((dim, dim), dtype=complex)
    delta[upper] = (x[dim:dim + n_up] + 1j * x[dim + n_up:]) / np.sqrt(2.0)
    warm = np.eye(dim) / dim + np.diag(x[:dim]) + delta + delta.conj().T
    obs_flat = obs.reshape(al.size, dim * dim)

    # accelerated projected gradient (FISTA) on ||Tr[O rho] - y||^2 over the
    # PSD trace-1 set; step = 1/L with L the largest design eigenvalue
    step = 0.5 / (sv[0] ** 2)
    rho = _project_state(warm)
    z = rho
    t_mom = 1.0
    delta = np.inf
    obs_conj = obs_flat.conj()
    for _ in range(max_iters):
        resid = np.real(obs_conj @ z.reshape(-1)) - y
        grad = 2.0 * (resid @ obs_flat).reshape(dim, dim)
        new = _project_state(z - step * grad)
        move = new - rho
        if np.real(np.sum(grad.conj() * move)) > 0.0:
            # momentum points uphill: restart it (adaptive-restart rule)
            t_mom = 1.0
            z = new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            z = new + ((t_mom - 1.0) / t_next) * move
            t_mom = t_next
        delta = np.linalg.norm(move)
        rho = new
        if delta < tol:
            break
    else:
        raise ReconstructionError(
            f"projection iteration did not converge within {max_iters} steps "
            f"(last move {delta:.3e})")
    return fs.DensityMatrix(rho)


# ---------------------------------------------------------------------------
# cat size


def cat_size(wigner_map):
    """|alpha| of the Wigner maximum, with quadratic sub-grid refinement.

    Intended for parity-mixed (fringe-free) states whose lobes mark the
    coherent amplitude; the raw argmax is polished with a separable
    3x3 parabolic fit.  An argmax on the grid boundary raises
    :class:`GridExtentError`.
    """
    v = wigner_map.values
    r, c = np.unravel_index(np.argmax(v), v.shape)
    if r in (0, v.shape[0] - 1) or c in (0, v.shape[1] - 1):
        raise GridExtentError(
            "Wigner maximum sits on the grid boundary; enlarge the grid")
    im = wigner_map.im_grid
    re = wigner_map.re_grid

    def refine(grid, vm, v0, vp, k):
        denom = vm - 2.0 * v0 + vp
        if abs(denom) < 1e-300:
            return grid[k]
        shift = 0.5 * (vm - vp) / denom
        return grid[k] + shift * (grid[1] - grid[0])

    y = refine(im, v[r - 1, c], v[r, c], v[r + 1, c], r)
    x = refine(re, v[r, c - 1], v[r, c], v[r, c + 1], c)
    return float(np.hypot(x, y))
