"""Quasienergy spectra, splitting surfaces and classical energy analysis.

The rotating-frame Hamiltonian without linear drive conserves photon-number
parity, so its spectrum is computed per parity sector and every level carries
an exact parity label.  The two qubit levels are identified by overlap with
the analytic cat pair at alpha_c = sqrt((P+Delta)/K) — near the operating
point they are the two highest quasienergies.  The classical-energy surface
(operators replaced by complex amplitudes) provides the lobe positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from . import model as md
from .errors import ConvergenceError, TruncationError, UsageError
from .units import TWO_PI


@dataclass(frozen=True)
class QuasiSpectrum:
    """Eigen-decomposition of the drive-free Hamiltonian with parity labels.

    ``energies`` are sorted descending (rad/us), ``parities`` is +-1 per
    level, ``states`` holds the matching eigenvectors as columns.
    ``qubit_indices`` is (index of even qubit level, index of odd qubit
    level) within ``energies``.
    """

    energies: np.ndarray
    parities: np.ndarray
    states: np.ndarray
    qubit_indices: tuple
    K: float
    P: float
    Delta: float

    @property
    def splitting(self):
        """E_odd_qubit - E_even_qubit (rad/us)."""
        i_even, i_odd = self.qubit_indices
        return self.energies[i_odd] - self.energies[i_even]

    @property
    def splitting_mhz(self):
        return self.splitting / TWO_PI

    def qubit_states(self):
        i_even, i_odd = self.qubit_indices
        return (fs.StateVector(self.states[:, i_even]),
                fs.StateVector(self.states[:, i_odd]))


def quasienergies(K, P, Delta, dim, check_convergence=True):
    """Parity-labelled spectrum of ``Delta n - (K/2) n(n-1) + (P/2)(a†²+a²)``.

    With ``check_convergence`` the six highest levels are recomputed at
    ``dim+10``; a shift above ``1e-6 K`` raises :class:`TruncationError`.
    """
    if K <= 0:
        raise UsageError(f"K must be positive, got {K}")
    if dim < 6:
        raise UsageError(f"dim must be >= 6 for a labelled spectrum, got {dim}")
    energies, parities, states, qubit, _ = md._qubit_pair(K, P, Delta, dim)
    if check_convergence:
        e_big = md._qubit_pair(K, P, Delta, dim + 10)[0]
        shift = np.max(np.abs(energies[:6] - e_big[:6]))
        if shift > 1e-6 * K:
            raise TruncationError(
                f"top-6 quasienergies shift by {shift:.3e} rad/us between "
                f"dim={dim} and dim={dim + 10}; increase dim",
                required_dim=dim + 10)
    return QuasiSpectrum(energies=energies, parities=parities, states=states,
                         qubit_indices=qubit, K=K, P=P, Delta=Delta)


def splitting_surface(K, P_over_K_grid, Delta_over_K_grid, dim):
    """Qubit-level splitting (E_odd - E_even)/K over a (P/K, Delta/K) grid.

    Returns an array of shape (len(P_over_K_grid), len(Delta_over_K_grid))
    with the sign retained: the splitting oscillates and changes sign along
    the detuning axis.  The truncation check of :func:`quasienergies` runs
    once, at the largest-|alpha| corner.
    """
    pg = np.asarray(P_over_K_grid, dtype=float)
    dg = np.asarray(Delta_over_K_grid, dtype=float)
    if pg.size == 0 or dg.size == 0:
        raise UsageError("grids must be nonempty")
    out = np.empty((pg.size, dg.size))
    # convergence is monotone in cat size; checking the largest-|alpha| corner
    # once covers the whole grid
    quasienergies(K, np.max(pg) * K, np.max(dg) * K, dim)
    for i, p_rel in enumerate(pg):
        for j, d_rel in enumerate(dg):
            spec = quasienergies(K, p_rel * K, d_rel * K, dim,
                                 check_convergence=False)
            out[i, j] = spec.splitting / K
    return out


def energy_gap(K, P, Delta, dim):
    """Distance (rad/us) from the qubit manifold to the nearest other level."""
    spec = quasienergies(K, P, Delta, dim)
    i_even, i_odd = spec.qubit_indices
    mask = np.ones(spec.energies.size, dtype=bool)
    mask[[i_even, i_odd]] = False
    others = spec.energies[mask]
    pair = spec.energies[[i_even, i_odd]]
    return float(np.min(np.abs(others[:, None] - pair[None, :])))


# ---------------------------------------------------------------------------
# classical energy surface


def classical_energy(alpha, K, P, Delta):
    """E_cl = Delta |a|^2 - (K/2)|a|^4 + (P/2)(a^2 + a*^2) for complex a."""
    if K <= 0:
        raise UsageError(f"K must be positive, got {K}")
    alpha = complex(alpha)
    r2 = abs(alpha) ** 2
    return float(Delta * r2 - 0.5 * K * r2 ** 2 + P * (alpha ** 2).real)


@dataclass(frozen=True)
class StationaryPoint:
    alpha: complex
    energy: float
    kind: str  # 'maximum' | 'minimum' | 'saddle' | 'degenerate'


def _grad_hess(x, y, K, P, Delta):
    r2 = x * x + y * y
    gx = 2.0 * x * (Delta + P - K * r2)
    gy = 2.0 * y * (Delta - P - K * r2)
    hxx = 2.0 * (Delta + P - K * r2) - 4.0 * K * x * x
    hyy = 2.0 * (Delta - P - K * r2) - 4.0 * K * y * y
    hxy = -4.0 * K * x * y
    return np.array([gx, gy]), np.array([[hxx, hxy], [hxy, hyy]])


def stationary_points(K, P, Delta):
    """Stationary points of the classical energy, Newton-refined.

    Seeds on a 9x9 grid spanning +-2 sqrt((|P| + |Delta|)/K + 1) are
    polished by Newton iteration on the gradient; converged points are
    deduplicated at 1e-6 distance and classified by the 2x2 Hessian in
    (Re alpha, Im alpha).  The result always contains the
    origin and, when P + Delta > 0, the lobe pair on the real axis.
    """
    if K <= 0:
        raise UsageError(f"K must be positive, got {K}")
    seed_extent = 2.0 * np.sqrt((abs(P) + abs(Delta)) / K + 1.0)
    axis = np.linspace(-seed_extent, seed_extent, 9)
    scale = max(abs(classical_energy(seed_extent, K, P, Delta)),
                abs(classical_energy(1j * seed_extent, K, P, Delta)), K)
    found = []
    converged_any = False
    for x0 in axis:
        for y0 in axis:
            x, y = float(x0), float(y0)
            ok = False
            for _ in range(60):
                g, h = _grad_hess(x, y, K, P, Delta)
                if np.linalg.norm(g) < 1e-12 * scale:
                    ok = True
                    break
                try:
                    step = np.linalg.solve(h, g)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(step)):
                    break
                # damp wild steps far from the seed basin
                nrm = np.linalg.norm(step)
                if nrm > seed_extent:
                    step *= seed_extent / nrm
                x, y = x - step[0], y - step[1]
            if not ok:
                continue
            converged_any = True
            if any(abs(complex(x, y) - q) < 1e-6 for q, _ in found):
                continue
            _, h = _grad_hess(x, y, K, P, Delta)
            found.append((complex(x, y), h))
    if not converged_any:
        raise ConvergenceError("Newton iteration converged from no seed")
    points = []
    for q, h in found:
        ev = np.linalg.eigvalsh(h)
        if np.any(np.abs(ev) < 1e-9 * max(scale, 1.0)):
            kind = "degenerate"
        elif ev[1] < 0:
            kind = "maximum"
        elif ev[0] > 0:
            kind = "minimum"
        else:
            kind = "saddle"
        points.append(StationaryPoint(alpha=q,
                                      energy=classical_energy(q, K, P, Delta),
                                      kind=kind))
    points.sort(key=lambda s: (round(s.alpha.real, 9), round(s.alpha.imag, 9)))
    return points
