"""Independent reference routes used to cross-check the package.

Everything here is written from textbook formulas with deliberately
different numerics than the package (hand-rolled operators, fixed-step
matrix-exponential / RK4 stepping instead of adaptive embedded RK, closed
forms where they exist), so agreement is a genuine two-route check rather
than the same code called twice.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from kposim import model as md
from kposim.errors import UsageError


def ladder(dim):
    """Annihilation operator built entry by entry."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def kpo_hamiltonian(K, P, Delta, dim):
    """Static rotating-frame Hamiltonian assembled from scratch."""
    a = ladder(dim)
    ad = a.conj().T
    n = ad @ a
    return Delta * n - 0.5 * K * (ad @ ad @ a @ a) + 0.5 * P * (ad @ ad + a @ a)


def coherent_amplitudes(alpha, dim):
    """Coherent-state amplitudes via the n-recursion, renormalized."""
    c = np.empty(dim, dtype=complex)
    c[0] = 1.0
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    c *= np.exp(-0.5 * abs(alpha) ** 2)
    return c / np.linalg.norm(c)


def qubit_pair(K, P, Delta, dim):
    """Per-sector spectra and qubit picks by complex-Hermitian eigensolves.

    Each parity sector of :func:`kpo_hamiltonian` is solved as a complex
    Hermitian matrix, one point at a time.  The qubit level of a sector is
    the one whose overlap with the analytic cat at alpha_c = sqrt((P +
    Delta)/K) (Fock 0 or 1 when alpha_c vanishes) is largest, ties going to
    the higher energy.  Returns ``(energies, picks, overlaps)``: the
    ascending energies of the even and odd sector, the two picks, and the
    two |overlaps|.
    """
    h = kpo_hamiltonian(K, P, Delta, dim).astype(np.complex128)
    alpha_c = np.sqrt(max(P + Delta, 0.0) / K)
    energies, picks, overlaps = [], [], []
    for par in (0, 1):
        vals, vecs = np.linalg.eigh(h[par::2, par::2])
        ref = (np.eye(dim)[par] if alpha_c == 0.0
               else coherent_amplitudes(alpha_c, dim))[par::2]
        sq = np.abs(ref.conj() @ vecs / np.linalg.norm(ref)) ** 2
        k = max(range(vals.size), key=lambda i: (sq[i], vals[i]))
        energies.append(vals)
        picks.append(k)
        overlaps.append(np.sqrt(sq[k]))
    return energies, picks, overlaps


def expm_propagate(params, schedule, psi0, n_steps=4000):
    """Fine-step midpoint-expm propagation of a ket through a schedule.

    U = prod_k expm(-i H(t_k + dt/2) dt).  Shares only the Hamiltonian
    builder with the package; the integrator route is entirely different
    from the adaptive solver in kposim.dynamics.
    """
    total = schedule.total_duration
    dt = total / n_steps
    psi = np.asarray(psi0, dtype=complex).copy()
    for k in range(n_steps):
        h = md.hamiltonian_at(params, schedule, (k + 0.5) * dt)
        psi = expm(-1j * h * dt) @ psi
    return psi / np.linalg.norm(psi)


def rk4_propagate_lindblad(params, schedule, rho0, kappa, n_steps=4000):
    """Fixed-step RK4 integration of the single-photon-loss master equation."""
    dim = params.dim
    a = ladder(dim)
    ad = a.conj().T
    n_op = ad @ a
    total = schedule.total_duration
    dt = total / n_steps
    rho = np.asarray(rho0, dtype=complex).copy()

    def deriv(t, r):
        h = md.hamiltonian_at(params, schedule, min(t, total))
        out = -1j * (h @ r - r @ h)
        out += kappa * (a @ r @ ad - 0.5 * (n_op @ r + r @ n_op))
        return out

    for k in range(n_steps):
        t = k * dt
        k1 = deriv(t, rho)
        k2 = deriv(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = deriv(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = deriv(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return 0.5 * (rho + rho.conj().T)


def liouvillian(h, kappa):
    """Superoperator of -i[h, r] + kappa (a r a† - {n, r}/2) on row-major vec(r).

    Uses vec(A r B) = (A ⊗ B^T) vec(r) for the row-major flattening.
    """
    dim = h.shape[0]
    a = ladder(dim)
    n_op = a.conj().T @ a
    eye = np.eye(dim)
    return (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
            + kappa * (np.kron(a, a.conj()) - 0.5 * np.kron(n_op, eye)
                       - 0.5 * np.kron(eye, n_op.T)))


def expm_propagate_lindblad(params, schedule, rho0, kappa, sample_times,
                            n_steps=100):
    """Density matrices at ``sample_times`` from dense Liouvillian exponentials.

    Every segment is cut at the sample times inside it.  Where L is the same
    at both Gauss points of a piece it is taken as constant and the piece
    is one exact exponential; otherwise the piece takes ``n_steps``
    steps of the fourth-order commutator-free pair
    exp(h (c2 L1 + c1 L2)) exp(h (c1 L1 + c2 L2)), with L1, L2 at the two
    Gauss points of the step (Blanes & Moan).  The dim² x dim² exponentials
    keep this to dim <= 10.
    """
    dim = params.dim
    assert dim <= 10, "dense Liouvillian oracle is for dim <= 10"
    c1, c2 = 0.25 + np.sqrt(3) / 6, 0.25 - np.sqrt(3) / 6
    g1, g2 = 0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6

    def lv(t):
        # Gauss points lie inside a piece, never on a segment boundary
        return liouvillian(md.hamiltonian_at(params, schedule, t), kappa)

    times = np.asarray(sample_times, dtype=float)
    r = np.asarray(rho0, dtype=complex).reshape(-1).copy()
    out = []
    start = 0.0
    for seg in schedule.segments:
        stop = start + seg.duration
        cuts = [start] + [t for t in times if start < t < stop] + [stop]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            span = hi - lo
            l1, l2 = lv(lo + g1 * span), lv(lo + g2 * span)
            if np.array_equal(l1, l2):
                r = expm(span * l1) @ r
            else:
                h = span / n_steps
                for k in range(n_steps):
                    t = lo + k * h
                    l1, l2 = lv(t + g1 * h), lv(t + g2 * h)
                    r = expm(h * (c2 * l1 + c1 * l2)) @ (
                        expm(h * (c1 * l1 + c2 * l2)) @ r)
            if np.any(np.abs(times - hi) < 1e-12):
                out.append(r.reshape(dim, dim).copy())
        start = stop
    return out


def chevron_excited(Omega_R, delta, t):
    """Closed-form two-level Rabi excited-state population."""
    Op = np.hypot(Omega_R, delta)
    if Op == 0.0:
        return np.zeros_like(np.asarray(t, dtype=float))
    return (Omega_R / Op) ** 2 * np.sin(0.5 * Op * np.asarray(t)) ** 2


def tls_rabi_hamiltonian(variant, Omega_R, Delta_dT, t):
    """Two-level comparison Hamiltonians for the cat Rabi experiment.

    ``variant='symmetrized'`` drives with two tones at opposite detunings,

        H = (Omega_R/4) (e^{-i Delta t} + e^{+i Delta t}) (sp + sm)
          = (Omega_R/2) cos(Delta t) sigma_x,

    exactly even in ``Delta_dT``.  ``variant='standard'`` is the usual
    rotating-frame Rabi model

        H = (Omega_R/2) (sp e^{+i Delta t} + sm e^{-i Delta t}),

    whose excitation dynamics follow the generalized Rabi frequency
    sqrt(Omega_R^2 + Delta_dT^2).
    """
    if variant == "symmetrized":
        return 0.5 * Omega_R * np.cos(Delta_dT * t) * np.array(
            [[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if variant == "standard":
        phase = np.exp(1j * Delta_dT * t)
        H = np.zeros((2, 2), dtype=complex)
        H[0, 1] = 0.5 * Omega_R * phase        # sigma_plus = |0><1|
        H[1, 0] = 0.5 * Omega_R * np.conj(phase)
        return H
    raise UsageError("variant must be 'symmetrized' or 'standard', "
                     f"got {variant!r}")


def tls_excited(variant, Omega_R, delta, times):
    """Two-level excited population from adaptive RK45 on the Hamiltonian."""
    times = np.asarray(times, dtype=float)

    def rhs(t, y):
        return -1j * (tls_rabi_hamiltonian(variant, Omega_R, delta, t) @ y)

    sol = solve_ivp(rhs, (0.0, times[-1]), np.array([1.0 + 0j, 0j]),
                    t_eval=times, rtol=1e-10, atol=1e-12)
    return np.abs(sol.y[1]) ** 2


def even_cat_wigner(alpha0, re, im):
    """Closed-form Wigner function of the even cat (|a>+|-a>)/norm, a real.

    W(b) = (2/pi) [e^{-2|b-a|^2} + e^{-2|b+a|^2}
                   + 2 e^{-2|b|^2} cos(4 a Im b)] / (2 (1 + e^{-2a^2}))
    """
    b = np.asarray(re, dtype=float)[None, :] + 1j * np.asarray(im, dtype=float)[:, None]
    lobes = np.exp(-2 * abs(b - alpha0) ** 2) + np.exp(-2 * abs(b + alpha0) ** 2)
    fringe = 2 * np.exp(-2 * abs(b) ** 2) * np.cos(4 * alpha0 * b.imag)
    return (2 / np.pi) * (lobes + fringe) / (2 * (1 + np.exp(-2 * alpha0 ** 2)))


def chi_of_unitary(u):
    """Closed-form rank-1 chi matrix of a 2x2 unitary over (I, X, -iY, Z)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = (np.eye(2, dtype=complex), sx, -1j * sy, sz)
    m = np.array([np.trace(e.conj().T @ u) / 2.0 for e in ops])
    chi = np.outer(m, m.conj())
    return chi / np.trace(chi).real


def random_density(dim, rng):
    """Ginibre-ensemble random density matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
