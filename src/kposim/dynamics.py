"""Time propagation and relaxation/oscillation analysis.

Schroedinger and Lindblad integration of pulse schedules built in
:mod:`kposim.model`, plain and parametric Rabi population maps, the
cardinal-state relaxation experiment, and deterministic least-squares fits
(exponential decay, damped cosine) used to extract lifetimes and oscillation
frequencies from the simulated data.  :func:`propagate_many` sends several
states through one schedule, or each through its own (every map sweep), in
shared solves, one array per segment, and returns one checked (B, T, ...)
array of the B states at T samples, one per requested time;
:func:`propagate` is its batch of one, and every sweep reads the stack in
array expressions, :func:`parity_rows` as <parity>.

All frequencies are angular (rad/us) internally; fits report ordinary
frequency in MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import least_squares

from . import fockspace as fs
from . import model as md
from .errors import (AccuracyError, DegenerateDataError, FitError,
                     StiffnessError, UsageError)
from .parallel import parallel_map
from .units import TWO_PI


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of a propagation run.

    ``states`` is one read-only array of the states at ``times``, laid out
    as :func:`propagate_many` returns it; :func:`propagate` drops the batch
    axis.  ``meta`` records the ``branch`` and the RHS evaluations,
    ``nfev``, in all and per segment (see :func:`propagate_many`).
    """

    times: np.ndarray
    states: np.ndarray
    meta: dict

    @property
    def densities(self):
        """``states`` as density matrices: |psi><psi| of each ket."""
        if self.meta["branch"] == "lindblad":
            return self.states
        return self.states[..., :, None] * self.states[..., None, :].conj()

    @property
    def populations(self):
        """Fock populations of ``states``: |c_n|^2 of a ket, diag rho."""
        if self.meta["branch"] == "lindblad":
            return np.diagonal(self.states, axis1=-2, axis2=-1).real
        return np.abs(self.states) ** 2


#: Largest Fock dimension whose holds take the exact path.  The block
#: exponentials cost O(dim**6) and hold O(dim**4) memory, a DOP853 step
#: O(dim**3).  On the relax grid (3 holds, 46 samples over 4.5 us, one BLAS
#: thread, median of 5) exact takes 0.43 s against 0.67 s for DOP853 at
#: dim 30, 0.63 s against 0.64 s at dim 32 and 0.89 s against 0.80 s at 34.
_EXACT_HOLD_MAX_DIM = 32


def _parity_blocks(H, kappa):
    """The two parity blocks of L = -i[H, .] + kappa (a . a† - {n, .}/2).

    With g = -iH - kappa n/2 and row-major vec, L takes entry (r', c') of
    rho to entry (r, c) with weight g_rr' δ_cc' + δ_rr' conj(g_cc')
    + kappa a_rr' conj(a_cc').  A parity-conserving H and the jump a, which
    flips the parity of both sides of rho, never link r + c even to r + c
    odd (Albert & Jiang, PRA 89, 022118, 2014), so L restricted to each of
    the two index sets is a block.  Returns ((flat indices into vec(rho),
    block), ...), never forming the dim² x dim² L.
    """
    dim = H.shape[0]
    ops = md.operator_stack(dim)
    a = ops[3]
    g = -1j * H - (0.5 * kappa) * ops[0]
    r, c = np.divmod(np.arange(dim * dim), dim)
    blocks = []
    for parity in (0, 1):
        index = np.flatnonzero((r + c) % 2 == parity)
        ri, ci = r[index], c[index]
        rr, cc = np.ix_(ri, ri), np.ix_(ci, ci)
        block = (g[rr] * (ci[:, None] == ci)
                 + (ri[:, None] == ri) * g[cc].conj()
                 + kappa * a[rr] * a[cc].conj())
        blocks.append((index, block))
    return blocks


def _exact_hold(H, kappa, y0, t0, ts):
    """Propagate vec(rho) exactly under parity-conserving H with loss.

    ``y0`` is a (B, dim**2) stack of vec(rho) under the one H; the states
    share each parity block L_b's exponential P(s) = exp(s L_b) of the
    sample step s.  A later gap g = s + delta reuses it as
    P(s)(y + delta L_b y) while |delta| ||L_b||_1 <= 2**-26: the dropped
    term, (delta ||L_b||_1)**2 / 2, is then below the unit roundoff, so the
    float-jittered gaps of a uniform grid share one exponential and samples
    land exactly at ``ts``.  Returns the (len(ts), B, dim**2) states there.
    """
    gaps = np.diff(ts, prepend=t0)
    ys = np.empty((gaps.size, *y0.shape), dtype=np.complex128)
    for index, block in _parity_blocks(H, kappa):
        norm = np.abs(block).sum(axis=0).max()
        y, step = y0[:, index].T, None
        for k, gap in enumerate(gaps):
            if step is None or abs(gap - step) * norm > 2.0 ** -26:
                step, prop = gap, expm(gap * block)
            elif gap != step:
                y = y + (gap - step) * (block @ y)
            y = prop @ y
            ys[k][:, index] = y.T
    return ys


def _segment(params, schedules, index, y0, t0, t1, ts, sampled, density):
    """Propagate segment ``index``, from t0 to t1, to each time of ``ts``.

    The frame is that of a reference H_ref = V diag(E) V†, from the
    coefficient rows c_ref of the segment midpoint t_mid = (t0+t1)/2: the
    whole H(t_mid) for a static segment, and with the two drive terms set to
    zero for a driven one (one that some member does not hold static, see
    :meth:`kposim.model.Segment.is_static`).  Members whose reference rows
    are equal share one frame (F = 1): the columns of a drive sweep, which
    differ only in the drive, and states under one schedule; otherwise each
    member keeps its own (F = B).  With u = e^{-iE(t-t0)} and Φ = u u*ᵀ, a
    ket is V (u ∘ c) and a density matrix V (Φ ∘ σ) V†.  DOP853 integrates
    dc/dt = -i u* ∘ R̃(u ∘ c), or
    dσ/dt = G̃σ + (G̃σ)† + κ ã_t σ ã_t† with the non-Hermitian generator
    G̃(t) = Φ* ∘ (-iR̃(t) - (κ/2) ã†ã) and ã_t = Φ* ∘ ã, where
    R̃(t) = Σ_i Δc_i(t) Õ_i is each member's rest H(t) - H_ref rotated into
    its frame: Δc = c(t) - c_ref for the member's coefficient row c (all
    rows from one :func:`kposim.model.coefficient_stack` evaluation) over
    the rotated operator stack Õ_i = V†O_iV (see
    :func:`kposim.model.operator_stack`), and ã = V†aV.  A frame of members
    with their own Δc applies its rest to the kets as one contraction,
    (u ∘ c) @ Õᵀ weighted by each Δc, over the terms whose Δc is not zero
    throughout; density matrices form each R̃ from one Δc @ Õ product.
    The phases act on dim x dim operators, not on the state stack, and σG̃†
    is taken as (G̃σ)†, which holds for Hermitian σ only, so σ is made
    Hermitian once at the start of the segment; the right-hand side keeps
    it so.  H_ref's spectrum, with the Fock-truncation edge, never sets the
    step; ``params.rtol`` and ``params.atol`` bound c or σ.  A static
    segment has R̃ ≡ 0, so without loss c and σ stay constant and the
    result is exact (solver ``"eigh"``).  A lossy static density segment
    without drive, a hold, conserves photon-number parity; in one frame and
    up to ``_EXACT_HOLD_MAX_DIM`` it skips the frame and is exact, one
    ``scipy.linalg.expm`` per parity block of the Liouvillian and sample
    step (see :func:`_parity_blocks` and :func:`_exact_hold`; solver
    ``"parity-block expm"``).  ``y0`` is a (B, n) stack of kets or
    flattened density matrices, moved as one; a static member of a static
    segment has R̃ ≡ 0.  ``ts[-1]`` is t1 or, within 1e-15 of it, the last
    sample, and stands for the end.  Without a sample (``sampled`` false,
    ``ts`` = [t1]) DOP853 ends on its own last step, not on its
    interpolant.  All of ``ts`` goes back to the lab frame in one
    transform.  Returns (the (len(ts), B, n) states at ``ts``, solver,
    nfev).
    """
    dim, kappa, batch = params.dim, params.kappa, len(y0)
    t_mid = 0.5 * (t0 + t1)
    driven = not all(s.segments[index].is_static() for s in schedules)
    coefficients, moving = md.coefficient_stack(schedules, index)
    # the reference rows: a driven segment's leave the drive out, so the
    # columns of a drive sweep, which differ only in it, share one frame;
    # one frame has no stack axis, one (dim, dim) eigh
    c_mid = coefficients(t_mid)
    c_ref = c_mid.copy()
    if driven:
        c_ref[:, 2:] = 0.0
    frames = 1 if (c_ref == c_ref[0]).all() else len(c_ref)
    H_ref = (md.hamiltonian(params.K, c_ref[:frames], dim) if driven else
             np.array([md.hamiltonian_at(params, s, t_mid, index)
                       for s in schedules[:frames]]))
    if frames == 1:
        H_ref = H_ref[0]
    if (density and kappa > 0.0 and not driven and frames == 1
            and dim <= _EXACT_HOLD_MAX_DIM and c_ref[0, 2] == 0.0):
        return _exact_hold(H_ref, kappa, y0, t0, ts), "parity-block expm", 0
    evals, vecs = np.linalg.eigh(H_ref)
    vecs_t, vecs_h = vecs.swapaxes(-1, -2), vecs.conj().swapaxes(-1, -2)
    # frame coordinates stay flat, the B states end to end, as DOP853 sees
    # them; ket phase rates -iE are tiled to match, and the kets of each
    # frame are one (F, B/F, dim) stack
    rows = (frames, batch // frames, dim)
    if density:
        rate = -1j * evals
        c0 = (vecs_h @ y0.reshape(batch, dim, dim) @ vecs).reshape(-1)
    else:
        rate = -1j * np.broadcast_to(evals, (batch, dim)).reshape(-1)
        c0 = (y0.reshape(rows) @ vecs.conj()).reshape(-1)
    # the frame coordinates at ts, one row each; a constant row broadcasts
    cs, solver, nfev = c0[None], "eigh", 0
    if driven or kappa > 0.0:
        ops = (vecs_h[..., None, :, :] @ md.operator_stack(dim)
               @ vecs[..., None, :, :])
        ops = ops.reshape(*ops.shape[:-2], -1)

        def remainder(t):
            """R̃ of each member: one Δc @ Õ product per frame."""
            dc = (coefficients(t) - c_ref).reshape(frames, -1, 4)
            return (dc @ ops).reshape(-1, dim, dim)

        if density:
            jump = np.sqrt(kappa) * ops[..., 3, :].reshape(H_ref.shape)
            decay = -0.5 * (jump.conj().swapaxes(-1, -2) @ jump)
            sigma = c0.reshape(batch, dim, dim)
            c0 = (0.5 * (sigma + sigma.conj().swapaxes(-1, -2))).reshape(-1)

            def rhs(t, y):
                u = np.exp(rate * (t - t0))
                phi = u.conj()[..., None] * u[..., None, :]
                sigma = y.reshape(batch, dim, dim)
                g_sigma = (phi * (decay - 1j * remainder(t) if driven
                                  else decay)) @ sigma
                dsigma = g_sigma + g_sigma.conj().swapaxes(-1, -2)
                if kappa > 0.0:
                    jump_t = phi * jump
                    dsigma += jump_t @ sigma @ jump_t.conj().swapaxes(-1, -2)
                return dsigma.reshape(-1)
        elif len(c_ref) == frames:
            def rhs(t, y):
                u = np.exp(rate * (t - t0))
                r = remainder(t).swapaxes(-1, -2)
                return -1j * u.conj() * ((u * y).reshape(rows) @ r).reshape(-1)
        else:
            # one frame, a Δc per member: (u∘Y) @ Õᵀ, weighted by each Δc,
            # over the terms whose Δc is not zero throughout, -i folded into
            # Õ.  At dim 30, one BLAS thread, a call takes 10.5, 15.8 and
            # 18.5 us at B = 4, 9 and 13 with the two drive terms live, 13.6,
            # 19.3 and 22.7 us with all four, and 16.3, 27.7 and 35.6 us
            # when each member's R̃ is formed first and applied, as the
            # branch above does for one Δc per frame
            live = moving | (c_mid != c_ref).any(axis=0)
            ops_t = (-1j * ops.reshape(4, dim, dim)[live]).transpose(
                2, 0, 1).reshape(dim, -1)
            c_live = c_ref[:, live]

            def rhs(t, y):
                u = np.exp(rate * (t - t0))
                z = ((u * y).reshape(batch, dim) @ ops_t).reshape(batch, -1, dim)
                dc = coefficients(t)[:, live] - c_live
                return u.conj() * (dc[:, None] @ z).reshape(-1)

        # without t_eval the solver returns its own steps, ending at t1
        sol = solve_ivp(rhs, (t0, t1), c0, method="DOP853",
                        t_eval=ts if sampled else None,
                        rtol=params.rtol, atol=params.atol, dense_output=False)
        if not sol.success:
            reached = sol.t[-1] if sol.t.size else t0
            raise StiffnessError(
                f"integrator failed near t = {reached:.6f} us: {sol.message}")
        cs = (sol.y if sampled else sol.y[:, -1:]).T
        solver, nfev = "eigenframe DOP853", sol.nfev
    dt = (ts - t0)[:, None]
    if density:
        u = np.exp(rate * dt[..., None])
        sigma = cs.reshape(-1, batch, dim, dim)
        ys = vecs @ (u[..., None] * sigma * u.conj()[..., None, :]) @ vecs_h
    else:
        u = np.exp(rate * dt)
        u *= cs  # in place: a (S, B, dim) map holds one array less
        ys = u.reshape(-1, *rows) @ vecs_t
    return ys.reshape(len(ts), batch, -1), solver, nfev


def propagate(params, schedule, initial, sample_times=None):
    """Propagate one state through a pulse schedule.

    The batch of one of :func:`propagate_many`, which documents the
    arguments, the solvers and ``meta``; returns that one state's
    :class:`Trajectory`, whose ``states`` is (T, dim) or (T, dim, dim).
    """
    traj = propagate_many(params, schedule, (initial,), sample_times)
    return Trajectory(traj.times, traj.states[0], traj.meta)


def propagate_many(params, schedule, initials, sample_times=None):
    """Propagate several states through pulse schedules in shared solves.

    Loss and tolerances come from ``params``: with ``params.kappa`` > 0 the
    single-photon-loss Lindblad equation
    drho/dt = -i[H, rho] + kappa (a rho a† - {n, rho}/2) is integrated and
    pure initial states are promoted to density matrices, as they are when
    any of ``initials`` is a density matrix; otherwise the Schroedinger
    equation is solved (pass ``params.with_(kappa=0.0)`` for a lossless
    step).  ``sample_times`` (us, within the schedule; default: the
    schedule's end) selects the returned samples, one per time: a time up
    to 1e-15 past a segment's end is reported at that end, and one up to
    1e-15 past 0 is the initial state, reported at 0.  The returned states end
    at the last sample, and segments after it are not propagated.
    Integrator breakdown raises :class:`StiffnessError` naming the time
    reached.
    ``schedule`` is one :class:`kposim.model.PulseSchedule` for all states
    or B, one per state (a Rabi map's columns), of equal segment durations.
    ``initials`` takes any state :func:`kposim.fockspace.state_array` takes,
    such as a sample of a returned ``states``.  An empty ``initials``, a
    state whose dim is not ``params.dim``, another count of schedules or
    unequal durations raise :class:`UsageError`.

    All states move together, sharing each DOP853 step and, in one frame,
    each ``eigh`` and block exponential.  A segment's frame is the
    eigenframe of its midpoint H, without the drive terms where the segment
    is driven (not static in some member): members whose midpoint
    coefficients are then equal share one frame, as the columns of a drive
    sweep and the states under one schedule do; otherwise each member has
    its own.  Each segment is one call on its samples, plus its end unless
    the last sample lies within 1e-15 of it, which returns one (S, B, n)
    array; its last row starts the next segment.
    Each segment takes one of three solvers, by what it is in every member:

    - a static segment (see :meth:`kposim.model.Segment.is_static`) without
      loss is exact in the eigenframe of its H, from one ``eigh``
      (``"eigh"``);
    - a static segment with loss and no drive, a hold, conserves
      photon-number parity; in one frame and up to dim
      ``_EXACT_HOLD_MAX_DIM`` one ``scipy.linalg.expm`` of each of the
      Liouvillian's two parity blocks (r + c even, r + c odd) per sample
      step makes it exact (``"parity-block expm"``), above it the
      exponentials cost more than DOP853, and holds that differ from
      member to member take DOP853;
    - on every other segment DOP853 integrates, at ``params.rtol`` and
      ``params.atol``, only what the frame leaves: the rest of H(t), the
      drive included where it was left out, and the dissipator
      (``"eigenframe DOP853"``).
      DOP853 bounds the RMS error over the whole stack, so one state's local
      error may exceed the bound of its own solve by up to sqrt(B).

    Returns one :class:`Trajectory` whose ``states`` is one read-only
    array, the B initial states in order by the T samples: (B, T, dim)
    kets, each renormalized, on the unitary branch, or (B, T, dim, dim)
    density matrices, each Hermitized, on the Lindblad branch.  A norm or
    trace off 1 by more than 1e-8, or an eigenvalue below -1e-7, raises
    :class:`AccuracyError` naming the earliest failing sample.
    ``meta["branch"]`` is ``"unitary"`` or ``"lindblad"``,
    ``meta["segments"]`` holds one ``{"solver", "nfev"}`` entry per
    propagated segment and ``meta["nfev"]`` their sum, each shared solve
    counted once, not once per state.
    """
    initials = [fs.state_array(s) for s in initials]
    if not initials:
        raise UsageError("initials must hold at least one state")
    for initial in initials:
        if initial.shape not in ((params.dim,), (params.dim, params.dim)):
            raise UsageError(
                f"state dimension {'x'.join(map(str, initial.shape))} != "
                f"params.dim {params.dim}")
    shared = isinstance(schedule, md.PulseSchedule)
    schedules = (schedule,) if shared else tuple(schedule)
    if not shared and (len(schedules) != len(initials) or len(
            {tuple(g.duration for g in s.segments) for s in schedules}) > 1):
        raise UsageError(f"got {len(schedules)} schedules for {len(initials)} "
                         "states; pass one, or one per state with equal "
                         "segment durations")
    total = schedules[0].total_duration
    if sample_times is None:
        sample_times = np.array([total])
    t_s = np.asarray(sample_times, dtype=float)
    if t_s.ndim != 1 or t_s.size == 0:
        raise UsageError("sample_times must be a nonempty 1-D sequence")
    if np.any(np.diff(t_s) <= 0):
        raise UsageError("sample_times must be strictly increasing")
    if t_s[0] < -1e-12 or t_s[-1] > total + 1e-9:
        raise UsageError(
            f"sample_times must lie within [0, {total}], got "
            f"[{t_s[0]}, {t_s[-1]}]")
    t_s = np.clip(t_s, 0.0, total)

    density = params.kappa > 0.0 or any(s.ndim == 2 for s in initials)
    y = np.array([fs.dm(s).reshape(-1) if density else s for s in initials],
                 dtype=np.complex128)

    # a sample up to 1e-15 past a segment's end belongs to that segment and
    # is clipped to its end; one up to 1e-15 past 0 is the initial state
    bounds = np.concatenate(
        ([0.0], np.cumsum([seg.duration for seg in schedules[0].segments])))
    owner = np.searchsorted(bounds + 1e-15, t_s)
    times = np.minimum(t_s, bounds[owner])
    chunks = [np.broadcast_to(y, (np.count_nonzero(owner == 0), *y.shape))]
    seg_stats = []
    for index in range(owner[-1]):
        t0, t1 = bounds[index], bounds[index + 1]
        ts = times[owner == index + 1]
        k = ts.size
        # a last sample within 1e-15 of t1 is the segment's end
        if not k or t1 - ts[-1] >= 1e-15:
            ts = np.append(ts, t1)
        ys, solver, nfev = _segment(params, schedules, index, y, t0, t1, ts,
                                    k > 0, density)
        seg_stats.append({"solver": solver, "nfev": nfev})
        chunks.append(ys[:k])
        y = ys[-1]

    meta = {"nfev": sum(s["nfev"] for s in seg_stats),
            "branch": "lindblad" if density else "unitary",
            "segments": seg_stats}
    stack = np.concatenate([c.swapaxes(0, 1) for c in chunks], axis=1)
    if density:
        rho = stack.reshape(*stack.shape[:2], params.dim, params.dim)
        trace = np.trace(rho, axis1=-2, axis2=-1).real
        _require(abs(trace - 1.0) > 1e-8, trace, times,
                 "trace drifted to {:.12f}")
        states = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
        eigmin = np.linalg.eigvalsh(states)[..., 0]
        _require(eigmin < -1e-7, eigmin, times, "negative population {:.3e}")
    else:
        norm = fs.norms(stack)
        _require(abs(norm - 1.0) > 1e-8, norm, times, "norm drifted to {:.12f}")
        states = stack / norm[..., None]
    states.setflags(write=False)
    return Trajectory(times, states, meta)


def _require(bad, values, times, message):
    """Raise AccuracyError at the earliest of the (B, T) samples ``bad``."""
    failures = np.argwhere(bad.T)
    if failures.size:
        k, b = failures[0]
        raise AccuracyError(f"{message.format(values[b, k])} at "
                            f"t = {times[k]:.6f} us; tighten tolerances")


# ---------------------------------------------------------------------------
# Rabi maps


def rabi_map(params, which, amplitude, detuning_grid, time_grid):
    """|0>-population map of a driven Rabi experiment.

    ``which='drive'``: linear drive of amplitude ``amplitude`` (rad/us) on
    the bare Kerr ladder, detuning axis = drive detuning from the 0->1
    transition.  ``which='pump'``: rectangular two-photon pump of that
    amplitude, detuning axis = pump-referenced detuning of the oscillator.
    Each detuning is one static segment from |0>, sampled at ``time_grid``
    (strictly increasing, within [0, time_grid[-1]]); the columns are one
    :func:`propagate_many` stack, exact from one stacked ``eigh``.  Returns
    an array of shape (len(detuning_grid), len(time_grid)).
    """
    det = np.asarray(detuning_grid, dtype=float)
    tg = np.asarray(time_grid, dtype=float)
    if det.size == 0 or tg.size == 0:
        raise UsageError("detuning_grid and time_grid must be nonempty")
    if which not in ("drive", "pump"):
        raise UsageError(f"which must be 'drive' or 'pump', got {which!r}")
    tone = {which: md.Constant(amplitude)}
    columns = [md.PulseSchedule((md.Segment(duration=tg[-1],
                                            detuning=md.Constant(d), **tone),))
               for d in det]
    traj = propagate_many(params.with_(kappa=0.0), columns,
                          [fs.fock_state(0, params.dim)] * det.size, tg)
    return np.abs(traj.states[..., 0]) ** 2


def tls_rabi_map(variant, Omega_R, detuning_grid, time_grid):
    """Excited-state population map of the two-level comparison models.

    Closed forms from the ground state.  ``'standard'`` is the rotating-frame
    Rabi model H = (Omega/2)(sp e^{+i Delta t} + sm e^{-i Delta t}), giving
    (Omega/Omega')^2 sin^2(Omega' t/2) with Omega' = sqrt(Omega^2 + Delta^2).
    ``'symmetrized'`` drives two tones at opposite detunings,
    H = (Omega/2) cos(Delta t) sigma_x, exactly even in Delta; H(t) commutes
    with itself at all times, so P1 = sin^2((Omega t/2) sinc(Delta t/pi)).
    Returns an array of shape (len(detuning_grid), len(time_grid)).
    """
    det = np.asarray(detuning_grid, dtype=float)[:, None]
    tg = np.asarray(time_grid, dtype=float)
    if det.size == 0 or tg.size == 0:
        raise UsageError("detuning_grid and time_grid must be nonempty")
    if variant not in ("symmetrized", "standard"):
        raise UsageError("variant must be 'symmetrized' or 'standard', "
                         f"got {variant!r}")
    half_area = 0.5 * Omega_R * tg
    if variant == "standard":
        # (Omega/Omega')^2 sin^2(Omega' t/2), finite at Omega' = 0
        return (half_area * np.sinc(np.hypot(Omega_R, det) * tg / TWO_PI)) ** 2
    return np.sin(half_area * np.sinc(det * tg / np.pi)) ** 2


def parity_rows(params, schedules, initial, sample_times=None):
    """<parity> of one state sent through each of ``schedules``.

    One :func:`propagate_many` stack of ``initial`` under each schedule (of
    equal segment durations), loss from ``params``; ``sample_times`` as
    there.  Returns the real <parity> at the sample times, one row per
    schedule, shape (len(schedules), len(sample_times)): the parity signs
    against |c_n|^2 of the kets, or against the diagonal of the density
    matrices.
    """
    traj = propagate_many(params, schedules, [initial] * len(schedules),
                          sample_times)
    return traj.populations @ fs.parity_op(params.dim).diagonal().real


def _cat_parity_rows(params, grid, detunings, phases, tg, symmetrized):
    """Lossless <parity> at times ``tg`` of each tone; ``grid`` names them."""
    tg = np.asarray(tg, dtype=float)
    if detunings.size == 0 or tg.size == 0:
        raise UsageError(f"{grid} and time_grid must be nonempty")
    columns = []
    for d, phi in zip(detunings, phases):
        if symmetrized:
            # phase rides inside the modulation: a mixer conjugates the
            # image tone's phase along with its detuning
            seg = md.Segment(duration=tg[-1], pump=md.Constant(params.P_max),
                             detuning=md.Constant(params.Delta),
                             drive=md.Cosine(params.beta, d, phi))
            columns.append(md.PulseSchedule((seg,)))
        else:
            columns.append(md.drive_schedule(tg[-1], params.beta, d, phi,
                                             params.P_max, params.Delta))
    return parity_rows(params.with_(kappa=0.0), columns,
                       md.cat_basis_from_model(params).plus_cat, tg)


def cat_rabi_map(params, detuning_grid, time_grid, symmetrized=True):
    """Parity map of the driven stabilized cat vs drive detuning and time.

    Starts from the even qubit eigenstate with the pump held at P_max, adds
    a zero-phase drive of amplitude ``params.beta`` at each detuning of
    ``detuning_grid`` (rad/us), and records <parity> at the times of
    ``time_grid``, without loss, all columns in one :func:`propagate_many`
    solve.  Parity, via W(0) pi/2, is the z readout of the cat qubit, so
    this is the cat-qubit Rabi map.

    ``symmetrized=True`` (default) drives with the tone pair at +- the
    detuning — a cosine-modulated carrier — which is the drive the
    symmetrized-detuning analysis describes and makes the map exactly even
    in the detuning.  ``symmetrized=False`` applies a single tone; its map
    picks up a percent-level asymmetry from the unequal a / a-dagger matrix
    elements between the two cat states.
    """
    det = np.asarray(detuning_grid, dtype=float)
    return _cat_parity_rows(params, "detuning_grid", det, np.zeros_like(det),
                            time_grid, symmetrized)


def cat_rabi_phase_map(params, phi_grid, time_grid, symmetrized=True):
    """Parity map of the resonantly driven cat vs drive phase and time."""
    phis = np.asarray(phi_grid, dtype=float)
    return _cat_parity_rows(params, "phi_grid", np.zeros_like(phis), phis,
                            time_grid, symmetrized)


def cat_ramsey_map(params, delta_peak_grid, tau_Z_grid, x2_duration):
    """Parity after an X/2 - chirp - X/2 Ramsey sequence.

    Sweeps the chirp depth (rad/us) and gate time at the loss rate
    ``params.kappa``; ``x2_duration`` is the length of the quarter-rotation
    pulse of amplitude ``params.beta`` (see kposim.qpt.calibrate_x2 —
    passed in rather than imported to keep the module dependency one-way).
    The chirp's accumulated frame phase automatically retards the second
    pulse's drive phase through the schedule bookkeeping.  The first pulse
    runs once; each gate time is one :func:`parity_rows` stack over the
    chirp depths from its end.  Returns an array of shape
    (len(delta_peak_grid), len(tau_Z_grid)).
    """
    dps = np.asarray(delta_peak_grid, dtype=float)
    taus = np.asarray(tau_Z_grid, dtype=float)
    if dps.size == 0 or taus.size == 0:
        raise UsageError("delta_peak_grid and tau_Z_grid must be nonempty")
    pulse = md.drive_schedule(x2_duration, params.beta, 0.0, 0.0, params.P_max,
                              params.Delta)
    after_x2 = propagate(params, pulse,
                         md.cat_basis_from_model(params).plus_cat).states[-1]

    def column(tau):
        scheds = [md.chirp_schedule(dp, tau, params.P_max, params.Delta)
                  .then(pulse) for dp in dps]
        return parity_rows(params, scheds, after_x2)[:, 0]

    return np.array(parallel_map(column, taus)).T


# ---------------------------------------------------------------------------
# relaxation experiment


@dataclass(frozen=True)
class RelaxationResult:
    """Cardinal-population series from the relaxation experiment.

    ``populations`` maps each prepared-state label ('z', 'x', 'y' for
    |+Cat>, |+Coh>, |+iCat> preparations) to a (6, T) array over the six
    cardinal projectors.  ``sums``/``differences`` hold the per-axis
    population sum and difference series of the matching preparation
    (z axis read from the 'z' run, etc.).
    """

    populations: dict
    sums: dict
    differences: dict


# the cardinal state prepared for each axis, in the order of the axes of
# fs.CARDINAL_LABELS
_PREPARED = {"z": "+Cat", "x": "+Coh", "y": "+iCat"}


def relaxation_experiment(params, wait_grid, prepare="ramp", tau_ramp=0.3):
    """Hold each cat-Bloch cardinal preparation and track all six populations.

    ``prepare='ramp'`` builds |+Cat>, |+Coh>, |+iCat> by running the
    counterdiabatic mapping ramp on |0>, (|0>+|1>)/sqrt2, (|0>+i|1>)/sqrt2
    (noiseless), mirroring the pulse sequence of the experiment;
    ``prepare='ideal'`` starts exactly from the model cat-basis cardinals.
    The hold segment keeps the pump at ``params.P_max`` with loss
    ``params.kappa``.
    """
    wg = np.asarray(wait_grid, dtype=float)
    if wg.size < 2 or np.any(np.diff(wg) <= 0):
        raise UsageError("wait_grid must be increasing with >= 2 points")
    if wg[0] < 0:
        raise UsageError("wait_grid must be nonnegative")
    basis = md.cat_basis_from_model(params)
    if prepare == "ideal":
        cards = fs.cardinal_states(basis)
        preps = [cards[c] for c in _PREPARED.values()]
    elif prepare == "ramp":
        ramp = md.ramp_schedule(params.P_max, tau_ramp, params.Delta)
        dim = params.dim
        fock = fs.cardinal_states(md.CatBasis(fs.fock_state(0, dim),
                                              fs.fock_state(1, dim)))
        ramped = propagate_many(params.with_(kappa=0.0), ramp,
                                [fock[c] for c in _PREPARED.values()])
        preps = ramped.states[:, -1]
    else:
        raise UsageError(f"prepare must be 'ramp' or 'ideal', got {prepare!r}")

    hold = md.hold_schedule(wg[-1], params.P_max, params.Delta)
    pops = fs.cardinal_populations(
        propagate_many(params, hold, preps, sample_times=wg).densities, basis)
    # preparation k is read along axis k, the cardinal pair 2k and 2k + 1
    k = np.arange(len(_PREPARED))
    first, second = pops[k, :, 2 * k], pops[k, :, 2 * k + 1]
    return RelaxationResult(dict(zip(_PREPARED, pops.swapaxes(-1, -2))),
                            dict(zip(_PREPARED, first + second)),
                            dict(zip(_PREPARED, first - second)))


# ---------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitResult:
    """Parameters of a least-squares curve fit.

    ``rate`` is 1/us, ``frequency`` ordinary MHz, ``phase`` rad.  ``decay_time``
    is 1/rate (inf for rate 0).
    """

    amplitude: float
    rate: float
    frequency: float
    phase: float
    offset: float

    @property
    def decay_time(self):
        return np.inf if self.rate == 0.0 else 1.0 / self.rate


def _validate_series(t, y, minimum):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise UsageError("series must be two equal-length 1-D arrays")
    if t.size < minimum:
        raise UsageError(f"need at least {minimum} points, got {t.size}")
    if np.any(np.diff(t) <= 0):
        raise UsageError("time points must be strictly increasing")
    return t, y


def _run_lm(residual, x0):
    res = least_squares(residual, x0, method="lm", xtol=1e-12, ftol=1e-12,
                        gtol=1e-12, max_nfev=500 * (len(x0) + 1))
    if res.status == 0:
        raise FitError(
            f"fit did not converge within the iteration budget; final "
            f"residual norm {np.linalg.norm(res.fun):.3e}")
    return res.x


def fit_exp_decay(t, y):
    """Fit y = A exp(-rate t) + C with deterministic initialization."""
    t, y = _validate_series(t, y, 8)
    spread = y.max() - y.min()
    if spread < 1e-13 * max(1.0, abs(y).max()):
        raise DegenerateDataError("series is constant; nothing to fit")
    c0 = y[-1]
    a0 = y[0] - c0
    if abs(a0) < 1e-13:
        a0 = spread
    # rate from the log-envelope slope over the first half of the series
    half = max(t.size // 2, 2)
    z = np.abs(y[:half] - c0)
    mask = z > 1e-12 * abs(a0)
    if mask.sum() >= 2:
        slope = np.polyfit(t[:half][mask], np.log(z[mask]), 1)[0]
        r0 = max(-slope, 1e-6 / (t[-1] - t[0]))
    else:
        r0 = 1.0 / (t[-1] - t[0])

    def residual(x):
        a, r, c = x
        return a * np.exp(-r * t) + c - y

    a, r, c = _run_lm(residual, np.array([a0, r0, c0]))
    if r < 0:
        if abs(r) * (t[-1] - t[0]) < 1e-6:
            r = 0.0
        else:
            raise FitError(f"fitted rate is negative ({r:.3e}/us); "
                           "series is growing, not decaying")
    return FitResult(amplitude=float(a), rate=float(r), frequency=0.0,
                     phase=0.0, offset=float(c))


def _spectral_guess(t, y):
    """Frequency (MHz), phase and amplitude of the dominant spectral line."""
    dt = np.diff(t)
    if np.ptp(dt) > 1e-9 * dt.mean():
        # resample to a uniform grid for the FFT-based guess
        tu = np.linspace(t[0], t[-1], t.size)
        yu = np.interp(tu, t, y)
        t, y = tu, yu
        dt = np.diff(t)
    step = dt.mean()
    yc = y - y.mean()
    spec = np.fft.rfft(yc)
    freqs = np.fft.rfftfreq(t.size, step)
    k = int(np.argmax(np.abs(spec[1:])) + 1)
    if np.abs(spec[k]) < 1e-12 * t.size:
        raise DegenerateDataError("no oscillation detectable in the series")
    f0 = freqs[k]
    phi0 = float(np.angle(spec[k] * np.exp(-2j * np.pi * f0 * t[0])))
    a0 = 2.0 * np.abs(spec[k]) / t.size
    return f0, phi0, a0


def fit_damped_cosine(t, y):
    """Fit y = A cos(2 pi f t + phi) exp(-rate t) + C.

    Initialization is deterministic: frequency and phase from the discrete
    spectrum peak, decay rate from the RMS ratio of the two series halves.
    The returned frequency is ordinary (MHz when t is in us) and normalized
    to f >= 0, A >= 0, phi in (-pi, pi].
    """
    t, y = _validate_series(t, y, 8)
    spread = y.max() - y.min()
    if spread < 1e-13 * max(1.0, abs(y).max()):
        raise DegenerateDataError("series is constant; nothing to fit")
    f0, phi0, a0 = _spectral_guess(t, y)
    span = t[-1] - t[0]
    if f0 * span < 1.0:
        # fewer than one resolvable period: frequency fit is ill-posed
        raise DegenerateDataError(
            f"series spans only {f0 * span:.2f} periods of the spectral "
            "peak; need >= 1")
    c0 = float(y.mean())
    half = t.size // 2
    r1 = np.sqrt(np.mean((y[:half] - c0) ** 2))
    r2 = np.sqrt(np.mean((y[half:] - c0) ** 2))
    if r1 > 0 and r2 > 0 and r1 > r2:
        rate0 = 2.0 * np.log(r1 / r2) / span
    else:
        rate0 = 0.0

    def residual(x):
        a, r, f, phi, c = x
        return a * np.cos(TWO_PI * f * t + phi) * np.exp(-r * t) + c - y

    a, r, f, phi, c = _run_lm(residual, np.array([a0, rate0, f0, phi0, c0]))
    if f < 0:
        f, phi = -f, -phi
    if a < 0:
        a, phi = -a, phi + np.pi
    phi = float(np.remainder(phi + np.pi, TWO_PI) - np.pi)
    if phi == -np.pi:
        phi = np.pi
    if r < 0:
        # coherent leakage beating can mimic a sub-percent envelope growth;
        # call that unresolved (rate 0) and only flag genuine growth
        if abs(r) * span < 2e-2:
            r = 0.0
        else:
            raise FitError(f"fitted rate is negative ({r:.3e}/us); "
                           "envelope is growing, not decaying")
    return FitResult(amplitude=float(a), rate=float(r), frequency=float(f),
                     phase=phi, offset=float(c))
