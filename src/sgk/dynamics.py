"""Semiclassical equations of motion with spin gauge forces.

The phase-space velocities (pdot, rdot) obey

    pdot = -dE/dr + e E_ext + (e/c) rdot x B_ext + hbar F_rm . mdot
    rdot = +dE/dp                                - hbar F_pm . mdot

with mdot = (pdot, rdot, 1) and F the band's curvature over the flat axes.
Because mdot appears on both sides, the default path assembles the exact
2d x 2d linear system and solves it; a reduced mode substitutes
curvature-free velocities into the gauge-force terms instead (the classic
leading-order treatment, accurate to O(hbar^2)).

Integration carries per-step diagnostics: the adiabaticity parameter
epsilon (aborting the run when it exceeds the configured bound), the
accumulated geometric phase int A . dm in the deterministic gauge of the
spectral layer, and the dynamic phase (1/hbar) int (p . rdot - E) dt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DegeneracyError, NumericalError, SingularSystemError,
                     SpinForceWarning, StepError)
from .fields import UniformField, VectorField, _promote, as_field
from .gauge import (_axis_stencil, _check_step, _split_differences,
                    _stencil_connection, adiabatic_curvature_numeric,
                    default_step, monopole_pullback, tensor_to_pseudo)
from .models import Constants, HamiltonianModel, SplitForm
from .phase_space import PhasePoint
from .spectral import DEGENERACY_RTOL, _stack

# Spin force larger than this fraction of the zeroth-order force triggers
# a SpinForceWarning (the underlying expansion is no longer perturbative).
SPIN_FORCE_WARN_RATIO = 0.5
_COND_LIMIT = 1e12
# A last step at most this fraction longer than the step size is stretched
# to land on t_end, instead of leaving a rounding-error sliver behind it.
_LAST_STEP_SLACK = 1e-6


@dataclass(frozen=True)
class ExternalEMField:
    """External electric and magnetic fields E(r, t), B(r, t).

    Uniform values or field objects / callables; always 3-component
    internally (planar problems use the in-plane electric components and
    the out-of-plane magnetic one).
    """

    e_field: VectorField = field(default_factory=lambda: UniformField(np.zeros(3)))
    b_field: VectorField = field(default_factory=lambda: UniformField(np.zeros(3)))

    @staticmethod
    def uniform(E=(0.0, 0.0, 0.0), B=(0.0, 0.0, 0.0)) -> "ExternalEMField":
        return ExternalEMField(e_field=UniformField(np.asarray(E, dtype=float)),
                               b_field=UniformField(np.asarray(B, dtype=float)))

    def __post_init__(self):
        object.__setattr__(self, "e_field", as_field(self.e_field))
        object.__setattr__(self, "b_field", as_field(self.b_field))

    def at(self, r, t: float):
        return self.e_field.value(r, t), self.b_field.value(r, t)


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping controls.

    step is the rk4 time step (and the initial rkf45 trial step); tolerance
    drives rkf45 step adaptation. epsilon_abort in (0, 1] halts integration
    once the adiabaticity parameter exceeds it. mode selects the exact
    velocity solve or the reduced substitution; spin_force False drops the
    gauge force entirely (canonical flow). record_connection False skips
    per-state connection evaluation (phases are then not accumulated); the
    connection comes from the closed form or eigen-stack that already gives
    the energy gradient, so recording it costs next to nothing.
    """

    method: str = "rk4"
    step: float = 1e-3
    tolerance: Optional[float] = None
    t_end: float = 1.0
    max_steps: int = 100000
    epsilon_abort: float = 1.0
    mode: str = "exact"
    spin_force: bool = True
    record_connection: bool = True
    delta_p: Optional[float] = None

    def __post_init__(self):
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (np.isfinite(self.step) and self.step > 0):
            raise StepError(f"step must be positive, got {self.step}")
        if self.method == "rkf45":
            tol = self.tolerance
            if tol is None or not (np.isfinite(tol) and tol > 0):
                raise ValueError("rkf45 requires a positive tolerance")
        if not (0.0 < self.epsilon_abort <= 1.0):
            raise ValueError("epsilon_abort must lie in (0, 1]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.mode not in ("exact", "reduced"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TrajectoryState:
    """One accepted integrator step.

    a_p, a_r, a_t hold the band's adiabatic connection components at m
    (None when connection recording is off); the generalized coordinates
    P = p + hbar A_r and R = r - hbar A_p derive from them.
    """

    m: PhasePoint
    band: int
    energy: float
    epsilon: float
    berry_phase: float
    dynamic_phase: float
    v_p: np.ndarray
    v_r: np.ndarray
    a_p: Optional[np.ndarray] = None
    a_r: Optional[np.ndarray] = None
    a_t: Optional[float] = None
    hbar: float = 1.0

    def generalized(self):
        """(P, R) built from the stored connection values."""
        if self.a_p is None or self.a_r is None:
            raise ValueError("connection was not recorded for this trajectory")
        return self.m.p + self.hbar * self.a_r, self.m.r - self.hbar * self.a_p


@dataclass
class Trajectory:
    """Recorded states plus the halt status.

    status is 'completed' (reached t_end), 'max_steps' (budget exhausted)
    or 'adiabaticity_breach' (epsilon exceeded the configured bound; the
    offending state is the last one recorded).
    """

    states: list
    status: str
    band: int

    @property
    def final(self) -> TrajectoryState:
        return self.states[-1]

    @property
    def breached(self) -> bool:
        return self.status == "adiabaticity_breach"

    def times(self) -> np.ndarray:
        return np.array([s.m.t for s in self.states])


def _cross_matrix(B3: np.ndarray, d: int) -> np.ndarray:
    """Matrix X with X v = v x B for in-plane (d=2) or full (d=3) v."""
    Bx, By, Bz = B3
    X = np.array([[0.0, Bz, -By], [-Bz, 0.0, Bx], [By, -Bx, 0.0]])
    return X[:d, :d]


def _split_energy(h0: float, nb: float, band: int):
    """(E, gap) from H0 and hbar|H1|, with the eigensolver's degeneracy guard."""
    if not (math.isfinite(h0) and math.isfinite(nb)):
        raise NumericalError(f"band energy is not finite: H0 = {h0}, hbar|H1| = {nb}")
    gap = 2.0 * nb
    scale = max(1.0, abs(h0) + nb)
    if gap < DEGENERACY_RTOL * scale:
        raise DegeneracyError(
            f"band gap {gap:.3e} below tolerance {DEGENERACY_RTOL * scale:.3e}")
    return (h0 - nb if band == 0 else h0 + nb), gap


def band_gradients(model: HamiltonianModel, band: int, m: PhasePoint,
                   step: float = None):
    """(E, gradient of E over all flat axes) for one band, by central differences.

    This is the finite-difference oracle: for every model, split form or
    not, it differences the tracked eigenvalues of one frame stack, so it
    shares nothing with the point kernel's closed form.
    """
    h = _check_step(step if step is not None else default_step(m))
    w, _, _ = _stack(model, _axis_stencil(m, h, range(m.n_axes)))
    return float(w[0, band]), (w[1::2, band] - w[2::2, band]) / (2.0 * h)


def _split_derivatives(split: SplitForm, m: PhasePoint):
    """(H0, grad H0, H1, J = dH1/dm) at m: exact where the split form has
    them, else from one stencil stack at default_step(m) (H0, H1 its centre)."""
    if split.jacobian is not None:
        return (split.h0(m), split.grad_h0(m), *split.jacobian(m))
    return _split_differences(split, m, default_step(m))


def default_curvature_provider(model: HamiltonianModel) -> Callable:
    """Curvature evaluator used when no provider is passed.

    Split-form models get the monopole pullback of the (H1, J) of
    _split_derivatives; generic models fall back to the plaquette.
    """
    split = model.split
    if split is not None:
        return lambda m: monopole_pullback(*_split_derivatives(split, m)[2:],
                                           model.spin_charges, m)
    return lambda m: adiabatic_curvature_numeric(model, m)


@dataclass
class _Kernel:
    energy: float
    grad: np.ndarray
    gap: float
    F: Optional[np.ndarray]       # the band's curvature over the flat axes
    a_diag: Optional[np.ndarray]  # the band's diagonal connection


def _point_kernel(model: HamiltonianModel, band: int, m: PhasePoint,
                  curvature: Callable = None, spin_force: bool = True,
                  connection: bool = False) -> _Kernel:
    """Energy, gradient, gap, curvature F and diagonal connection A of a band at m.

    A split form gives all of them from (grad H0, b, J), b = H1 and J =
    dH1/dm, exact or differenced (_split_derivatives): E = H0 -+ hbar|b|,
    grad E = grad H0 -+ hbar b^T J/|b|, gap = 2 hbar|b|, F from
    gauge.monopole_pullback and A = a(b)^T J, with a(b) Berry's monopole
    connection of spin -+1/2 in the largest-component gauge of the
    spectral layer. For a 2x2 frame that gauge is the north patch
    S (b_y, -b_x, 0)/(|b|(|b| + b_z)) where b_z > 0 and the south patch
    -S (b_y, -b_x, 0)/(|b|(|b| - b_z)) where b_z < 0.
    At an exact tie b_z = 0 the kernel follows the spectral layer's
    lowest-index rule (component 0 is made real), which is the north patch
    for the upper band and the south patch for the lower one; the
    eigensolver's roundoff may break such a tie either way, so differenced
    frames are no oracle within about 1e-3 |b| of b_z = 0.

    Generic models take E, grad E, the gap and A from one frame stack on
    the central-difference stencil, the points band_gradients and
    exact_connection use. A given curvature provider always supplies F;
    otherwise generic models use default_curvature_provider. F is None when
    spin_force is off and A is None unless connection is asked for.
    """
    split = model.split
    F = A = None
    if split is not None:
        h0, g0, b, J = _split_derivatives(split, m)
        nb = float(np.linalg.norm(b))
        hbar = model.constants.hbar
        E0, gap = _split_energy(float(h0), hbar * nb, band)
        sign = -1.0 if band == 0 else 1.0
        g = g0 + (sign * hbar / nb) * (b @ J)
        if spin_force and curvature is None:
            F = monopole_pullback(b, J, model.spin_charges, m).F[band]
        if connection:
            twist = 0.5 * sign * (b[1] * J[0] - b[0] * J[1]) / nb
            bz = b[2]
            if bz > 0.0 or (bz == 0.0 and band == 1):
                A = twist / (nb + bz)
            else:
                A = -twist / (nb - bz)
    else:
        h = default_step(m)
        w, U, gaps = _stack(model, _axis_stencil(m, h, range(m.n_axes)))
        E0, g = float(w[0, band]), (w[1::2, band] - w[2::2, band]) / (2.0 * h)
        gap = float(gaps[0])
        if connection:
            # exact_connection(model, m).diagonal() on the same stack
            A = np.einsum("kbb->kb", _stencil_connection(U, h)).real[:, band]
    if spin_force and F is None:
        provider = curvature if curvature is not None else default_curvature_provider(model)
        F = provider(m).F[band]
    return _Kernel(energy=E0, grad=g, gap=gap, F=F, a_diag=A)


def spin_force_terms(model: HamiltonianModel, band: int, m: PhasePoint,
                     mdot: np.ndarray, curvature: Callable = None):
    """Additive gauge-force terms at a prescribed mdot = (pdot, rdot, 1).

    Returns (f_p, f_r): f_p = hbar F_rm . mdot enters the pdot equation and
    f_r = -hbar F_pm . mdot enters the rdot equation. For two-band traceless
    split models the two bands' terms are exact negatives.
    """
    provider = curvature if curvature is not None else default_curvature_provider(model)
    ct = provider(m)
    F = ct.F[band]
    d = m.d
    hbar = model.constants.hbar
    mdot = np.asarray(mdot, dtype=float)
    f_p = hbar * (F[d:2 * d, :] @ mdot)
    f_r = -hbar * (F[:d, :] @ mdot)
    return f_p, f_r


def velocity_field(model: HamiltonianModel, band: int, m: PhasePoint,
                   em: ExternalEMField = None, *, curvature: Callable = None,
                   mode: str = "exact", spin_force: bool = True,
                   warn: bool = True):
    """Phase-space velocities (pdot, rdot) of one band at m.

    The energy gradient and curvature come from the point kernel, the
    curvature from the given provider when there is one. mode='exact'
    solves the coupled linear system (raising SingularSystemError if it is
    singular or catastrophically conditioned); mode='reduced' substitutes
    curvature-free velocities into the gauge terms. A SpinForceWarning is
    emitted when warn is set and the gauge force is not small against the
    zeroth-order forces.
    """
    k = _point_kernel(model, band, m, curvature, spin_force)
    pdot, rdot, ratio = _velocity(model, m, k.grad, k.F, em, mode, warn)
    if ratio > SPIN_FORCE_WARN_RATIO:
        _warn_spin_force(stacklevel=3)
    return pdot, rdot


def _warn_spin_force(stacklevel: int) -> None:
    # stable message so the default warning filter dedupes it
    warnings.warn("spin gauge force is not small against the zeroth-order "
                  "forces; the adiabatic velocity expansion is marginal here",
                  SpinForceWarning, stacklevel=stacklevel)


def _velocity(model, m, g, F, em, mode, with_ratio):
    """(pdot, rdot, spin-force ratio) from the band's gradient g and curvature F.

    F None drops the gauge force. The ratio of the gauge force to the
    zeroth-order forces is computed only with_ratio, and is 0 otherwise.
    The exact system's condition number is estimated in the 1-norm from
    its LU inverse, which is within a factor 2d of the 2-norm value; above
    1e12, or for an exactly singular system, SingularSystemError is raised.
    """
    d = m.d
    gp, gr = g[:d], g[d:2 * d]
    cst = model.constants
    E3 = np.zeros(3)
    B3 = np.zeros(3)
    if em is not None:
        E3, B3 = em.at(m.r, m.t)
    XB = _cross_matrix(B3, d)
    rhs_p0 = -gr + cst.e * E3[:d]
    rhs_r0 = gp.copy()

    spin_force = F is not None
    if not spin_force:
        F = np.zeros((m.n_axes, m.n_axes))
    hb = cst.hbar
    if mode == "exact":
        I = np.eye(d)
        M = np.empty((2 * d, 2 * d))
        M[:d, :d] = I - hb * F[d:2 * d, :d]
        M[:d, d:] = -hb * F[d:2 * d, d:2 * d] - (cst.e / cst.c) * XB
        M[d:, :d] = hb * F[:d, :d]
        M[d:, d:] = I + hb * F[:d, d:2 * d]
        rhs = np.concatenate([rhs_p0 + hb * F[d:2 * d, 2 * d],
                              rhs_r0 - hb * F[:d, 2 * d]])
        try:
            cond = _norm1(M) * _norm1(np.linalg.inv(M))
        except np.linalg.LinAlgError:
            cond = math.inf
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularSystemError(
                f"velocity system is singular (condition number {cond:.3e})")
        v = np.linalg.solve(M, rhs)
        pdot, rdot = v[:d], v[d:]
    elif mode == "reduced":
        rdot0 = gp
        pdot0 = rhs_p0 + (cst.e / cst.c) * (XB @ rdot0)
        mdot0 = np.concatenate([pdot0, rdot0, [1.0]])
        rdot = gp - hb * (F[:d, :] @ mdot0)
        pdot = rhs_p0 + (cst.e / cst.c) * (XB @ rdot) + hb * (F[d:2 * d, :] @ mdot0)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    ratio = 0.0
    if with_ratio and spin_force:
        mdot = np.concatenate([pdot, rdot, [1.0]])
        gauge_norm = hb * max(np.linalg.norm(F[d:2 * d, :] @ mdot),
                              np.linalg.norm(F[:d, :] @ mdot))
        base_norm = max(np.linalg.norm(rhs_p0), np.linalg.norm(rhs_r0), 1e-300)
        ratio = gauge_norm / base_norm
    return pdot, rdot, ratio


def _norm1(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=0).max())


def adiabaticity_epsilon(model: HamiltonianModel, band: int, m: PhasePoint,
                         mdot: np.ndarray = None, delta_p: float = None) -> float:
    """Adiabaticity parameter of the instantaneous state.

    epsilon = hbar max(|dE/dt| / dE_gap^2, |dp/dr| / delta_p^2), with dE/dt
    the along-trajectory energy derivative (grad E . mdot; mdot defaults to
    the static (0, 0, 1)), |dp/dr| estimated as |grad_r E| / |grad_p E| (the
    constant-energy momentum response; zero for dispersionless states) and
    delta_p defaulting to gap / |grad_p E|. Values near 1 mean band
    transitions are not suppressed. The gradient comes from the point
    kernel.
    """
    k = _point_kernel(model, band, m, spin_force=False)
    if mdot is None:
        mdot = np.zeros(m.n_axes)
        mdot[-1] = 1.0
    return _epsilon(model, m, k.grad, k.gap, mdot, delta_p)


def _epsilon(model, m, g, gap, mdot, delta_p) -> float:
    """adiabaticity_epsilon from the band's energy gradient g and the gap."""
    d = m.d
    mdot = np.asarray(mdot, dtype=float)
    hbar = model.constants.hbar
    dEdt = float(g @ mdot)
    time_term = abs(dEdt) / gap**2
    gp_norm = float(np.linalg.norm(g[:d]))
    gr_norm = float(np.linalg.norm(g[d:2 * d]))
    if gp_norm == 0.0:
        momentum_term = 0.0
    else:
        dpdr = gr_norm / gp_norm
        dp = delta_p if delta_p is not None else gap / gp_norm
        momentum_term = dpdr / dp**2
    return hbar * max(time_term, momentum_term)


# ---------------------------------------------------------------------------
# Integration


@dataclass
class _PointEval:
    v_p: np.ndarray
    v_r: np.ndarray
    energy: float
    epsilon: float
    a_diag: Optional[np.ndarray]
    berry_rate: float
    dynamic_rate: float
    spin_ratio: float


def _eval_point(model, band, m, em, config, curvature) -> _PointEval:
    k = _point_kernel(model, band, m, curvature, config.spin_force,
                      connection=config.record_connection)
    v_p, v_r, ratio = _velocity(model, m, k.grad, k.F, em, config.mode, True)
    mdot = np.concatenate([v_p, v_r, [1.0]])
    eps = _epsilon(model, m, k.grad, k.gap, mdot, config.delta_p)
    berry_rate = 0.0 if k.a_diag is None else float(k.a_diag @ mdot)
    dynamic_rate = (float(m.p @ v_r) - k.energy) / model.constants.hbar
    return _PointEval(v_p=v_p, v_r=v_r, energy=k.energy, epsilon=eps,
                      a_diag=k.a_diag, berry_rate=berry_rate,
                      dynamic_rate=dynamic_rate, spin_ratio=ratio)


def _make_state(m, band, ev: _PointEval, berry, dynamic, hbar) -> TrajectoryState:
    d = m.d
    a_p = a_r = None
    a_t = None
    if ev.a_diag is not None:
        a_p = ev.a_diag[:d].copy()
        a_r = ev.a_diag[d:2 * d].copy()
        a_t = float(ev.a_diag[2 * d])
    return TrajectoryState(m=m, band=band, energy=ev.energy, epsilon=ev.epsilon,
                           berry_phase=berry, dynamic_phase=dynamic,
                           v_p=ev.v_p.copy(), v_r=ev.v_r.copy(),
                           a_p=a_p, a_r=a_r, a_t=a_t, hbar=hbar)


# Fehlberg 4(5) tableau.
_FE_A = [0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5]
_FE_B = [
    [],
    [0.25],
    [3.0 / 32.0, 9.0 / 32.0],
    [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0],
    [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0],
    [-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0],
]
_FE_C4 = [25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0]
_FE_C5 = [16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0,
          2.0 / 55.0]


def integrate(model: HamiltonianModel, band: int, initial: PhasePoint,
              config: IntegratorConfig, em: ExternalEMField = None,
              curvature: Callable = None) -> Trajectory:
    """Integrate one band's trajectory from the initial phase-space point.

    Time advances uniformly (the final step is shortened, or stretched by
    at most a relative 1e-6, to land exactly on t_end). Geometric and
    dynamic phases accumulate by the trapezoid rule over accepted states.
    A SpinForceWarning is issued at most once per trajectory, at the first
    accepted state whose gauge force is not small against the zeroth-order
    forces; RK stages are not checked.
    Errors raised by the velocity evaluation are re-raised with the step
    index attached; overflow and a state that is no longer finite become a
    NumericalError at the step where they occur.
    """
    d = initial.d
    t0 = initial.t
    duration = config.t_end - t0
    if duration <= 0:
        raise ValueError("t_end must exceed the initial time")

    def point(s, y) -> PhasePoint:
        if not np.all(np.isfinite(y)):
            raise NumericalError("phase-space state is no longer finite")
        return PhasePoint(y[:d], y[d:], t0 + s)

    def rhs(s, y):
        # RK stages stay silent; accepted states feed the warning latch
        v_p, v_r = velocity_field(model, band, point(s, y), em,
                                  curvature=curvature, mode=config.mode,
                                  spin_force=config.spin_force, warn=False)
        return np.concatenate([v_p, v_r])

    warned = False

    def eval_at(s, y) -> _PointEval:
        nonlocal warned
        ev = _eval_point(model, band, point(s, y), em, config, curvature)
        if not warned and ev.spin_ratio > SPIN_FORCE_WARN_RATIO:
            warned = True
            _warn_spin_force(stacklevel=4)
        return ev

    y = np.concatenate([initial.p, initial.r])
    s = 0.0
    berry = 0.0
    dynamic = 0.0
    hbar = model.constants.hbar
    status = "max_steps"
    h = config.step
    steps = 0
    try:
        ev = eval_at(s, y)
        states = [_make_state(initial, band, ev, berry, dynamic, hbar)]
        if ev.epsilon > config.epsilon_abort:
            return Trajectory(states=states, status="adiabaticity_breach",
                              band=band)
        while steps < config.max_steps:
            steps += 1
            remaining = duration - s
            last = remaining <= h * (1.0 + _LAST_STEP_SLACK)
            h_try = remaining if last else h
            k1 = np.concatenate([ev.v_p, ev.v_r])
            if config.method == "rk4":
                y_new, s_new = _rk4_step(rhs, s, y, h_try, k1)
            else:
                y_new, s_new, h, accepted = _rkf45_step(rhs, s, y, h_try, k1,
                                                        config.tolerance)
                if not accepted:
                    continue
            ev_new = eval_at(s_new, y_new)
            dt = s_new - s
            berry += 0.5 * dt * (ev.berry_rate + ev_new.berry_rate)
            dynamic += 0.5 * dt * (ev.dynamic_rate + ev_new.dynamic_rate)
            s, y, ev = s_new, y_new, ev_new
            states.append(_make_state(point(s, y), band, ev, berry, dynamic,
                                      hbar))
            if ev.epsilon > config.epsilon_abort:
                status = "adiabaticity_breach"
                break
            if last:
                status = "completed"
                break
    except (OverflowError, FloatingPointError) as exc:
        err = NumericalError(*exc.args)
        _attach_step(err, steps)
        raise err from exc
    except Exception as exc:
        _attach_step(exc, steps)
        raise
    return Trajectory(states=states, status=status, band=band)


def _attach_step(exc: Exception, step_index: int) -> None:
    """Prefix the step index to the message, whatever the exception's args."""
    note = f"integration step {step_index}"
    if exc.args:
        note += ": " + ", ".join(str(a) for a in exc.args)
    exc.args = (note,)


def _rk4_step(rhs, s, y, h, k1):
    """Classic RK4 from y at s over h, with k1 = rhs(s, y) already evaluated."""
    k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(s + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), s + h


def _rkf45_step(rhs, s, y, h, k1, tol):
    ks = [k1]
    for stage in range(1, 6):
        y_st = y + h * sum(b * k for b, k in zip(_FE_B[stage], ks))
        ks.append(rhs(s + _FE_A[stage] * h, y_st))
    y4 = y + h * sum(c * k for c, k in zip(_FE_C4, ks))
    y5 = y + h * sum(c * k for c, k in zip(_FE_C5, ks))
    err = float(np.max(np.abs(y5 - y4) / (tol * (1.0 + np.abs(y)))))
    if err <= 1.0:
        h_next = h * min(5.0, max(0.2, 0.9 * (max(err, 1e-16)) ** -0.2))
        return y5, s + h, h_next, True
    h_next = h * min(1.0, max(0.2, 0.9 * err ** -0.2))
    return y, s, h_next, False


# ---------------------------------------------------------------------------
# Contour displacement and effective fields


def displacement_contour(p_path, field, hbar: float = 1.0,
                         band: int = None) -> np.ndarray:
    """Net anomalous displacement hbar int F x dp along a momentum contour.

    field(p) returns the momentum-block curvature pseudovector (3,), or a
    per-band stack (n, 3) from which band selects one. Trapezoid rule.
    """
    pts = np.asarray(p_path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
        raise ValueError("p_path must be an (N, 3) array")

    def fvec(p):
        f = np.asarray(field(p), dtype=float)
        if f.ndim == 2:
            if band is None:
                raise ValueError("band is required for a per-band field")
            f = f[band]
        return f

    total = np.zeros(3)
    f_prev = fvec(pts[0])
    for k in range(1, pts.shape[0]):
        f_next = fvec(pts[k])
        dp = pts[k] - pts[k - 1]
        total += 0.5 * (np.cross(f_prev, dp) + np.cross(f_next, dp))
        f_prev = f_next
    return hbar * total


@dataclass(frozen=True)
class EffectiveFields:
    """Effective EM fields seen by the two bands of a magnetic-coupling model.

    b_eff/e_eff include the external magnetic field; b_spin/e_spin are the
    pure gauge-force parts. Rows are bands in ascending order (spin charge
    -1/2 first).
    """

    b_eff: np.ndarray
    e_eff: np.ndarray
    b_spin: np.ndarray
    e_spin: np.ndarray


def effective_em_fields(b_field, r, t: float = 0.0,
                        constants: Constants = None) -> EffectiveFields:
    """Map the position-block curvature of a Zeeman coupling onto EM fields.

    The gauge force hbar F_rr . rdot acts like (e/c) rdot x B_spin with
    B_spin = (hbar c / e) dual(F_rr), and hbar F_rt acts like e E_spin with
    E_spin = (hbar / e) F_rt; both are per band. The coupling is
    H1 = chi B(r, t) with B the supplied field.
    """
    cst = constants or Constants()
    bf = as_field(b_field)
    J = np.zeros((3, 7))  # no momentum dependence: the p columns stay zero
    J[:, 3:6] = cst.chi * bf.d_dr(r, t)
    J[:, 6] = cst.chi * bf.d_dt(r, t)
    B_ext = bf.value(r, t)
    ct = monopole_pullback(cst.chi * B_ext, J, (-0.5, +0.5),
                           PhasePoint(np.zeros(3), _promote(r), t))
    b_spin = (cst.hbar * cst.c / cst.e) * np.stack(
        [tensor_to_pseudo(F) for F in ct.f_rr()])
    e_spin = (cst.hbar / cst.e) * ct.f_rt()
    return EffectiveFields(b_eff=B_ext[None, :] + b_spin,
                           e_eff=e_spin.copy(), b_spin=b_spin, e_spin=e_spin)
