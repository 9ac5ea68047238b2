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
The point kernel and the RK loop run over stacks of rows, one band per
row; integrate is their one-row case and ensembles run many rows at once.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (DegeneracyError, NumericalError, SingularSystemError, SpinForceWarning,
                     StepError, bisect_failures)
from .fields import UniformField, VectorField, _promote, as_field, rows
from .models import (_CHARGES, DEGENERACY_RTOL, Constants, HamiltonianModel, _split_differences,
                     monopole_rows)
from .phase_space import (PhasePoint, _axis_stencil, _check_step, _stencil_rows, antisymmetric,
                          default_step, row_dot, row_norm, row_pow)

# Spin force larger than this fraction of the zeroth-order force triggers
# a SpinForceWarning (the underlying expansion is no longer perturbative).
SPIN_FORCE_WARN_RATIO = 0.5
_COND_LIMIT = 1e12
_CROSS = np.array([6, 2, 4, 5, 6, 0, 1, 3, 6])  # (B, -B, 0) entries of v -> v x B
# What a row's next trial reads of its last accepted state.
_CARRIED = ("y", "s", "v", "berry_rate", "dynamic_rate")
# A last step at most this fraction longer than the step size is stretched
# to land on t_end, instead of leaving a rounding-error sliver behind it.
_LAST_STEP_SLACK = 1e-6
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # the largest float whose square is finite


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


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-stepping controls.

    step is the rk4 time step (and the initial rkf45 trial step); tolerance
    drives rkf45 step adaptation. max_steps counts trial steps, rkf45
    rejections included. epsilon_abort in (0, 1] halts integration
    once the adiabaticity parameter exceeds it. mode selects the exact
    velocity solve or the reduced substitution; spin_force False drops the
    gauge force entirely (canonical flow). record_connection False skips
    per-state connection evaluation (phases are then not accumulated); the
    connection comes from the closed form or eigen-stack that already gives
    the energy gradient, so recording it costs next to nothing. Ensembles
    report no phases and never evaluate the connection.
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
        if not math.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(f"max_steps must be an integer of at least 1, got {steps!r}")
        if self.delta_p is not None and not (math.isfinite(self.delta_p) and self.delta_p > 0):
            raise ValueError(f"delta_p must be positive and finite, got {self.delta_p}")
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


def band_gradients(model: HamiltonianModel, band: int, m: PhasePoint,
                   step: float = None):
    """(E, gradient of E over all flat axes) for one band, by central differences.

    This is the finite-difference oracle: for every model, split form or
    not, it differences the tracked eigenvalues of one frame stack, so it
    shares no arithmetic with the point kernel for any model.
    """
    from .spectral import _stack
    h = _check_step(step if step is not None else default_step(m))
    w, _, _ = _stack(model, _axis_stencil(m.as_vector(), h, range(m.n_axes)))
    return float(w[0, band]), (w[1::2, band] - w[2::2, band]) / (2.0 * h)


@dataclass(frozen=True)
class _BandForm:
    """Bands with no partner, in place of a model (rays are one): rows(X) gives
    (E, grad E, b, J) for every band, and band k has charge spin_charges[k]."""

    rows: Callable[[np.ndarray], tuple]
    spin_charges: tuple
    constants: Constants


@dataclass
class _Kernel:
    energy: np.ndarray            # (N,) over N rows and D flat axes
    grad: np.ndarray              # (N, D)
    gap: np.ndarray               # (N,)
    F: Optional[np.ndarray]       # (N, D, D): each row's band curvature
    a_diag: Optional[np.ndarray]  # (N, D): each row's band diagonal connection


def _split_energy(h0: np.ndarray, nb: np.ndarray, sign: np.ndarray):
    """(E, gap) per row from H0, hbar|H1| and the band's sign -+1, with the
    eigensolver's degeneracy guard; the first failing row raises."""
    gap = 2.0 * nb
    tol = DEGENERACY_RTOL * np.maximum(1.0, np.abs(h0) + nb)
    ok = (gap >= tol) & (tol < math.inf)  # a finite tol needs finite H0 and |H1|
    if not ok.all():
        i = ok.argmin()  # the first failing row
        if not (math.isfinite(h0[i]) and math.isfinite(nb[i])):
            raise NumericalError(f"band energy is not finite: H0 = {float(h0[i])}, "
                                 f"hbar|H1| = {float(nb[i])}")
        raise DegeneracyError(f"band gap {gap[i]:.3e} below tolerance {tol[i]:.3e}")
    return h0 + sign * nb, gap


def _point_kernel(model: HamiltonianModel, bands, X: np.ndarray,
                  spin_force: bool = True, connection: bool = False) -> _Kernel:
    """Energy, gradient, gap, curvature F and diagonal connection A of a band
    at each row of X (N, 2d+1), in the band bands[i] (N,) of each row.

    This is the one place the integrator takes F from: nothing else can
    supply a curvature. A split form gives all of them from (grad H0, b,
    J), b = H1 and J = dH1/dm, exact or differenced (models._split_differences):
    with S the band's charge in SPLIT_CHARGES (-+1/2), E = H0 + 2S hbar|b|,
    grad E = grad H0 + 2S hbar b^T J/|b|, gap = 2 hbar|b|, F = -S X with X
    from models.monopole_rows and A = a(b)^T J, with a(b) Berry's monopole
    connection of spin S in the largest-component gauge of the
    spectral layer. For a 2x2 frame that gauge is the north patch
    S (b_y, -b_x, 0)/(|b|(|b| + b_z)) where b_z > 0 and the south patch
    -S (b_y, -b_x, 0)/(|b|(|b| - b_z)) where b_z < 0.
    At an exact tie b_z = 0 the kernel follows the spectral layer's
    lowest-index rule (component 0 is made real), which is the north patch
    for the upper band and the south patch for the lower one; the
    eigensolver's roundoff may break such a tie either way, so differenced
    frames are no oracle within about 1e-3 |b| of b_z = 0. A _BandForm
    gives (E, grad E, b, J) itself, its own charges, an infinite gap and
    no A.

    Generic models take them all from one eigensolve of the N centre
    matrices and from dH/dm by central differences at default_step, one
    evaluate_stack over every row's 2D shifted stencil rows. With
    V_m = <m|dH|b> and c_m = V_m/(E_b - E_m), m != b: grad E = Re V_b,
    F_ij = -2 Im sum_m conj(c_m,i) c_m,j (the sum over states) and
    A = Im(sum_m U_km c_m)/U_kb, k the component the spectral gauge makes
    real. F is None when spin_force is off and A is None unless connection
    is asked for. Each row's bits are independent of the other rows, and a
    failing row raises: a gradient or curvature that is not finite raises
    NumericalError.
    """
    F = A = b = None
    if isinstance(model, _BandForm):
        E0, g, b, J = model.rows(X)
        nb, gap = row_norm(b), np.full(len(X), math.inf)
        charge = np.take(model.spin_charges, bands)
    elif model.split is not None:
        exact = model.split.jacobian_rows
        h0, g0, b, J = exact(X) if exact is not None else _split_differences(
            model.split, X, np.array([default_step(x) for x in X]))
        nb = row_norm(b)
        hbar = model.constants.hbar
        charge = _CHARGES[bands]
        sign = 2.0 * charge  # -+1, exactly
        E0, gap = _split_energy(h0, hbar * nb, sign)
        g = g0 + (sign * hbar / nb)[:, None] * np.vecmat(b, J)
        if connection:
            bz = b[:, 2]
            north = (bz > 0.0) | ((bz == 0.0) & (bands == 1))
            patch = np.where(north, 1.0, -1.0)  # negating is exact: +-S and |b| +- b_z
            A = ((patch * charge)[:, None] * (b[:, 1, None] * J[:, 0] - b[:, 0, None] * J[:, 1])
                 / nb[:, None] / (nb + patch * bz)[:, None])
    else:
        from .spectral import _stack
        w, U, gap = _stack(model, X, match=False)
        N, D = X.shape
        rows, n = np.arange(N), model.n
        h = np.array([default_step(x) for x in X])
        H = model.evaluate_stack(
            _stencil_rows(X, h, range(D))[:, 1:].reshape(-1, D)).reshape(N, D, 2, n, n)
        dH = (H[:, :, 0] - H[:, :, 1]) / (2.0 * h)[:, None, None, None]
        u = U[rows, :, bands]
        V = (np.conj(np.swapaxes(U, 1, 2))[:, None] @ (dH @ u[:, None, :, None]))[..., 0]
        E0, g = w[rows, bands], V[rows, :, bands].real
        own = np.arange(n) == bands[:, None]
        c = V * np.where(own, 0.0, 1.0 / np.where(own, 1.0, E0[:, None] - w))[:, None]
        if spin_force:
            F = antisymmetric(-2.0 * (np.conj(c) @ np.swapaxes(c, 1, 2)).imag)
        if connection:
            k = np.argmax(np.abs(u), axis=1)  # the component the spectral gauge makes real
            A = (c @ U[rows, k, :, None])[..., 0].imag / u[rows, k].real[:, None]
    if b is not None and spin_force:
        F = antisymmetric(-charge[:, None, None] * monopole_rows(b, J, nb))
    if not (np.isfinite(g).all() and (F is None or np.isfinite(F).all())):
        bad_g = ~np.isfinite(g).all(1)  # e.g. a finite centre whose differenced stencil is not
        i = (bad_g if F is None else bad_g | ~np.isfinite(F).all((1, 2))).argmax()
        raise NumericalError(f"band {'energy gradient' if bad_g[i] else 'curvature'} is not finite")
    return _Kernel(energy=E0, grad=g, gap=gap, F=F, a_diag=A)


def velocity_field(model: HamiltonianModel, band: int, m: PhasePoint,
                   em: ExternalEMField = None, *, mode: str = "exact",
                   spin_force: bool = True, warn: bool = True):
    """Phase-space velocities (pdot, rdot) of one band at m.

    The energy gradient and curvature come from the point kernel.
    mode='exact' solves the coupled linear system (raising
    SingularSystemError if it is singular or catastrophically conditioned);
    mode='reduced' substitutes curvature-free velocities into the gauge
    terms. A SpinForceWarning is emitted when warn is set and the gauge
    force is not small against the zeroth-order forces.
    """
    X = m.as_vector()[None]
    k = _point_kernel(model, np.array([band]), X, spin_force)
    v, ratio = _velocity(model, X, k.grad, k.F, em, mode, warn)
    if ratio[0] > SPIN_FORCE_WARN_RATIO:
        _warn_spin_force(stacklevel=3)
    return v[0, :m.d], v[0, m.d:]


def _warn_spin_force(stacklevel: int) -> None:
    # stable message so the default warning filter dedupes it
    warnings.warn("spin gauge force is not small against the zeroth-order "
                  "forces; the adiabatic velocity expansion is marginal here",
                  SpinForceWarning, stacklevel=stacklevel)


def _cross_matrices(B: np.ndarray) -> np.ndarray:
    """XB (N, 3, 3) with XB v = v x B at each row of B (N, 3):
    [[0, Bz, -By], [-Bz, 0, Bx], [By, -Bx, 0]]."""
    return np.concatenate([B, -B, np.zeros((len(B), 1))], axis=1).take(_CROSS, 1).reshape(-1, 3, 3)


_XB0 = _cross_matrices(np.zeros((1, 3)))[0]
_EYE3 = np.eye(3)
# by d: the rows of the pdot then the rdot equations, and the signs of their hbar terms
_PR_ROWS = {d: np.r_[d:2 * d, 0:d] for d in (2, 3)}
_PR_SIGNS = {d: np.repeat([-1.0, 1.0], d)[:, None] for d in (2, 3)}


def _velocity(model, X, g, F, em, mode, with_ratio):
    """(v = (pdot, rdot), spin-force ratio) at each row of X from the band's
    gradient g and curvature F.

    F None drops the gauge force. The ratio of the gauge force to the
    zeroth-order forces is computed only with_ratio, and is 0 otherwise.
    The exact system's condition number is estimated in the 1-norm from
    its LU inverse (within a factor 2d of the 2-norm value); above 1e12,
    or for an exactly singular system, SingularSystemError is raised. The
    batched inverse and solve are bit-equal to one call per row.
    """
    N, d = len(X), (X.shape[1] - 1) // 2
    gp, gr = g[:, :d], g[:, d:2 * d]
    cst = model.constants
    if em is None:  # the bits of zero E and B rows: e 0.0, and the -0.0 of -B in XB
        XB, rhs_p0 = _XB0[:d, :d], -gr + cst.e * 0.0
    else:
        r, t = X[:, d:2 * d], X[:, 2 * d]
        E3, B3 = rows(em.e_field, "value", r, t), rows(em.b_field, "value", r, t)
        XB, rhs_p0 = _cross_matrices(B3)[:, :d, :d], -gr + cst.e * E3[:, :d]

    spin_force = F is not None
    if not spin_force:
        F = np.zeros((N, X.shape[1], X.shape[1]))
    hb = cst.hbar
    if mode == "exact":
        # M = [[I - hb Fp_p, -hb Fp_r - (e/c) XB], [hb Fr_p, I + hb Fr_r]] and
        # rhs = (rhs_p0 + hb Fp_t, gp - hb Fr_t), Fp and Fr the curvature rows
        # of the pdot and rdot equations: both from the rows (Fp, Fr) times
        # w = (-hb, hb), as -(-y) = y, with the arithmetic of I - x as -x + I
        Fpr, w = F.take(_PR_ROWS[d], 1), hb * _PR_SIGNS[d]
        M = Fpr[:, :, :2 * d] * w
        M[:, :d, :d] += _EYE3[:d, :d]
        M[:, :d, d:] -= (cst.e / cst.c) * XB
        M[:, d:, d:] += _EYE3[:d, :d]
        rhs = np.concatenate([rhs_p0, gp], axis=1)[..., None] - Fpr[:, :, 2 * d:] * w
        try:
            cond = np.abs(M).sum(1).max(1) * np.abs(np.linalg.inv(M)).sum(1).max(1)
        except np.linalg.LinAlgError:
            cond = np.full(N, math.inf)
        if not (cond <= _COND_LIMIT).all():  # NaN fails too
            raise SingularSystemError("velocity system is singular (condition number "
                                      f"{cond[~(cond <= _COND_LIMIT)][0]:.3e})")
        v = np.linalg.solve(M, rhs)[..., 0]
    elif mode == "reduced":
        Fp, Fr = F[:, d:2 * d], F[:, :d]
        pdot0 = rhs_p0 + (cst.e / cst.c) * np.matvec(XB, gp)
        mdot0 = np.concatenate([pdot0, gp, np.ones((N, 1))], axis=1)
        rdot = gp - hb * np.matvec(Fr, mdot0)
        pdot = rhs_p0 + (cst.e / cst.c) * np.matvec(XB, rdot) + hb * np.matvec(Fp, mdot0)
        v = np.concatenate([pdot, rdot], axis=1)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    ratio = np.zeros(N)
    if with_ratio and spin_force:
        # |F_r . mdot|, |F_p . mdot|, |rhs_p0| and |grad_p E| of each row
        mdot = np.concatenate([v, np.ones((N, 1))], axis=1)
        forces = np.concatenate([np.matvec(F[:, :2 * d], mdot), rhs_p0, gp], axis=1).reshape(N, 4, d)
        norms = row_norm(forces.reshape(-1, d)).reshape(N, 4)
        ratio = hb * np.maximum(norms[:, 0], norms[:, 1]) / np.maximum(
            np.maximum(norms[:, 2], norms[:, 3]), 1e-300)
    return v, ratio


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
    X = m.as_vector()[None]
    k = _point_kernel(model, np.array([band]), X, spin_force=False)
    mdot = np.eye(m.n_axes)[-1] if mdot is None else np.asarray(mdot, dtype=float)
    return float(_epsilon(model, X, k.grad, k.gap, mdot[None], delta_p)[0])


def _epsilon(model, X, g, gap, mdot, delta_p) -> np.ndarray:
    """adiabaticity_epsilon at each row from the band's energy gradient g and the gap."""
    N, d = len(X), (X.shape[1] - 1) // 2
    dE_dt, gap2 = np.abs(row_dot(g, mdot)), gap
    big = gap > _SQRT_MAX
    if big.any():  # gap^2 overflows there: those rows divide by the gap twice
        s = np.where(big, gap, 1.0)
        dE_dt, gap2 = dE_dt / s / s, np.where(big, 1.0, gap)
    time_term = dE_dt / row_pow(gap2, 2)
    gp_norm, gr_norm = row_norm(g[:, :2 * d].reshape(2 * N, d)).reshape(N, 2).T
    moving = gp_norm != 0.0
    gp_norm = np.where(moving, gp_norm, 1.0)
    dp = gap / gp_norm if delta_p is None else np.full(N, float(delta_p))
    moving &= dp <= _SQRT_MAX  # near rest dp^2 overflows, where gr gp / gap^2 is negligible
    # a row at rest (or near it) takes the time term alone
    momentum_term = (gr_norm / gp_norm) / row_pow(np.where(moving, dp, 1.0), 2)
    return model.constants.hbar * np.where(moving & (momentum_term > time_term),
                                           momentum_term, time_term)


# ---------------------------------------------------------------------------
# Integration


def _eval_rows(model, bands, X, em, config) -> dict:
    """v, energy, epsilon, spin-force ratio, phase rates and (if recorded) the
    diagonal connection a at the accepted states X, per row."""
    k = _point_kernel(model, bands, X, config.spin_force, connection=config.record_connection)
    v, ratio = _velocity(model, X, k.grad, k.F, em, config.mode, True)
    mdot = np.concatenate([v, np.ones((len(X), 1))], axis=1)
    d = (X.shape[1] - 1) // 2
    ev = {"v": v, "energy": k.energy, "ratio": ratio,
          "epsilon": _epsilon(model, X, k.grad, k.gap, mdot, config.delta_p),
          "berry_rate": np.zeros(len(X)) if k.a_diag is None else row_dot(k.a_diag, mdot),
          "dynamic_rate": (row_dot(X[:, :d], v[:, d:]) - k.energy) / model.constants.hbar}
    if k.a_diag is not None:
        ev["a"] = k.a_diag
    return ev


def _stage_velocity(model, bands, X, em, config) -> np.ndarray:
    k = _point_kernel(model, bands, X, config.spin_force)
    return _velocity(model, X, k.grad, k.F, em, config.mode, False)[0]


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
              config: IntegratorConfig, em: ExternalEMField = None) -> Trajectory:
    """Integrate one band's trajectory from the initial phase-space point.

    Time advances uniformly (the final step is shortened, or stretched by
    at most a relative 1e-6, to land exactly on t_end). Geometric and
    dynamic phases accumulate by the trapezoid rule over accepted states.
    A SpinForceWarning is issued at most once per trajectory, at the first
    accepted state whose gauge force is not small against the zeroth-order
    forces; RK stages are not checked.
    Errors raised by the velocity evaluation are re-raised with the step
    index attached; overflow and a state that is no longer finite become a
    NumericalError at the step where they occur. This is the one-row case
    of the RK loop that ensembles run in lockstep.
    """
    d = initial.d
    run = _integrate_rows(model, np.array([band]), np.concatenate([initial.p, initial.r])[None],
                          initial.t, config, em, record=True)
    if run.errors[0] is not None:
        raise run.errors[0]
    states = []
    for _, val, berry, dynamic in run.states:
        y, v, a = val["y"][0], val["v"][0], val.get("a")
        # every accepted state passed the RK loop's finiteness check
        m = PhasePoint._trusted(y[:d], y[d:], initial.t + float(val["s"][0])) if states else initial
        states.append(TrajectoryState(
            m=m, band=band, energy=float(val["energy"][0]), epsilon=float(val["epsilon"][0]),
            berry_phase=float(berry[0]), dynamic_phase=float(dynamic[0]), v_p=v[:d], v_r=v[d:],
            a_p=None if a is None else a[0, :d], a_r=None if a is None else a[0, d:2 * d],
            a_t=None if a is None else float(a[0, 2 * d]), hbar=model.constants.hbar))
    return Trajectory(states=states, status=run.status[0], band=band)


@dataclass
class _Rows:
    """Each row's status, or 'failed' with its exception (step index attached)
    in errors; its last accepted state y, launch velocity v0 (NaN if it
    failed there) and largest |energy| over its accepted states; and, when
    recorded, (rows, values, berry, dynamic) of the rows that accept each
    iteration's trial, per row of rows; values hold each row's clock s."""

    status: list
    errors: list
    y: np.ndarray
    v0: np.ndarray
    energy_peak: np.ndarray
    states: list


def _integrate_rows(model, bands, Y, t0, config, em=None, record=False) -> _Rows:
    """One RK loop over the rows of Y (N, 2d) from time t0, row i in band bands[i].

    Each row keeps its own clock s, step h and last-step flag. Every
    iteration makes one trial step for each running row, all rows in
    lockstep: a row that accepts it advances, and an rkf45 row that rejects
    it keeps its state and tries again with its smaller step. rk4 accepts
    every trial, so its rows share one clock. A row leaves when it
    completes, breaches epsilon or fails. A trial that raises for the batch
    is redone on halves of it (errors.bisect_failures), so each row keeps
    the result or error it has alone: no row's bits depend on its batch.
    """
    duration = config.t_end - t0
    if duration <= 0:
        raise ValueError("t_end must exceed the initial time")
    if not record:  # the connection and phases are reported with the states only
        config = replace(config, record_connection=False)
    N = len(Y)
    out = _Rows(["max_steps"] * N, [None] * N, Y.copy(), np.full(Y.shape, np.nan), np.zeros(N), [])
    cur = {"y": out.y, "s": np.zeros(N)}  # each row's last accepted state, clock and values
    running, warned = np.ones(N, dtype=bool), np.zeros(N, dtype=bool)
    berry, dynamic, h_try = np.zeros(N), np.zeros(N), np.zeros(N)
    h, last, steps = np.full(N, config.step), np.zeros(N, dtype=bool), 0

    def at(s, y):
        X = np.empty((len(y), y.shape[1] + 1))
        X[:, :-1], X[:, -1] = y, t0 + s
        if not np.isfinite(X).all():
            raise NumericalError("phase-space state is no longer finite")
        return X

    def advance(idx):  # one trial of rows idx: (the rows that accept it, their next states)
        sel = slice(None) if len(idx) == N else idx  # views while all rows run
        y, b, s, h_s, ok = cur["y"][sel], bands[sel], cur["s"][sel], h_try[sel], slice(None)
        if steps:
            f = lambda s_, y_: _stage_velocity(model, b, at(s_, y_), em, config)
            if config.method == "rk4":
                y = _rk4_step(f, s, y, h_s, cur["v"][sel])
            else:
                y, h[sel], ok = _rkf45_step(f, s, y, h_s, cur["v"][sel], config.tolerance)
        idx, y, b, s = idx[ok], y[ok], b[ok], (s + h_s)[ok]
        return idx, dict(_eval_rows(model, b, at(s, y), em, config), y=y, s=s) if len(idx) else {}

    def fail(i, exc):
        err = exc
        if isinstance(exc, (OverflowError, FloatingPointError)):
            err = NumericalError(*exc.args)
            err.__cause__ = exc
        _attach_step(err, steps)
        out.status[i], out.errors[i], running[i] = "failed", err, False

    while True:
        parts = [p for _, p in bisect_failures(advance, np.flatnonzero(running), fail) if len(p[0])]
        if parts:
            idx, new = parts[0]
            if len(parts) > 1:
                idx = np.concatenate([i for i, _ in parts])
                new = {k: np.concatenate([p[k] for _, p in parts]) for k in new}
            rows = slice(None) if len(idx) == N else idx  # a view while all run
            if steps:
                dt = 0.5 * (new["s"] - cur["s"][rows])
                berry[rows] += dt * (cur["berry_rate"][rows] + new["berry_rate"])
                dynamic[rows] += dt * (cur["dynamic_rate"][rows] + new["dynamic_rate"])
            else:
                out.v0[rows] = new["v"]
            if len(idx) == N:  # cur takes the new arrays, which no one writes to
                cur.update((k, new[k]) for k in _CARRIED)
            else:  # fresh arrays, so that no recorded state changes
                for k in _CARRIED:
                    cur[k] = cur[k].copy() if k in cur else np.full((N,) + new[k].shape[1:], np.nan)
                    cur[k][idx] = new[k]
            out.energy_peak[rows] = np.maximum(out.energy_peak[rows], np.abs(new["energy"]))
            if record:
                out.states.append((idx, new, berry[rows].copy(), dynamic[rows].copy()))
            if ((new["ratio"] > SPIN_FORCE_WARN_RATIO) | (new["epsilon"] > config.epsilon_abort)
                    | last[rows]).any():
                for i in idx[(new["ratio"] > SPIN_FORCE_WARN_RATIO) & ~warned[idx]]:
                    warned[i] = True
                    try:  # attributed to the caller of integrate
                        _warn_spin_force(stacklevel=4)
                    except Exception as exc:
                        fail(i, exc)
                for i in idx[(new["epsilon"] > config.epsilon_abort) & running[idx]]:
                    out.status[i], running[i] = "adiabaticity_breach", False
                for i in idx[last[idx] & running[idx]]:
                    out.status[i], running[i] = "completed", False
        if steps >= config.max_steps or not running.any():
            out.y = cur["y"]
            return out
        steps += 1
        remaining = duration - cur["s"]
        last = remaining <= h * (1.0 + _LAST_STEP_SLACK)
        h_try = np.where(last, remaining, h)


def _attach_step(exc: Exception, step_index: int) -> None:
    """Prefix the step index to the message, whatever the exception's args."""
    note = f"integration step {step_index}"
    if exc.args:
        note += ": " + ", ".join(str(a) for a in exc.args)
    exc.args = (note,)


def _rk4_step(rhs, s, y, h, k1):
    """Classic RK4 of rows y at times s over steps h, with k1 = rhs(s, y) evaluated."""
    hh, s_mid, half = h[:, None], s + 0.5 * h, 0.5 * h[:, None]
    k2 = rhs(s_mid, y + half * k1)
    k3 = rhs(s_mid, y + half * k2)
    k4 = rhs(s + h, y + hh * k3)
    return y + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rkf45_step(rhs, s, y, h, k1, tol):
    """One Fehlberg 4(5) trial of rows y at times s over steps h, each row with
    its own error norm: (y, next steps, accepted); a rejecting row keeps its y."""
    hh, ks = h[:, None], [k1]
    for stage in range(1, 6):
        y_st = y + hh * sum(b * k for b, k in zip(_FE_B[stage], ks))
        ks.append(rhs(s + _FE_A[stage] * h, y_st))
    y4 = y + hh * sum(c * k for c, k in zip(_FE_C4, ks))
    y5 = y + hh * sum(c * k for c, k in zip(_FE_C5, ks))
    err = (np.abs(y5 - y4) / (tol * (1.0 + np.abs(y)))).max(axis=1)
    # in Python floats, whose power rounds differently from numpy's
    h_next = [hi * min(5.0, max(0.2, 0.9 * max(e, 1e-16) ** -0.2))
              for hi, e in zip(h.tolist(), err.tolist())]
    return np.where((err <= 1.0)[:, None], y5, y), np.array(h_next), err <= 1.0


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
    from .gauge import tensor_to_pseudo
    from .scenarios import ZeemanScenario
    cst = constants or Constants()
    scn = ZeemanScenario(b_field, chi=cst.chi)
    B_ext = scn.b_field.value(r, t)
    ct = scn.curvature_blocks(PhasePoint(np.zeros(3), _promote(r), t))
    b_spin = (cst.hbar * cst.c / cst.e) * np.stack(
        [tensor_to_pseudo(F) for F in ct.f_rr()])
    e_spin = (cst.hbar / cst.e) * ct.f_rt()
    return EffectiveFields(b_eff=B_ext[None, :] + b_spin,
                           e_eff=e_spin.copy(), b_spin=b_spin, e_spin=e_spin)
