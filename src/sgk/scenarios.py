"""Worked two-band settings and their closed-form geometry.

Four scenario families: a magnetic (Zeeman-type) coupling chi sigma.B(r, t),
a relativistic-style spin-orbit coupling chi B + rho (E x p), the planar
Rashba gas chi B + rho (e_z x p) with in-plane driving, and ray optics in a
graded index with helicity +-1 playing the spin charge. Each scenario
builds a split-form HamiltonianModel for the generic pipeline and carries
the closed-form frame / connection / curvature / motion laws that serve as
oracles for it.

Band order is everywhere ascending in energy: band 0 carries spin charge
-1/2 (or helicity -1), band 1 carries +1/2 (or +1). Two-state formulas
written with a double sign map onto bands as upper sign <-> band 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dynamics import _LAST_STEP_SLACK, _rk4_step
from .errors import (ConstraintDriftWarning, GaugePatchError, SingularityError,
                     StepError)
from .fields import IndexField, LinearField, VectorField, as_field, builtin, rows
from .gauge import CurvatureTensor, monopole_pseudovector, monopole_pullback
from .models import Constants, HamiltonianModel
from .phase_space import PhasePoint, row_dot

E_Z = np.array([0.0, 0.0, 1.0])

# Fractional distance from the patch's singular ray below which the
# auto-selected gauge patch switches to the opposite one.
PATCH_SWITCH = 0.9
CONSTRAINT_DRIFT_TOL = 1e-6


def _split_model(m_star: float, h1, jacobian_rows, h1_rows, constants: Constants,
                 *fields: VectorField) -> HamiltonianModel:
    """Split-form model with H0 = p^2 / 2 m_star, exact derivatives and stacks.

    h1_rows(p, r, t) is H1 and jacobian_rows(p, r, t) is (H1, dH1/dm) over
    the rows of a coordinate stack. The model carries the exact derivatives
    and the stack form together, when every field is built in
    (fields.builtin), or neither: a CallableField, or a subclass that
    defines or overrides value or a derivative, gives a model that
    differences H0 and H1 and evaluates stacks row by row.
    """
    def split(X: np.ndarray):
        d = (X.shape[1] - 1) // 2
        p = X[:, :d]
        return p, X[:, d:2 * d], X[:, 2 * d], row_dot(p, p) / (2.0 * m_star)

    def stack(X: np.ndarray):
        p, r, t, h0 = split(X)
        return h0, h1_rows(p, r, t)

    def derivatives(X: np.ndarray):
        p, r, t, h0 = split(X)
        g = np.zeros(X.shape)
        g[:, :p.shape[1]] = p / m_star
        return (h0, g, *jacobian_rows(p, r, t))

    exact = all(builtin(f) for f in fields)
    return HamiltonianModel.from_split(
        h0=lambda m: float(m.p @ m.p) / (2.0 * m_star), h1=h1, constants=constants,
        jacobian_rows=derivatives if exact else None, stack=stack if exact else None)


def _one_row(jacobian_rows, m: PhasePoint):
    """(b, J) at one point from a scenario's jacobian_rows(p, r, t)."""
    b, J = jacobian_rows(m.p[None], m.r[None], np.array([m.t]))
    return b[0], J[0]


def band_sign(band: int) -> float:
    """+1 for the upper band (spin charge +1/2), -1 for the lower."""
    if band not in (0, 1):
        raise ValueError(f"band must be 0 or 1, got {band}")
    return 1.0 if band == 1 else -1.0


# ---------------------------------------------------------------------------
# Magnetic coupling


@dataclass(frozen=True)
class ZeemanScenario:
    """Two spin states in a magnetic field: H = H0 I + hbar chi sigma.B(r, t).

    H0 = p^2 / 2 m_star. The coupling field must be nonzero wherever the
    scenario is evaluated; its zeros are spectrum degeneracies.
    """

    b_field: VectorField
    chi: float = 1.0
    m_star: float = 1.0
    hbar: float = 1.0
    d: int = 3

    def __post_init__(self):
        object.__setattr__(self, "b_field", as_field(self.b_field))

    def constants(self) -> Constants:
        return Constants(hbar=self.hbar, chi=self.chi, m_star=self.m_star)

    def model(self) -> HamiltonianModel:
        chi, bf = self.chi, self.b_field
        return _split_model(self.m_star, lambda m: chi * bf.value(m.r, m.t),
                            self._jacobian_rows, lambda p, r, t: chi * bf.value(r, t),
                            self.constants(), bf)

    @staticmethod
    def hedgehog(chi: float = 1.0, **kw) -> "ZeemanScenario":
        """B(r) = r: position doubles as the field vector (d = 3).

        The coupling space and r-space coincide, so field-space closed
        forms apply verbatim on the position axes.
        """
        return ZeemanScenario(b_field=LinearField(f0=np.zeros(3), G=np.eye(3)),
                              chi=chi, d=3, **kw)

    def jacobian(self, m: PhasePoint):
        """(b, J): the coupling chi B(r, t) and its Jacobian over the flat axes.

        The momentum columns vanish because the coupling is p-independent.
        """
        return _one_row(self._jacobian_rows, m)

    def _jacobian_rows(self, p, r, t):
        n, d = p.shape
        J = np.zeros((n, 3, 2 * d + 1))
        J[:, :, d:2 * d] = self.chi * rows(self.b_field, "d_dr", r, t)[:, :, :d]
        J[:, :, 2 * d] = self.chi * rows(self.b_field, "d_dt", r, t)
        return self.chi * rows(self.b_field, "value", r, t), J

    def curvature_blocks(self, m: PhasePoint) -> CurvatureTensor:
        """Closed-form curvature: F_rr and F_rt from field derivatives.

        F_{r_i r_j} = -S (chi B).(d_i(chi B) x d_j(chi B))/|chi B|^3 and the
        matching r-t block; every momentum block vanishes because the
        coupling is p-independent.
        """
        return monopole_pullback(*self.jacobian(m), (-0.5, +0.5), m)


def zeeman_frame(b3, form: str = "mixed") -> np.ndarray:
    """Closed-form diagonalizer of chi sigma.B, columns (upper, lower).

    U^dagger (chi sigma.B) U = diag(+chi B, -chi B). The 'mixed' form gives
    each column its own natural patch: the upper column is regular at the
    +z ray and the lower at the -z ray, so the form as a whole fails
    anywhere on the z axis. 'north' and 'south' re-phase both columns to
    be regular away from the named opposite ray.
    """
    b = np.asarray(b3, dtype=float)
    B = float(np.linalg.norm(b))
    if B == 0.0:
        raise SingularityError("frame is singular at B = 0")
    bx, by, bz = b
    perp = np.hypot(bx, by)
    if form == "mixed":
        if perp < 1e-13 * B:
            raise GaugePatchError(
                "mixed frame is singular on the z axis; use form='north' or 'south'")
        spn = np.sqrt(B + bz)
        smn = np.sqrt(B - bz)
        w = bx + 1j * by
        U = np.array([[spn, smn],
                      [w / spn, -w / smn]], dtype=complex) / np.sqrt(2.0 * B)
        return U
    if form not in ("north", "south"):
        raise ValueError(f"unknown frame form {form!r}")
    ct = bz / B
    if perp < 1e-13 * B and (ct < 0 if form == "north" else ct > 0):
        raise GaugePatchError(f"{form} frame is singular on the "
                              f"{'-' if form == 'north' else '+'}z ray")
    c = np.sqrt(max(0.0, (1.0 + ct) / 2.0))
    s = np.sqrt(max(0.0, (1.0 - ct) / 2.0))
    phase = (bx + 1j * by) / perp if perp > 0 else 1.0 + 0j
    if form == "north":
        return np.array([[c, -s * np.conj(phase)], [s * phase, c]], dtype=complex)
    return np.array([[c * np.conj(phase), -s], [s, c * phase]], dtype=complex)


def zeeman_connection(b3, band: int, patch: str = "auto") -> np.ndarray:
    """Closed-form field-space connection of one spin band.

    North patch: A = 2S (B_y, -B_x, 0) / (2B(B + B_z)), singular on the -z
    ray; south patch: A = -2S (B_y, -B_x, 0) / (2B(B - B_z)), singular on
    +z. The mixed frame's columns carry north for the upper band and south
    for the lower. 'auto' uses north while B_z > -0.9 B.
    """
    b = np.asarray(b3, dtype=float)
    B = float(np.linalg.norm(b))
    if B == 0.0:
        raise SingularityError("connection is singular at B = 0")
    S = 0.5 * band_sign(band)
    bx, by, bz = b
    perp = np.hypot(bx, by)
    if patch == "auto":
        patch = "north" if bz > -PATCH_SWITCH * B else "south"
    if patch not in ("north", "south"):
        raise ValueError(f"unknown patch {patch!r}")
    north = patch == "north"
    if perp < 1e-13 * B and (bz < 0 if north else bz > 0):
        raise GaugePatchError(f"{patch} patch is singular on the {'-' if north else '+'}z ray")
    if north:
        return 2.0 * S * np.array([by, -bx, 0.0]) / (2.0 * B * (B + bz))
    return -2.0 * S * np.array([by, -bx, 0.0]) / (2.0 * B * (B - bz))


def zeeman_curvature_b(b3, band: int) -> np.ndarray:
    """Field-space curvature pseudovector -S B / B^3 of one band."""
    return monopole_pseudovector(np.asarray(b3, dtype=float),
                                 0.5 * band_sign(band))


# ---------------------------------------------------------------------------
# Spin-orbit coupling


@dataclass(frozen=True)
class SpinOrbitScenario:
    """Coupling chi B(r, t) + rho (E(r, t) x p) with H0 = p^2 / 2 m_star."""

    e_field: VectorField
    b_field: VectorField
    chi: float = 1.0
    rho: float = 1.0
    m_star: float = 1.0
    hbar: float = 1.0
    d: int = 3

    def __post_init__(self):
        object.__setattr__(self, "e_field", as_field(self.e_field))
        object.__setattr__(self, "b_field", as_field(self.b_field))

    def constants(self) -> Constants:
        return Constants(hbar=self.hbar, chi=self.chi, rho=self.rho,
                         m_star=self.m_star)

    def coupling(self, m: PhasePoint) -> np.ndarray:
        return self._coupling(m.p, m.r, m.t)

    def _coupling(self, p, r, t) -> np.ndarray:
        """chi B + rho E x p over leading axes: p, r (..., d), t (...)."""
        p3 = np.zeros(p.shape[:-1] + (3,))
        p3[..., :p.shape[-1]] = p
        return (self.chi * self.b_field.value(r, t)
                + self.rho * np.cross(self.e_field.value(r, t), p3))

    def model(self) -> HamiltonianModel:
        return _split_model(self.m_star, self.coupling, self._jacobian_rows,
                            self._coupling, self.constants(), self.e_field,
                            self.b_field)

    def jacobian(self, m: PhasePoint):
        """(b, J): the coupling H1 and its analytic Jacobian over the flat axes.

        dH1/dp_i = rho (E x e_i); dH1/dr_j = chi dB/dr_j + rho (dE/dr_j x p);
        dH1/dt likewise.
        """
        return _one_row(self._jacobian_rows, m)

    def _jacobian_rows(self, p, r, t):
        n, d = p.shape
        p3 = np.zeros((n, 3))
        p3[:, :d] = p
        ef, bf = self.e_field, self.b_field
        E = rows(ef, "value", r, t)
        J = np.zeros((n, 3, 2 * d + 1))
        J[:, :, :d] = self.rho * np.cross(E[:, None, :], np.eye(3)[:d]).swapaxes(1, 2)
        dE_dr = rows(ef, "d_dr", r, t).swapaxes(1, 2)
        J[:, :, d:2 * d] = (self.chi * rows(bf, "d_dr", r, t) + self.rho * np.cross(
            dE_dr, p3[:, None, :]).swapaxes(1, 2))[:, :, :d]
        J[:, :, 2 * d] = (self.chi * rows(bf, "d_dt", r, t)
                          + self.rho * np.cross(rows(ef, "d_dt", r, t), p3))
        # _coupling's arithmetic on the E already evaluated
        return self.chi * rows(bf, "value", r, t) + self.rho * np.cross(E, p3), J

    def curvature_blocks(self, m: PhasePoint) -> CurvatureTensor:
        """All five closed-form blocks from the analytic Jacobian.

        F_ij = -S H1.(d_i H1 x d_j H1)/|H1|^3 over every axis pair at once.
        """
        return monopole_pullback(*self.jacobian(m), (-0.5, +0.5), m)

    def pp_pseudovector(self, m: PhasePoint) -> np.ndarray:
        """Constant-field momentum-block pseudovector, per band: (2, 3).

        f = -S chi rho^2 (B.E) E / |H1|^3 — valid when both fields are
        uniform and static; nonzero only if B and E are not orthogonal.
        """
        E = self.e_field.value(m.r, m.t)
        B = self.b_field.value(m.r, m.t)
        b = self.coupling(m)
        nb = float(np.linalg.norm(b))
        if nb == 0.0:
            raise SingularityError("momentum curvature is singular where the "
                                   "coupling vanishes")
        base = self.chi * self.rho**2 * float(B @ E) * E / nb**3
        return np.stack([0.5 * base, -0.5 * base])


# ---------------------------------------------------------------------------
# Rashba gas


@dataclass(frozen=True)
class RashbaScenario:
    """Planar electron gas with coupling chi B e_z + rho (e_z x p).

    d = 2: momentum and position live in the lattice plane; the driving
    electric field is in-plane and the magnetic field is normal. The
    electromagnetic force is applied through em(), not through H0.
    """

    b_z: float = 1.0
    e_inplane: tuple = (1.0, 0.0)
    chi: float = 1.0
    rho: float = 1.0
    m_star: float = 1.0
    hbar: float = 1.0
    e_charge: float = 1.0
    c_light: float = 1.0

    @property
    def d(self) -> int:
        return 2

    def constants(self) -> Constants:
        return Constants(hbar=self.hbar, c=self.c_light, e=self.e_charge,
                         chi=self.chi, rho=self.rho, m_star=self.m_star)

    def with_hbar(self, hbar: float) -> "RashbaScenario":
        return replace(self, hbar=hbar)

    def e_vector(self) -> np.ndarray:
        E = np.zeros(3)
        E[:2] = np.asarray(self.e_inplane, dtype=float)[:2]
        return E

    def coupling(self, m: PhasePoint) -> np.ndarray:
        return self._coupling(m.p[None])[0]

    def _coupling(self, p, r=None, t=None) -> np.ndarray:
        """H1 (N, 3) at the momenta p (N, 2): (-rho p_y, rho p_x, chi B)."""
        return np.concatenate([p[:, ::-1] * (-self.rho, self.rho),
                               np.full((len(p), 1), self.chi * self.b_z)], axis=1)

    def coupling_norm(self, p) -> float:
        px, py = np.asarray(p, dtype=float)[:2]
        return float(np.hypot(self.rho * np.hypot(px, py), self.chi * self.b_z))

    def jacobian(self, m: PhasePoint):
        """(b, J): the coupling and its Jacobian; only dH1/dp is nonzero."""
        return _one_row(self._jacobian_rows, m)

    def _jacobian_rows(self, p, r, t):
        J = np.zeros((len(p), 3, 5))
        J[:, 0, 1] = -self.rho
        J[:, 1, 0] = self.rho
        return self._coupling(p), J

    def model(self) -> HamiltonianModel:
        return _split_model(self.m_star, self.coupling, self._jacobian_rows,
                            self._coupling, self.constants())

    def em(self):
        from .dynamics import ExternalEMField
        return ExternalEMField.uniform(E=self.e_vector(),
                                       B=(0.0, 0.0, self.b_z))

    def transverse_axis(self) -> np.ndarray:
        """In-plane unit vector orthogonal to the driving field (3,)."""
        E = self.e_vector()
        nE = np.linalg.norm(E)
        if nE == 0.0:
            raise ValueError("transverse axis is undefined without a driving field")
        return np.cross(E_Z, E) / nE

    def curvature_provider(self) -> Callable:
        """Closed-form curvature: only the in-plane momentum block survives.

        f_z = -S chi rho^2 B / |H1|^3 (the e_z-coupling analogue of the
        constant-field momentum pseudovector), so F_{p1 p2} = f_z: the
        monopole pullback of the Jacobian.
        """
        return lambda m: monopole_pullback(*self.jacobian(m), (-0.5, +0.5), m)

    def drift(self, band: int, p) -> np.ndarray:
        """Closed-form transverse drift velocity (3,), exactly band-odd.

        +- hbar e chi rho^2 B / (2 |H1|^3) (E x e_z); upper sign for the
        upper band.
        """
        sgn = band_sign(band)
        nb = self.coupling_norm(p)
        if nb == 0.0:
            raise SingularityError("coupling vanishes at this momentum")
        coeff = self.hbar * self.e_charge * self.chi * self.rho**2 * self.b_z \
            / (2.0 * nb**3)
        return sgn * coeff * np.cross(self.e_vector(), E_Z)

    def motion(self, band: int, p, mode: str = "full"):
        """Closed-form planar velocities (pdot, rdot), both 2-vectors.

        mode='full': the coupled pair — Lorentz force with the full rdot,
        band-energy gradient (including the along-p coupling term) plus the
        momentum-block gauge force with the full pdot — solved exactly as a
        4x4 linear system. mode='reduced': the leading-order form p/m_star
        plus the closed-form transverse drift, with pdot rebuilt from the
        reduced rdot.
        """
        p = np.asarray(p, dtype=float)[:2]
        sgn = band_sign(band)
        nb = self.coupling_norm(p)
        if nb == 0.0:
            raise SingularityError("coupling vanishes at this momentum")
        E2 = self.e_vector()[:2]
        e, c, hb = self.e_charge, self.c_light, self.hbar
        B = self.b_z
        XB = np.array([[0.0, B], [-B, 0.0]])   # (v x B e_z) in-plane
        Xe = np.array([[0.0, 1.0], [-1.0, 0.0]])  # (v x e_z) in-plane
        # dE_band/dp = p/m* + sgn hbar rho^2 p / |H1| (the coupling-norm slope)
        g = p / self.m_star + sgn * hb * self.rho**2 * p / nb
        if mode == "reduced":
            rdot = p / self.m_star + self.drift(band, p)[:2]
            pdot = e * E2 + (e / c) * (XB @ rdot)
            return pdot, rdot
        if mode != "full":
            raise ValueError(f"unknown mode {mode!r}")
        c3 = hb * self.chi * self.rho**2 * B / (2.0 * nb**3)
        I2 = np.eye(2)
        M = np.block([[I2, -(e / c) * XB],
                      [-sgn * c3 * Xe, I2]])
        rhs = np.concatenate([e * E2, g])
        v = np.linalg.solve(M, rhs)
        return v[:2], v[2:]


# ---------------------------------------------------------------------------
# Ray optics


@dataclass(frozen=True)
class OpticalScenario:
    """Rays in a graded index with helicity-dependent transverse shifts.

    The ray Hamiltonian (p^2 - n^2(r))/2 = 0 is integrated in a ray-length
    parameter; 1/k0 takes the place of the quantum scale and the helicity
    +-1 the place of the spin charge, so the momentum-space curvature is
    the unit-charge monopole F = -helicity p / p^3.
    """

    index: IndexField
    k0: float = 100.0

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")

    def curvature(self, p, helicity: int) -> np.ndarray:
        """Momentum-space pseudovector -helicity p / p^3."""
        _check_helicity(helicity)
        return monopole_pseudovector(np.asarray(p, dtype=float), float(helicity))

    def launch_momentum(self, direction) -> np.ndarray:
        """Momentum on the dispersion shell |p| = n at the origin."""
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
        return u * np.sqrt(self.index.n2(np.zeros(3)))


def _check_helicity(helicity) -> int:
    if helicity not in (+1, -1):
        raise ValueError(f"helicity must be +1 or -1, got {helicity}")
    return helicity


@dataclass(frozen=True)
class MagnusRay:
    """Integrated ray: parameter values, momenta, positions per step.

    status is 'completed' (reached s_end) or 'max_steps' (budget exhausted),
    as for a Trajectory.
    """

    s: np.ndarray
    p: np.ndarray
    r: np.ndarray
    helicity: int
    constraint_drift: float
    status: str

    @property
    def final_r(self) -> np.ndarray:
        return self.r[-1]


def magnus_ray(scn: OpticalScenario, p0, r0, helicity: int, s_end: float = 1.0,
               step: float = 1e-3, max_steps: int = 10**6) -> MagnusRay:
    """Trace one polarized ray through the graded index.

    pdot = grad(n^2)/2; rdot = p - helicity k0^{-1} (p x pdot)/|p|^3, fixed
    RK4 steps in the ray parameter. |p|^2 - n^2 is conserved by the
    continuous flow; its numeric drift is tracked and a
    ConstraintDriftWarning is raised past 1e-6.
    """
    _check_helicity(helicity)
    if step <= 0 or not np.isfinite(step):
        raise StepError(f"ray step must be positive, got {step}")
    if s_end <= 0:
        raise ValueError("s_end must be positive")
    p0 = np.asarray(p0, dtype=float).copy()
    r0 = np.asarray(r0, dtype=float).copy()
    inv_k0 = 1.0 / scn.k0

    def rhs(s, y):
        p, r = y[:3], y[3:]
        np_ = np.linalg.norm(p)
        if np_ < 1e-12:
            raise SingularityError("ray momentum collapsed to zero")
        pdot = 0.5 * scn.index.grad_n2(r)
        rdot = p - helicity * inv_k0 * np.cross(p, pdot) / np_**3
        return np.concatenate([pdot, rdot])

    y = np.concatenate([p0, r0])
    s_list, p_list, r_list = [0.0], [p0.copy()], [r0.copy()]
    s = 0.0
    drift = abs(float(p0 @ p0) - scn.index.n2(r0))
    steps = 0
    last = False
    while not last and steps < max_steps:
        # integrate's last-step rule: no rounding-error sliver before s_end
        last = s_end - s <= step * (1.0 + _LAST_STEP_SLACK)
        h = s_end - s if last else step
        y, _ = _rk4_step(rhs, s, y, h, rhs(s, y))
        s = s_end if last else s + h
        steps += 1
        s_list.append(s)
        p_list.append(y[:3].copy())
        r_list.append(y[3:].copy())
        drift = max(drift, abs(float(y[:3] @ y[:3]) - scn.index.n2(y[3:])))
    if drift > CONSTRAINT_DRIFT_TOL:
        warnings.warn(f"dispersion constraint drifted to {drift:.3e}",
                      ConstraintDriftWarning, stacklevel=2)
    return MagnusRay(s=np.array(s_list), p=np.array(p_list),
                     r=np.array(r_list), helicity=helicity,
                     constraint_drift=float(drift),
                     status="completed" if last else "max_steps")


def magnus_ray_pair(scn: OpticalScenario, p0, r0, s_end: float = 1.0,
                    step: float = 1e-3):
    """Both helicities from identical launch conditions."""
    plus = magnus_ray(scn, p0, r0, +1, s_end=s_end, step=step)
    minus = magnus_ray(scn, p0, r0, -1, s_end=s_end, step=step)
    return plus, minus


def ray_splitting(ray_a: MagnusRay, ray_b: MagnusRay, axis) -> float:
    """Projected final-position difference between two rays."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return float((ray_a.final_r - ray_b.final_r) @ axis)
