"""Worked two-band settings and their closed-form geometry.

Four scenario families: a magnetic (Zeeman-type) coupling chi sigma.B(r, t),
a relativistic-style spin-orbit coupling chi B + rho (E x p), the planar
Rashba gas chi B + rho (e_z x p) with in-plane driving, and ray optics in a
graded index with helicity +-1 playing the spin charge. The first three
build a split-form HamiltonianModel for the generic pipeline, and rays are
rows of the same RK loop in reduced mode; each carries the closed-form
curvature and motion laws that serve as oracles for it.

Each split scenario (Zeeman, spin-orbit, Rashba) defines H1 once, as rows:
its coupling and the coupling's Jacobian over a coordinate stack. Its
model, and its one-point forms coupling, jacobian and curvature_blocks,
are built from those two; the one-point forms are one-row cases.

Band order is everywhere ascending in energy: band 0 carries spin charge
-1/2 (or helicity -1), band 1 carries +1/2 (or +1). Two-state formulas
written with a double sign map onto bands as upper sign <-> band 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintDriftWarning, SingularityError
from .fields import IndexField, LinearField, VectorField, _promote_rows, as_field, builtin, rows
from .gauge import CurvatureTensor, monopole_pseudovector, monopole_pullback, over_cube
from .models import SPLIT_CHARGES, Constants, HamiltonianModel
from .phase_space import PhasePoint, row_dot

E_Z = np.array([0.0, 0.0, 1.0])

CONSTRAINT_DRIFT_TOL = 1e-6


class _SplitScenario:
    """Base of the split scenarios H = p^2 / 2 m_star + hbar sigma.H1(p, r, t).

    A subclass defines _coupling(p, r, t), H1 (N, 3), and _jacobian_rows(p,
    r, t), (H1, J) with J[:, :, k] = dH1/dm_k, at the rows p, r (N, d) and
    t (N,), reading its fields through fields.rows.
    """

    def coupling(self, m: PhasePoint) -> np.ndarray:
        """H1 at one point."""
        return self._coupling(m.p[None], m.r[None], np.array([m.t]))[0]

    def jacobian(self, m: PhasePoint):
        """(b, J): H1 and its Jacobian over the flat axes at one point."""
        b, J = self._jacobian_rows(m.p[None], m.r[None], np.array([m.t]))
        return b[0], J[0]

    def curvature_blocks(self, m: PhasePoint) -> CurvatureTensor:
        """Closed-form curvature of both bands at one point, every block at once.

        F_ij = -S H1.(d_i H1 x d_j H1)/|H1|^3: the monopole pull-back of the
        Jacobian.
        """
        return monopole_pullback(*self.jacobian(m), SPLIT_CHARGES, m)

    def model(self) -> HamiltonianModel:
        """Split-form model with H0 = p^2 / 2 m_star, its stack form and exact derivatives.

        The stack form reads every field through fields.rows, one row at a
        time for a field that is not built in (fields.builtin). Such a field,
        a CallableField or a subclass that defines or overrides value or a
        derivative, gives no exact derivatives: the model differences H0 and H1.
        """
        m_star = self.m_star

        def split(X: np.ndarray):
            d = (X.shape[1] - 1) // 2
            p = X[:, :d]
            return p, X[:, d:2 * d], X[:, 2 * d], row_dot(p, p) / (2.0 * m_star)

        def stack(X: np.ndarray):
            p, r, t, h0 = split(X)
            return h0, self._coupling(p, r, t)

        def derivatives(X: np.ndarray):
            p, r, t, h0 = split(X)
            g = np.zeros(X.shape)
            g[:, :p.shape[1]] = p / m_star
            return (h0, g, *self._jacobian_rows(p, r, t))

        exact = all(builtin(f) for f in vars(self).values() if isinstance(f, VectorField))
        return HamiltonianModel.from_split(
            h0=lambda m: float(m.p @ m.p) / (2.0 * m_star), h1=self.coupling,
            constants=self.constants(), jacobian_rows=derivatives if exact else None,
            stack=stack)


def band_sign(band: int) -> float:
    """+1 for the upper band (spin charge +1/2), -1 for the lower."""
    if band not in (0, 1):
        raise ValueError(f"band must be 0 or 1, got {band}")
    return 1.0 if band == 1 else -1.0


# ---------------------------------------------------------------------------
# Magnetic coupling


@dataclass(frozen=True)
class ZeemanScenario(_SplitScenario):
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

    @staticmethod
    def hedgehog(chi: float = 1.0, **kw) -> "ZeemanScenario":
        """B(r) = r: position doubles as the field vector (d = 3).

        The coupling space and r-space coincide, so field-space closed
        forms apply verbatim on the position axes.
        """
        return ZeemanScenario(b_field=LinearField(f0=np.zeros(3), G=np.eye(3)),
                              chi=chi, d=3, **kw)

    def _coupling(self, p, r, t) -> np.ndarray:
        return self.chi * rows(self.b_field, "value", r, t)

    def _jacobian_rows(self, p, r, t):
        """(chi B, J) from the field derivatives.

        The momentum columns of J vanish because the coupling is
        p-independent, and so do the momentum blocks of the curvature.
        """
        n, d = p.shape
        J = np.zeros((n, 3, 2 * d + 1))
        J[:, :, d:2 * d] = self.chi * rows(self.b_field, "d_dr", r, t)[:, :, :d]
        J[:, :, 2 * d] = self.chi * rows(self.b_field, "d_dt", r, t)
        return self._coupling(p, r, t), J


# ---------------------------------------------------------------------------
# Spin-orbit coupling


@dataclass(frozen=True)
class SpinOrbitScenario(_SplitScenario):
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

    def _coupling(self, p, r, t, E=None) -> np.ndarray:
        """chi B + rho E x p; E is the electric field at the rows, if already evaluated."""
        E = rows(self.e_field, "value", r, t) if E is None else E
        return (self.chi * rows(self.b_field, "value", r, t)
                + self.rho * np.cross(E, _promote_rows(p, None)[0]))

    def _jacobian_rows(self, p, r, t):
        """(H1, J) from the analytic derivatives.

        dH1/dp_i = rho (E x e_i); dH1/dr_j = chi dB/dr_j + rho (dE/dr_j x p);
        dH1/dt likewise.
        """
        n, d = p.shape
        p3 = _promote_rows(p, None)[0]
        ef, bf = self.e_field, self.b_field
        E = rows(ef, "value", r, t)
        J = np.zeros((n, 3, 2 * d + 1))
        J[:, :, :d] = self.rho * np.cross(E[:, None, :], np.eye(3)[:d]).swapaxes(1, 2)
        dE_dr = rows(ef, "d_dr", r, t).swapaxes(1, 2)
        J[:, :, d:2 * d] = (self.chi * rows(bf, "d_dr", r, t) + self.rho * np.cross(
            dE_dr, p3[:, None, :]).swapaxes(1, 2))[:, :, :d]
        J[:, :, 2 * d] = (self.chi * rows(bf, "d_dt", r, t)
                          + self.rho * np.cross(rows(ef, "d_dt", r, t), p3))
        return self._coupling(p, r, t, E), J


# ---------------------------------------------------------------------------
# Rashba gas


@dataclass(frozen=True)
class RashbaScenario(_SplitScenario):
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

    def e_vector(self) -> np.ndarray:
        E = np.zeros(3)
        E[:2] = np.asarray(self.e_inplane, dtype=float)[:2]
        return E

    def _coupling(self, p, r, t) -> np.ndarray:
        """(-rho p_y, rho p_x, chi B) at the momenta p (N, 2)."""
        return np.concatenate([p[:, ::-1] * (-self.rho, self.rho),
                               np.full((len(p), 1), self.chi * self.b_z)], axis=1)

    def coupling_norm(self, p) -> float:
        px, py = np.asarray(p, dtype=float)[:2]
        return float(np.hypot(self.rho * np.hypot(px, py), self.chi * self.b_z))

    def _jacobian_rows(self, p, r, t):
        """(H1, J): only dH1/dp is nonzero."""
        J = np.zeros((len(p), 3, 5))
        J[:, 0, 1] = -self.rho
        J[:, 1, 0] = self.rho
        return self._coupling(p, r, t), J

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
        return self.curvature_blocks

    def drift(self, band: int, p) -> np.ndarray:
        """Closed-form transverse drift velocity (3,), exactly band-odd.

        +- hbar e chi rho^2 B / (2 |H1|^3) (E x e_z); upper sign for the
        upper band.
        """
        sgn = band_sign(band)
        nb = self.coupling_norm(p)
        if nb == 0.0:
            raise SingularityError("coupling vanishes at this momentum")
        coeff = over_cube(self.hbar * self.e_charge * self.chi * self.rho**2 * self.b_z / 2.0, nb)
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
        c3 = over_cube(hb * self.chi * self.rho**2 * B / 2.0, nb)
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

    The ray Hamiltonian E = (p^2 - n^2(r))/2 = 0 is integrated in a
    ray-length parameter; 1/k0 takes the place of the quantum scale and the
    helicity +-1 the place of the spin charge, so the momentum-space
    curvature is the unit-charge monopole F = -helicity p / p^3.
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


def _rays(scn: OpticalScenario, step: float, s_end: float, max_steps: int):
    """(band form, config) of rays as rows (p, r) of the RK loop in reduced
    mode, s in place of t: E = (p.p - n^2)/2, grad E = (p, -grad n^2/2, 0),
    b = p, J = [I | 0 | 0], hbar = 1/k0 and charges (-1, +1), so band 0 is
    helicity -1 and rdot = p - helicity k0^{-1} (p x pdot)/|p|^3."""
    from .dynamics import IntegratorConfig, _BandForm
    def rows(X: np.ndarray):
        p, r, pp = X[:, :3], X[:, 3:6], row_dot(X[:, :3], X[:, :3])
        if (pp < 1e-24).any():  # |p| < 1e-12
            raise SingularityError("ray momentum collapsed to zero")
        g = np.concatenate([p, [-0.5 * scn.index.grad_n2(x) for x in r], np.zeros((len(X), 1))], 1)
        E = 0.5 * (pp - np.array([scn.index.n2(x) for x in r]))
        return E, g, p, np.broadcast_to(np.eye(3, 7), (len(X), 3, 7))

    form = _BandForm(rows=rows, spin_charges=(-1.0, 1.0), constants=Constants(hbar=1.0 / scn.k0))
    return form, IntegratorConfig(step=step, t_end=s_end, max_steps=max_steps, mode="reduced",
                                  record_connection=False)


def _check_drift(run, stacklevel: int) -> None:
    """ConstraintDriftWarning if a ray drifted off p.p = n^2 by more than 1e-6."""
    drift = 2.0 * float(np.max(run.energy_peak))  # |p.p - n^2| = 2|E|
    if drift > CONSTRAINT_DRIFT_TOL:
        warnings.warn(f"dispersion constraint drifted to {drift:.3e}",
                      ConstraintDriftWarning, stacklevel=stacklevel)


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


def _trace(scn: OpticalScenario, p0, r0, helicities, s_end, step, max_steps) -> list:
    """A MagnusRay of each helicity from (p0, r0), the rows of one RK loop."""
    if not (np.isfinite(s_end) and s_end > 0):
        raise ValueError(f"s_end must be positive and finite, got {s_end}")
    from .dynamics import _integrate_rows
    form, config = _rays(scn, step, s_end, max_steps)
    Y = np.array([[*p0, *r0]] * len(helicities), dtype=float)
    run = _integrate_rows(form, np.array([int(h > 0) for h in helicities]), Y, 0.0, config,
                          record=True)
    for err in filter(None, run.errors):
        raise err
    _check_drift(run, stacklevel=4)
    s, y = (np.stack([st[1][k] for st in run.states]) for k in ("s", "y"))
    return [MagnusRay(s=s[:, i], p=y[:, i, :3], r=y[:, i, 3:], helicity=h,
                      constraint_drift=2.0 * float(run.energy_peak[i]), status=run.status[i])
            for i, h in enumerate(helicities)]


def magnus_ray(scn: OpticalScenario, p0, r0, helicity: int, s_end: float = 1.0,
               step: float = 1e-3, max_steps: int = 10**6) -> MagnusRay:
    """Trace one polarized ray through the graded index.

    pdot = grad(n^2)/2; rdot = p - helicity k0^{-1} (p x pdot)/|p|^3: one
    row of the RK loop (_rays). |p|^2 - n^2 is conserved by the continuous
    flow; its numeric drift is tracked and a ConstraintDriftWarning is
    raised past 1e-6. A SpinForceWarning marks a Magnus term not small
    against |p|.
    """
    return _trace(scn, p0, r0, (_check_helicity(helicity),), s_end, step, max_steps)[0]


def magnus_ray_pair(scn: OpticalScenario, p0, r0, s_end: float = 1.0,
                    step: float = 1e-3):
    """Both helicities (+1, -1) from identical launch conditions, in one RK loop."""
    return tuple(_trace(scn, p0, r0, (+1, -1), s_end, step, 10**6))


def ray_splitting(ray_a: MagnusRay, ray_b: MagnusRay, axis) -> float:
    """Projected final-position difference between two rays."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return float((ray_a.final_r - ray_b.final_r) @ axis)
