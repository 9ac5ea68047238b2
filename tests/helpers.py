"""Per-point references shared by the tests.

The package works on coordinate rows; these wrap it at one PhasePoint, with
the bits of the per-point forms the tests compare against.
"""

import dataclasses

import numpy as np

from sgk import EnsembleSpec, IntegratorConfig, ZeemanScenario
from sgk.dynamics import _point_kernel
from sgk.fields import PolyField
from sgk.models import HamiltonianModel, _split_differences
from sgk.phase_space import PhasePoint, central_difference, default_step


def shifted(m: PhasePoint, axis: int, delta: float) -> PhasePoint:
    """m displaced by delta along one flat axis."""
    v = m.as_vector()
    v[axis] += delta
    return PhasePoint.from_vector(v, m.d)


def point_kernel(model, band, m: PhasePoint, *args, **kwargs):
    """The point kernel's energy, gradient, gap, F and A at the one point m."""
    k = _point_kernel(model, np.array([band]), m.as_vector()[None], *args, **kwargs)
    return dataclasses.replace(k, **{f.name: None if getattr(k, f.name) is None
                                     else getattr(k, f.name)[0]
                                     for f in dataclasses.fields(k)})


def split_derivatives(split, m: PhasePoint):
    """(H0, grad H0, H1, J) of a split form at the one point m, differenced as
    the point kernel differences a split form without exact derivatives."""
    X = m.as_vector()[None]
    return tuple(a[0] for a in _split_differences(split, X, np.array([default_step(m)])))


def split_energy(h0: float, nb: float, band: int):
    """The band energy H0 -+ hbar|H1| and the gap 2 hbar|H1|."""
    return (h0 - nb if band == 0 else h0 + nb), 2.0 * nb


def curvature_of_abelian_field(field, x, step: float) -> np.ndarray:
    """F_ij = d_i A_j - d_j A_i of an adiabatic connection field at x.

    field maps a K-vector to (K,) or (K, n) components; the result is
    (K, K) or (n, K, K) accordingly. Central differences.
    """
    dA = central_difference(field, np.asarray(x, dtype=float), step)
    if dA.ndim == 2:
        return dA - dA.T  # F[i, j] = d_i A_j - d_j A_i
    # multi-band: dA[k, i, b]; F[b, i, j] = dA[i, j, b] - dA[j, i, b]
    return np.transpose(dA, (2, 0, 1)) - np.transpose(dA, (2, 1, 0))


def zeeman_connection(b3, band: int, patch: str) -> np.ndarray:
    """Berry's field-space connection of one spin band S = +-1/2 on a patch.

    North: A = 2S (b_y, -b_x, 0) / (2|b|(|b| + b_z)), singular on the -z
    ray; south: A = -2S (b_y, -b_x, 0) / (2|b|(|b| - b_z)), singular on +z.
    """
    bx, by, bz = b3
    B = float(np.linalg.norm(b3))
    S = band - 0.5
    if patch == "north":
        return 2.0 * S * np.array([by, -bx, 0.0]) / (2.0 * B * (B + bz))
    return -2.0 * S * np.array([by, -bx, 0.0]) / (2.0 * B * (B - bz))


def pp_pseudovector(scn, m: PhasePoint) -> np.ndarray:
    """The spin-orbit momentum-block pseudovector in uniform static fields,
    per band: f = -S chi rho^2 (B.E) E / |H1|^3, (2, 3)."""
    E = scn.e_field.value(m.r, m.t)
    B = scn.b_field.value(m.r, m.t)
    nb = float(np.linalg.norm(scn.coupling(m)))
    base = scn.chi * scn.rho**2 * float(B @ E) * E / nb**3
    return np.stack([0.5 * base, -0.5 * base])


def generic_copy(model):
    """The same Hamiltonian with its split form removed: a generic model."""
    return dataclasses.replace(model, split=None)


def hermitian_model(seed: int, n: int) -> HamiltonianModel:
    """A generic n-band model over d = 3: H = A0 + sum_k x_k A_k + x_k^2 C_k
    in the flat coordinates x, with seeded random Hermitian A and C and the
    levels of A0 spaced by 2, so that the gaps stay open near the origin.
    H is quadratic, so central differences of H are exact but for roundoff."""
    rng = np.random.default_rng(seed)

    def hermitian(scale):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return 0.5 * scale * (a + a.conj().T)

    A0 = np.diag(2.0 * np.arange(n)) + hermitian(0.3)
    A = np.stack([hermitian(0.3) for _ in range(7)])
    C = np.stack([hermitian(0.1) for _ in range(7)])

    def H(m):
        x = m.as_vector()
        return A0 + np.einsum("k,kij->ij", x, A) + np.einsum("k,kij->ij", x * x, C)

    return HamiltonianModel(n=n, evaluate_raw=H)


@dataclasses.dataclass
class PlaneCutField(PolyField):
    """A PolyField that is NaN past the plane r3 = cut, in _jet alone.

    value, d_dr and d_dt stay PolyField's, so fields.builtin counts it
    built in and a Zeeman model over it takes the exact vectorised path. A
    row whose RK stage crosses the plane raises there (its band energy is
    not finite), at a step of its own.
    """

    cut: float = 0.0

    def _jet(self, r, t):
        value, d_dr, d_dt = super()._jet(r, t)
        return np.where(np.asarray(r)[..., 2:] > self.cut, np.nan, value), d_dr, d_dt


def plane_cut_spec(count: int, seed: int, cut: float, p3, config: IntegratorConfig):
    """A Zeeman ensemble over a PlaneCutField, launched at r = 0 with p3 in
    p3[0] +- p3[1]: the rows with p3 above about cut / t_end cross the plane
    r3 = cut, each at the step its own speed sets, and fail there."""
    field = PlaneCutField(f0=(0.3, -0.2, 1.0), G=0.2 * np.array([[1.0, 0.0, 0.5],
                                                                 [0.0, -1.0, 0.0],
                                                                 [0.5, 0.0, 1.0]]), cut=cut)
    return EnsembleSpec(count=count, config=config, p_center=np.array([0.0, 0.0, p3[0]]),
                        r_center=np.zeros(3), p_spread=np.array([0.3, 0.3, p3[1]]), seed=seed,
                        model=ZeemanScenario(b_field=field).model())
