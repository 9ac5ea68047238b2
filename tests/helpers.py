"""Per-point references shared by the tests.

The package works on coordinate rows; these wrap it at one PhasePoint, with
the bits of the per-point forms the tests compare against.
"""

import dataclasses

import numpy as np

from sgk.dynamics import _point_kernel
from sgk.gauge import _split_differences, default_step
from sgk.models import HamiltonianModel
from sgk.phase_space import PhasePoint


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
