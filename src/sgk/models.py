"""Matrix Hamiltonian models over extended phase space.

A model is an n x n Hermitian matrix function H(m) of a phase-space point
m = (p, r, t). Two-band models of the split form

    H(m) = H0(m) I + hbar sigma . H1(m)

(sigma the Pauli matrices, H1 a 3-component coupling field) additionally
expose H0 and H1 directly; band energies are then H0 -+ hbar |H1|, band k
carries the fixed spin charge SPLIT_CHARGES[k] (-1/2, +1/2), and curvatures
have a closed form in terms of H1 and its first derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, SingularityError
from .phase_space import PhasePoint, _stencil_rows, row_pow

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# Relative Hermiticity defect tolerated before a model is rejected.
HERMITICITY_RTOL = 1e-12
# Spin charge of each band of a split form, ascending band order: the
# projection of the Pauli spin on H1, so band k has sign 2 SPLIT_CHARGES[k].
SPLIT_CHARGES = (-0.5, +0.5)
_CHARGES = np.array(SPLIT_CHARGES)  # SPLIT_CHARGES as an array, indexed by band
# Band gap below 1e-8 * max(1, max|H_ij|) counts as degenerate.
DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class Constants:
    """Named physical constants carried by a model.

    Defaults are natural units. chi and rho are the magnetic and spin-orbit
    coupling strengths (physically e/2mc and e/4m^2c^2); they are independent
    knobs here, not derived from e, c, m_star.
    """

    hbar: float = 1.0
    c: float = 1.0
    e: float = 1.0
    chi: float = 1.0
    rho: float = 1.0
    m_star: float = 1.0


@dataclass(frozen=True)
class SplitForm:
    """Scalar part H0(m) and coupling field H1(m) of a two-band model.

    jacobian_rows is an optional exact first derivative over a coordinate
    stack: jacobian_rows(X), X of shape (N, 2d+1), returns (H0 (N,),
    grad H0 (N, 2d+1), b (N, 3), J (N, 3, 2d+1)) with b = H1 and
    J[:, :, k] = dH1/dm_k, each row's bits independent of the other rows.
    The integrator takes energies, gradients, curvature and connection in
    closed form from grad H0, b and J: these exact ones where given, else
    central differences of H0 and H1.

    stack is an optional array form over a coordinate stack: stack(X), X of
    shape (N, 2d+1), returns (H0 (N,), H1 (N, 3)), each row bit-identical
    to h0 and h1 at that row's point. rows(X), the one evaluation of (H0,
    H1) over a stack and so of HamiltonianModel.evaluate_stack, takes it
    where given instead of h0 and h1 at each row.
    """

    h0: Callable[[PhasePoint], float]
    h1: Callable[[PhasePoint], np.ndarray]
    jacobian_rows: Optional[Callable[[np.ndarray], tuple]] = None
    stack: Optional[Callable[[np.ndarray], tuple]] = None

    def h1_vector(self, m: PhasePoint) -> np.ndarray:
        v = np.asarray(self.h1(m), dtype=float)
        if v.shape != (3,):
            raise ValueError(f"H1 must be a 3-vector, got shape {v.shape}")
        return v

    def rows(self, X) -> tuple:
        """(H0 (N,), H1 (N, 3)) at the rows of a finite (N, 2d+1) stack X."""
        X = np.asarray(X, dtype=float)
        if not np.isfinite(X).all():
            raise ValueError("phase-space coordinates must be finite")
        if self.stack is not None:
            return self.stack(X)
        if X.ndim != 2 or X.shape[1] not in (5, 7):
            raise ValueError(f"expected an (N, 5) or (N, 7) coordinate stack, got {X.shape}")
        d = (X.shape[1] - 1) // 2
        pts = [PhasePoint._trusted(v[:d], v[d:2 * d], v[2 * d]) for v in X]  # X is checked
        return (np.array([self.h0(m) for m in pts], dtype=float),
                np.stack([self.h1_vector(m) for m in pts]))


def _split_differences(split, X: np.ndarray, h: np.ndarray):
    """(H0, grad H0, H1, J (N, 3, 2d+1)) at rows X by one split.rows of their stencils, steps h."""
    N, D = X.shape
    h0, h1 = split.rows(_stencil_rows(X, h, range(D)).reshape(-1, D))
    h0, h1, h2 = h0.reshape(N, -1), h1.reshape(N, -1, 3), 2.0 * h[:, None]
    return (h0[:, 0], (h0[:, 1::2] - h0[:, 2::2]) / h2, h1[:, 0],
            ((h1[:, 1::2] - h1[:, 2::2]) / h2[:, :, None]).swapaxes(1, 2))


def monopole_rows(b: np.ndarray, J: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """X_ij = (b x J_i) . J_j / |b|^3 at each row of b (N, 3), J (N, 3, D)
    and nb = |b| (N,), nonzero; band S takes -S X. Rows whose |b|^3
    overflows take ((b/|b|) x J_i) . J_j / |b| / |b|; every other row is
    divided by 1 there, which keeps its bits."""
    big = nb > _CBRT_MAX
    if big.any():
        s = np.where(big, nb, 1.0)[:, None]
        return monopole_rows(b / s, J, np.where(big, 1.0, nb)) / s[..., None] / s[..., None]
    # columns b x J_i, with the arithmetic of np.cross(b, J.T) but far less
    # overhead: the products b_next J_last and b_last J_next, then their difference
    bJ = b.take(_NEXT_LAST, 1)[..., None] * J.take(_LAST_NEXT, 1)
    return (bJ[:, 0] - bJ[:, 1]).swapaxes(1, 2) @ J / row_pow(nb, 3)[:, None, None]


_NEXT_LAST = np.array([[1, 2, 0], [2, 0, 1]])  # cyclic shifts of x, y, z
_LAST_NEXT = _NEXT_LAST[::-1].copy()
_CBRT_MAX = 5.643803094122361e102  # the largest float whose cube is finite


def over_cube(x, nb: float):
    """x / nb**3 for a float nb > 0; past _CBRT_MAX, where the cube
    overflows, x / nb / nb / nb."""
    return x / nb**3 if nb <= _CBRT_MAX else x / nb / nb / nb


def monopole_pseudovector(h1: np.ndarray, S: float) -> np.ndarray:
    """Coupling-space monopole field F(H1) = -S H1/|H1|^3 of a band."""
    h1 = np.asarray(h1, dtype=float)
    nb = float(np.linalg.norm(h1))
    if nb == 0.0:
        raise SingularityError("monopole curvature is singular at H1 = 0")
    return over_cube(-S * h1, nb)


def _split_matrices(h0, b) -> np.ndarray:
    """H0 I + sigma . b over leading axes: h0 (...,), b (..., 3) -> (..., 2, 2)."""
    return (np.asarray(h0)[..., None, None] * np.eye(2, dtype=complex)
            + np.einsum("...k,kij->...ij", b, PAULI))


def _check_matrices(H: np.ndarray) -> None:
    """Raise for the first row of H (N, n, n) that is not finite or not Hermitian."""
    peak = np.abs(H).max(axis=(1, 2))
    scale = np.maximum(1.0, peak)
    with np.errstate(invalid="ignore"):  # inf - inf in a row that fails anyway
        defect = np.abs(H - np.conj(np.swapaxes(H, 1, 2))).max(axis=(1, 2))
    # NaN fails every tolerance test, so finiteness is tested first
    bad = ~np.isfinite(peak) | (defect > HERMITICITY_RTOL * scale)
    if bad.any():
        i = int(np.argmax(bad))
        if not math.isfinite(peak[i]):
            raise NumericalError(
                f"model matrix is not finite: largest |entry| is {float(peak[i])}")
        raise NumericalError(
            f"model matrix is not Hermitian: defect {defect[i]:.3e} at scale {scale[i]:.3e}")


@dataclass(frozen=True)
class HamiltonianModel:
    """n-band Hermitian matrix Hamiltonian over extended phase space.

    evaluate_raw(m) must return an n x n Hermitian array; evaluate and
    evaluate_stack symmetrize small defects and reject anything beyond
    1e-12 relative and any matrix with a NaN or infinite entry. A split
    form's bands carry SPLIT_CHARGES; the curvature of any model is the
    one the integrator's point kernel derives from H.
    """

    n: int
    evaluate_raw: Callable[[PhasePoint], np.ndarray]
    split: Optional[SplitForm] = None
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two bands")
        if self.split is not None and self.n != 2:
            raise ValueError("split form is defined for two-band models only")

    def evaluate(self, m: PhasePoint) -> np.ndarray:
        """H(m), checked and symmetrized: the one-row case of evaluate_stack."""
        return self.evaluate_stack(m.as_vector()[None])[0]

    def evaluate_stack(self, X) -> np.ndarray:
        """Checked Hermitian matrices H at the rows of X, shape (N, n, n).

        X is an (N, 2d+1) array of flat coordinates, finite (else
        ValueError, as for a PhasePoint). A split model takes its rows from
        one split.rows(X), any other from evaluate_raw at each row in turn.
        One check of the stack follows, and the first failing row raises its
        first failing check: a wrong shape or an error of evaluate_raw, a NaN
        or infinite entry, or a Hermiticity defect beyond 1e-12 relative.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] not in (5, 7):
            raise ValueError(f"expected an (N, 5) or (N, 7) coordinate stack, got {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("phase-space coordinates must be finite")
        n, split, error = self.n, self.split, None
        if split is not None:
            h0, h1 = split.rows(X)
            H = _split_matrices(h0, self.constants.hbar * h1)
        else:
            d = (X.shape[1] - 1) // 2
            H = np.empty((X.shape[0], n, n), dtype=complex)
            for i, v in enumerate(X):
                try:
                    m = PhasePoint._trusted(v[:d], v[d:2 * d], v[2 * d])  # X is checked
                    Hi = np.asarray(self.evaluate_raw(m), dtype=complex)
                    if Hi.shape != (n, n):
                        raise NumericalError(f"model returned shape {Hi.shape}, expected {(n, n)}")
                except Exception as exc:  # raised if the rows before it pass the check
                    H, error = H[:i], exc
                    break
                H[i] = Hi
        _check_matrices(H)
        if error is not None:
            raise error
        return 0.5 * (H + np.conj(np.swapaxes(H, 1, 2)))

    @staticmethod
    def from_split(h0, h1, constants: Constants = None, jacobian_rows=None,
                   stack=None) -> "HamiltonianModel":
        """Build H = H0 I + hbar sigma . H1 from the two callables.

        jacobian_rows and stack are SplitForm's optional forms; evaluate_stack uses its rows.
        """
        constants = constants or Constants()
        split = SplitForm(h0=h0, h1=h1, jacobian_rows=jacobian_rows, stack=stack)

        def _eval(m: PhasePoint) -> np.ndarray:
            return _split_matrices(split.h0(m), constants.hbar * split.h1_vector(m))

        return HamiltonianModel(n=2, evaluate_raw=_eval, split=split, constants=constants)

    # Closed-form band energy of a split form, off the integrator's path. It
    # agrees with the eigensolver to roundoff (checked in tests).

    def band_energy(self, m: PhasePoint, band: int) -> float:
        if self.split is None:
            raise ValueError("band_energy shortcut needs a split form")
        sign = -1.0 if band == 0 else +1.0
        return float(self.split.h0(m)) + sign * self.constants.hbar * float(
            np.linalg.norm(self.split.h1_vector(m)))
