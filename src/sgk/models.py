"""Matrix Hamiltonian models over extended phase space.

A model is an n x n Hermitian matrix function H(m) of a phase-space point
m = (p, r, t). Two-band models of the split form

    H(m) = H0(m) I + hbar sigma . H1(m)

(sigma the Pauli matrices, H1 a 3-component coupling field) additionally
expose H0 and H1 directly; band energies are then H0 -+ hbar |H1|, band 0
carries spin charge -1/2 and band 1 carries +1/2, and curvatures have a
closed form in terms of H1 and its first derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError
from .phase_space import PhasePoint

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# Relative Hermiticity defect tolerated before a model is rejected.
HERMITICITY_RTOL = 1e-12


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
    """Scalar part H0(m) and coupling field H1(m) of a two-band model."""

    h0: Callable[[PhasePoint], float]
    h1: Callable[[PhasePoint], np.ndarray]

    def h1_vector(self, m: PhasePoint) -> np.ndarray:
        v = np.asarray(self.h1(m), dtype=float)
        if v.shape != (3,):
            raise ValueError(f"H1 must be a 3-vector, got shape {v.shape}")
        return v


@dataclass(frozen=True)
class HamiltonianModel:
    """n-band Hermitian matrix Hamiltonian over extended phase space.

    evaluate(m) must return an n x n Hermitian array; the wrapper here
    symmetrizes small defects and rejects anything beyond 1e-12 relative
    and any matrix with a NaN or infinite entry.
    spin_charges lists the per-band spin projection on H1 (ascending band
    order); split-form Pauli models default to (-1/2, +1/2).
    """

    n: int
    evaluate_raw: Callable[[PhasePoint], np.ndarray]
    split: Optional[SplitForm] = None
    constants: Constants = field(default_factory=Constants)
    spin_charges: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two bands")
        if self.split is not None and self.n != 2:
            raise ValueError("split form is defined for two-band models only")
        if self.split is not None and self.spin_charges is None:
            object.__setattr__(self, "spin_charges", (-0.5, +0.5))
        if self.spin_charges is not None and len(self.spin_charges) != self.n:
            raise ValueError("spin_charges must have one entry per band")

    def evaluate(self, m: PhasePoint) -> np.ndarray:
        H = np.asarray(self.evaluate_raw(m), dtype=complex)
        if H.shape != (self.n, self.n):
            raise NumericalError(f"model returned shape {H.shape}, expected {(self.n, self.n)}")
        peak = float(np.max(np.abs(H)))
        if not math.isfinite(peak):
            # NaN fails every tolerance test below, so it must stop here
            raise NumericalError(f"model matrix is not finite: largest |entry| is {peak}")
        scale = max(1.0, peak)
        defect = float(np.max(np.abs(H - H.conj().T)))
        if defect > HERMITICITY_RTOL * scale:
            raise NumericalError(
                f"model matrix is not Hermitian: defect {defect:.3e} at scale {scale:.3e}")
        return 0.5 * (H + H.conj().T)

    @staticmethod
    def from_split(h0, h1, constants: Constants = None,
                   spin_charges=None) -> "HamiltonianModel":
        """Build H = H0 I + hbar sigma . H1 from the two callables."""
        constants = constants or Constants()
        split = SplitForm(h0=h0, h1=h1)

        def _eval(m: PhasePoint) -> np.ndarray:
            b = constants.hbar * split.h1_vector(m)
            return split.h0(m) * np.eye(2, dtype=complex) + np.einsum(
                "k,kij->ij", b, PAULI)

        return HamiltonianModel(n=2, evaluate_raw=_eval, split=split,
                                constants=constants, spin_charges=spin_charges)

    # Split-form shortcuts used by the dynamics hot path. They agree with
    # the eigensolver to roundoff (checked in tests).

    def band_energy(self, m: PhasePoint, band: int) -> float:
        if self.split is None:
            raise ValueError("band_energy shortcut needs a split form")
        sign = -1.0 if band == 0 else +1.0
        return float(self.split.h0(m)) + sign * self.constants.hbar * float(
            np.linalg.norm(self.split.h1_vector(m)))

    def band_gap(self, m: PhasePoint) -> float:
        if self.split is None:
            raise ValueError("band_gap shortcut needs a split form")
        return 2.0 * self.constants.hbar * float(
            np.linalg.norm(self.split.h1_vector(m)))
