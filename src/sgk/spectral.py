"""Eigendecomposition of matrix Hamiltonians with deterministic gauge fixing.

Single-point decompositions order bands by ascending energy and fix each
eigenvector's phase by the largest-component convention: the component of
largest magnitude (lowest index on ties) is made real and positive. That
convention is deterministic, so repeating a decomposition reproduces the
frame exactly, and it defines a single-valued gauge that is smooth wherever
no component-magnitude crossover happens.

Along paths, band identity is tracked through avoided crossings by overlap
matching, and phases are parallel-transported: each column is rotated so its
overlap with the previous frame's column is real and nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BandTrackingError, DegeneracyError, NumericalError
from .models import HamiltonianModel
from .phase_space import PhasePoint

# Minimum |overlap| between matched eigenvectors of adjacent frames.
TRACKING_MIN_OVERLAP = 0.5
# Band gap below 1e-8 * max(1, max|H_ij|) counts as degenerate.
DEGENERACY_RTOL = 1e-8
# Frame self-consistency checks (unitarity, diagonalization residual).
FRAME_ATOL = 1e-10


@dataclass(frozen=True)
class EigenFrame:
    """Eigenvalues and gauge-fixed eigenvector frame at one phase-space point.

    energies are ascending for frames from diagonalize(); frames from
    smooth_frame_along() keep band identity through avoided crossings, so
    their energies may be non-monotonic in the band index. gap is the
    smallest adjacent spacing of the sorted energies.
    """

    point: PhasePoint
    energies: np.ndarray
    U: np.ndarray
    gap: float

    @property
    def n(self) -> int:
        return self.energies.shape[0]


def _apply_phase_convention(U: np.ndarray) -> np.ndarray:
    """Largest-magnitude component of each column made real positive."""
    U = U.copy()
    for c in range(U.shape[1]):
        col = U[:, c]
        k = int(np.argmax(np.abs(col)))  # argmax takes the lowest index on ties
        a = col[k]
        U[:, c] = col * (np.conj(a) / abs(a))
    return U


def _check_frame(H: np.ndarray, w: np.ndarray, U: np.ndarray) -> None:
    n = H.shape[0]
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(U.conj().T @ U - np.eye(n))) > FRAME_ATOL:
        raise NumericalError("eigenvector frame is not unitary")
    D = U.conj().T @ H @ U
    if np.max(np.abs(D - np.diag(w))) > FRAME_ATOL * scale:
        raise NumericalError("frame fails to diagonalize the Hamiltonian")


def diagonalize(model: HamiltonianModel, m: PhasePoint) -> EigenFrame:
    """Gauge-fixed eigendecomposition of H(m), bands ascending in energy.

    Raises DegeneracyError when the smallest gap falls below
    1e-8 * max(1, max|H_ij|), and NumericalError if the eigensolver fails
    or the resulting frame violates its own tolerances.
    """
    H = model.evaluate(m)
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed at {m}: {exc}") from exc
    gap = float(np.min(np.diff(w)))
    scale = max(1.0, float(np.max(np.abs(H))))
    if gap < DEGENERACY_RTOL * scale:
        raise DegeneracyError(
            f"band gap {gap:.3e} below tolerance {DEGENERACY_RTOL * scale:.3e} at t={m.t}")
    U = _apply_phase_convention(U)
    _check_frame(H, w, U)
    return EigenFrame(point=m, energies=w.astype(float), U=U, gap=gap)


def _match_bands(U_ref: np.ndarray, U_new: np.ndarray) -> np.ndarray:
    """Permutation perm with U_new[:, perm[b]] tracking U_ref[:, b].

    Greedy assignment on |overlap|, largest first; n is small here. Raises
    BandTrackingError when a matched overlap falls below the tracking bound.
    """
    n = U_ref.shape[1]
    M = np.abs(U_ref.conj().T @ U_new)  # M[b, j] = |<ref_b|new_j>|
    perm = np.full(n, -1, dtype=int)
    taken = np.zeros(n, dtype=bool)
    order = np.argsort(-M, axis=None)
    assigned = 0
    for flat in order:
        b, j = divmod(int(flat), n)
        if perm[b] != -1 or taken[j]:
            continue
        perm[b] = j
        taken[j] = True
        assigned += 1
        if assigned == n:
            break
    small = [float(M[b, perm[b]]) for b in range(n) if M[b, perm[b]] < TRACKING_MIN_OVERLAP]
    if small:
        raise BandTrackingError(
            f"band identification lost: smallest matched overlap {min(small):.3f} < "
            f"{TRACKING_MIN_OVERLAP}")
    return perm


def aligned_frame(model: HamiltonianModel, m: PhasePoint, reference: EigenFrame,
                  phase: str = "convention") -> EigenFrame:
    """Frame at m with band order matched to a nearby reference frame.

    phase='convention' keeps the deterministic single-point gauge (used for
    derivative stencils, so that differentiated frames live in one
    single-valued gauge). phase='transport' re-rotates each column so its
    overlap with the reference column is real nonnegative.
    """
    fr = diagonalize(model, m)
    perm = _match_bands(reference.U, fr.U)
    U = fr.U[:, perm]
    w = fr.energies[perm]
    if phase == "transport":
        ov = np.einsum("ib,ib->b", reference.U.conj(), U)
        # |ov| >= TRACKING_MIN_OVERLAP here, so the rotation is well defined
        U = U * (np.conj(ov) / np.abs(ov))[None, :]
    elif phase != "convention":
        raise ValueError(f"unknown phase mode {phase!r}")
    return EigenFrame(point=m, energies=w, U=U, gap=fr.gap)


def smooth_frame_along(model: HamiltonianModel,
                       path: Sequence[PhasePoint]) -> list[EigenFrame]:
    """Parallel-transported frames along a discretized path.

    The first frame uses the single-point convention; every subsequent frame
    is band-matched and phase-aligned to its predecessor (real nonnegative
    successive overlaps). Refining the discretization of a smooth path
    changes the final frame only at second order in the spacing.
    """
    if len(path) == 0:
        return []
    frames = [diagonalize(model, path[0])]
    for m in list(path)[1:]:
        frames.append(aligned_frame(model, m, frames[-1], phase="transport"))
    return frames
