"""Eigendecomposition of matrix Hamiltonians with deterministic gauge fixing.

Single-point decompositions order bands by ascending energy and fix each
eigenvector's phase by the largest-component convention: the component of
largest magnitude (lowest index on ties) is made real and positive. That
convention is deterministic, so repeating a decomposition reproduces the
frame exactly, and it defines a single-valued gauge that is smooth wherever
no component-magnitude crossover happens.

Every frame comes from one stacked eigensolve that applies the gauge fixing,
frame checks and band matching to the whole stack as array operations. The
stack is an (N, 2d+1) array of flat coordinates whose Hamiltonians come from
one HamiltonianModel.evaluate_stack call. A stencil (frame_stack) follows its
first point or a given reference. A path is one stack matched node to node,
which tracks bands through avoided crossings, and smooth_frame_along aligns
its phases cumulatively.
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


def _coordinates(points: Sequence[PhasePoint]) -> np.ndarray:
    """(N, 2d+1) stack of the points' flat coordinate vectors."""
    return np.array([m.as_vector() for m in points])


def _stack(model: HamiltonianModel, X: np.ndarray, reference: np.ndarray = None,
           along_path: bool = False, match: bool = True, anchor: np.ndarray = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """frame_stack over the rows of a coordinate stack X (N, 2d+1).

    along_path matches each row to the one before it instead, and anchor
    (N,) each row i to the frame of row anchor[i] of the stack; match=False
    keeps every row's bands in energy order, with no tracking check.
    """
    H = model.evaluate_stack(X)
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        first = PhasePoint.from_vector(X[0], (X.shape[1] - 1) // 2)
        raise NumericalError(f"eigensolver failed at {first}: {exc}") from exc
    N, n = w.shape
    idx, cols, eye = np.arange(N), np.arange(n), np.eye(n)
    gap = (w[:, 1:] - w[:, :-1]).min(axis=1)
    scale = np.maximum(1.0, np.abs(H).max(axis=(1, 2)))
    # phase convention; argmax takes the lowest index on ties, and hypot
    # rounds like the scalar abs of a complex number
    a = U[idx[:, None], np.argmax(np.abs(U), axis=1), cols]
    U = U * (np.conj(a) / np.hypot(a.real, a.imag))[:, None, :]
    Uh = np.conj(np.swapaxes(U, 1, 2))
    unitary = np.abs(Uh @ U - eye).max(axis=(1, 2))
    residual = np.abs(Uh @ H @ U - w[:, None, :] * eye).max(axis=(1, 2))
    perm, matched = np.tile(cols, (N, 1)), np.full(N, np.inf)
    if match:
        ref = U[0] if reference is None else reference
        if along_path:
            ref = np.concatenate([U[:1], U[:-1]])
        elif anchor is not None:
            ref = U[anchor]
        M = np.abs(np.conj(np.swapaxes(ref, -1, -2)) @ U)  # M[:, b, j] = |<ref_b|new_j>|
        perm = np.full((N, n), -1)
        taken = np.zeros((N, n), dtype=bool)
        for b, j in zip(*np.divmod(np.argsort(-M.reshape(N, n * n), axis=1).T, n)):
            free = (perm[idx, b] < 0) & ~taken[idx, j]
            perm[free, b[free]] = j[free]
            taken[free, j[free]] = True
            if taken.all():
                break
        matched = M[idx[:, None], cols, perm].min(axis=1)
    checks = (gap < DEGENERACY_RTOL * scale, unitary > FRAME_ATOL,
              residual > FRAME_ATOL * scale, matched < TRACKING_MIN_OVERLAP)
    bad = np.flatnonzero(checks[0] | checks[1] | checks[2] | checks[3])
    if bad.size:
        i = bad[0]
        if checks[0][i]:
            raise DegeneracyError(
                f"band gap {gap[i]:.3e} below tolerance "
                f"{DEGENERACY_RTOL * scale[i]:.3e} at t={float(X[i, -1])}")
        if checks[1][i]:
            raise NumericalError("eigenvector frame is not unitary")
        if checks[2][i]:
            raise NumericalError("frame fails to diagonalize the Hamiltonian")
        raise BandTrackingError(
            f"band identification lost: smallest matched overlap {matched[i]:.3f} < "
            f"{TRACKING_MIN_OVERLAP}")
    if along_path:  # compose the successive matches into the first point's labels
        for k in range(1, N):
            perm[k] = perm[k, perm[k - 1]]
    return (w[idx[:, None], perm],
            U[idx[:, None, None], cols[:, None], perm[:, None, :]], gap)


def frame_stack(model: HamiltonianModel, points: Sequence[PhasePoint],
                reference: np.ndarray = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauge-fixed frames at N points from one stacked eigensolve.

    Returns energies (N, n), frames U (N, n, n) and gaps (N,). Every frame
    is in the largest-component gauge, and its bands follow a reference
    frame: the given (n, n) one, or else the first point's own frame, whose
    bands ascend in energy. Columns are matched greedily on |overlap|,
    largest first. All checks run on the whole stack; the first failing
    point in stack order raises its first failing check: DegeneracyError
    for a gap below 1e-8 * max(1, max|H_ij|), NumericalError for an
    eigensolver failure or a frame that violates its own tolerances, and
    BandTrackingError for a matched overlap below the tracking bound.
    """
    return _stack(model, _coordinates(points), reference)


def diagonalize(model: HamiltonianModel, m: PhasePoint) -> EigenFrame:
    """Gauge-fixed eigendecomposition of H(m), bands ascending in energy.

    The one-point case of frame_stack. Raises DegeneracyError when the
    smallest gap falls below 1e-8 * max(1, max|H_ij|), and NumericalError
    if the eigensolver fails or the resulting frame violates its own
    tolerances.
    """
    w, U, gap = frame_stack(model, [m])
    return EigenFrame(point=m, energies=w[0], U=U[0], gap=float(gap[0]))


def aligned_frame(model: HamiltonianModel, m: PhasePoint,
                  reference: EigenFrame) -> EigenFrame:
    """Frame at m, bands matched to a nearby reference: frame_stack of one point."""
    w, U, gap = frame_stack(model, [m], reference=reference.U)
    return EigenFrame(point=m, energies=w[0], U=U[0], gap=float(gap[0]))


def smooth_frame_along(model: HamiltonianModel,
                       path: Sequence[PhasePoint]) -> list[EigenFrame]:
    """Band-tracked, phase-aligned frames along a discretized path.

    One stacked eigensolve, each node matched to its predecessor, so bands
    keep the labels of the first node (ascending). A cumulative phase makes
    every successive overlap real and nonnegative. Refining a smooth path
    changes the final frame only at second order in the spacing. The first
    failing node in path order raises as in frame_stack.
    """
    if len(path) == 0:
        return []
    w, U, gap = _stack(model, _coordinates(path), along_path=True)
    ov = np.einsum("kib,kib->kb", U[:-1].conj(), U[1:])
    # |ov| >= TRACKING_MIN_OVERLAP here, so every rotation is well defined
    U[1:] *= np.cumprod(np.conj(ov) / np.abs(ov), axis=0)[:, None, :]
    return [EigenFrame(point=m, energies=w[k], U=U[k], gap=float(gap[k]))
            for k, m in enumerate(path)]
