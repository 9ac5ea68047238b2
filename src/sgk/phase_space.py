"""Extended phase-space points m = (p, r, t).

The flat axis order used everywhere is (p_1..p_d, r_1..r_d, t), so a point
in d spatial dimensions lives on D = 2d + 1 axes. Momentum axes come first:
derivative stencils, connection components and curvature blocks all index
into this layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, StepError

# Default finite-difference step: DEFAULT_STEP_SCALE * max(1, |m|).
DEFAULT_STEP_SCALE = 1e-4
_CROSS = np.array([6, 2, 4, 5, 6, 0, 1, 3, 6])  # (f, -f, 0) entries of eps_ijk f_k


def central_difference(f, x, h: float) -> np.ndarray:
    """Central differences (f(x + h e_k) - f(x - h e_k)) / 2h along every axis.

    x is a flat coordinate vector and f maps such vectors to real or complex
    arrays of one fixed shape; the result stacks the K derivatives on a new
    leading axis. A unit shift adds 0.0 to the other coordinates, so a
    shifted vector holds the bits of x with h added at coordinate k.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for k in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[k] = h
        out.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(out)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of a and b (N, K): each row has the
    bits of a[i] @ b[i], which np.einsum and sum(axis=1) do not keep."""
    return np.vecdot(a, b)


def row_norm(a: np.ndarray) -> np.ndarray:
    """|a[i]| of each row, with the bits of np.linalg.norm(a[i])."""
    return np.sqrt(row_dot(a, a))


def row_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x[i] ** k with Python float arithmetic, whose libm pow rounds
    differently from numpy's x * x and its vectorized power."""
    return np.array([v ** k for v in x.tolist()])


def step_scale(x) -> float:
    """max(1, |x|) of a finite coordinate vector; NumericalError if |x| overflows."""
    norm = float(np.linalg.norm(x))
    if not math.isfinite(norm):
        raise NumericalError(f"coordinate norm overflows to {norm}; no finite step scale")
    return max(1.0, norm)


def default_step(point_or_vec) -> float:
    if isinstance(point_or_vec, PhasePoint):
        return DEFAULT_STEP_SCALE * point_or_vec.scale()
    return DEFAULT_STEP_SCALE * step_scale(np.asarray(point_or_vec, dtype=float))


def _check_step(step: float) -> float:
    step = float(step)
    if not math.isfinite(step) or step <= 0.0:
        raise StepError(f"step must be a positive finite number, got {step}")
    return step


def _axis_stencil(v: np.ndarray, h: float, axes: Sequence[int]) -> np.ndarray:
    """Rows v, then v + h e_k and v - h e_k for each k in axes: one stack."""
    return _stencil_rows(v[None], np.array([h]), axes)[0]


def _stencil_rows(X: np.ndarray, h: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """(N, 1 + 2K, D): _axis_stencil of each row X[i] at step h[i]. Only the
    shifted coordinate changes, so the others keep their bits, -0.0 too."""
    ks = np.repeat(np.asarray(axes, dtype=int), 2)
    S = np.repeat(X[:, None, :], 1 + ks.size, axis=1)
    S[:, 1 + np.arange(ks.size), ks] += np.multiply.outer(h, np.tile((1.0, -1.0), ks.size // 2))
    return S


@functools.lru_cache(maxsize=None)
def _strict_upper(D: int) -> np.ndarray:
    return np.triu(np.ones((D, D), dtype=bool), k=1)


def antisymmetric(F: np.ndarray) -> np.ndarray:
    """F's strict upper triangle, mirrored with opposite sign, over leading axes."""
    upper = np.where(_strict_upper(F.shape[-1]), F, 0.0)  # np.triu(F, k=1)
    return upper - np.swapaxes(upper, -1, -2)


def _cross_matrices(f: np.ndarray) -> np.ndarray:
    """F (N, 3, 3) with F_ij = eps_ijk f_k at each row of f (N, 3), so that
    F v = v x f: [[0, f3, -f2], [-f3, 0, f1], [f2, -f1, 0]]."""
    return np.concatenate([f, -f, np.zeros((len(f), 1))], axis=1).take(_CROSS, 1).reshape(-1, 3, 3)


@functools.lru_cache(maxsize=None)
def axis_labels(d: int) -> tuple[str, ...]:
    """Axis names in flat order, e.g. ('p1','p2','r1','r2','t') for d=2."""
    ps = tuple(f"p{i+1}" for i in range(d))
    rs = tuple(f"r{i+1}" for i in range(d))
    return ps + rs + ("t",)


@dataclass(frozen=True)
class PhasePoint:
    """A point of extended phase space.

    p and r are length-d float arrays (d in {2, 3}), t a scalar. Instances
    are treated as immutable; the arrays are copied on construction.
    """

    p: np.ndarray
    r: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if p.ndim != 1 or r.ndim != 1 or p.shape != r.shape:
            raise ValueError("p and r must be 1-d arrays of equal length")
        if p.shape[0] not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {p.shape[0]}")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r)) and np.isfinite(self.t)):
            raise ValueError("phase-space coordinates must be finite")
        object.__setattr__(self, "p", p.copy())
        object.__setattr__(self, "r", r.copy())
        object.__setattr__(self, "t", float(self.t))

    @classmethod
    def _trusted(cls, p: np.ndarray, r: np.ndarray, t: float) -> "PhasePoint":
        """A point of coordinates known to pass the checks on construction
        (float arrays p and r of one length, 2 or 3, and all finite), made
        without them; p and r are copied, as on construction."""
        m = object.__new__(cls)
        object.__setattr__(m, "p", p.copy())
        object.__setattr__(m, "r", r.copy())
        object.__setattr__(m, "t", float(t))
        return m

    @property
    def d(self) -> int:
        return self.p.shape[0]

    @property
    def n_axes(self) -> int:
        return 2 * self.d + 1

    @property
    def labels(self) -> tuple[str, ...]:
        return axis_labels(self.d)

    def as_vector(self) -> np.ndarray:
        """Flat (p..., r..., t) vector of length 2d+1."""
        return np.concatenate([self.p, self.r, [self.t]])

    @staticmethod
    def from_vector(vec: np.ndarray, d: int) -> "PhasePoint":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (2 * d + 1,):
            raise ValueError(f"expected a vector of length {2*d+1}, got {vec.shape}")
        return PhasePoint(vec[:d], vec[d:2 * d], vec[2 * d])

    def scale(self) -> float:
        """max(1, |m|): the characteristic size used for step scaling."""
        return step_scale(self.as_vector())
