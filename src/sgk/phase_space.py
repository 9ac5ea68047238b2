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

import numpy as np

from .errors import NumericalError


def central_difference(f, x, h: float) -> np.ndarray:
    """Central differences (f(x + h e_k) - f(x - h e_k)) / 2h along every axis.

    x is a flat coordinate vector and f maps such vectors to real or complex
    arrays of one fixed shape; the result stacks the K derivatives on a new
    leading axis. A unit shift adds 0.0 to the other coordinates, so a
    shifted vector has the same bits as the matching PhasePoint.shifted point.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for k in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[k] = h
        out.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(out)


def step_scale(x) -> float:
    """max(1, |x|) of a finite coordinate vector; NumericalError if |x| overflows."""
    norm = float(np.linalg.norm(x))
    if not math.isfinite(norm):
        raise NumericalError(f"coordinate norm overflows to {norm}; no finite step scale")
    return max(1.0, norm)


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

    def shifted(self, axis: int, delta: float) -> "PhasePoint":
        """Point displaced by delta along one flat axis."""
        v = self.as_vector()
        v[axis] += delta
        return PhasePoint.from_vector(v, self.d)

    def scale(self) -> float:
        """max(1, |m|): the characteristic size used for step scaling."""
        return step_scale(self.as_vector())
