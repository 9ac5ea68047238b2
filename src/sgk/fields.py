"""Vector field families over (r, t) with analytic derivatives.

Scenario couplings (magnetic fields, electric fields) are 3-component
fields of position and time. Curvature formulas need their first
derivatives; the classes here provide exact ones where the functional form
allows it, and a finite-difference wrapper for bare callables. Spatial
arguments may be length 2 (in-plane problems) or 3; they are promoted to
3 components internally with zero padding. The values of the four built-in
families broadcast over leading axes: r of shape (N, 3) and t of shape (N,)
give (N, 3), each row bit-identical to its one-point call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phase_space import central_difference


def _promote(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape == (3,):
        return r
    if r.shape == (2,):
        return np.array([r[0], r[1], 0.0])
    raise ValueError(f"position must have 2 or 3 components, got {r.shape}")


def _promote_rows(r, t):
    """Positions (..., 3) from r (..., 2 or 3); an array t (...) gains a last axis."""
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] == (2,):
        r3 = np.zeros(r.shape[:-1] + (3,))
        r3[..., :2] = r
        r = r3
    elif r.shape[-1:] != (3,):
        raise ValueError(f"position must have 2 or 3 components, got {r.shape}")
    return r, (t[..., None] if isinstance(t, np.ndarray) and t.ndim else t)


def _matvec(G: np.ndarray, r: np.ndarray) -> np.ndarray:
    """G r over the leading axes of r; each row has the bits of G @ r[i]."""
    return G @ r if r.ndim == 1 else (G @ r[..., None])[..., 0]


class VectorField:
    """Base: value(r, t) -> (3,); d_dr -> (3,3) with [i,j]=dF_i/dr_j; d_dt -> (3,).

    A subclass's own value may take one point at a time: stacks call value
    on (N, 3) rows only for a built-in field (builtin).
    """

    def value(self, r, t: float) -> np.ndarray:
        raise NotImplementedError

    def d_dr(self, r, t: float) -> np.ndarray:
        raise NotImplementedError

    def d_dt(self, r, t: float) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, r, t: float) -> np.ndarray:
        return self.value(r, t)


@dataclass
class UniformField(VectorField):
    """Constant field."""

    v: np.ndarray

    def __post_init__(self):
        self.v = _promote(self.v)

    def value(self, r, t):
        r = np.asarray(r)
        if r.ndim < 2:
            return self.v.copy()
        return np.broadcast_to(self.v, r.shape[:-1] + (3,)).copy()

    def d_dr(self, r, t):
        return np.zeros((3, 3))

    def d_dt(self, r, t):
        return np.zeros(3)


@dataclass
class LinearField(VectorField):
    """F(r, t) = f0 + G r + gt * t, with G[i, j] = dF_i/dr_j.

    Covers uniform fields (G = 0, gt = 0), linear time ramps and hedgehog
    profiles F = a (r - r0) via G = a I, f0 = -a r0.
    """

    f0: np.ndarray
    G: np.ndarray = None
    gt: np.ndarray = None

    def __post_init__(self):
        self.f0 = _promote(self.f0)
        self.G = np.zeros((3, 3)) if self.G is None else np.asarray(self.G, dtype=float)
        self.gt = np.zeros(3) if self.gt is None else _promote(self.gt)
        if self.G.shape != (3, 3):
            raise ValueError("G must be 3x3")

    def value(self, r, t):
        r, t = _promote_rows(r, t)
        return self.f0 + _matvec(self.G, r) + self.gt * t

    def d_dr(self, r, t):
        return self.G.copy()

    def d_dt(self, r, t):
        return self.gt.copy()


@dataclass
class PolyField(VectorField):
    """Low-order polynomial field in (r, t) with exact derivatives.

    F_i(r, t) = f0_i + G_ij r_j + gt_i t + 1/2 Q_ijk r_j r_k
                + C_ij r_j t + 1/2 qtt_i t^2

    Q is symmetrized in (j, k) on construction. random() draws bounded
    coefficients from a seeded generator; useful as a generic smooth field.
    """

    f0: np.ndarray
    G: np.ndarray = None
    gt: np.ndarray = None
    Q: np.ndarray = None
    C: np.ndarray = None
    qtt: np.ndarray = None

    def __post_init__(self):
        self.f0 = _promote(self.f0)
        self.G = np.zeros((3, 3)) if self.G is None else np.asarray(self.G, dtype=float)
        self.gt = np.zeros(3) if self.gt is None else _promote(self.gt)
        Q = np.zeros((3, 3, 3)) if self.Q is None else np.asarray(self.Q, dtype=float)
        self.Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
        self.C = np.zeros((3, 3)) if self.C is None else np.asarray(self.C, dtype=float)
        self.qtt = np.zeros(3) if self.qtt is None else _promote(self.qtt)

    @staticmethod
    def random(seed: int, offset, scale: float = 0.3) -> "PolyField":
        rng = np.random.Generator(np.random.Philox(seed))
        return PolyField(
            f0=_promote(offset),
            G=scale * rng.uniform(-1, 1, (3, 3)),
            gt=scale * rng.uniform(-1, 1, 3),
            Q=scale * rng.uniform(-1, 1, (3, 3, 3)),
            C=scale * rng.uniform(-1, 1, (3, 3)),
            qtt=scale * rng.uniform(-1, 1, 3),
        )

    def value(self, r, t):
        r, t = _promote_rows(r, t)
        return (self.f0 + _matvec(self.G, r) + self.gt * t
                + 0.5 * np.einsum("ijk,...j,...k->...i", self.Q, r, r)
                + _matvec(self.C, r) * t + 0.5 * self.qtt * t * t)

    def d_dr(self, r, t):
        r = _promote(r)
        return self.G + np.einsum("ijk,k->ij", self.Q, r) + self.C * t

    def d_dt(self, r, t):
        return self.gt + self.C @ _promote(r) + self.qtt * t


@dataclass
class RotatingField(VectorField):
    """Field of fixed magnitude precessing about the z axis.

    F(t) = b (sin th cos(w t + phi0), sin th sin(w t + phi0), cos th).
    Traces the polar-angle-th circle in field space; no spatial dependence.
    """

    magnitude: float
    polar_angle: float
    omega: float
    phi0: float = 0.0

    def value(self, r, t):
        ph = self.omega * t + self.phi0
        st, ct = np.sin(self.polar_angle), np.cos(self.polar_angle)
        out = np.empty(getattr(ph, "shape", ()) + (3,))  # ph is a float for one point
        out[..., 0] = st * np.cos(ph)
        out[..., 1] = st * np.sin(ph)
        out[..., 2] = ct
        return self.magnitude * out

    def d_dr(self, r, t):
        return np.zeros((3, 3))

    def d_dt(self, r, t):
        ph = self.omega * t + self.phi0
        st = np.sin(self.polar_angle)
        return self.magnitude * self.omega * st * np.array([-np.sin(ph), np.cos(ph), 0.0])


@dataclass
class CallableField(VectorField):
    """Wrap a bare callable (r, t) -> (3,); derivatives by central differences."""

    fn: object
    step: float = 1e-6

    def value(self, r, t):
        return _promote(self.fn(_promote(r), t))

    def d_dr(self, r, t):
        return central_difference(lambda x: self.value(x, t), _promote(r),
                                  self.step).T

    def d_dt(self, r, t):
        return (self.value(r, t + self.step) - self.value(r, t - self.step)) / (2 * self.step)


def builtin(f: VectorField) -> bool:
    """True when f's value, d_dr and d_dt are all defined by one built-in family.

    Only then does value broadcast over leading axes and do the derivatives
    belong to that value: a subclass that overrides or adds any of the three
    is not built in, nor is a CallableField.
    """
    owners = {next(c for c in type(f).__mro__ if name in vars(c))
              for name in ("value", "d_dr", "d_dt")}
    return len(owners) == 1 and owners.pop() in (UniformField, LinearField,
                                                 PolyField, RotatingField)


def as_field(obj) -> VectorField:
    """Accept a VectorField, a bare callable, or a constant 3-vector."""
    if isinstance(obj, VectorField):
        return obj
    if callable(obj):
        return CallableField(obj)
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise TypeError(f"not a field: {obj!r}") from None
    if arr.shape == (3,) and np.all(np.isfinite(arr)):
        return UniformField(arr)
    raise TypeError(f"not a field: {obj!r}")


class IndexField:
    """Refractive index profile n(r): provides n2 = n^2 and its exact gradient."""

    def n2(self, r) -> float:
        raise NotImplementedError

    def grad_n2(self, r) -> np.ndarray:
        raise NotImplementedError


@dataclass
class UniformIndex(IndexField):
    n0: float = 1.0

    def n2(self, r):
        return self.n0 ** 2

    def grad_n2(self, r):
        return np.zeros(3)


@dataclass
class LinearIndex(IndexField):
    """n^2(r) = n0^2 - 2 alpha (axis . r): constant index gradient."""

    n0: float = 1.0
    alpha: float = 0.1
    axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))

    def __post_init__(self):
        self.axis = _promote(self.axis)
        nrm = np.linalg.norm(self.axis)
        if nrm == 0:
            raise ValueError("axis must be nonzero")
        self.axis = self.axis / nrm

    def n2(self, r):
        return self.n0 ** 2 - 2.0 * self.alpha * float(self.axis @ _promote(r))

    def grad_n2(self, r):
        return -2.0 * self.alpha * self.axis
