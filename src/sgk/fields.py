"""Vector field families over (r, t) with analytic derivatives.

Scenario couplings (magnetic fields, electric fields) are 3-component
fields of position and time. Curvature formulas need their first
derivatives; the classes here provide exact ones where the functional form
allows it, and a finite-difference wrapper for bare callables. Spatial
arguments may be length 2 (in-plane problems) or 3; they are promoted to
3 components internally with zero padding. The two built-in families
broadcast value and both derivatives over leading axes: r of shape (N, 3)
and t of shape (N,) give (N, 3), (N, 3, 3) and (N, 3), each row
bit-identical to its one-point call.
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


def _each_row(a: np.ndarray, r) -> np.ndarray:
    """A copy of a for each point of r (..., 2 or 3)."""
    out = np.empty(np.shape(r)[:-1] + a.shape)
    out[...] = a
    return out


class VectorField:
    """Base: value(r, t) -> (3,); d_dr -> (3,3) with [i,j]=dF_i/dr_j; d_dt -> (3,).

    A subclass's own methods may take one point at a time: rows calls them
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

    def _jet(self, r, t) -> tuple:
        """(value, d_dr, d_dt) at r, t; a built-in family shares the work of the three."""
        return self.value(r, t), self.d_dr(r, t), self.d_dt(r, t)


# each PolyField coefficient's shape; a 3-vector may be given with 2 components
_POLY_SHAPES = {"f0": (3,), "G": (3, 3), "gt": (3,), "Q": (3, 3, 3), "C": (3, 3),
                "qtt": (3,)}


@dataclass
class PolyField(VectorField):
    """Low-order polynomial field in (r, t) with exact derivatives.

    F_i(r, t) = f0_i + G_ij r_j + gt_i t + 1/2 Q_ijk r_j r_k
                + C_ij r_j t + 1/2 qtt_i t^2

    Only f0 is required, and a coefficient left None is absent: the value
    starts from f0, the derivatives from G and gt (or zeros), and each adds
    only the present terms, in the order above. So PolyField(f0) is a
    uniform field, and PolyField(f0, G, gt) a linear one (a hedgehog
    F = a (r - r0) is G = a I, f0 = -a r0). Q is symmetrized in (j, k) on
    construction. random() draws bounded coefficients from a seeded
    generator; useful as a generic smooth field.
    """

    f0: np.ndarray
    G: np.ndarray = None
    gt: np.ndarray = None
    Q: np.ndarray = None
    C: np.ndarray = None
    qtt: np.ndarray = None

    def __post_init__(self):
        for name, shape in _POLY_SHAPES.items():
            a = getattr(self, name)
            if a is None:
                continue
            a = np.asarray(a, dtype=float)
            if shape == (3,) and a.shape == (2,):
                a = _promote(a)
            if a.shape != shape:
                want = "2 or 3 components" if shape == (3,) else f"shape {shape}"
                raise ValueError(f"{name} must have {want}, got shape {a.shape}")
            setattr(self, name, a)
        if self.Q is not None:
            self.Q = 0.5 * (self.Q + np.swapaxes(self.Q, 1, 2))

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
        return self._value(r, t, self._Cr(r))

    def d_dr(self, r, t):
        return self._d_dr(_promote_rows(r, t)[0], t)

    def d_dt(self, r, t):
        r, t = _promote_rows(r, t)
        return self._d_dt(r, t, self._Cr(r))

    def _jet(self, r, t):
        r3, t3 = _promote_rows(r, t)
        Cr = self._Cr(r3)
        return self._value(r3, t3, Cr), self._d_dr(r3, t), self._d_dt(r3, t3, Cr)

    # the present terms at promoted r and t (t with a last axis for rows), Cr = C r

    def _Cr(self, r):
        return None if self.C is None else np.matvec(self.C, r)

    def _value(self, r, t, Cr):
        out = _each_row(self.f0, r)
        if self.G is not None:
            out += np.matvec(self.G, r)
        if self.gt is not None:
            out += self.gt * t
        if self.Q is not None:
            out += 0.5 * np.einsum("ijk,...j,...k->...i", self.Q, r, r)
        if Cr is not None:
            out += Cr * t
        if self.qtt is not None:
            out += 0.5 * self.qtt * t * t
        return out

    def _d_dr(self, r, t):  # t as given: the outer product needs its own shape
        out = _each_row(self.G, r) if self.G is not None else np.zeros(r.shape[:-1] + (3, 3))
        if self.Q is not None:
            out += np.einsum("ijk,...k->...ij", self.Q, r)
        if self.C is not None:
            out += np.multiply.outer(t, self.C)
        return out

    def _d_dt(self, r, t, Cr):
        out = _each_row(self.gt, r) if self.gt is not None else np.zeros(r.shape)
        if Cr is not None:
            out += Cr
        if self.qtt is not None:
            out += self.qtt * t
        return out


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
        return self._value(*self._angles(t))

    def d_dr(self, r, t):
        return np.zeros(np.shape(t) + (3, 3))

    def d_dt(self, r, t):
        return self._d_dt(*self._angles(t))

    def _jet(self, r, t):
        angles = self._angles(t)
        return self._value(*angles), self.d_dr(r, t), self._d_dt(*angles)

    def _angles(self, t):
        """(sin th, cos th, cos ph, sin ph) at ph = w t + phi0; the last two
        are floats for one point and (N,) for rows."""
        ph = self.omega * t + self.phi0
        return np.sin(self.polar_angle), np.cos(self.polar_angle), np.cos(ph), np.sin(ph)

    def _value(self, st, ct, c, s):
        out = np.empty(np.shape(c) + (3,))
        out[..., 0] = st * c
        out[..., 1] = st * s
        out[..., 2] = ct
        return self.magnitude * out

    def _d_dt(self, st, ct, c, s):
        return self.magnitude * self.omega * st * np.array([-s, c, np.zeros_like(c)]).T


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
    if type(f) in _BUILTIN:  # each defines all three itself
        return True
    owners = {next(c for c in type(f).__mro__ if name in vars(c))
              for name in ("value", "d_dr", "d_dt")}
    return len(owners) == 1 and owners.pop() in _BUILTIN


_BUILTIN = (PolyField, RotatingField)


def rows(f: VectorField, name: str, r, t) -> np.ndarray:
    """f.value, f.d_dr or f.d_dt (name) at rows r (N, 2 or 3), t (N,): one
    call for a built-in field, else one call per row."""
    fn = getattr(f, name)
    if builtin(f):
        return fn(r, t)
    return np.stack([fn(ri, float(ti)) for ri, ti in zip(r, t)])


def jet_rows(f: VectorField, r, t) -> tuple:
    """(value, d_dr, d_dt) of f at rows r (N, 2 or 3), t (N,): one pass for a
    built-in field, else rows of each."""
    if builtin(f):
        return f._jet(r, t)
    return tuple(rows(f, name, r, t) for name in ("value", "d_dr", "d_dt"))


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
        return PolyField(arr)
    raise TypeError(f"not a field: {obj!r}")


class IndexField:
    """Refractive index profile n(r): provides n2 = n^2 and its exact gradient."""

    def n2(self, r) -> float:
        raise NotImplementedError

    def grad_n2(self, r) -> np.ndarray:
        raise NotImplementedError


@dataclass
class LinearIndex(IndexField):
    """n^2(r) = n0^2 - 2 alpha (axis . r): constant index gradient; alpha = 0
    is a uniform index, whose n^2 is n0^2 exactly."""

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
