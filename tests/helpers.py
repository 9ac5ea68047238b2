"""Per-point references shared by the tests.

The package works on coordinate rows; these wrap it at one PhasePoint, with
the bits of the per-point forms the tests compare against.
"""

import dataclasses

import numpy as np

from sgk.dynamics import _point_kernel, _split_derivatives
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
    """(H0, grad H0, H1, J) of a split form at the one point m."""
    return tuple(a[0] for a in _split_derivatives(split, m.as_vector()[None]))


def split_energy(h0: float, nb: float, band: int):
    """The band energy H0 -+ hbar|H1| and the gap 2 hbar|H1|."""
    return (h0 - nb if band == 0 else h0 + nb), 2.0 * nb
