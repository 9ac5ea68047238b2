"""Phase-space points and field plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgk.fields import (CallableField, LinearField, LinearIndex, PolyField,
                        RotatingField, UniformField, UniformIndex, as_field)
from sgk.phase_space import PhasePoint, axis_labels

from helpers import shifted


def test_axis_labels_order():
    assert axis_labels(2) == ("p1", "p2", "r1", "r2", "t")
    assert axis_labels(3) == ("p1", "p2", "p3", "r1", "r2", "r3", "t")


def test_phase_point_roundtrip():
    m = PhasePoint((0.1, -0.2, 0.3), (1.0, 2.0, 3.0), 0.5)
    v = m.as_vector()
    assert v.shape == (7,)
    m2 = PhasePoint.from_vector(v, 3)
    assert np.array_equal(m2.p, m.p) and np.array_equal(m2.r, m.r)
    assert m2.t == m.t


def test_phase_point_validation():
    with pytest.raises(ValueError):
        PhasePoint((1.0,), (1.0,))
    with pytest.raises(ValueError):
        PhasePoint((1.0, 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        PhasePoint((np.nan, 0.0), (0.0, 0.0))


def test_phase_point_immutable_copies():
    p = np.array([0.1, 0.2])
    m = PhasePoint(p, (0.0, 0.0))
    p[0] = 99.0
    assert m.p[0] == 0.1


@given(st.integers(0, 6), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_shifted_moves_one_axis(axis, delta):
    m = PhasePoint((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), 0.7)
    v0, v1 = m.as_vector(), shifted(m, axis, delta).as_vector()
    assert v1[axis] == pytest.approx(v0[axis] + delta)
    mask = np.arange(7) != axis
    assert np.array_equal(v0[mask], v1[mask])


def test_scale_floor():
    assert PhasePoint((0.0, 0.0), (0.0, 0.0)).scale() == 1.0
    big = PhasePoint((30.0, 0.0), (0.0, 40.0))
    assert big.scale() == pytest.approx(50.0)


def test_uniform_field():
    f = UniformField((1.0, 2.0, 3.0))
    assert np.array_equal(f.value((9, 9, 9), 5.0), [1.0, 2.0, 3.0])
    assert np.all(f.d_dr((0, 0, 0), 0.0) == 0)
    assert np.all(f.d_dt((0, 0, 0), 0.0) == 0)


def test_linear_field_derivatives():
    G = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 0.5], [0.3, 0.0, 2.0]])
    gt = np.array([0.1, 0.2, 0.3])
    f = LinearField(f0=(1.0, 0.0, 0.0), G=G, gt=gt)
    r, t = np.array([0.5, -1.0, 2.0]), 3.0
    assert np.allclose(f.value(r, t), np.array([1.0, 0, 0]) + G @ r + gt * t)
    assert np.allclose(f.d_dr(r, t), G)
    assert np.allclose(f.d_dt(r, t), gt)


def test_poly_field_matches_fd():
    f = PolyField.random(5, offset=(0.3, -0.2, 0.9))
    r, t, h = np.array([0.2, 0.1, -0.3]), 0.4, 1e-6
    J = f.d_dr(r, t)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (f.value(r + e, t) - f.value(r - e, t)) / (2 * h)
        assert np.allclose(J[:, j], fd, atol=1e-8)
    fd_t = (f.value(r, t + h) - f.value(r, t - h)) / (2 * h)
    assert np.allclose(f.d_dt(r, t), fd_t, atol=1e-8)


def test_rotating_field_traces_cone():
    f = RotatingField(magnitude=2.0, polar_angle=0.4, omega=3.0)
    for t in (0.0, 0.7, 2.1):
        v = f.value(None, t)
        assert np.linalg.norm(v) == pytest.approx(2.0)
        assert v[2] == pytest.approx(2.0 * np.cos(0.4))
        h = 1e-7
        fd = (f.value(None, t + h) - f.value(None, t - h)) / (2 * h)
        assert np.allclose(f.d_dt(None, t), fd, atol=1e-6)


def test_as_field_promotions():
    assert isinstance(as_field((1, 0, 0)), UniformField)
    fn = lambda r, t: np.array([r[0], 0.0, t])
    cf = as_field(fn)
    assert isinstance(cf, CallableField)
    assert np.allclose(cf.value((2.0, 0, 0), 3.0), [2.0, 0.0, 3.0])
    # FD derivatives of the callable wrapper agree with the exact ones
    assert np.allclose(cf.d_dr((2.0, 0, 0), 3.0)[0, 0], 1.0, atol=1e-6)
    assert np.allclose(cf.d_dt((2.0, 0, 0), 3.0), [0, 0, 1.0], atol=1e-6)
    f = UniformField((1, 2, 3))
    assert as_field(f) is f


def test_index_fields():
    u = UniformIndex(n0=1.5)
    assert u.n2((0, 0, 0)) == pytest.approx(2.25)
    assert np.all(u.grad_n2((1, 2, 3)) == 0)
    lin = LinearIndex(n0=1.2, alpha=0.1, axis=(0.0, 1.0, 0.0))
    r = np.array([0.3, 0.5, -0.1])
    assert lin.n2(r) == pytest.approx(1.44 - 0.2 * 0.5)
    assert np.allclose(lin.grad_n2(r), [0.0, -0.2, 0.0])
