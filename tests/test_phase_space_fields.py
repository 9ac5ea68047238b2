"""Phase-space points and field plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgk import cli
from sgk.dynamics import ExternalEMField
from sgk.fields import (_BUILTIN, CallableField, LinearIndex, PolyField, RotatingField, as_field,
                        jet_rows)
from sgk.phase_space import PhasePoint, axis_labels
from sgk.scenarios import ZeemanScenario

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
    f = PolyField((1.0, 2.0, 3.0))
    assert np.array_equal(f.value((9, 9, 9), 5.0), [1.0, 2.0, 3.0])
    assert np.all(f.d_dr((0, 0, 0), 0.0) == 0)
    assert np.all(f.d_dt((0, 0, 0), 0.0) == 0)


def test_linear_field_derivatives():
    G = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 0.5], [0.3, 0.0, 2.0]])
    gt = np.array([0.1, 0.2, 0.3])
    f = PolyField(f0=(1.0, 0.0, 0.0), G=G, gt=gt)
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
    assert isinstance(as_field((1, 0, 0)), PolyField)
    fn = lambda r, t: np.array([r[0], 0.0, t])
    cf = as_field(fn)
    assert isinstance(cf, CallableField)
    assert np.allclose(cf.value((2.0, 0, 0), 3.0), [2.0, 0.0, 3.0])
    # FD derivatives of the callable wrapper agree with the exact ones
    assert np.allclose(cf.d_dr((2.0, 0, 0), 3.0)[0, 0], 1.0, atol=1e-6)
    assert np.allclose(cf.d_dt((2.0, 0, 0), 3.0), [0, 0, 1.0], atol=1e-6)
    f = PolyField((1, 2, 3))
    assert as_field(f) is f


def test_index_fields():
    u = LinearIndex(n0=1.5, alpha=0.0)
    assert u.n2((0, 0, 0)) == pytest.approx(2.25)
    assert np.all(u.grad_n2((1, 2, 3)) == 0)
    lin = LinearIndex(n0=1.2, alpha=0.1, axis=(0.0, 1.0, 0.0))
    r = np.array([0.3, 0.5, -0.1])
    assert lin.n2(r) == pytest.approx(1.44 - 0.2 * 0.5)
    assert np.allclose(lin.grad_n2(r), [0.0, -0.2, 0.0])


@pytest.mark.parametrize("name, shape", [("f0", (4,)), ("G", (2, 2)), ("G", (3,)),
                                         ("gt", (3, 3)), ("Q", (3, 3)), ("C", (3,)),
                                         ("qtt", (1,))])
def test_poly_field_rejects_misshapen_coefficients(name, shape):
    kw = {"f0": np.ones(3), name: np.zeros(shape)}
    with pytest.raises(ValueError, match=f"^{name} must have"):
        PolyField(**kw)


# Golden bytes of each config kind's field at rows R, T, written by the
# formulas of the separate uniform, linear and polynomial classes that
# PolyField replaced (float reprs round-trip exactly).
G = [[0.3, -0.7, 0.1], [0.2, 0.5, -0.4], [-0.6, 0.1, 0.9]]
FIELD_CONFIGS = {
    "uniform": {"kind": "uniform", "value": [0.3, -1.2, 0.7]},
    "linear": {"kind": "linear", "f0": [0.1, -0.2, 1.1], "G": G, "gt": [0.3, 0.2, -0.4]},
    "linear-no-gt": {"kind": "linear", "f0": [0.1, -0.2, 1.1], "G": G},
    "linear-ramp": {"kind": "linear", "f0": [0.0, 0.0, 1.0], "gt": [0.3, 0.2, 0.4]},
    "poly": {"kind": "poly", "f0": [0.1, -0.2, 1.1], "G": G, "gt": [0.3, 0.2, -0.4],
             "Q": [[[0.1, 0.2, -0.3], [0.4, -0.5, 0.6], [0.7, 0.8, -0.9]],
                   [[-0.2, 0.3, 0.1], [0.5, 0.1, -0.7], [0.3, -0.4, 0.2]],
                   [[0.6, -0.1, 0.4], [-0.3, 0.2, 0.5], [0.1, 0.9, -0.8]]],
             "C": [[0.2, -0.1, 0.3], [0.4, 0.6, -0.2], [-0.5, 0.1, 0.7]],
             "qtt": [0.25, -0.35, 0.45]},
}
R = np.array([[0.37, -1.21, 0.58], [-0.93, 0.44, 1.67]])
T = np.array([0.71, -1.13])
GOLDEN_VALUES = {
    "uniform": [[0.3, -1.2, 0.7], [0.3, -1.2, 0.7]],
    "linear": [[1.3290000000000002, -0.8210000000000001, 0.9950000000000001],
               [-0.6589999999999999, -1.06, 3.657]],
    "linear-no-gt": [[1.116, -0.9630000000000001, 1.2790000000000001],
                     [-0.31999999999999995, -0.8340000000000001, 3.205]],
    "linear-ramp": [[0.213, 0.142, 1.284],
                    [-0.33899999999999997, -0.22599999999999998, 0.548]],
    "poly": [[0.5607925000000001, -1.0589725, 0.8842725],
             [-1.9847974999999998, -1.4603574999999998, 1.4193575000000005]],
}
GOLDEN_POLY_D_DR = [
    [[0.2319999999999999, 0.3509999999999999, -0.9819999999999999],
     [0.04199999999999998, 0.6339999999999999, 0.3134999999999999],
     [-0.346, 0.26099999999999995, 0.17850000000000005]],
    [[0.44700000000000006, 0.08299999999999974, -1.6199999999999997],
     [0.4440000000000002, -1.4244999999999999, -0.26800000000000007],
     [-0.26350000000000007, 1.43, -1.1515]]]
GOLDEN_POLY_D_DT = [[0.8465, -0.7424999999999999, 0.019499999999999962],
                    [0.2885, 0.15349999999999997, 0.7695000000000001]]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _config_field(config):
    ctx = cli._Ctx()
    f = cli._field(ctx, "field", config)
    assert not ctx.violations
    return f


@pytest.mark.parametrize("kind", sorted(FIELD_CONFIGS))
def test_every_field_kind_builds_the_one_polynomial_family(kind):
    config = FIELD_CONFIGS[kind]
    f = _config_field(config)
    assert type(f) is PolyField
    value, d_dr, d_dt = jet_rows(f, R, T)
    assert _bits(value) == _bits(GOLDEN_VALUES[kind])
    for got, name in ((value, "value"), (d_dr, "d_dr"), (d_dt, "d_dt")):
        assert _bits(getattr(f, name)(R, T)) == _bits(got)
    if kind == "poly":
        assert _bits(d_dr) == _bits(GOLDEN_POLY_D_DR)
        assert _bits(d_dt) == _bits(GOLDEN_POLY_D_DT)
    else:  # a copy of G and gt at each row, else zeros
        assert _bits(d_dr) == _bits(np.broadcast_to(config.get("G", np.zeros((3, 3))), (2, 3, 3)))
        assert _bits(d_dt) == _bits(np.broadcast_to(config.get("gt", np.zeros(3)), (2, 3)))


def test_constant_fields_and_the_hedgehog_are_poly_fields():
    uniform = _config_field(FIELD_CONFIGS["uniform"])
    em = ExternalEMField.uniform(E=(0.3, -1.2, 0.7))
    for f in (as_field((0.3, -1.2, 0.7)), em.e_field, em.b_field, ExternalEMField().e_field,
              ZeemanScenario.hedgehog().b_field):
        assert type(f) is PolyField
    assert _BUILTIN == (PolyField, RotatingField)
    for f in (as_field((0.3, -1.2, 0.7)), em.e_field):
        assert all(_bits(a) == _bits(b) for a, b in zip(jet_rows(f, R, T),
                                                       jet_rows(uniform, R, T)))
    assert _bits(em.b_field.value(R, T)) == _bits(np.zeros((2, 3)))
    assert _bits(ZeemanScenario.hedgehog().b_field.value(R, T)) == _bits(R)


def test_every_index_kind_builds_a_linear_index():
    ctx = cli._Ctx()
    uniform = cli._index(ctx, "index", {"kind": "uniform", "n0": 1.3})
    linear = cli._index(ctx, "index", {"kind": "linear", "n0": 1.2, "alpha": 0.1,
                                       "axis": [1.0, 2.0, 2.0]})
    assert not ctx.violations and type(uniform) is type(linear) is LinearIndex
    assert [uniform.n2(r) for r in R] == [1.6900000000000002] * 2  # 1.3 ** 2 exactly
    assert all(np.array_equal(uniform.grad_n2(r), np.zeros(3)) for r in R)
    assert [linear.n2(r) for r in R] == [1.4993333333333332, 1.2206666666666666]
    assert _bits(linear.grad_n2(R[0])) == _bits(
        [-0.06666666666666667, -0.13333333333333333, -0.13333333333333333])
