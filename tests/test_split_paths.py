"""One closed-form path for every split form, exact or differenced.

A split form without exact derivatives takes the point kernel's closed form
from a central-difference (grad H0, H1, J). Fields whose value, d_dr and
d_dt are not all of one built-in family give such a model, so a derivative
inherited from a parent class never meets a value it does not belong to.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgk import (IntegratorConfig, LinearField, OpticalScenario, PhasePoint,
                 PolyField, RashbaScenario, RotatingField, SpinOrbitScenario,
                 UniformField, ZeemanScenario, band_gradients,
                 curvature_m_space, default_step, integrate, magnus_ray,
                 monopole_pullback, velocity_field)
from sgk.fields import CallableField, LinearIndex, VectorField, builtin
from sgk.gauge import _axis_stencil
from sgk.phase_space import central_difference
from sgk.scenarios import _rays

from helpers import point_kernel, split_derivatives, split_energy

EPS = np.finfo(float).eps


class KickedUniform(UniformField):
    def value(self, r, t):
        return UniformField.value(self, r, t) + np.array([0.0, 0.4 * t, 0.0])


class KickedLinear(LinearField):
    def value(self, r, t):
        r = np.asarray(r, dtype=float)
        return LinearField.value(self, r, t) + 0.5 * np.array([r[0] ** 2, 0.0, 0.0])


class KickedPoly(PolyField):
    def value(self, r, t):
        r = np.asarray(r, dtype=float)
        return PolyField.value(self, r, t) + np.array([0.0, 0.0, 0.3 * r[1] * t])


class KickedRotating(RotatingField):
    def value(self, r, t):
        r = np.asarray(r, dtype=float)
        return RotatingField.value(self, r, t) + np.array([0.2 * r[2], 0.0, 0.0])


class ExactLinear(LinearField):
    """A user-written subclass whose derivatives do match its value."""

    def value(self, r, t):
        return LinearField.value(self, r, t) + 0.1

    def d_dr(self, r, t):
        return LinearField.d_dr(self, r, t)


STALE = [
    KickedUniform(v=(0.1, 0.2, 1.0)),
    KickedLinear(f0=(0.1, 0.2, 1.0), G=0.3 * np.eye(3)),
    KickedPoly(f0=(0.1, 0.2, 1.0), G=0.3 * np.eye(3), Q=0.2 * np.ones((3, 3, 3))),
    KickedRotating(magnitude=1.2, polar_angle=0.7, omega=1.3),
]
M_STALE = PhasePoint((0.1, 0.0, 0.0), (0.8, -0.2, 0.3), 0.4)


def strip(model):
    """The model with its split form's exact derivatives removed."""
    return dataclasses.replace(model, split=dataclasses.replace(
        model.split, jacobian_rows=None))


def test_builtin_predicate():
    linear = LinearField(f0=(0.1, 0.2, 1.0), G=np.eye(3))
    assert builtin(linear) and builtin(UniformField(v=(0.0, 0.0, 1.0)))
    assert builtin(type("Plain", (PolyField,), {})(f0=(0.0, 0.0, 1.0)))
    for f in STALE + [ExactLinear(f0=(0.1, 0.2, 1.0)),
                      CallableField(lambda r, t: np.array([0.0, 0.0, 1.0]))]:
        assert not builtin(f)


@pytest.mark.parametrize("field", STALE + [ExactLinear(f0=(0.1, 0.2, 1.0))],
                         ids=lambda f: type(f).__name__)
@pytest.mark.parametrize("band", [0, 1])
def test_overridden_value_takes_no_stale_derivatives(field, band):
    # the parent class's d_dr and d_dt would miss the extra term; the
    # model must carry no exact derivatives, so forces come from the value
    # the model actually has, which its stack form reads one row at a time
    model = ZeemanScenario(b_field=field).model()
    assert model.split.jacobian_rows is None and model.split.stack is not None
    k = point_kernel(model, band, M_STALE)
    E, g = band_gradients(model, band, M_STALE)
    assert np.allclose(k.grad, g, rtol=0.0, atol=1e-8)
    assert np.allclose(k.F, curvature_m_space(model, M_STALE).F[band],
                       rtol=0.0, atol=1e-8)


def poly_model(kind, seed):
    rng = np.random.default_rng(seed)
    chi = float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))
    offset = rng.uniform(-1.0, 1.0, 3)
    m = PhasePoint(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3),
                   float(rng.uniform(-0.5, 0.5)))
    b_field = PolyField.random(seed, offset)
    if kind == "zeeman":
        return ZeemanScenario(b_field=b_field, chi=chi).model(), m
    e_field = LinearField(f0=rng.uniform(-1, 1, 3),
                          G=0.3 * rng.uniform(-1, 1, (3, 3)),
                          gt=0.3 * rng.uniform(-1, 1, 3))
    return SpinOrbitScenario(e_field=e_field, b_field=b_field, chi=chi,
                             rho=float(rng.uniform(0.3, 1.0))).model(), m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["zeeman", "spin_orbit"]),
       seed=st.integers(0, 2**32 - 1), band=st.integers(0, 1))
def test_differenced_kernel_matches_exact_kernel(kind, seed, band):
    model, m = poly_model(kind, seed)
    b = model.split.h1_vector(m)
    nb = float(np.linalg.norm(b))
    # away from degeneracies, and from the patch switch of A at b_z = 0
    assume(nb > 0.3 and abs(b[2]) > 1e-2 * nb)
    bare = strip(model)
    k = point_kernel(bare, band, m, connection=True)
    exact = point_kernel(model, band, m, connection=True)
    E, gap = split_energy(float(bare.split.h0(m)), bare.constants.hbar * nb, band)
    assert (k.energy, k.gap) == (E, gap)
    assert np.array_equal(k.F, curvature_m_space(bare, m).F[band])
    # H0 and these H1 are at most quadratic along any one axis, so the
    # O(h^2) truncation error of the central difference vanishes and only
    # the roundoff of H0 and H1, about eps S / h, reaches J and grad H0
    h = default_step(m)
    S = max(1.0, nb, float(m.p @ m.p))
    assert np.allclose(k.grad, exact.grad, rtol=0.0, atol=8 * EPS * S / h)
    assert np.allclose(k.a_diag, exact.a_diag, rtol=0.0, atol=8 * EPS * S / (h * nb))


@pytest.mark.parametrize("kind", ["zeeman", "spin_orbit"])
def test_differenced_integration_makes_no_eigensolve(kind, monkeypatch):
    model, m = poly_model(kind, 3)
    calls = []
    eigh = np.linalg.eigh

    def counting(H):
        calls.append(H.shape)
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = IntegratorConfig(step=0.01, t_end=0.05, record_connection=True)
    traj = integrate(strip(model), 1, m, cfg)
    assert traj.status == "completed" and traj.final.berry_phase != 0.0
    assert calls == []


def stencil_case(kind, seed, zeros):
    """A split model without exact derivatives, at a drawn point whose
    coordinate k is set to zeros[k] (0.0 or -0.0) where that is not None."""
    model, m = poly_model("zeeman" if kind == "callable" else kind, seed)
    if kind == "callable":
        field = PolyField.random(seed, (0.1, -0.2, 0.8))
        model = ZeemanScenario(b_field=CallableField(field.value), chi=0.9).model()
    v = m.as_vector()
    for k, z in enumerate(zeros):
        if z is not None:
            v[k] = z
    return strip(model), PhasePoint.from_vector(v, m.d)


def per_point_derivatives(split, m, h):
    """The per-point construction: h0 and h1 at m, and central differences
    of them at PhasePoint.from_vector of each shifted coordinate vector."""
    v = m.as_vector()
    g = central_difference(lambda x: split.h0(PhasePoint.from_vector(x, m.d)), v, h)
    J = central_difference(lambda x: split.h1_vector(PhasePoint.from_vector(x, m.d)),
                           v, h).T
    return split.h0(m), g, split.h1_vector(m), J


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["zeeman", "spin_orbit", "callable"]),
       seed=st.integers(0, 2**32 - 1),
       zeros=st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=7, max_size=7))
def test_stencil_derivatives_match_per_point_differences(kind, seed, zeros):
    # one rows call on the axis stencil keeps a -0.0 coordinate that x + e
    # turns into +0.0; np.array_equal counts the two zeros as equal
    model, m = stencil_case(kind, seed, zeros)
    split = model.split
    assert split.jacobian_rows is None and split.stack is not None
    v, D = m.as_vector(), m.n_axes
    kept = ~np.repeat(np.eye(D, dtype=bool), 2, axis=0)  # the coordinates no row shifts
    S = _axis_stencil(v, default_step(m), range(D))[1:]
    assert S[kept].tobytes() == np.broadcast_to(v, S.shape)[kept].tobytes()  # -0.0 too
    ref = per_point_derivatives(split, m, default_step(m))
    got = split_derivatives(split, m)
    assert len(got) == len(ref)
    for got, want in zip(got, ref):
        assert np.array_equal(got, want)
    assume(np.linalg.norm(ref[2]) > 0.0)
    want_F = monopole_pullback(ref[2], ref[3], (-0.5, +0.5), m).F
    assert np.array_equal(curvature_m_space(model, m).F, want_F)
    h = 0.01
    ref = per_point_derivatives(split, m, h)
    want_F = monopole_pullback(ref[2], ref[3], (-0.5, +0.5), m).F
    assert np.array_equal(curvature_m_space(model, m, step=h).F, want_F)


@pytest.mark.parametrize("kind", ["zeeman", "spin_orbit"])
def test_differenced_kernel_takes_one_stack(kind):
    model, m = poly_model(kind, 4)
    split = strip(model).split
    calls = {"stack": 0, "h0": 0, "h1": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the stencil's centre row supplies H0 as well, so h0 is never called
    bare = dataclasses.replace(model, split=dataclasses.replace(
        split, stack=counted("stack", split.stack), h0=counted("h0", split.h0),
        h1=counted("h1", split.h1)))
    point_kernel(bare, 1, m, connection=True)
    assert calls == {"stack": 1, "h0": 0, "h1": 0}


@pytest.mark.parametrize("kind", ["zeeman", "spin_orbit", "rashba"])
@pytest.mark.parametrize("band", [0, 1])
def test_band_gradients_ignore_the_split_form(kind, band):
    # the oracle differences eigenvalues of one frame stack for every model,
    # so dropping the split form leaves every bit of it in place
    if kind == "rashba":
        model = RashbaScenario(b_z=0.7, rho=0.8, hbar=0.3).model()
        m = PhasePoint((0.3, -0.1), (0.2, 0.5), 0.1)
    else:
        model, m = poly_model(kind, 7)
    generic = dataclasses.replace(model, split=None)
    E, g = band_gradients(model, band, m)
    E_g, g_g = band_gradients(generic, band, m)
    assert E == E_g and np.array_equal(g, g_g)


def test_spin_orbit_jacobian_evaluates_each_field_once(monkeypatch):
    values = []
    for cls in (LinearField, PolyField):
        def counted(f, r, t, _value=cls.value):
            values.append(id(f))
            return _value(f, r, t)
        monkeypatch.setattr(cls, "value", counted)
    e = LinearField(f0=(0.3, -0.2, 0.5), G=0.2 * np.eye(3), gt=(0.1, 0.0, 0.2))
    b = PolyField.random(5, (0.0, 0.0, 1.0))
    scn = SpinOrbitScenario(e_field=e, b_field=b, rho=0.7)
    m = PhasePoint((0.2, -0.1, 0.3), (0.1, 0.4, -0.2), 0.3)
    h1, _ = scn.jacobian(m)
    assert sorted(values) == sorted([id(e), id(b)])
    assert np.array_equal(h1, scn.coupling(m))


class ValueOnly(VectorField):
    """A user field with a value and no derivatives."""

    def value(self, r, t):
        return np.array([0.1, 0.2, 1.0]) + 0.1 * np.asarray(r)


SPLIT_SCENARIOS = {
    "zeeman-poly": lambda: ZeemanScenario(b_field=PolyField.random(3, (0.2, -0.4, 1.1)),
                                          chi=1.3, hbar=0.6),
    "zeeman-callable": lambda: ZeemanScenario(
        b_field=lambda r, t: np.array([0.3 + r[1] * t, -0.2, 1.0 + 0.5 * r[0]]), chi=0.8),
    "zeeman-value-only": lambda: ZeemanScenario(b_field=ValueOnly()),
    "spin-orbit": lambda: SpinOrbitScenario(
        e_field=LinearField(f0=(0.3, -0.2, 0.5), G=0.2 * np.eye(3), gt=(0.1, 0.0, 0.2)),
        b_field=PolyField.random(5, (0.0, 0.0, 1.0)), rho=0.7),
    "spin-orbit-callable": lambda: SpinOrbitScenario(
        e_field=CallableField(lambda r, t: np.array([0.4, 0.1 * r[2], -0.3 + t])),
        b_field=CallableField(lambda r, t: np.array([0.2 * r[0], 0.1, 1.0 - 0.3 * t])),
        chi=0.9, rho=0.6),
    "rashba": lambda: RashbaScenario(b_z=0.7, rho=0.8, hbar=0.3),
}


@pytest.mark.parametrize("kind", sorted(SPLIT_SCENARIOS))
def test_one_point_forms_are_one_row_cases(kind):
    # a split scenario defines H1 and its Jacobian once, as rows: its
    # one-point forms, the model's H1 and the model's matrix are those rows
    scn = SPLIT_SCENARIOS[kind]()
    model, d = scn.model(), scn.d
    X = np.random.default_rng(5).uniform(-0.5, 0.5, (4, 2 * d + 1))
    p, r, t = X[:, :d], X[:, d:2 * d], X[:, 2 * d]
    b_rows, H = scn._coupling(p, r, t), model.evaluate_stack(X)
    derivatives = kind != "zeeman-value-only"
    if derivatives:
        b_jac, J_rows = scn._jacobian_rows(p, r, t)
        assert np.array_equal(b_jac, b_rows)
    for i, x in enumerate(X):
        m = PhasePoint.from_vector(x, d)
        assert np.array_equal(scn.coupling(m), b_rows[i])
        assert np.array_equal(model.split.h1_vector(m), b_rows[i])
        assert np.array_equal(model.evaluate(m), H[i])
        if derivatives:
            b, J = scn.jacobian(m)
            assert np.array_equal(b, b_rows[i]) and np.array_equal(J, J_rows[i])
        else:
            with pytest.raises(NotImplementedError):
                scn.jacobian(m)
        if isinstance(scn, RashbaScenario):
            for band in (0, 1):
                assert np.array_equal(scn.curvature_provider()(m).F[band],
                                      point_kernel(model, band, m).F)


def test_magnus_ray_is_classic_rk4():
    # the reference: the stage arithmetic of one RK4 step, written out over
    # the point kernel's reduced velocity of the ray's band form
    scn = OpticalScenario(index=LinearIndex(n0=1.5, alpha=0.05), k0=50.0)
    p0 = scn.launch_momentum((1.0, 0.0, 0.2))
    form, _ = _rays(scn, 0.1, 0.25, 10)

    def rhs(y):
        return np.concatenate(velocity_field(form, 0, PhasePoint(y[:3], y[3:], 0.0),
                                             mode="reduced", warn=False))

    ray = magnus_ray(scn, p0, np.zeros(3), -1, s_end=0.25, step=0.1)
    y, steps = np.concatenate([p0, np.zeros(3)]), []
    for h in (0.1, 0.1, ray.s[-1] - ray.s[-2]):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        steps.append(y)
    assert np.array_equal(np.hstack([ray.p, ray.r])[1:], np.array(steps))


def test_magnus_ray_matches_the_closed_form_magnus_rhs():
    # the oracle: RK4 of pdot = grad n^2/2, rdot = p - S k0^{-1} (p x pdot)/|p|^3,
    # which shares no arithmetic with the point kernel; 200 steps agree to
    # roundoff (1.1e-15 measured)
    scn = OpticalScenario(index=LinearIndex(n0=1.5, alpha=0.05), k0=50.0)
    p0, h = scn.launch_momentum((1.0, 0.0, 0.2)), 5e-3

    def rhs(y, helicity):
        p, pdot = y[:3], 0.5 * scn.index.grad_n2(y[3:])
        rdot = p - helicity / scn.k0 * np.cross(p, pdot) / np.linalg.norm(p) ** 3
        return np.concatenate([pdot, rdot])

    for helicity in (+1, -1):
        ray = magnus_ray(scn, p0, np.zeros(3), helicity, s_end=200 * h, step=h)
        assert ray.s.shape == (201,)
        y = np.concatenate([p0, np.zeros(3)])
        for _ in range(200):
            k1 = rhs(y, helicity)
            k2 = rhs(y + 0.5 * h * k1, helicity)
            k3 = rhs(y + 0.5 * h * k2, helicity)
            k4 = rhs(y + h * k3, helicity)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.abs(np.concatenate([ray.p[-1], ray.r[-1]]) - y).max() <= 1e-13
