"""Connection and curvature layer: exactness, flatness, flux quantization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgk.gauge
import sgk.models
import sgk.phase_space
from sgk import (
    AdiabaticConnectionField,
    BandTrackingError,
    Connection,
    CurvatureTensor,
    DegeneracyError,
    HamiltonianModel,
    NumericalError,
    PhasePoint,
    PolyField,
    QuadratureError,
    SingularityError,
    StepError,
    ZeemanScenario,
    adiabatic_connection,
    adiabatic_curvature_numeric,
    chern_charge,
    curvature_m_space,
    dirac_phase,
    exact_connection,
    exact_connection_field,
    maxwell_residuals,
    monopole_curvature,
    monopole_field,
    monopole_pseudovector,
    monopole_pullback,
    nonabelian_curvature,
    phase_line_integral,
    pseudo_to_tensor,
    regauge,
    tensor_to_pseudo,
    wrap_angle,
)

from helpers import curvature_of_abelian_field

M0 = PhasePoint((0.1, -0.2, 0.3), (0.2, 0.4, 0.9), 0.1)


def poly_model(seed=5):
    # generic smooth coupling, nonzero at M0
    return ZeemanScenario(
        b_field=PolyField.random(seed, offset=(0.3, -0.2, 1.0)), chi=0.9).model()


# -- small helpers ----------------------------------------------------------


def test_wrap_angle_basics():
    assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
    assert wrap_angle(2.0 * np.pi + 0.3) == pytest.approx(0.3, abs=1e-12)
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    # both branch ends land on +pi
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_wrap_angle_is_mod_2pi(x):
    w = wrap_angle(x)
    assert -np.pi < w <= np.pi + 1e-15
    assert abs((x - w) / (2.0 * np.pi) - round((x - w) / (2.0 * np.pi))) < 1e-9


def test_pseudo_tensor_round_trip():
    f = np.array([0.3, -1.2, 0.7])
    F = pseudo_to_tensor(f)
    assert np.allclose(F, -F.T)
    assert np.allclose(tensor_to_pseudo(F), f)
    # convention check: F_12 = f_3.. no: F_ij = eps_ijk f_k so F[0,1] = f[2]
    assert F[0, 1] == pytest.approx(f[2])
    assert F[1, 2] == pytest.approx(f[0])


def test_pseudo_to_tensor_is_the_one_row_cross_matrix():
    # one eps map: each row's matrix has the bits of the written-out formula,
    # signed zeros, infinities and NaN included
    values = np.array([0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan, 1e-310])
    rng = np.random.Generator(np.random.PCG64(7))
    f = np.concatenate([rng.choice(values, (200, 3)), rng.uniform(-3.0, 3.0, (20, 3))])
    stack = sgk.phase_space._cross_matrices(f)
    for row, F in zip(f, stack):
        want = np.array([[0.0, row[2], -row[1]], [-row[2], 0.0, row[0]],
                         [row[1], -row[0], 0.0]])
        assert want.tobytes() == F.tobytes() == pseudo_to_tensor(row).tobytes()


# -- connection basics ------------------------------------------------------


def test_exact_connection_is_hermitian_and_has_offdiagonal():
    model = poly_model()
    conn = exact_connection(model, M0)
    assert conn.kind == "exact"
    assert conn.components.shape == (7, 2, 2)
    for k in range(7):
        A = conn.components[k]
        assert np.allclose(A, A.conj().T, atol=1e-10)
    # interband mixing is generically nonzero
    assert np.max(np.abs(conn.components[:, 0, 1])) > 1e-6


def test_adiabatic_connection_is_diagonal_part():
    model = poly_model()
    ex = exact_connection(model, M0)
    ad = adiabatic_connection(model, M0)
    assert ad.kind == "adiabatic"
    assert ad.components.shape == (7, 2)
    diag = np.einsum("kbb->kb", ex.components).real
    assert np.allclose(ad.components, diag, atol=1e-12)
    # diagonal() of an adiabatic connection is the identity
    assert ad.diagonal() is ad


def test_connection_axes_subset_zeroes_the_rest():
    model = poly_model()
    full = exact_connection(model, M0)
    part = exact_connection(model, M0, axes=(3, 4, 5))
    assert np.allclose(part.components[[3, 4, 5]], full.components[[3, 4, 5]])
    assert np.all(part.components[[0, 1, 2, 6]] == 0.0)


def test_connection_dot_contracts_velocity():
    model = poly_model()
    ad = adiabatic_connection(model, M0)
    mdot = np.arange(1.0, 8.0)
    assert np.allclose(ad.dot(mdot), mdot @ ad.components)
    with pytest.raises(ValueError):
        exact_connection(model, M0).dot(mdot)


def test_exact_connection_rejects_nonhermitian_components():
    comps = np.zeros((7, 2, 2), dtype=complex)
    comps[0, 0, 1] = 1.0  # no conjugate partner
    with pytest.raises(Exception):
        Connection(labels=M0.labels, kind="exact", components=comps)


def test_step_validation():
    model = poly_model()
    with pytest.raises(StepError):
        exact_connection(model, M0, step=0.0)
    with pytest.raises(StepError):
        adiabatic_curvature_numeric(model, M0, step=-1e-4)


# -- flatness of the exact connection ---------------------------------------


def test_exact_connection_is_flat():
    # i U+ dU is pure gauge: the full non-Abelian curvature vanishes to
    # stencil accuracy even though the adiabatic part alone is curved.
    model = poly_model()
    F = nonabelian_curvature(exact_connection_field(model), M0, step=1e-4)
    assert F.max_norm() < 1e-6


def test_flatness_needs_the_commutator():
    model = poly_model()
    F = nonabelian_curvature(exact_connection_field(model), M0, step=1e-4,
                             include_commutator=False)
    assert F.max_norm() > 1e-3


def test_nonabelian_pair_antisymmetry():
    model = poly_model()
    F = nonabelian_curvature(exact_connection_field(model), M0, step=1e-4,
                             include_commutator=False)
    assert np.allclose(F.pair(3, 4), -F.pair(4, 3))


# -- adiabatic curvature: plaquette vs closed form ---------------------------


def test_plaquette_matches_split_curvature():
    model = poly_model(seed=7)
    num = adiabatic_curvature_numeric(model, M0, step=1e-3)
    ana = curvature_m_space(model, M0)
    scale = max(ana.max_abs(), 1.0)
    assert np.max(np.abs(num.F - ana.F)) / scale < 1e-6


def grid_rows(n):
    # n phase-space points around M0, as the rows of one coordinate stack
    return M0.as_vector() + 0.2 * np.random.default_rng(11).uniform(-1.0, 1.0, size=(n, 7))


@pytest.mark.parametrize("richardson", [True, False])
def test_stacked_plaquettes_keep_each_point_bits(richardson, monkeypatch):
    # the whole grid in one stack, or in chunks of two points, gives every
    # point the curvature it has alone, to the bit
    model = poly_model(seed=7)
    X = grid_rows(5)
    want = np.stack([adiabatic_curvature_numeric(model, PhasePoint.from_vector(x, 3),
                                                 richardson=richardson).F for x in X])
    assert np.array_equal(sgk.gauge.plaquette_rows(model, X, richardson=richardson), want)
    monkeypatch.setattr(sgk.gauge, "STACK_ROWS", 2 * (1 + 21 * 4 * (2 if richardson else 1)))
    assert np.array_equal(sgk.gauge.plaquette_rows(model, X, richardson=richardson), want)


def test_stacked_split_curvature_keeps_each_point_bits(monkeypatch):
    model = poly_model(seed=7)
    X = grid_rows(5)
    want = np.stack([curvature_m_space(model, PhasePoint.from_vector(x, 3)).F for x in X])
    assert np.array_equal(sgk.gauge.split_curvature_rows(model, X), want)
    monkeypatch.setattr(sgk.gauge, "STACK_ROWS", 2 * 15)
    assert np.array_equal(sgk.gauge.split_curvature_rows(model, X), want)


def test_stacked_curvature_raises_the_first_failing_point():
    # on the hedgehog B = r, the earlier point's (r1, r2) plaquette has its
    # corner c1 at r = 0; the later point fails at its centre, on the
    # degeneracy at another t or with no finite step. The stack raises what
    # the earlier point raises alone
    model = ZeemanScenario.hedgehog().model()
    corner = np.array([0.0, 0.0, 0.0, 5e-5, 5e-5, 0.0, 0.0])
    centre = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25])
    far = np.array([0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore"):  # |far|^2 overflows
        for x, error, message in ((corner, DegeneracyError, r"at t=0\.0$"),
                                  (centre, DegeneracyError, r"at t=0\.25$"),
                                  (far, NumericalError, "no finite step scale")):
            with pytest.raises(error, match=message):
                adiabatic_curvature_numeric(model, PhasePoint.from_vector(x, 3))
        for later in (centre, far):
            with pytest.raises(DegeneracyError, match=r"at t=0\.0$"):
                sgk.gauge.plaquette_rows(model, np.array([corner, later]))
        # the split form fails only where the coupling itself vanishes
        assert np.isfinite(sgk.gauge.split_curvature_rows(model, corner[None])).all()
        with pytest.raises(SingularityError):
            sgk.gauge.split_curvature_rows(model, np.array([corner, centre, far]))


@pytest.mark.parametrize("name, kernel, first, error, message", [
    ("plaquette_rows", "_plaquettes", [0.0, 0.0, 0.0, 5e-5, 5e-5, 0.0, 0.0],  # a corner at r = 0
     DegeneracyError, r"at t=0\.0$"),
    ("split_curvature_rows", "_split_curvature", [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25],  # r = 0
     SingularityError, "coupling vanishes")], ids=["plaquette_rows", "split_curvature_rows"])
def test_stacked_curvature_halves_its_way_to_the_first_failing_point(
        name, kernel, first, error, message, monkeypatch):
    # 32 hedgehog points in one chunk, two of which fail alone, with their
    # own errors, at positions 20 and 27; the chunk itself raises the later
    # one's (far has no finite step, which every row's step computes first).
    # Each halving tries at most two halves, so the first failing point's
    # own error comes within 2 ceil(log2 n) + 1 kernel calls; re-running
    # each row alone took 21 + 1
    model = ZeemanScenario.hedgehog().model()
    X = 0.5 + 0.4 * np.random.default_rng(5).uniform(-1.0, 1.0, size=(32, 7))
    X[20], X[27] = first, [0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0]
    calls, inner = [], getattr(sgk.gauge, kernel)
    monkeypatch.setattr(sgk.gauge, kernel, lambda *a: calls.append(1) or inner(*a))
    monkeypatch.setattr(sgk.gauge, "STACK_ROWS", 10**6)
    with np.errstate(over="ignore"), pytest.raises(error, match=message):  # |far|^2 overflows
        getattr(sgk.gauge, name)(model, X)
    assert len(calls) <= 2 * math.ceil(math.log2(len(X))) + 1 < 21 + 1


def test_a_chunk_that_raises_only_as_a_whole_gives_each_row(monkeypatch):
    # a kernel that raises for a chunk of four rows, but for none of its
    # parts, gives every row the result it has alone
    model = poly_model(seed=7)
    X = grid_rows(8)
    want = sgk.gauge.split_curvature_rows(model, X)
    inner = sgk.gauge._split_curvature

    def whole_fails(split, V, step):
        if len(V) == 4:
            raise NumericalError("a chunk of four")
        return inner(split, V, step)

    monkeypatch.setattr(sgk.gauge, "_split_curvature", whole_fails)
    monkeypatch.setattr(sgk.gauge, "STACK_ROWS", 4 * 15)
    assert np.array_equal(sgk.gauge.split_curvature_rows(model, X), want)


def test_band_curvatures_are_opposite():
    model = poly_model(seed=9)
    ana = curvature_m_space(model, M0)
    assert np.allclose(ana.F[0], -ana.F[1], atol=1e-14)


def test_curvature_tensor_blocks():
    F = np.zeros((2, 7, 7))
    F[0, 0, 1] = 2.0
    F[0, 3, 6] = 5.0
    ct = CurvatureTensor(d=3, labels=M0.labels, F=F)
    # constructor mirrors the upper triangle
    assert ct.F[0, 1, 0] == -2.0
    assert ct.f_pp(0)[0, 1] == 2.0
    assert ct.f_rt(0)[0] == 5.0
    assert ct.f_pp().shape == (2, 3, 3)
    assert ct.f_rt().shape == (2, 3)
    assert ct.band(1).shape == (7, 7)
    assert ct.max_abs() == 5.0


def test_curvature_m_space_needs_split():
    from sgk import Constants, HamiltonianModel

    dense = HamiltonianModel(n=2, evaluate_raw=lambda m: np.eye(2, dtype=complex),
                             constants=Constants())
    with pytest.raises(ValueError):
        curvature_m_space(dense, M0)


def test_curvature_singular_at_zero_coupling():
    scn = ZeemanScenario.hedgehog()
    origin = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(SingularityError):
        curvature_m_space(scn.model(), origin)


# -- monopole layer ----------------------------------------------------------


def test_monopole_pseudovector_at_pole():
    up = monopole_pseudovector(np.array([0.0, 0.0, 1.0]), +0.5)
    dn = monopole_pseudovector(np.array([0.0, 0.0, 1.0]), -0.5)
    assert np.allclose(up, [0.0, 0.0, -0.5])
    assert np.allclose(dn, [0.0, 0.0, +0.5])
    with pytest.raises(SingularityError):
        monopole_pseudovector(np.zeros(3), 0.5)


def test_monopole_pseudovector_past_the_cube_overflow():
    # |H1|^3 overflows past 5.6e102: the field divides by |H1| three times
    # there, and keeps the bits of -S H1 / |H1|^3 below
    rng = np.random.default_rng(4)
    for h1 in rng.normal(size=(20, 3)) * 10.0 ** rng.uniform(-100, 100, size=(20, 1)):
        nb = float(np.linalg.norm(h1))
        assert np.array_equal(monopole_pseudovector(h1, 0.5), -0.5 * h1 / nb**3)
    h1 = np.array([3e102, -4e102, 1.2e103])  # |H1| = 1.3e103
    assert np.allclose(monopole_pseudovector(h1, 0.5) * 1e200,
                       monopole_pseudovector(h1 / 1e100, 0.5), rtol=1e-14, atol=0.0)


def test_monopole_tensor_component():
    F = monopole_curvature(np.array([0.0, 0.0, 1.0]), +0.5)
    assert F[0, 1] == pytest.approx(-0.5)


@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.3, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_monopole_inverse_square_homogeneity(lam, x, y, z):
    h1 = np.array([x, y, z + 1.5])  # bounded away from the origin
    f1 = monopole_pseudovector(h1, 0.5)
    f2 = monopole_pseudovector(lam * h1, 0.5)
    assert np.allclose(f2, f1 / lam**2, rtol=1e-10, atol=1e-12)


def test_pullback_linear_map_is_congruence():
    # F_ij = -S b.(J_i x J_j)/|b|^3 is the coupling-space monopole tensor
    # pulled back along m -> b(m): J^T F_b J, here over d = 2 (five axes)
    M = np.array([[1.0, 0.3, 0.0, 0.2, -0.6],
                  [0.0, 1.2, -0.4, 0.7, 0.1],
                  [0.5, 0.0, 0.9, -0.3, 0.4]])
    b = np.array([0.2, -0.7, 1.1])
    pulled = monopole_pullback(b, M, (-0.5, 0.5), PhasePoint((0.4, 0.1), (-0.1, 0.3), 0.8))
    for band, S in enumerate((-0.5, 0.5)):
        assert np.allclose(pulled.F[band], M.T @ monopole_curvature(b, S) @ M, atol=1e-8)


@pytest.mark.filterwarnings("error")
def test_monopole_rows_scale_a_row_whose_cube_overflows():
    # |b|^3 overflows past 5.6e102: that row takes ((b/|b|) x J_i) . J_j / |b| / |b|,
    # X is invariant under (b, J) -> (lam b, lam J), and the row beside it keeps
    # the bits it has alone
    rng = np.random.default_rng(3)
    b, J = rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 7))
    b[1], J[1] = 1e120 * b[0], 1e120 * J[0]
    nb = np.linalg.norm(b, axis=1)
    X = sgk.models.monopole_rows(b, J, nb)
    assert np.array_equal(X[0], sgk.models.monopole_rows(b[:1], J[:1], nb[:1])[0])
    assert np.allclose(X[1], X[0], rtol=1e-13, atol=1e-15)  # the diagonal is roundoff


def test_chern_charge_of_unit_monopole():
    q = chern_charge(monopole_field(0.5), center=(0.0, 0.0, 0.0), radius=1.0)
    assert q == pytest.approx(-1.0, abs=1e-9)
    q = chern_charge(monopole_field(-0.5, center=(0.2, 0.0, -0.1)),
                     center=(0.2, 0.0, -0.1), radius=0.7)
    assert q == pytest.approx(+1.0, abs=1e-9)


def test_chern_charge_detects_source_miscount():
    # second source sits between the base sphere and the check sphere
    f1 = monopole_field(0.5)
    f2 = monopole_field(0.5, center=(0.0, 0.0, 2.0))
    both = lambda x: f1(x) + f2(x)
    with pytest.raises(QuadratureError):
        chern_charge(both, center=(0.0, 0.0, 0.0), radius=1.5)


def test_chern_charge_rejects_bad_radius():
    with pytest.raises(ValueError):
        chern_charge(monopole_field(0.5), center=(0, 0, 0), radius=0.0)


# -- line integrals ----------------------------------------------------------


def circle_path(theta, n):
    phis = np.linspace(0.0, 2.0 * np.pi, n)
    st_, ct = np.sin(theta), np.cos(theta)
    return np.stack([st_ * np.cos(phis), st_ * np.sin(phis),
                     np.full_like(phis, ct)], axis=1)


def loop_phase(field, path, band):
    # chord trapezoid is O(h^2) with an even error expansion; one Richardson
    # pass over the halved path lifts it to O(h^4)
    fine = phase_line_integral(field, path, band=band).value
    coarse = phase_line_integral(field, path[::2], band=band).value
    return (4.0 * fine - coarse) / 3.0


def test_loop_phase_is_minus_solid_angle_fraction():
    # upper band around a polar circle: -2 pi S (1 - cos theta) with S = 1/2
    scn = ZeemanScenario.hedgehog()
    base = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    field = AdiabaticConnectionField(scn.model(), base, axes=(3, 4, 5))
    theta = np.pi / 3.0
    path = circle_path(theta, 1441)
    assert loop_phase(field, path, band=1) == pytest.approx(-np.pi / 2.0, abs=1e-6)


def test_phase_line_integral_validations():
    field = lambda x: np.zeros(3)
    with pytest.raises(ValueError):
        phase_line_integral(field, np.zeros((1, 3)))
    multi = lambda x: np.zeros((3, 2))
    with pytest.raises(ValueError):
        phase_line_integral(multi, np.zeros((4, 3)))  # band not given


def test_connection_field_validates_band_continuity():
    # validate_path walks eigenframes; a leg through the field zero hits the
    # degenerate point and must refuse before any integration happens
    scn = ZeemanScenario.hedgehog()
    base = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    field = AdiabaticConnectionField(scn.model(), base, axes=(3, 4, 5))
    crossing = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(DegeneracyError):
        phase_line_integral(field, crossing, band=1)


def test_dirac_phase_landau_loop_and_scalar_leg():
    B = 0.7
    pot = lambda r, t: (0.0, np.array([-B * r[1], 0.0, 0.0]))
    square = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0],
                       [0, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
    assert dirac_phase(pot, square) == pytest.approx(B, abs=1e-12)

    V = 0.3
    static = lambda r, t: (V, np.zeros(3))
    leg = np.array([[0, 0, 0, 0.0], [0, 0, 0, 2.0]])
    assert dirac_phase(static, leg) == pytest.approx(-V * 2.0, abs=1e-12)

    with pytest.raises(ValueError):
        dirac_phase(pot, np.zeros((3, 3)))


# -- field identities --------------------------------------------------------


def test_maxwell_residuals_vanish_for_monopole():
    field = monopole_field(0.5)
    tensor = lambda x: pseudo_to_tensor(field(x))
    pts = [np.array([0.8, 0.1, 0.4]), np.array([-0.5, 0.9, -0.2])]
    res = maxwell_residuals(tensor, pts)
    assert res.max_divergence < 1e-9
    assert res.max_cyclic < 1e-9


def test_maxwell_residuals_catch_sources():
    # pseudovector f = x has divergence 3, showing up in the cyclic sum
    radial = lambda x: pseudo_to_tensor(np.asarray(x, dtype=float))
    res = maxwell_residuals(radial, [np.array([0.3, 0.2, 0.1])])
    assert res.max_cyclic == pytest.approx(3.0, abs=1e-6)
    # f = (-y, x, 0) has curl 2 z-hat, showing up in the divergence rows
    swirl = lambda x: pseudo_to_tensor([-x[1], x[0], 0.0])
    res = maxwell_residuals(swirl, [np.array([0.3, 0.2, 0.1])])
    assert res.max_divergence == pytest.approx(2.0, abs=1e-6)


# -- gauge transformations ---------------------------------------------------


def test_regauge_shifts_components_by_gradient():
    model = poly_model()
    ad = adiabatic_connection(model, M0)
    g = np.array([[0.3, -0.2, 0.7, 0.1, 0.0, -0.5, 0.4],
                  [-0.1, 0.6, 0.2, 0.0, 0.3, 0.1, -0.2]]).T  # (7, 2)
    phase = lambda v: v @ g
    out = regauge(ad, phase)
    assert np.allclose(out.components, ad.components - g, atol=1e-8)


def test_regauge_preserves_curvature_and_loop_phase():
    scn = ZeemanScenario.hedgehog()
    base = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    field = AdiabaticConnectionField(scn.model(), base, axes=(3, 4, 5))
    phase = lambda v: np.array([0.4 * v[0] - 0.9 * v[2], 1.3 * v[1] + 0.2 * v[0]])
    changed = regauge(field, phase)

    x = np.array([0.3, -0.2, 0.9])
    F0 = curvature_of_abelian_field(field, x, step=1e-4)
    F1 = curvature_of_abelian_field(changed, x, step=1e-4)
    assert np.allclose(F0, F1, atol=1e-6)

    path = circle_path(np.pi / 4.0, 721)
    p0 = phase_line_integral(field, path, band=1).value
    p1 = phase_line_integral(changed, path, band=1).value
    # single-valued linear phase: even the raw loop values agree
    assert p0 == pytest.approx(p1, abs=1e-8)


def test_regauged_field_keeps_the_band_continuity_check():
    # five bands whose frame jumps at t = 0.5 to one where every overlap with
    # the old frame is 1/sqrt(5), below the tracking bound
    k = np.arange(5)
    W = np.exp(2j * np.pi * np.outer(k, k) / 5.0) / np.sqrt(5.0)
    diag = np.diag(np.arange(1.0, 6.0)).astype(complex)
    model = HamiltonianModel(
        n=5, evaluate_raw=lambda m: diag if m.t < 0.5 else W @ diag @ W.conj().T)
    field = AdiabaticConnectionField(model, PhasePoint(np.zeros(3), np.zeros(3), 0.0),
                                     axes=(6,))
    changed = regauge(field, lambda v: np.full(5, 0.3 * v[0]))
    assert hasattr(changed, "validate_path")
    jump = np.array([[0.0], [1.0]])
    for f in (field, changed):
        with pytest.raises(BandTrackingError):
            phase_line_integral(f, jump, band=0)
    # a continuous path still integrates, shifted by the phase gradient
    flat = np.array([[0.0], [0.4]])
    assert phase_line_integral(changed, flat, band=0).value == pytest.approx(
        phase_line_integral(field, flat, band=0).value - 0.3 * 0.4, abs=1e-9)


def test_regauge_rejects_exact_connections():
    model = poly_model()
    with pytest.raises(ValueError):
        regauge(exact_connection(model, M0), lambda v: np.zeros(2))
    with pytest.raises(TypeError):
        regauge(3.0, lambda v: np.zeros(2))


def test_abelian_curvature_multiband_shape_and_opposition():
    scn = ZeemanScenario.hedgehog()
    base = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    field = AdiabaticConnectionField(scn.model(), base, axes=(3, 4, 5))
    F = curvature_of_abelian_field(field, np.array([0.2, -0.4, 0.8]), step=1e-4)
    assert F.shape == (2, 3, 3)
    assert np.allclose(F[0], -F[1], atol=1e-5)


def test_holonomy_loop_phase_survives_the_convention_cut():
    scn = ZeemanScenario.hedgehog()
    base = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    field = AdiabaticConnectionField(scn.model(), base, axes=(3, 4, 5))
    # off the cut the overlap product and the line integral agree
    path = circle_path(np.pi / 3.0, 1441)
    line = phase_line_integral(field, path, band=1).value
    assert field.loop_phase(path, band=1) == pytest.approx(line, abs=1e-5)
    # on the equator the eigenvector components tie in magnitude, the fixed
    # single-point convention branch-flips between stencil points, and the
    # line integral diverges; the overlap product still returns the half
    # solid angle (phase -+pi, one point mod 2 pi)
    both = field.loop_phase(circle_path(np.pi / 2.0, 721))
    assert wrap_angle(both[0] - np.pi) == pytest.approx(0.0, abs=1e-9)
    assert wrap_angle(both[1] + np.pi) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        field.loop_phase(path[:-1])  # open path
    with pytest.raises(ValueError):
        field.loop_phase(path[:3])  # too short to enclose anything


# -- link-variable Chern charge ----------------------------------------------


def hedgehog_field(chi=1.0):
    base = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    return AdiabaticConnectionField(ZeemanScenario.hedgehog(chi=chi).model(), base,
                                    axes=(3, 4, 5))


@pytest.mark.parametrize("nodes, center", [
    ((4, 4), (0.0, 0.0, 0.0)), ((4, 4), (0.5, 0.0, 0.0)), ((4, 4), (0.99, 0.0, 0.0)),
    ((8, 16), (0.5, 0.0, 0.0)), ((8, 16), (0.9, 0.0, 0.0)),
    ((8, 16), (0.99, 0.0, 0.0)), ((8, 16), (0.0, 0.0, 0.99)),
    ((32, 64), (0.0, 0.0, 0.0))])
def test_link_charge_is_a_unit_for_both_bands(nodes, center):
    # matching every vertex to the first loses band 0 past the equator, and
    # matching to the predecessor swaps labels where neighbours are over 90
    # degrees apart ([4, 4], or a source 0.01 inside the sphere); energy
    # order at every vertex gives the charge -2S of each band
    field = hedgehog_field()
    for band, want in ((0, 1.0), (1, -1.0)):
        q = chern_charge(field, center=center, radius=1.0, nodes=nodes, band=band)
        assert q == pytest.approx(want, abs=1e-12)


def test_link_charge_of_an_empty_sphere_is_zero():
    field = hedgehog_field(chi=0.7)
    assert field.sphere_charge((0.0, 0.0, 1.01), 1.0, (8, 16), 0) == \
        pytest.approx(0.0, abs=1e-12)
    assert chern_charge(field, center=(0.0, 0.0, 3.0), radius=1.0, nodes=(8, 16),
                        band=1) == pytest.approx(0.0, abs=1e-12)


def test_link_charge_failures():
    field = hedgehog_field()
    # only the check sphere at 1.5 times the radius encloses the source
    with pytest.raises(QuadratureError):
        chern_charge(field, center=(1.2, 0.0, 0.0), radius=1.0, nodes=(8, 16), band=0)
    # the south pole of the mesh sits on the source
    with pytest.raises(DegeneracyError):
        chern_charge(field, center=(0.0, 0.0, 1.0), radius=1.0, nodes=(8, 16), band=0)
    # a source 0.01 inside the sphere near the centre of an equatorial face
    # puts 2.74 rad through that face, and energy order alone reads charge 0
    n = np.array([np.sin(7 * np.pi / 16) * np.cos(np.pi / 16),
                  np.sin(7 * np.pi / 16) * np.sin(np.pi / 16), np.cos(7 * np.pi / 16)])
    with pytest.raises(QuadratureError, match="largest face flux 2.740 rad"):
        field.sphere_charge(-0.99 * n, 1.0, (8, 16), 0)
    with pytest.raises(ValueError, match="band is required"):
        chern_charge(field, center=(0.0, 0.0, 0.0), radius=1.0, nodes=(8, 16))
    base = PhasePoint(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="^expected 2 coordinates$"):
        AdiabaticConnectionField(field.model, base, axes=(3, 4)).sphere_charge(
            (0.0, 0.0, 0.0), 1.0, (8, 16), 0)


@pytest.mark.parametrize("nodes, vertices", [((8, 16), 16), ((8, 16), 48),
                                             ((64, 128), 128), ((64, 128), 10**6)])
def test_link_charge_bits_do_not_depend_on_the_ring_bands(nodes, vertices, monkeypatch):
    # bands of one ring, of three rings and the whole mesh in one stack give
    # the charge of the default bands to the bit
    field = hedgehog_field(chi=0.8)
    center = (0.3, -0.1, 0.2)
    want = [field.sphere_charge(center, 0.9, nodes, band) for band in (0, 1)]
    monkeypatch.setattr(sgk.gauge, "STACK_ROWS", vertices)
    assert [field.sphere_charge(center, 0.9, nodes, band) for band in (0, 1)] == want


@pytest.mark.parametrize("bad", [[0.5], 0.5, [0.5, 0.1], [0.1, 0.2, 0.3, 0.4],
                                 [[0.1, 0.2, 0.3]]])
def test_slice_fields_reject_a_wrong_number_of_coordinates(bad):
    # a one-coordinate input used to be broadcast onto all three r axes
    model = ZeemanScenario.hedgehog().model()
    base = PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0)
    conn = AdiabaticConnectionField(model, base, axes=(3, 4, 5))
    for call in (conn.lift, conn):
        with pytest.raises(ValueError, match="^expected 3 coordinates$"):
            call(bad)
    with pytest.raises(ValueError, match="^expected 3 coordinates$"):
        conn.validate_path(np.full((4, 2), 0.5))
    # a right-sized point lifts onto the sliced axes only
    m = conn.lift([0.5, -0.25, 2.0])
    assert np.array_equal(m.as_vector(), [0.0, 0.0, 0.0, 0.5, -0.25, 2.0, 0.0])
    assert np.array_equal(conn.rows([[0.5, -0.25, 2.0]])[0], m.as_vector())
