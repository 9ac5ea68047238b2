"""The stacked frame kernel against a per-point reference pipeline.

The reference below diagonalizes one point at a time: scalar phase
convention, scalar frame checks and a greedy band match per point. Every
stacked stencil result must equal it bit for bit. Along a path, the
reference walks node by node, matching each frame to the one before it and
transporting its phase; the one-stack path must agree with that walk. The
Hamiltonians of a stack come from HamiltonianModel.evaluate_stack, whose
rows must equal H = h0 I + hbar sigma . H1 built point by point.
"""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgk import (PAULI, AdiabaticConnectionField, BandTrackingError,
                 CallableField, DegeneracyError, HamiltonianModel, NumericalError,
                 PhasePoint, PolyField, RashbaScenario, RotatingField, SpinOrbitScenario,
                 SplitForm, VectorField, ZeemanScenario, adiabatic_curvature_numeric,
                 band_gradients, exact_connection)
from sgk.models import DEGENERACY_RTOL
from sgk.spectral import (TRACKING_MIN_OVERLAP, aligned_frame, diagonalize, frame_stack,
                          smooth_frame_along)

from helpers import shifted

# -- per-point reference ----------------------------------------------------------


def ref_frame(model, m, ref_U=None):
    """(energies, U, gap) of one point, bands matched to ref_U if given."""
    H = model.evaluate(m)
    w, U = np.linalg.eigh(H)
    gap = float(np.min(np.diff(w)))
    scale = max(1.0, float(np.max(np.abs(H))))
    if gap < DEGENERACY_RTOL * scale:
        raise DegeneracyError(
            f"band gap {gap:.3e} below tolerance {DEGENERACY_RTOL * scale:.3e} at t={m.t}")
    U = U.copy()
    for c in range(U.shape[1]):
        a = U[int(np.argmax(np.abs(U[:, c]))), c]
        U[:, c] = U[:, c] * (np.conj(a) / abs(a))
    if ref_U is None:
        return w, U, gap
    n = U.shape[1]
    M = np.abs(ref_U.conj().T @ U)
    perm = np.full(n, -1)
    for flat in np.argsort(-M, axis=None):
        b, j = divmod(int(flat), n)
        if perm[b] == -1 and j not in perm:
            perm[b] = j
    low = min(M[b, perm[b]] for b in range(n))
    if low < TRACKING_MIN_OVERLAP:
        raise BandTrackingError(
            f"band identification lost: smallest matched overlap {low:.3f} < "
            f"{TRACKING_MIN_OVERLAP}")
    return w[perm], U[:, perm], gap


def ref_stack(model, points):
    """Per-point frames, each after the first matched to the first."""
    first = ref_frame(model, points[0])
    return [first] + [ref_frame(model, m, first[1]) for m in points[1:]]


def ref_walk(model, points):
    """Per-node frames, each matched to the frame before it, then phase-transported."""
    frames = [ref_frame(model, points[0])]
    for m in points[1:]:
        prev = frames[-1][1]
        w, U, gap = ref_frame(model, m, prev)
        ov = np.einsum("ib,ib->b", prev.conj(), U)
        frames.append((w, U * (np.conj(ov) / np.abs(ov))[None, :], gap))
    return frames


def ref_plaquette(model, m, h, richardson):
    _, Uc, _ = ref_frame(model, m)

    def angles(i, j, s):
        c1 = shifted(shifted(m, i, -0.5 * s), j, -0.5 * s)
        c2 = shifted(c1, i, +s)
        Us = [ref_frame(model, c, Uc)[1]
              for c in (c1, c2, shifted(c2, j, +s), shifted(c1, j, +s))]
        W = np.ones(model.n, dtype=complex)
        for a in range(4):
            W *= np.einsum("ib,ib->b", Us[a].conj(), Us[(a + 1) % 4])
        return np.angle(W)

    F = np.zeros((model.n, m.n_axes, m.n_axes))
    for i, j in zip(*np.triu_indices(m.n_axes, k=1)):
        val = -angles(i, j, h) / h**2
        if richardson:
            val = (4.0 * (-angles(i, j, 0.5 * h) / (0.5 * h) ** 2) - val) / 3.0
        F[:, i, j] = val
    return F - np.swapaxes(F, 1, 2)


def ref_connection(model, m, h):
    _, Uc, _ = ref_frame(model, m)
    comps = np.zeros((m.n_axes, model.n, model.n), dtype=complex)
    for k in range(m.n_axes):
        Up = ref_frame(model, shifted(m, k, +h), Uc)[1]
        Um = ref_frame(model, shifted(m, k, -h), Uc)[1]
        A = 1j * (Uc.conj().T @ (Up - Um)) / (2.0 * h)
        comps[k] = 0.5 * (A + A.conj().T)
    return comps


# -- models ------------------------------------------------------------------------


def split_model(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    G = rng.uniform(-1.0, 1.0, (3, 7))
    b0 = rng.uniform(-1.0, 1.0, 3)
    q = rng.uniform(0.2, 1.0)
    return HamiltonianModel.from_split(
        h0=lambda m: q * float(m.p @ m.p) + float(m.r[0]) * m.t,
        h1=lambda m: b0 + G @ m.as_vector())


def hermitian_model(seed, n=3, coupling=1.0):
    """Random linear Hermitian model; a weak coupling makes sharp avoided crossings."""
    rng = np.random.Generator(np.random.PCG64(seed))
    A = rng.normal(size=(8, n, n)) + 1j * rng.normal(size=(8, n, n))
    A = A + np.conj(np.swapaxes(A, 1, 2))
    A[:, ~np.eye(n, dtype=bool)] *= coupling
    return HamiltonianModel(
        n=n, evaluate_raw=lambda m: A[0] + np.einsum("k,kij->ij", m.as_vector(), A[1:]))


def spin_orbit_model():
    return SpinOrbitScenario(
        e_field=PolyField.random(21, offset=(0.9, 0.1, 0.4)),
        b_field=PolyField.random(22, offset=(0.2, 1.0, -0.3))).model()


def stencil(seed, spread):
    rng = np.random.Generator(np.random.PCG64(seed))
    base = PhasePoint(rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3),
                      rng.uniform(-0.5, 0.5))
    shifts = rng.uniform(-spread, spread, (6, 7))
    return [base] + [PhasePoint.from_vector(base.as_vector() + s, 3) for s in shifts]


def walk(seed, spread, count):
    """A random walk of count points with steps up to spread along every axis."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = rng.uniform(-0.5, 0.5, 7)
    steps = rng.uniform(-spread, spread, (count - 1, 7))
    vecs = base + np.concatenate([np.zeros((1, 7)), np.cumsum(steps, axis=0)])
    return [PhasePoint.from_vector(v, 3) for v in vecs]


def assert_same_bits(got, want):
    assert got.dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


# -- stacked == per point ------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.sampled_from(["split", "hermitian"]), st.floats(1e-4, 2.0))
@settings(max_examples=60, deadline=None)
def test_stack_equals_per_point_bit_for_bit(model_seed, point_seed, kind, spread):
    model = split_model(model_seed) if kind == "split" else hermitian_model(model_seed)
    points = stencil(point_seed, spread)
    try:
        want = ref_stack(model, points)
    except (DegeneracyError, BandTrackingError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            frame_stack(model, points)
        return
    w, U, gap = frame_stack(model, points)
    for i, (w_i, U_i, gap_i) in enumerate(want):
        assert_same_bits(w[i], w_i)
        assert_same_bits(U[i], U_i)
        assert gap[i] == gap_i
    # the one-point entries are the same kernel
    first = diagonalize(model, points[0])
    assert_same_bits(first.U, U[0])
    assert first.gap == gap[0]
    for i, m in enumerate(points[1:], start=1):
        fr = aligned_frame(model, m, first)
        assert_same_bits(fr.energies, w[i])
        assert_same_bits(fr.U, U[i])


@pytest.mark.parametrize("model", [spin_orbit_model(), hermitian_model(7)],
                         ids=["spin_orbit", "hermitian3"])
@pytest.mark.parametrize("richardson", [True, False])
def test_plaquette_equals_per_point_loop(model, richardson):
    m = PhasePoint((0.2, -0.1, 0.3), (0.1, 0.05, -0.2), 0.1)
    h = 1e-3
    got = adiabatic_curvature_numeric(model, m, step=h, richardson=richardson)
    assert_same_bits(got.F, ref_plaquette(model, m, h, richardson))


@pytest.mark.parametrize("model", [spin_orbit_model(), hermitian_model(7)],
                         ids=["spin_orbit", "hermitian3"])
def test_connection_and_gradients_equal_per_point_loop(model):
    m = PhasePoint((0.2, -0.1, 0.3), (0.1, 0.05, -0.2), 0.1)
    h = 1e-4
    assert_same_bits(exact_connection(model, m, step=h).components,
                     ref_connection(model, m, h))
    if model.split is None:
        E, g = band_gradients(model, 1, m, step=h)
        center = ref_stack(model, [m])[0]
        want = np.array([(ref_frame(model, shifted(m, k, h), center[1])[0][1]
                          - ref_frame(model, shifted(m, k, -h), center[1])[0][1])
                         / (2.0 * h) for k in range(7)])
        assert E == center[0][1]
        assert_same_bits(g, want)


# -- band matching and errors -----------------------------------------------------------


def at(t):
    return PhasePoint(np.zeros(3), np.zeros(3), t)


def test_flipped_eigen_order_follows_the_reference():
    # H = diag(t, -t): the ascending eigenvectors swap columns through t = 0
    model = HamiltonianModel(
        n=2, evaluate_raw=lambda m: np.diag([m.t, -m.t]).astype(complex))
    w, U, _ = frame_stack(model, [at(0.1), at(-0.1), at(-0.2)])
    assert np.array_equal(w, [[-0.1, 0.1], [0.1, -0.1], [0.2, -0.2]])
    own = diagonalize(model, at(-0.1))
    assert_same_bits(U[1], own.U[:, ::-1])
    assert np.allclose(np.abs(np.einsum("ib,ib->b", U[0].conj(), U[2])), 1.0)
    # an explicit reference is followed the same way
    w_ref, _, _ = frame_stack(model, [at(-0.1)], reference=U[0])
    assert np.array_equal(w_ref[0], [0.1, -0.1])


def dft_model():
    """Five bands; t in [0.5, 1.5) rotates the frame so every overlap is 1/sqrt(5)."""
    k = np.arange(5)
    W = np.exp(2j * np.pi * np.outer(k, k) / 5.0) / np.sqrt(5.0)
    diag = np.diag(np.arange(1.0, 6.0)).astype(complex)

    def ham(m):
        if m.t < 0.5:
            return diag
        if m.t < 1.5:
            return W @ diag @ W.conj().T
        return np.eye(5, dtype=complex)  # degenerate

    return HamiltonianModel(n=5, evaluate_raw=ham)


def test_low_overlap_raises_band_tracking_error():
    model = dft_model()
    with pytest.raises(BandTrackingError, match="overlap 0.447 < 0.5"):
        frame_stack(model, [at(0.0), at(0.2), at(1.0)])
    with pytest.raises(BandTrackingError):
        aligned_frame(model, at(1.0), diagonalize(model, at(0.0)))


def test_first_failing_point_in_stack_order_raises():
    model = dft_model()
    with pytest.raises(DegeneracyError, match="at t=2.0$"):
        frame_stack(model, [at(0.0), at(0.2), at(2.0), at(3.0)])
    with pytest.raises(DegeneracyError, match="at t=3.0$"):
        frame_stack(model, [at(0.0), at(3.0), at(2.0)])
    with pytest.raises(BandTrackingError):
        frame_stack(model, [at(0.0), at(1.0), at(2.0)])
    with pytest.raises(DegeneracyError, match="at t=2.0$"):
        frame_stack(model, [at(0.0), at(2.0), at(1.0)])


# -- paths: one stack against the per-node walk ------------------------------------


def assert_path_matches_walk(model, path):
    try:
        want = ref_walk(model, path)
    except (DegeneracyError, BandTrackingError) as exc:
        field = AdiabaticConnectionField(model, path[0])
        for run in (lambda: smooth_frame_along(model, path),
                    lambda: field.validate_path([m.as_vector() for m in path])):
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                run()
        return False
    frames = smooth_frame_along(model, path)
    assert len(frames) == len(want)
    for fr, (w, U, gap) in zip(frames, want):
        assert np.array_equal(np.argsort(fr.energies), np.argsort(w))  # same bands
        assert_same_bits(fr.energies, w)
        assert fr.gap == gap
        assert np.abs(fr.U - U).max() < 1e-12
    return True


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.sampled_from(["split", "hermitian", "weak"]), st.floats(1e-4, 1.0),
       st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_path_stack_equals_per_node_walk(model_seed, point_seed, kind, spread, count):
    # finite models only: the stack evaluates every node before any check,
    # so a model that raises at a late node would preempt an earlier failure
    model = (split_model(model_seed) if kind == "split" else
             hermitian_model(model_seed, coupling=0.05 if kind == "weak" else 1.0))
    assert_path_matches_walk(model, walk(point_seed, spread, count))


@pytest.mark.parametrize("ts, error", [
    ((0.0, 0.2, 1.0), BandTrackingError),
    ((0.0, 1.0, 2.0), BandTrackingError),
    ((0.0, 0.2, 2.0, 3.0), DegeneracyError),
    ((0.0, 2.0, 1.0), DegeneracyError),
    ((0.6, 1.0, 1.4), None),  # rotated throughout: successive overlaps are 1
])
def test_path_errors_equal_per_node_walk(ts, error):
    path = [at(t) for t in ts]
    assert assert_path_matches_walk(dft_model(), path) == (error is None)
    if error is not None:
        with pytest.raises(error):
            ref_walk(dft_model(), path)


def test_one_eigensolve_per_path(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda H: shapes.append(H.shape) or eigh(H))
    model = ZeemanScenario.hedgehog().model()
    field = AdiabaticConnectionField(model, PhasePoint(np.zeros(3), (0.0, 0.0, 1.0), 0.0),
                                     axes=(3, 4, 5))
    phis = np.linspace(0.0, 2.0 * np.pi, 97)
    # the equator: each node's overlap with the first falls to 0 a quarter
    # of the way round, so only node-to-node matching can follow the bands
    loop = np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=1)
    smooth_frame_along(model, [field.lift(v) for v in loop])
    field.validate_path(loop)
    phases = field.loop_phase(loop)
    assert shapes == [(97, 2, 2), (97, 2, 2), (96, 2, 2)]
    assert np.allclose(np.abs(phases), np.pi, atol=1e-3)


# -- Hamiltonian stacks: arrays against per-point matrices ---------------------------


E_Z = np.array([0.0, 0.0, 1.0])


def same_bytes(got, want):
    """Bit-for-bit equality, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def builtin_field(kind, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    offset = rng.uniform(-1.0, 1.0, 3)
    if kind == "uniform":
        return PolyField(offset)
    if kind == "linear":
        return PolyField(f0=offset, G=rng.uniform(-1.0, 1.0, (3, 3)),
                         gt=rng.uniform(-1.0, 1.0, 3))
    if kind == "poly":
        return PolyField.random(seed, offset=offset)
    return RotatingField(magnitude=rng.uniform(0.5, 2.0), polar_angle=rng.uniform(0.0, np.pi),
                         omega=rng.uniform(-3.0, 3.0), phi0=rng.uniform(-np.pi, np.pi))


def scenario_model(kind, field_kind, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    consts = dict(chi=rng.uniform(0.5, 1.5), m_star=rng.uniform(0.5, 2.0),
                  hbar=rng.uniform(0.5, 1.5))
    if kind == "rashba":
        return RashbaScenario(b_z=rng.uniform(-1.0, 1.0), rho=rng.uniform(0.2, 1.0),
                              **consts).model(), 2
    if kind == "spin_orbit":
        return SpinOrbitScenario(e_field=builtin_field(field_kind, seed + 1),
                                 b_field=builtin_field(field_kind, seed + 2),
                                 rho=rng.uniform(0.2, 1.0), **consts).model(), 3
    d = 2 if kind == "zeeman2" else 3
    return ZeemanScenario(builtin_field(field_kind, seed + 1), d=d, **consts).model(), d


def per_point_matrix(model, v, d):
    """h0 I + hbar sigma . H1 at one point, symmetrized as evaluate symmetrizes."""
    m = PhasePoint.from_vector(v, d)
    H = (float(model.split.h0(m)) * np.eye(2, dtype=complex)
         + np.einsum("k,kij->ij", model.constants.hbar * model.split.h1_vector(m), PAULI))
    return 0.5 * (H + H.conj().T)


@given(st.sampled_from(["zeeman2", "zeeman3", "spin_orbit", "rashba"]),
       st.sampled_from(["uniform", "linear", "poly", "rotating"]),
       st.integers(0, 2**32 - 1), st.integers(1, 30), st.booleans())
@settings(max_examples=150, deadline=None)
def test_evaluate_stack_equals_per_point_matrices(kind, field_kind, seed, count, zeros):
    model, d = scenario_model(kind, field_kind, seed)
    assert model.split.stack is not None
    rng = np.random.Generator(np.random.PCG64(seed + 3))
    X = rng.uniform(-1.5, 1.5, (count, 2 * d + 1))
    if zeros:  # exact zeros in H1 components exercise the signs of zero entries
        X[:, rng.integers(2 * d + 1)] = 0.0
        X[::2, rng.integers(2 * d + 1)] = -0.0
    H = model.evaluate_stack(X)
    for i, v in enumerate(X):
        assert same_bytes(H[i], per_point_matrix(model, v, d))
        assert same_bytes(model.evaluate(PhasePoint.from_vector(v, d)), H[i])
    # a row does not depend on the size or the order of its stack
    perm = rng.permutation(count)
    assert same_bytes(model.evaluate_stack(X[perm]), H[perm])
    assert same_bytes(model.evaluate_stack(X[count // 2:]), H[count // 2:])


def old_value(f, r, t):
    """The one-point value formulas each built-in field had before it broadcast;
    a PolyField adds only its present terms, in order, to a copy of f0."""
    r3 = np.array([r[0], r[1], 0.0]) if len(r) == 2 else np.asarray(r, dtype=float)
    if isinstance(f, PolyField):
        terms = [(f.G, lambda: f.G @ r3), (f.gt, lambda: f.gt * t),
                 (f.Q, lambda: 0.5 * np.einsum("ijk,j,k->i", f.Q, r3, r3)),
                 (f.C, lambda: (f.C @ r3) * t), (f.qtt, lambda: 0.5 * f.qtt * t * t)]
        out = f.f0.copy()
        for coefficient, term in terms:
            if coefficient is not None:
                out = out + term()
        return out
    ph = f.omega * t + f.phi0
    st_, ct = np.sin(f.polar_angle), np.cos(f.polar_angle)
    return f.magnitude * np.array([st_ * np.cos(ph), st_ * np.sin(ph), ct])


@given(st.sampled_from(["uniform", "linear", "poly", "rotating"]),
       st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=100, deadline=None)
def test_one_point_field_values_keep_their_bits(field_kind, seed, d):
    f = builtin_field(field_kind, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 5))
    R, T = rng.uniform(-2.0, 2.0, (9, d)), rng.uniform(-2.0, 2.0, 9)
    rows = f.value(R, T)
    for r, t, row in zip(R, T, rows):
        one = f.value(r, float(t))
        assert same_bytes(one, old_value(f, r, float(t)))
        assert same_bytes(row, one)


def raise_at(t):
    raise ArithmeticError(f"evaluate_raw raised at t = {t}")


FAULTS = {
    1: (lambda t: np.array([[np.nan, 0.0], [0.0, 1.0]]),
        NumericalError, "model matrix is not finite: largest |entry| is nan"),
    2: (lambda t: np.array([[0.0, 1.0], [0.5, 0.0]]),
        NumericalError, "model matrix is not Hermitian: defect 5.000e-01 at scale 1.000e+00"),
    3: (lambda t: np.zeros((3, 3)),
        NumericalError, "model returned shape (3, 3), expected (2, 2)"),
    4: (raise_at, ArithmeticError, "evaluate_raw raised at t = 4.0"),
}


def faulty_model(calls):
    """Rows with t = 1, 2, 3 fail one check each and evaluate_raw raises at
    t = 4; t = 0 is fine."""
    def ham(m):
        calls.append(m.t)
        if m.t in FAULTS:
            return FAULTS[m.t][0](m.t)
        return np.diag([m.t - 1.0, m.t + 1.0]).astype(complex)

    return HamiltonianModel(n=2, evaluate_raw=ham)


@pytest.mark.parametrize("faults", list(itertools.permutations((1, 2, 3, 4))))
def test_evaluate_stack_raises_at_first_failing_row(faults):
    # the assembled stack is checked once, so rows are evaluated up to the
    # first one that has a wrong shape or raises, and the rows before it are
    # checked before its own error is raised
    ts = (0.0, 0.5) + faults + (0.0,)
    X = np.array([[0.0] * 6 + [t] for t in ts])
    calls = []
    _, error, message = FAULTS[faults[0]]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        faulty_model(calls).evaluate_stack(X)
    assert calls == list(ts[:2 + min(faults.index(3), faults.index(4)) + 1])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        frame_stack(faulty_model([]), [PhasePoint.from_vector(v, 3) for v in X])


def faulty_stack_model():
    """A split stack form whose rows with t = 1 (NaN) and t = 2 (non-Hermitian) fail."""
    def stack(X):
        h1 = np.zeros((len(X), 3), dtype=complex)
        h1[:, 2] = 1.0
        h1[X[:, -1] == 1.0, 0] = np.nan
        h1[X[:, -1] == 2.0, 0] = 0.5j  # a complex coupling makes H non-Hermitian
        return np.zeros(len(X)), h1

    split = SplitForm(h0=lambda m: 0.0, h1=lambda m: E_Z, stack=stack)
    return HamiltonianModel(n=2, evaluate_raw=None, split=split)


@pytest.mark.parametrize("faults", [(1, 2), (2, 1)])
def test_stack_forms_raise_at_first_failing_row(faults):
    # one check over the whole stack must still report rows in order, each
    # row's finiteness before its Hermiticity
    X = np.array([[0.0] * 6 + [t] for t in (0.0, 0.5) + faults])
    messages = {1: "model matrix is not finite: largest |entry| is nan",
                2: "model matrix is not Hermitian: defect 1.000e+00 at scale 1.000e+00"}
    with pytest.raises(NumericalError, match=f"^{re.escape(messages[faults[0]])}$"):
        faulty_stack_model().evaluate_stack(X)
    # a split form without a stack form builds its rows from h0 and h1
    nan_row = HamiltonianModel.from_split(
        lambda m: 0.0, lambda m: np.array([np.nan if m.t == 1.0 else 0.0, 0.0, 1.0]))
    with pytest.raises(NumericalError, match=f"^{re.escape(messages[1])}$"):
        nan_row.evaluate_stack(X)


def test_evaluate_stack_checks_stack_forms_row_by_row():
    model = ZeemanScenario(PolyField(f0=np.zeros(3), G=1e300 * np.eye(3))).model()
    assert model.split.stack is not None
    X = np.zeros((3, 7))
    X[:, 3] = (1.0, 1e10, 1.0)  # the middle row's H1 overflows, and inf * 0 is NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match=r"^model matrix is not finite: largest \|entry\| is nan$"):
        model.evaluate_stack(X)
    X[1, 3] = np.inf
    with pytest.raises(ValueError, match="^phase-space coordinates must be finite$"):
        model.evaluate_stack(X)


def counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return fn(*args, **kwargs)
    return wrapper


class ValueOnly(VectorField):
    """A field that defines value alone, one point at a time."""

    def value(self, r, t):
        return np.array([0.3, -0.2, 0.9]) + 0.5 * np.asarray(r, dtype=float)[:3] * t


class ShiftedLinear(PolyField):
    """A built-in family whose value is overridden: no longer a broadcasting one."""

    def value(self, r, t):
        return PolyField.value(self, r, t) + 0.1


def test_stack_forms_skip_the_per_row_loop(monkeypatch):
    values = []
    monkeypatch.setattr(PolyField, "value",
                        counted(values, lambda f, r, t: id(f), PolyField.value))
    e, b = builtin_field("linear", 1), builtin_field("linear", 2)
    model = SpinOrbitScenario(e_field=e, b_field=b).model()
    raws = []
    model = dataclasses.replace(
        model, evaluate_raw=counted(raws, lambda m: m.t, model.evaluate_raw))
    points = stencil(4, 0.3)
    want = np.stack([model.evaluate_raw(m) for m in points])
    raws.clear()
    values.clear()
    frame_stack(model, points)
    adiabatic_curvature_numeric(model, points[0], step=1e-3)
    assert raws == []
    assert sorted(values) == sorted([id(e), id(b)] * 2)  # once per field per stack
    X = np.array([m.as_vector() for m in points])
    assert same_bytes(model.evaluate_stack(X), 0.5 * (want + np.conj(np.swapaxes(want, 1, 2))))


@pytest.mark.parametrize("field", [
    CallableField(lambda r, t: np.array([0.4 + r[0], r[1] * t, 1.0])),
    ValueOnly(),
    ShiftedLinear(f0=(0.2, 0.5, 1.0), G=np.eye(3)),
    None,
], ids=["callable_field", "value_only_subclass", "overridden_value", "evaluate_raw"])
def test_models_without_stack_forms_loop_over_rows(field, monkeypatch):
    # a generic model calls evaluate_raw once per row; a scenario whose field
    # is not built in takes its stack form, which calls the field once per
    # row, and carries no exact derivatives
    values = []
    if field is None:
        model = hermitian_model(11)
    else:
        monkeypatch.setattr(type(field), "value", counted(
            values, lambda f, r, t: (np.shape(r), t), type(field).value))
        model = ZeemanScenario(field).model()
        assert model.split.jacobian_rows is None and model.split.stack is not None
    raws = []
    looped = dataclasses.replace(
        model, evaluate_raw=counted(raws, lambda m: m.t, model.evaluate_raw))
    points = stencil(9, 0.2)
    X = np.array([m.as_vector() for m in points])
    H = looped.evaluate_stack(X)
    if field is None:
        assert raws == list(X[:, -1])
    else:
        assert raws == [] and values == [((3,), t) for t in X[:, -1]]
    for row, m in zip(H, points):
        A = np.asarray(model.evaluate_raw(m), dtype=complex)
        assert same_bytes(row, 0.5 * (A + A.conj().T))
        if model.split is not None:
            assert same_bytes(row, per_point_matrix(model, m.as_vector(), 3))
    for (w_i, U_i, gap_i), w, U, gap in zip(ref_stack(model, points), *frame_stack(model, points)):
        assert_same_bits(w, w_i)
        assert_same_bits(U, U_i)
        assert gap == gap_i
