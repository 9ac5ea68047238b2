"""The stacked frame kernel against a per-point reference pipeline.

The reference below diagonalizes one point at a time: scalar phase
convention, scalar frame checks and a greedy band match per point. Every
stacked stencil result must equal it bit for bit. Along a path, the
reference walks node by node, matching each frame to the one before it and
transporting its phase; the one-stack path must agree with that walk.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgk import (AdiabaticConnectionField, BandTrackingError, DegeneracyError,
                 HamiltonianModel, PhasePoint, PolyField, SpinOrbitScenario,
                 ZeemanScenario, adiabatic_curvature_numeric, band_gradients,
                 exact_connection)
from sgk.spectral import (DEGENERACY_RTOL, TRACKING_MIN_OVERLAP, aligned_frame,
                          diagonalize, frame_stack, smooth_frame_along)

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


def ref_plaquette(model, m, h, pairs, richardson):
    _, Uc, _ = ref_frame(model, m)

    def angles(i, j, s):
        c1 = m.shifted(i, -0.5 * s).shifted(j, -0.5 * s)
        c2 = c1.shifted(i, +s)
        Us = [ref_frame(model, c, Uc)[1]
              for c in (c1, c2, c2.shifted(j, +s), c1.shifted(j, +s))]
        W = np.ones(model.n, dtype=complex)
        for a in range(4):
            W *= np.einsum("ib,ib->b", Us[a].conj(), Us[(a + 1) % 4])
        return np.angle(W)

    F = np.zeros((model.n, m.n_axes, m.n_axes))
    for (i, j) in pairs:
        val = -angles(i, j, h) / h**2
        if richardson:
            val = (4.0 * (-angles(i, j, 0.5 * h) / (0.5 * h) ** 2) - val) / 3.0
        F[:, i, j] = val
    return F - np.swapaxes(F, 1, 2)


def ref_connection(model, m, h):
    _, Uc, _ = ref_frame(model, m)
    comps = np.zeros((m.n_axes, model.n, model.n), dtype=complex)
    for k in range(m.n_axes):
        Up = ref_frame(model, m.shifted(k, +h), Uc)[1]
        Um = ref_frame(model, m.shifted(k, -h), Uc)[1]
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
    all_pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    for pairs in (all_pairs, [(3, 4), (1, 6)]):
        got = adiabatic_curvature_numeric(model, m, step=h, richardson=richardson,
                                          pairs=pairs)
        assert_same_bits(got.F, ref_plaquette(model, m, h, pairs, richardson))


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
        want = np.array([(ref_frame(model, m.shifted(k, h), center[1])[0][1]
                          - ref_frame(model, m.shifted(k, -h), center[1])[0][1])
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
