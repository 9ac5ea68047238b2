"""Berry connections and curvatures over extended phase space.

Two layers live here. The model layer differentiates eigenframes of a
HamiltonianModel: the exact (non-Abelian) connection i U+ dU, its diagonal
adiabatic part, the gauge-invariant plaquette curvature, the link-variable
Chern charge, and the closed-form curvature of split-form models built from
the coupling field H1 and its derivatives. The array layer is model-free
geometry on plain coordinate vectors: monopole fields, line integrals,
flux quadrature (Chern charge), field-equation residual diagnostics and
gauge transformations.

Conventions: curvature components are F_ij = d_i A_j - d_j A_i (minus the
commutator term in the non-Abelian case); a 3x3 antisymmetric block maps to
the pseudovector f_k = (1/2) eps_kij F_ij, so F_ij = eps_ijk f_k. For a
two-band split-form model the band with spin charge S carries the monopole
curvature F(H1) = -S H1/|H1|^3 in coupling space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, QuadratureError, SingularityError, bisect_failures
from .models import (_CHARGES, HamiltonianModel, _split_differences, monopole_pseudovector,
                     monopole_rows)
from .phase_space import (PhasePoint, _axis_stencil, _check_step, _cross_matrices, _strict_upper,
                          antisymmetric, central_difference, default_step, row_norm, row_pow)
from .spectral import _stack

# Exact connection components must be Hermitian to this tolerance.
CONNECTION_HERMITICITY_ATOL = 1e-10
FACE_FLUX_MAX = 0.75 * math.pi  # largest |Berry flux| through one sphere mesh face
# chern_charge also counts the charge on a sphere this many times larger, and
# raises when the two differ beyond CHARGE_CHECK_RTOL (relative, at least 1)
CHARGE_CHECK_FACTOR = 1.5
CHARGE_CHECK_RTOL = 1e-6
STACK_ROWS = 8192  # mesh vertices or stencil rows solved per stack, which bounds memory


def pseudo_to_tensor(f: np.ndarray) -> np.ndarray:
    """F_ij = eps_ijk f_k for a 3-component pseudovector."""
    return _cross_matrices(np.asarray(f, dtype=float)[None])[0]


def tensor_to_pseudo(F: np.ndarray) -> np.ndarray:
    """f_k = (1/2) eps_kij F_ij for a 3x3 antisymmetric tensor."""
    F = np.asarray(F, dtype=float)
    return 0.5 * np.array([F[1, 2] - F[2, 1], F[2, 0] - F[0, 2], F[0, 1] - F[1, 0]])


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    w = float(np.remainder(x + np.pi, 2.0 * np.pi) - np.pi)
    return np.pi if w == -np.pi else w


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Connection:
    """Berry connection components along the flat phase-space axes.

    kind 'exact': components has shape (D, n, n), each slice Hermitian;
    kind 'adiabatic': shape (D, n), the real diagonal per band. Both live in
    the deterministic largest-component gauge of the spectral layer.
    """

    labels: tuple
    kind: str
    components: np.ndarray
    point: Optional[PhasePoint] = None

    def __post_init__(self):
        comps = np.asarray(self.components)
        if self.kind == "exact":
            if comps.ndim != 3 or comps.shape[1] != comps.shape[2]:
                raise ValueError("exact connection needs (D, n, n) components")
            defect = np.max(np.abs(comps - np.conj(np.swapaxes(comps, 1, 2))))
            if defect > CONNECTION_HERMITICITY_ATOL:
                raise NumericalError(
                    f"exact connection not Hermitian: defect {defect:.3e}")
        elif self.kind == "adiabatic":
            if comps.ndim != 2:
                raise ValueError("adiabatic connection needs (D, n) components")
            if np.iscomplexobj(comps):
                if np.max(np.abs(comps.imag)) > CONNECTION_HERMITICITY_ATOL:
                    raise NumericalError("adiabatic connection must be real")
                object.__setattr__(self, "components", comps.real.copy())
        else:
            raise ValueError(f"unknown connection kind {self.kind!r}")
        if len(self.labels) != comps.shape[0]:
            raise ValueError("one label per axis required")

    @property
    def n_axes(self) -> int:
        return self.components.shape[0]

    @property
    def n_bands(self) -> int:
        return self.components.shape[1]

    def diagonal(self) -> "Connection":
        """Adiabatic (per-band diagonal) part of an exact connection."""
        if self.kind != "exact":
            return self
        diag = np.einsum("kbb->kb", self.components).real
        return Connection(labels=self.labels, kind="adiabatic",
                          components=diag, point=self.point)

    def dot(self, mdot: np.ndarray) -> np.ndarray:
        """Per-band contraction sum_k A_k mdot_k (adiabatic only)."""
        if self.kind != "adiabatic":
            raise ValueError("dot is defined for adiabatic connections")
        return np.asarray(mdot, dtype=float) @ self.components


@dataclass(frozen=True)
class CurvatureTensor:
    """Per-band antisymmetric curvature over the flat axes (p..., r..., t).

    F has shape (n_bands, D, D) and is exactly antisymmetric: it is stored
    via its upper triangle and mirrored. Block views slice the momentum,
    position and time axes.
    """

    d: int
    labels: tuple
    F: np.ndarray
    point: Optional[PhasePoint] = None

    def __post_init__(self):
        object.__setattr__(self, "F", antisymmetric(np.asarray(self.F, dtype=float)))

    @property
    def n_bands(self) -> int:
        return self.F.shape[0]

    def band(self, b: int) -> np.ndarray:
        return self.F[b]

    def block(self, rows: str, cols: str, band: int = None) -> np.ndarray:
        """Named block: rows/cols in {'p','r','t'}; full band stack if band None."""
        sl = {"p": slice(0, self.d), "r": slice(self.d, 2 * self.d),
              "t": slice(2 * self.d, 2 * self.d + 1)}
        out = self.F[:, sl[rows], sl[cols]]
        if rows == "t" or cols == "t":
            out = out[:, 0, :] if rows == "t" else out[:, :, 0]
        return out if band is None else out[band]

    def f_pp(self, band=None):
        return self.block("p", "p", band)

    def f_rr(self, band=None):
        return self.block("r", "r", band)

    def f_pr(self, band=None):
        return self.block("p", "r", band)

    def f_pt(self, band=None):
        return self.block("p", "t", band)

    def f_rt(self, band=None):
        return self.block("r", "t", band)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.F)))


@dataclass(frozen=True)
class NonAbelianCurvature:
    """Matrix-valued curvature components F_ij for the exact connection."""

    labels: tuple
    matrices: np.ndarray  # (D, D, n, n), antisymmetric in the first two axes
    point: Optional[PhasePoint] = None

    def pair(self, i: int, j: int) -> np.ndarray:
        return self.matrices[i, j]

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.matrices)))


@dataclass(frozen=True)
class PhaseIntegral:
    """Raw accumulated line-integral value and its (-pi, pi] reduction."""

    value: float
    wrapped: float


@dataclass(frozen=True)
class MaxwellResiduals:
    """Central-difference residuals of the source-free field identities.

    divergence[p, i] = sum_j dF_ij/dx_j at point p; cyclic[p, q] is the
    cyclic sum d_k F_ij + d_i F_jk + d_j F_ki for the q-th axis triple.
    Indices are flat Euclidean (no metric weights on the m axes).
    """

    divergence: np.ndarray
    cyclic: np.ndarray
    triples: tuple

    @property
    def max_divergence(self) -> float:
        return float(np.max(np.abs(self.divergence))) if self.divergence.size else 0.0

    @property
    def max_cyclic(self) -> float:
        return float(np.max(np.abs(self.cyclic))) if self.cyclic.size else 0.0


# ---------------------------------------------------------------------------
# Model layer


def exact_connection(model: HamiltonianModel, m: PhasePoint,
                     step: float = None, axes: Sequence[int] = None) -> Connection:
    """Exact non-Abelian Berry connection A_k = i U+ dU/dm_k at m.

    Central differences; the stencil frames keep the deterministic
    largest-component gauge (band-matched to the center frame), so the
    result is the connection of that single-valued gauge. Components are
    Hermitized, removing the O(step^2) finite-difference defect. axes
    restricts the stencil to a subset of flat axes (the rest stay zero),
    for callers that only integrate along a slice.
    """
    h = _check_step(step if step is not None else default_step(m))
    ks = list(range(m.n_axes) if axes is None else axes)
    _, U, _ = _stack(model, _axis_stencil(m.as_vector(), h, ks))
    A = 1j * (U[0].conj().T @ (U[1::2] - U[2::2])) / (2.0 * h)
    comps = np.zeros((m.n_axes, model.n, model.n), dtype=complex)
    comps[ks] = 0.5 * (A + np.conj(np.swapaxes(A, 1, 2)))
    return Connection(labels=m.labels, kind="exact", components=comps, point=m)


def adiabatic_connection(model: HamiltonianModel, m: PhasePoint,
                         step: float = None, axes: Sequence[int] = None) -> Connection:
    """Diagonal (per-band) part of the exact connection at m."""
    return exact_connection(model, m, step=step, axes=axes).diagonal()


def exact_connection_field(model: HamiltonianModel, step: float = None):
    """Callable PhasePoint -> exact Connection, for curvature stencils."""
    return lambda m: exact_connection(model, m, step=step)


def nonabelian_curvature(connection_field, m: PhasePoint, step: float = None,
                         include_commutator: bool = True) -> NonAbelianCurvature:
    """Matrix curvature F_ij = d_i A_j - d_j A_i - i[A_i, A_j] at m.

    connection_field maps a PhasePoint to an exact Connection; use
    exact_connection_field(model) for the pure-gauge case, where the result
    must vanish to discretization accuracy. include_commutator=False drops
    the commutator term (useful to show a synthetic non-Abelian connection
    is detected as curved).
    """
    h = _check_step(step if step is not None else default_step(m))
    c0 = connection_field(m)
    if c0.kind != "exact":
        raise ValueError("nonabelian_curvature needs an exact connection field")
    D, n = c0.n_axes, c0.n_bands
    # dA[i, j] = d_i A_j
    dA = central_difference(
        lambda v: connection_field(PhasePoint.from_vector(v, m.d)).components,
        m.as_vector(), h)
    mats = np.zeros((D, D, n, n), dtype=complex)
    A = c0.components
    for i in range(D):
        for j in range(i + 1, D):
            F = dA[i, j] - dA[j, i]
            if include_commutator:
                F = F - 1j * (A[i] @ A[j] - A[j] @ A[i])
            mats[i, j] = F
            mats[j, i] = -F
    return NonAbelianCurvature(labels=c0.labels, matrices=mats, point=m)


def adiabatic_curvature_numeric(model: HamiltonianModel, m: PhasePoint, step: float = None,
                                richardson: bool = True) -> CurvatureTensor:
    """Gauge-invariant plaquette curvature of each band at m.

    For each axis pair, the Berry flux through a small square loop of
    eigenvector overlaps gives F_ij = -arg(W)/h^2; overlap products make the
    result immune to the phase convention at every corner. Richardson
    combines the h and h/2 plaquettes to fourth order (default on; needed
    near small gaps where the curvature varies on the gap scale). The
    one-row case of plaquette_rows.
    """
    F = plaquette_rows(model, m.as_vector()[None], step=step, richardson=richardson)[0]
    return CurvatureTensor(d=m.d, labels=m.labels, F=F, point=m)


def plaquette_rows(model: HamiltonianModel, X: np.ndarray, step: float = None,
                   richardson: bool = True) -> np.ndarray:
    """Plaquette curvature F (N, n, D, D) of each band at the rows of X (N, D).

    Every row's centre and the corners of its plaquettes, each corner
    matched to its own centre, are one frame stack with the other rows'
    (up to STACK_ROWS stack rows). Row by row the bits and errors are those
    of adiabatic_curvature_numeric: the first failing row raises its own
    first failing check.
    """
    X = np.asarray(X, dtype=float)
    D = X.shape[1]
    corners = D * (D - 1) // 2 * (2 if richardson else 1) * 4
    return _in_chunks(lambda V: _plaquettes(model, V, step, richardson), X, 1 + corners)


def _plaquettes(model, V, step, richardson) -> np.ndarray:
    N, D = V.shape
    n = model.n
    h = np.array([_check_step(step if step is not None else default_step(v)) for v in V])
    sides = np.stack([h, 0.5 * h], axis=1) if richardson else h[:, None]  # (row, side)
    ij = np.argwhere(_strict_upper(D))
    Q, S = len(ij), sides.shape[1]
    # corners c1 = m - s/2 (e_i + e_j), c2 = c1 + s e_i, c3 = c2 + s e_j and
    # c4 = c1 + s e_j, rounded as successive single-axis shifts would round
    lo = V[:, ij][..., None] + (-0.5 * sides)[:, None, None, :]  # (row, pair, i or j, side)
    hi = lo + sides[:, None, None, :]
    C = np.repeat(V[:, None, :], Q * S * 4, axis=1).reshape(N, Q, S, 4, D)
    k, q = np.arange(N)[:, None], np.arange(Q)
    li, lj, hi, hj = lo[:, :, 0], lo[:, :, 1], hi[:, :, 0], hi[:, :, 1]
    C[k, q, :, :, ij[:, 0]] = np.stack([li, hi, hi, li], axis=-1)
    C[k, q, :, :, ij[:, 1]] = np.stack([lj, lj, hj, hj], axis=-1)
    R = 1 + Q * S * 4  # a row's centre, then its corners
    rows = np.concatenate([V[:, None], C.reshape(N, R - 1, D)], axis=1).reshape(-1, D)
    _, U, _ = _stack(model, rows, anchor=np.repeat(np.arange(N) * R, R))
    U = U.reshape(N, R, n, n)[:, 1:].reshape(N * Q, S, 4, n, n)
    # ov[pair, side, a, band]: overlap of corner a with corner a + 1
    ov = np.einsum("psaib,psaib->psab", U.conj(), np.roll(U, -1, axis=2))
    ang = np.angle(ov[:, :, 0] * ov[:, :, 1] * ov[:, :, 2] * ov[:, :, 3])
    hq = np.repeat(h, Q)
    val = -ang[:, 0] / row_pow(hq, 2)[:, None]
    if richardson:
        val = (4.0 * (-ang[:, 1] / row_pow(0.5 * hq, 2)[:, None]) - val) / 3.0
    F = np.zeros((N, n, D, D))
    F[:, :, ij[:, 0], ij[:, 1]] = val.reshape(N, Q, n).swapaxes(1, 2)
    return antisymmetric(F)


def curvature_m_space(model: HamiltonianModel, m: PhasePoint,
                      step: float = None) -> CurvatureTensor:
    """Closed-form split-model curvature from the coupling field H1.

    F_ij(band) = -S_band H1 . (dH1/dm_i x dH1/dm_j) / |H1|^3 with S the
    bands' SPLIT_CHARGES, the pullback of the coupling-space monopole along
    m -> H1(m). J is differenced on one stencil stack (exact for affine
    couplings), so this stays an oracle independent of the scenarios'
    analytic Jacobians. The one-row case of split_curvature_rows.
    """
    F = split_curvature_rows(model, m.as_vector()[None], step=step)[0]
    return CurvatureTensor(d=m.d, labels=m.labels, F=F, point=m)


def split_curvature_rows(model: HamiltonianModel, X: np.ndarray,
                         step: float = None) -> np.ndarray:
    """curvature_m_space's F (N, 2, D, D) at the rows of X (N, D): one stencil
    stack and one monopole_rows over them, each row with its own bits and
    errors, the first failing row raising."""
    if model.split is None:
        raise ValueError("curvature_m_space needs a split-form model")
    X = np.asarray(X, dtype=float)
    return _in_chunks(lambda V: _split_curvature(model.split, V, step), X, 1 + 2 * X.shape[1])


def _split_curvature(split, V, step) -> np.ndarray:
    h = np.array([_check_step(step if step is not None else default_step(v)) for v in V])
    _, _, b, J = _split_differences(split, V, h)
    nb = row_norm(b)
    if (nb == 0.0).any():
        raise SingularityError("curvature is singular where the coupling vanishes")
    X = monopole_rows(b, J, nb)
    return antisymmetric(-_CHARGES[:, None, None] * X[:, None])


def _in_chunks(kernel, X: np.ndarray, per_row: int) -> np.ndarray:
    """kernel over the rows of X, a chunk of at most STACK_ROWS // per_row rows
    at a time. A chunk that raises, whatever the error (a model's callables
    may raise anything), is tried again in halves (errors.bisect_failures),
    so the first failing row raises its own error, as it would alone. A
    chunk that raises only as a whole, every row passing on its own, gives
    each row's own result."""
    size, rows = max(1, STACK_ROWS // per_row), np.arange(len(X))

    def fail(i, exc):
        raise exc

    return np.concatenate([F for i in range(0, len(X), size) for _, F in bisect_failures(
        lambda k: kernel(X[k]), rows[i:i + size], fail)])


def monopole_pullback(b: np.ndarray, J: np.ndarray, charges: Sequence[float],
                      point: PhasePoint) -> CurvatureTensor:
    """Coupling-space monopole pulled back along m -> b(m), one band per charge.

    F_ij = -S b . (J_i x J_j) / |b|^3 with J[:, k] = db/dm_k over the flat
    axes of point: the one-row case of monopole_rows, and each band is -S X,
    so bands of opposite charge get exactly opposite tensors.
    """
    b = np.asarray(b, dtype=float)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        raise SingularityError("curvature is singular where the coupling vanishes")
    X = monopole_rows(b[None], np.asarray(J, dtype=float)[None], np.array([nb]))[0]
    F = np.multiply.outer(-np.asarray(charges, dtype=float), X)
    return CurvatureTensor(d=point.d, labels=point.labels, F=F, point=point)


# ---------------------------------------------------------------------------
# Array layer: model-free geometry on plain coordinate vectors


def monopole_curvature(h1: np.ndarray, S: float) -> np.ndarray:
    """Monopole curvature as a 3x3 antisymmetric tensor in coupling space."""
    return pseudo_to_tensor(monopole_pseudovector(h1, S))


def monopole_field(S: float, center=(0.0, 0.0, 0.0)):
    """Callable pseudovector field of a monopole of spin charge S."""
    c = np.asarray(center, dtype=float)
    return lambda x: monopole_pseudovector(np.asarray(x, dtype=float) - c, S)


def phase_line_integral(field, path, band: int = None) -> PhaseIntegral:
    """Trapezoid line integral of an adiabatic connection along a path.

    field maps a coordinate vector to connection components: either a (K,)
    array for a single band or (K, n) for all bands (then band selects one).
    path is an (N, K) array or a sequence of PhasePoints. The raw accumulated
    value is returned together with its (-pi, pi] reduction; closing the path
    is the caller's business (append the start point for a loop). If the
    field object exposes validate_path, it is invoked first (model-backed
    fields use it to enforce eigenvector continuity along the path).
    """
    pts = np.asarray([q.as_vector() if isinstance(q, PhasePoint) else q for q in path],
                     dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("path must contain at least two points")
    validate = getattr(field, "validate_path", None)
    if validate is not None:
        validate(pts)

    def comp(x):
        a = np.asarray(field(x), dtype=float)
        if a.ndim == 2:
            if band is None:
                raise ValueError("band is required for a multi-band field")
            a = a[:, band]
        return a

    total = 0.0
    a_prev = comp(pts[0])
    for k in range(1, pts.shape[0]):
        a_next = comp(pts[k])
        total += float(0.5 * (a_prev + a_next) @ (pts[k] - pts[k - 1]))
        a_prev = a_next
    return PhaseIntegral(value=total, wrapped=wrap_angle(total))


def dirac_phase(potential, path, e: float = 1.0, hbar: float = 1.0,
                c: float = 1.0) -> float:
    """Electromagnetic phase (e/hbar c) int (A . dr - c phi dt) along r-t path.

    potential(r, t) returns (phi, A) with A a 3-vector; path is an (N, 4)
    array of rows (x, y, z, t). Trapezoid rule, raw value (no reduction).
    """
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4 or pts.shape[0] < 2:
        raise ValueError("path must be an (N, 4) array of (x, y, z, t) rows")
    total = 0.0
    phi_prev, A_prev = potential(pts[0, :3], pts[0, 3])
    for k in range(1, pts.shape[0]):
        phi_k, A_k = potential(pts[k, :3], pts[k, 3])
        dr = pts[k, :3] - pts[k - 1, :3]
        dt = pts[k, 3] - pts[k - 1, 3]
        total += 0.5 * float((np.asarray(A_prev) + np.asarray(A_k)) @ dr)
        total -= 0.5 * c * (phi_prev + phi_k) * dt
        phi_prev, A_prev = phi_k, A_k
    return (e / (hbar * c)) * total


def chern_charge(field, center, radius: float, nodes: tuple = (32, 64),
                 band: int = None) -> float:
    """Flux through a sphere over 2 pi: the band's link-variable charge of a
    field with sphere_charge (AdiabaticConnectionField), else a pseudovector
    curvature callable's Gauss-Legendre (in cos(theta), uniform in phi)
    quadrature. The sphere must enclose one source or none, as the caller
    asserts; a charge at CHARGE_CHECK_FACTOR times the radius that differs
    beyond CHARGE_CHECK_RTOL raises QuadratureError (a source miscount
    between spheres).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    sphere_charge = getattr(field, "sphere_charge", None)
    if sphere_charge is not None and band is None:
        raise ValueError("band is required for a model-backed field")

    def charge_at(R):
        if sphere_charge is not None:
            return sphere_charge(center, R, nodes, band)
        nt, np_ = nodes
        u, w = np.polynomial.legendre.leggauss(nt)
        phis = 2.0 * np.pi * np.arange(np_) / np_
        flux = 0.0
        for ui, wi in zip(u, w):
            st = math.sqrt(max(0.0, 1.0 - ui * ui))
            for ph in phis:
                nrm = np.array([st * math.cos(ph), st * math.sin(ph), ui])
                f = np.asarray(field(center + R * nrm), dtype=float)
                flux += wi * float(f @ nrm)
        return flux * R * R * (2.0 * np.pi / np_) / (2.0 * np.pi)

    q = charge_at(radius)
    q_check = charge_at(CHARGE_CHECK_FACTOR * radius)
    if abs(q - q_check) > CHARGE_CHECK_RTOL * max(1.0, abs(q)):
        raise QuadratureError(
            f"charge {q:.9g} at radius {radius} vs {q_check:.9g} at "
            f"{CHARGE_CHECK_FACTOR * radius}: enclosed sources differ between the spheres")
    return q


def maxwell_residuals(field, points, step: float = None,
                      richardson: bool = True) -> MaxwellResiduals:
    """Source-free field-identity residuals of a curvature tensor field.

    field maps a K-vector to a (K, K) antisymmetric tensor. At each point the
    axis derivatives are taken by central differences (Richardson-combined
    by default); reported are the divergences sum_j d_j F_ij and the cyclic
    sums d_k F_ij + d_i F_jk + d_j F_ki over all axis triples, both of which
    vanish for curvature away from its sources.
    """
    pts = [np.asarray(x, dtype=float) for x in points]
    if not pts:
        raise ValueError("need at least one evaluation point")
    K = pts[0].shape[0]
    triples = tuple((i, j, k) for i in range(K) for j in range(i + 1, K)
                    for k in range(j + 1, K))
    div = np.empty((len(pts), K))
    cyc = np.empty((len(pts), len(triples)))

    for p_idx, x in enumerate(pts):
        h = _check_step(step if step is not None else default_step(x))
        dF = central_difference(field, x, h)
        if richardson:
            dF = (4.0 * central_difference(field, x, 0.5 * h) - dF) / 3.0
        div[p_idx] = np.einsum("jij->i", dF)
        for q, (i, j, k) in enumerate(triples):
            cyc[p_idx, q] = dF[k, i, j] + dF[i, j, k] + dF[j, k, i]
    return MaxwellResiduals(divergence=div, cyclic=cyc, triples=triples)


def regauge(connection, phase_field, step: float = 1e-5):
    """Gauge transform an adiabatic connection: A -> A - grad(phase).

    phase_field maps a coordinate vector to per-band phase values (n,).
    Given a Connection (with a point), returns the transformed Connection at
    that point; given a field callable (vector -> (K, n)), returns the
    transformed field, which keeps the wrapped field's validate_path so
    line integrals still check band continuity. Curvature and closed-loop
    phases (mod 2 pi) are unchanged by construction.
    """
    h = _check_step(step)
    if isinstance(connection, Connection):
        if connection.kind != "adiabatic":
            raise ValueError("regauge acts on adiabatic connections")
        if connection.point is None:
            raise ValueError("connection must carry its evaluation point")
        v = connection.point.as_vector()
        return Connection(labels=connection.labels, kind="adiabatic",
                          components=connection.components
                          - central_difference(phase_field, v, h),
                          point=connection.point)
    if callable(connection):
        def field(v):
            return (np.asarray(connection(np.asarray(v, dtype=float)), dtype=float)
                    - central_difference(phase_field, v, h))

        validate = getattr(connection, "validate_path", None)
        if validate is not None:
            field.validate_path = validate
        return field
    raise TypeError("connection must be a Connection or a field callable")


# ---------------------------------------------------------------------------
# Model-backed field adapters (lift plain vectors into phase space)


@dataclass
class AdiabaticConnectionField:
    """Adiabatic connection as a plain vector field over selected m-axes.

    axes lists the flat phase-space axes swept by the abstract coordinates
    (default: all); the remaining coordinates are frozen at base. Calling
    with a K-vector returns (K, n) connection components, suitable for
    phase_line_integral and regauge. validate_path solves the whole path in
    one stack to enforce band continuity (overlap >= 0.5) before integrating.
    """

    model: HamiltonianModel
    base: PhasePoint
    axes: tuple = None
    step: float = None

    def __post_init__(self):
        if self.axes is None:
            self.axes = tuple(range(self.base.n_axes))
        self.axes = tuple(int(a) for a in self.axes)

    def rows(self, pts) -> np.ndarray:
        """(N, 2d+1) coordinate stack of an (N, len(axes)) array of slice points."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(self.axes):
            raise ValueError(f"expected {len(self.axes)} coordinates")
        X = np.tile(self.base.as_vector(), (pts.shape[0], 1))
        X[:, list(self.axes)] = pts
        return X

    def lift(self, vec) -> PhasePoint:
        """The phase-space point of one slice point."""
        return PhasePoint.from_vector(self.rows(np.atleast_1d(vec)[None])[0], self.base.d)

    def __call__(self, vec) -> np.ndarray:
        conn = adiabatic_connection(self.model, self.lift(vec), step=self.step,
                                    axes=self.axes)
        return conn.components[list(self.axes), :]

    def validate_path(self, pts) -> None:
        _stack(self.model, self.rows(pts), along_path=True)

    def loop_phase(self, pts, band: int = None):
        """Holonomy phase(s) of a closed path from eigenframe overlaps.

        One stacked eigensolve over the nodes, bands matched node to node;
        returns -arg of the closed product of successive overlaps per band,
        the discrete Berry phase. Every per-point phase cancels between bra
        and ket, so this stays well defined on the branch cuts of the
        single-point gauge, where the line integral of __call__ does not
        converge (for a two-band coupling the cut sits where the eigenvector
        components tie in magnitude). Midpoint-like, with an even error
        expansion in the node spacing.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 4:
            raise ValueError("need a closed path of at least 3 distinct points")
        if not np.allclose(pts[0], pts[-1], atol=1e-12):
            raise ValueError("path must return to its starting point")
        _, U, _ = _stack(self.model, self.rows(pts[:-1]), along_path=True)
        ov = np.einsum("kib,kib->kb", U.conj(), np.roll(U, -1, axis=0))
        phases = -np.angle(np.prod(ov, axis=0))
        return phases if band is None else float(phases[band])

    def sphere_charge(self, center, radius: float, nodes: tuple, band: int) -> float:
        """Link-variable Chern charge of a band (Fukui, Hatsugai and Suzuki,
        J. Phys. Soc. Jpn. 74, 1674 (2005)), an integer to roundoff.

        The nodes[0] + 1 rings (poles included) of nodes[1] vertices of a
        (theta, phi) sphere mesh are solved a band of rings at a time, each
        band's first ring the last of the band before, with each vertex's
        bands in energy order: matching loses the labels where neighbours
        are far apart. The charge sums each face's loop_phase-style flux
        -arg(U1 U2 U3* U4*).
        """
        nt, nph = nodes
        flux = np.empty((nt, nph))
        prev = np.empty((0, nph, self.model.n, self.model.n), dtype=complex)
        rings = max(1, STACK_ROWS // nph)
        for i0 in range(0, nt + 1, rings):
            theta, phi = np.meshgrid(np.pi * np.arange(i0, min(i0 + rings, nt + 1)) / nt,
                                     2.0 * np.pi * np.arange(nph) / nph, indexing="ij")
            nrm = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                            np.cos(theta)], axis=-1)
            _, U, _ = _stack(self.model, self.rows(center + radius * nrm.reshape(-1, 3)),
                             match=False)
            U = np.concatenate([prev, U.reshape(-1, nph, *U.shape[1:])])
            prev = U[-1:]
            U = U[..., band]
            # links from vertex (i, j) to (i + 1, j) and to (i, j + 1)
            down = np.einsum("...i,...i->...", U[:-1].conj(), U[1:])
            east = np.einsum("...i,...i->...", U.conj(), np.roll(U, -1, axis=1))
            lo = max(i0 - 1, 0)
            flux[lo:lo + len(U) - 1] = -np.angle(
                down * east[1:] * np.conj(np.roll(down, -1, axis=1)) * np.conj(east[:-1]))
        worst = float(np.max(np.abs(flux)))
        if worst > FACE_FLUX_MAX:  # a source too close to the mesh to resolve
            raise QuadratureError(f"largest face flux {worst:.3f} rad exceeds "
                                  f"{FACE_FLUX_MAX:.3f} at radius {radius}")
        return float(np.sum(flux)) / (2.0 * np.pi)
