"""Two-band models and the gauge-fixed eigenframe layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgk.errors import BandTrackingError, DegeneracyError, NumericalError
from sgk.models import PAULI, Constants, HamiltonianModel
from sgk.phase_space import PhasePoint
from sgk.scenarios import ZeemanScenario
from sgk.gauge import adiabatic_curvature_numeric
from sgk.spectral import aligned_frame, diagonalize, smooth_frame_along

from helpers import shifted

M0 = PhasePoint((0.1, -0.2, 0.3), (0.2, 0.4, 0.9), 0.0)


def split_model(hbar=1.0, chi=1.0):
    return HamiltonianModel.from_split(
        h0=lambda m: float(m.p @ m.p) / 2.0,
        h1=lambda m: chi * m.r,
        constants=Constants(hbar=hbar, chi=chi))


def test_pauli_algebra():
    for k in range(3):
        assert np.allclose(PAULI[k] @ PAULI[k], np.eye(2))
    assert np.allclose(PAULI[0] @ PAULI[1] - PAULI[1] @ PAULI[0],
                       2j * PAULI[2])


def test_split_energies():
    model = split_model(hbar=0.7, chi=1.3)
    w = diagonalize(model, M0).energies
    h0 = 0.5 * float(M0.p @ M0.p)
    nb = 1.3 * np.linalg.norm(M0.r)
    assert w[0] == pytest.approx(h0 - 0.7 * nb, rel=1e-12)
    assert w[1] == pytest.approx(h0 + 0.7 * nb, rel=1e-12)
    assert w[1] - w[0] == pytest.approx(2 * 0.7 * nb, rel=1e-12)


def test_evaluate_is_hermitian_split():
    H = split_model().evaluate(M0)
    assert np.allclose(H, H.conj().T)


def test_diagonalize_frame_properties():
    fr = diagonalize(split_model(), M0)
    H = split_model().evaluate(M0)
    assert np.allclose(fr.U.conj().T @ H @ fr.U,
                       np.diag(fr.energies), atol=1e-12)
    # largest-|component| entry of each band vector is real positive
    for b in range(2):
        col = fr.U[:, b]
        k = int(np.argmax(np.abs(col)))
        assert col[k].real > 0 and abs(col[k].imag) < 1e-14


def test_diagonalize_deterministic():
    U1 = diagonalize(split_model(), M0).U
    U2 = diagonalize(split_model(), M0).U
    assert np.array_equal(U1, U2)


@pytest.mark.parametrize("entry, name", [(np.nan, "nan"), (np.inf, "inf"),
                                         (complex(0.0, -np.inf), "inf")])
def test_non_finite_matrix_is_a_numerical_error(entry, name):
    # NaN compares false against every tolerance, so without its own check
    # diagonalize returned energies [nan, 1] and the plaquette curvature 0
    model = HamiltonianModel(
        n=2, evaluate_raw=lambda m: np.array([[entry, 0], [0, 1.0]]))
    for call in (model.evaluate, lambda m: diagonalize(model, m),
                 lambda m: adiabatic_curvature_numeric(model, m)):
        with pytest.raises(NumericalError, match=f"not finite.*{name}"):
            call(M0)


def test_degeneracy_raises():
    model = split_model()
    with pytest.raises(DegeneracyError):
        diagonalize(model, PhasePoint((0.1, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0))


@given(st.floats(0.1, 2.0), st.floats(0.0, np.pi - 0.3),
       st.floats(0.0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_convention_idempotent(mag, theta, phi):
    b = mag * np.array([np.sin(theta) * np.cos(phi),
                        np.sin(theta) * np.sin(phi), np.cos(theta)])
    model = split_model()
    m = PhasePoint((0.0, 0.0, 0.0), b, 0.0)
    fr = diagonalize(model, m)
    fr2 = diagonalize(model, m)
    assert np.array_equal(fr.U, fr2.U)


def test_aligned_frame_tracks_band_order():
    model = split_model()
    ref = diagonalize(model, M0)
    near = shifted(M0, 4, 1e-3)
    fr = aligned_frame(model, near, ref)
    # ascending order preserved under a tiny move
    assert fr.energies[0] < fr.energies[1]
    ov = np.abs(ref.U.conj().T @ fr.U)
    assert ov[0, 0] > 0.999 and ov[1, 1] > 0.999


def test_smooth_frame_along_successive_overlaps_are_real_positive():
    # a short path through generic p, r and t moves, so the single-point
    # gauge alone leaves complex successive overlaps
    model = split_model()
    path = [M0]
    for k, h in [(3, 2e-3), (4, -3e-3), (5, 1e-3), (3, 4e-3), (0, 1e-2)]:
        path.append(shifted(path[-1], k, h))
    frames = smooth_frame_along(model, path)
    for a, b in zip(frames, frames[1:]):
        ov = np.einsum("ib,ib->b", a.U.conj(), b.U)
        assert np.all(np.abs(ov.imag) < 1e-12) and np.all(ov.real > 0)


def test_smooth_frame_along_swaps_bands_continuously():
    # path crossing no degeneracy: r sweeps a quarter circle
    model = split_model()
    thetas = np.linspace(0.2, 1.2, 60)
    path = [PhasePoint((0.0, 0.0, 0.0),
                       (np.sin(th), 0.0, np.cos(th)), 0.0) for th in thetas]
    frames = smooth_frame_along(model, path)
    assert len(frames) == 60
    for a, b in zip(frames, frames[1:]):
        ov = np.abs(np.vdot(a.U[:, 1], b.U[:, 1]))
        assert ov > 0.999


def test_smooth_frame_along_rejects_gap_crossing():
    # straight hedgehog path through the field zero: the midpoint is
    # degenerate, so the walk must refuse rather than mislabel bands
    scn = ZeemanScenario.hedgehog()
    path = [PhasePoint((0.0, 0.0, 0.0), (0.0, 0.0, z), 0.0)
            for z in (1.0, 0.0, -1.0)]
    with pytest.raises(DegeneracyError):
        smooth_frame_along(scn.model(), path)


def test_smooth_frame_along_rejects_ambiguous_matching():
    # two-band overlap matrices always admit a matching above 1/sqrt(2), so
    # a genuinely lost identification needs more bands: jump the frame by
    # the 5-point DFT unitary, where every overlap is 1/sqrt(5) < 1/2 and
    # no assignment can rescue the tracking
    k = np.arange(5)
    W = np.exp(2j * np.pi * np.outer(k, k) / 5.0) / np.sqrt(5.0)
    diag = np.diag(np.arange(1.0, 6.0)).astype(complex)

    def ham(m):
        return diag if m.t < 0.5 else W @ diag @ W.conj().T

    model = HamiltonianModel(n=5, evaluate_raw=ham)
    path = [PhasePoint(np.zeros(3), np.zeros(3), 0.0),
            PhasePoint(np.zeros(3), np.zeros(3), 1.0)]
    with pytest.raises(BandTrackingError):
        smooth_frame_along(model, path)


def test_generic_matrix_model_agrees_with_split():
    chi = 0.8
    scn = ZeemanScenario(b_field=(0.3, -0.4, 1.1), chi=chi)
    split = scn.model()

    def dense(m):
        b = chi * np.array([0.3, -0.4, 1.1])
        return 0.5 * float(m.p @ m.p) * np.eye(2) + np.einsum(
            "k,kij->ij", b, PAULI)

    generic = HamiltonianModel(n=2, evaluate_raw=dense,
                               constants=Constants(chi=chi))
    w_s = diagonalize(split, M0).energies
    w_g = diagonalize(generic, M0).energies
    assert np.allclose(w_s, w_g, atol=1e-12)
