"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
physics-level failures (degeneracies, singular points, band tracking loss,
singular velocity systems, unresolved Chern charges) exit 3, an
adiabaticity abort exits 4 and anything unexpected exits 5.
"""

from __future__ import annotations


class SgkError(Exception):
    """Base class for all package errors."""


class DegeneracyError(SgkError):
    """Band gap below the degeneracy tolerance at the requested point."""


class NumericalError(SgkError):
    """Eigensolver failure or a model returning a non-Hermitian or non-finite matrix."""


class BandTrackingError(SgkError):
    """Adjacent-frame eigenvector overlap too small to identify bands."""


class SingularityError(SgkError):
    """Evaluation at a point where the construction is singular (|H1| = 0)."""


class StepError(SgkError, ValueError):
    """Finite-difference or integrator step is not a positive finite number."""


class GaugePatchError(SgkError):
    """Analytic gauge potential requested exactly on its singular ray."""


class QuadratureError(SgkError):
    """Charges at two radii disagree, or a source lies too close to the mesh."""


class SingularSystemError(SgkError):
    """The linear system for the phase-space velocities is singular."""


class SchemaError(SgkError):
    """Configuration rejected. Carries the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EnsembleError(SgkError):
    """Too many ensemble trajectories failed to trust the aggregates."""


class ConstraintDriftWarning(UserWarning):
    """Ray left the dispersion surface by more than the advertised bound."""


class SpinForceWarning(UserWarning):
    """Spin gauge force is not small against the zeroth-order forces."""
