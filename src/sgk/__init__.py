"""Spin gauge kinematics: band geometry and semiclassical transport.

Two-band Hamiltonians over extended phase space m = (p, r, t) are
diagonalized into smooth band frames; the frames carry exact and
adiabatic connections whose curvature feeds anomalous-velocity terms in
the equations of motion. On top sit four worked scenarios (precessing
moment, moment in crossed fields, planar spin-orbit gas, circularly
polarized rays in a graded index), ensemble transport averages, and a
self-check battery, all reachable from the `sgk` command line tool.
"""

from types import ModuleType as _ModuleType

from .errors import (BandTrackingError, ConstraintDriftWarning,
                     DegeneracyError, EnsembleError, NumericalError,
                     QuadratureError, SchemaError, SgkError,
                     SingularSystemError, SingularityError, SpinForceWarning,
                     StepError)
from .phase_space import PhasePoint, axis_labels
from .fields import (CallableField, IndexField, LinearField, LinearIndex,
                     PolyField, RotatingField, UniformField, UniformIndex,
                     VectorField, as_field)
from .models import PAULI, Constants, HamiltonianModel, SplitForm
from .spectral import (DEGENERACY_RTOL, TRACKING_MIN_OVERLAP, aligned_frame,
                       diagonalize, smooth_frame_along)
from .gauge import (AdiabaticConnectionField, Connection, CurvatureTensor,
                    MaxwellResiduals, NonAbelianCurvature, PhaseIntegral,
                    adiabatic_connection,
                    adiabatic_curvature_numeric, chern_charge,
                    curvature_m_space, default_step, dirac_phase,
                    exact_connection,
                    exact_connection_field, maxwell_residuals,
                    monopole_curvature, monopole_field,
                    monopole_pseudovector, monopole_pullback,
                    nonabelian_curvature,
                    phase_line_integral, pseudo_to_tensor,
                    regauge, tensor_to_pseudo,
                    wrap_angle)
from .dynamics import (EffectiveFields, ExternalEMField, IntegratorConfig,
                       Trajectory, TrajectoryState, adiabaticity_epsilon,
                       band_gradients, displacement_contour,
                       effective_em_fields, integrate, velocity_field)
from .scenarios import (MagnusRay, OpticalScenario, RashbaScenario,
                        SpinOrbitScenario, ZeemanScenario, band_sign,
                        magnus_ray, magnus_ray_pair, ray_splitting)
from .transport import (EnsembleSpec, TransportReport, draw_samples,
                        polarization_current, run_ensemble)
from .verify import run_battery

__version__ = "0.1.0"

# every public name imported above, and none of the submodules
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
