"""Spin gauge kinematics: band geometry and semiclassical transport.

Two-band Hamiltonians over extended phase space m = (p, r, t) are
diagonalized into smooth band frames; the frames carry exact and
adiabatic connections whose curvature feeds anomalous-velocity terms in
the equations of motion. On top sit four worked scenarios (precessing
moment, moment in crossed fields, planar spin-orbit gas, circularly
polarized rays in a graded index), ensemble transport averages, and a
self-check battery, all reachable from the `sgk` command line tool.
"""

from importlib import import_module as _import_module

# every public name, by the submodule that defines it; a submodule is
# imported on first access to one of its names, so `import sgk` loads none
_EXPORTS = {
    "errors": "BandTrackingError ConstraintDriftWarning DegeneracyError EnsembleError "
              "NumericalError QuadratureError SchemaError SgkError SingularSystemError "
              "SingularityError SpinForceWarning StepError",
    "phase_space": "PhasePoint axis_labels default_step",
    "fields": "CallableField IndexField LinearIndex PolyField RotatingField VectorField "
              "as_field",
    "models": "DEGENERACY_RTOL PAULI Constants HamiltonianModel SplitForm "
              "monopole_pseudovector",
    "spectral": "TRACKING_MIN_OVERLAP aligned_frame diagonalize smooth_frame_along",
    "gauge": "AdiabaticConnectionField Connection CurvatureTensor MaxwellResiduals "
             "NonAbelianCurvature PhaseIntegral adiabatic_connection "
             "adiabatic_curvature_numeric chern_charge curvature_m_space dirac_phase "
             "exact_connection exact_connection_field maxwell_residuals "
             "monopole_curvature monopole_field monopole_pullback "
             "nonabelian_curvature phase_line_integral pseudo_to_tensor regauge "
             "tensor_to_pseudo wrap_angle",
    "dynamics": "EffectiveFields ExternalEMField IntegratorConfig Trajectory "
                "adiabaticity_epsilon band_gradients displacement_contour "
                "effective_em_fields integrate velocity_field",
    "scenarios": "MagnusRay OpticalScenario RashbaScenario SpinOrbitScenario ZeemanScenario "
                 "band_sign magnus_ray magnus_ray_pair ray_splitting",
    "transport": "EnsembleSpec TransportReport draw_samples polarization_current run_ensemble",
    "verify": "run_battery",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name or one of the submodules above, imported on first
    access (PEP 562)."""
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
