"""Mode-resolved simulator of the interaction-driven Tomonaga-Luttinger
liquid with counterdiabatic control.

The run path (model, protocol -> integrator -> dynamics -> cli)
holds arrays only; the scalar SU(1,1) layer, the paper's closed forms that
no run evaluates, the oracle and its checks are the reference side, loaded
on first use.

Modules:
    model     TLL parameters, couplings, pair frequencies, the CD amplitude
              of a run, spectrum with and without CD
    protocol  schedules, drive protocol, its coefficient grid, speed-window
              criteria
    integrator sixth-order Magnus integration of all pairs at once, and
              with CD on the phase from a Chebyshev interpolant of v_s
    dynamics  all pairs integrated from the vacuum, observables, sweeps
    cli       tll-cd-sim command line and file I/O
    errors    exception classes
    su11      scalar SU(1,1) algebra for one pair (validation only)
    closed_forms the paper's closed forms no run evaluates (reference only)
    fock      truncated-Fock brute-force oracle (validation only)
    validate  scalar references, state_map, the oracle suite (validation only)
"""

__version__ = "0.1.0"

import importlib

from .dynamics import Trajectories, run_simulation, sweep_tf
from .model import (
    CouplingFamily,
    CouplingSpec,
    LuttingerParams,
    PairCoefficients,
    cd_amplitude_contact,
    instantaneous_spectrum,
    luttinger_params,
    mode_momenta,
    pair_frequencies,
    spectrum_with_cd,
)
from .protocol import (
    CoefficientGrid,
    DriveProtocol,
    Schedule,
    ScheduleKind,
    StabilityReport,
    closed_form_bound,
    schedule_value,
    stability_margin,
)

# the reference side loads on first use, so that importing the package
# leaves su11, closed_forms, validate and fock unloaded
_REFERENCE_NAMES = {
    "closed_forms": ("ControlledCoefficients", "bogoliubov_angle", "cd_amplitude_lorentzian",
                     "controlled_coefficients", "delta_coefficients", "gauge_field_amplitude",
                     "ground_state_energy", "mass_frequency", "realspace_cd_kernel"),
    "su11": ("IDENTITY", "BogoliubovMap", "PairObservables", "compose", "inverse",
             "squeeze_from_angle", "state_overlap", "vacuum_observables"),
    "validate": ("mean_energy_scaling_check", "pair_energy", "quasiparticle_frame"),
}


def __getattr__(name):
    for module, names in _REFERENCE_NAMES.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
