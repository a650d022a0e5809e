"""Mode-resolved simulator of the interaction-driven Tomonaga-Luttinger
liquid with counterdiabatic control.

Modules:
    su11      SU(1,1)/Bogoliubov algebra for one momentum pair
    model     TLL parameters, couplings, spectrum, oscillator mapping
    control   schedules, CD amplitudes, stability and auxiliary formulas
    protocol  drive protocol, its coefficient grid, speed-window criteria
    integrator sixth-order Magnus integration of all pairs at once
    dynamics  trajectories of all pairs as arrays, observables, sweeps
    fock      truncated-Fock brute-force oracle (validation only)
    validate  scalar references and the oracle suite (validation only)
    cli       tll-cd-sim command line and file I/O
    errors    exception classes
"""

__version__ = "0.1.0"

from .control import (
    ControlledCoefficients,
    Schedule,
    ScheduleKind,
    cd_amplitude_contact,
    cd_amplitude_lorentzian,
    controlled_coefficients,
    delta_coefficients,
    gauge_field_amplitude,
    realspace_cd_kernel,
    schedule_value,
    spectrum_with_cd,
)
from .dynamics import (
    Trajectories,
    evolve_pair,
    run_simulation,
    sweep_tf,
)
from .model import (
    CouplingFamily,
    CouplingSpec,
    LuttingerParams,
    PairCoefficients,
    bogoliubov_angle,
    ground_state_energy,
    instantaneous_spectrum,
    luttinger_params,
    mass_frequency,
    mode_momenta,
    pair_frequencies,
)
from .protocol import (
    CoefficientGrid,
    DriveProtocol,
    StabilityReport,
    closed_form_bound,
    stability_margin,
)
from .su11 import (
    IDENTITY,
    BogoliubovMap,
    PairObservables,
    compose,
    inverse,
    squeeze_from_angle,
    state_overlap,
    vacuum_observables,
)


def __getattr__(name):
    # the scalar references load with the oracle on first use, so that
    # importing the package leaves validate and fock unloaded
    if name in ("mean_energy_scaling_check", "pair_energy", "quasiparticle_frame"):
        from . import validate

        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
