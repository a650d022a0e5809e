"""Exception hierarchy shared by all modules."""


class ContractError(ValueError):
    """A documented precondition or invariant was violated by the caller.
    `report` is the StabilityReport of the run it stopped, set by
    run_simulation and sweep_tf on every failure past the stability gate;
    None otherwise."""

    report = None


class LuttingerInstabilityError(ContractError):
    """|g(p,t)| >= omega(p,t): the quadratic theory has no ground state.
    model.check_pair_stable alone raises it."""


class CDInstabilityError(ContractError):
    """v_s |p| <= |chi|: the controlled spectrum turns imaginary.
    model.require_cd_stable alone raises it."""


class IntegrationError(RuntimeError):
    """An integration did not finish or cannot be trusted: step
    doubling would pass MAX_STEPS before every mode converged, the
    Chebyshev phase did not converge by MAX_DEGREE or its estimate exceeds
    the tolerance, a pair coefficient was non-finite, a run broke the
    Bogoliubov invariant |u|^2 - |v|^2 = 1, or the Fock oracle's solver
    failed.  `report` is as for ContractError."""

    report = None


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""
