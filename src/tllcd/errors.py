"""Exception hierarchy shared by all modules."""


class ContractError(ValueError):
    """A documented precondition or invariant was violated by the caller."""


class LuttingerInstabilityError(ContractError):
    """|g(p,t)| >= omega(p,t): the quadratic theory has no ground state."""


class CDInstabilityError(ContractError):
    """v_s |p| <= |chi|: the controlled spectrum turns imaginary.  `report`
    is the StabilityReport that refused the run, if one did."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IntegrationError(RuntimeError):
    """An integration did not finish: Magnus step doubling would pass
    MAX_STEPS before every mode converged, a pair coefficient was
    non-finite, or the Fock oracle's solver failed.  `report` is the StabilityReport of the run
    it stopped, if one was taken."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""
