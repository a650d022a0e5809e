"""Exception hierarchy shared by all modules."""


class ContractError(ValueError):
    """A documented precondition or invariant was violated by the caller."""


class LuttingerInstabilityError(ContractError):
    """|g(p,t)| >= omega(p,t): the quadratic theory has no ground state."""


class CDInstabilityError(ContractError):
    """v_s |p| <= |chi|: the controlled spectrum turns imaginary."""


class IntegrationError(RuntimeError):
    """Adaptive step control failed (step underflow or solver breakdown)."""


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""
