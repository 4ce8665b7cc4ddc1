"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class SingularityError(DomainError):
    """Evaluation was requested exactly at a non-removable singularity."""


class OutOfDomainError(DomainError):
    """A catalog parameter violates the identity's declared domain."""


class NonConvergenceError(RuntimeError):
    """An iterative scheme hit its cap with the error estimate above target."""


class IntegrandFailureError(RuntimeError):
    """An integrand raised at a point not declared singular."""


class BridgeInconsistencyError(RuntimeError):
    """Termwise matching of a series linear combination failed.

    The package raises it nowhere: the one bridge it builds,
    series.bridge_from_data, matches every term by an algebraic identity.
    """
