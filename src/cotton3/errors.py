"""Exception types shared across the package."""


class Cotton3Error(Exception):
    """Base class for library-specific errors."""


class JacobiViolation(Cotton3Error):
    """Structure constants do not close into a Lie algebra."""


class SingularMetric(Cotton3Error):
    """Metric matrix is not invertible within tolerance."""


class NoStructure(Cotton3Error):
    """No unit Reeb candidate fits the almost Kenmotsu shape conditions."""


class InconsistentStructure(Cotton3Error):
    """A detected structure failed an internal consistency requirement."""


class DegenerateMetric(Cotton3Error):
    """The evolving flow metric lost positive-definiteness.

    The trajectory computed before the failure is attached as ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = list(trajectory) if trajectory is not None else []

