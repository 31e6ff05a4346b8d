"""Exception types shared across the package."""


class Cotton3Error(Exception):
    """Base class for library-specific errors."""


class SingularMetric(Cotton3Error):
    """The metric passes Cholesky, but its condition number is at least
    1e12 or its inverse overflows."""


class NoStructure(Cotton3Error):
    """No unit Reeb candidate fits the almost Kenmotsu shape conditions."""


class InconsistentStructure(Cotton3Error):
    """A detected structure failed an internal consistency requirement."""


class DegenerateMetric(Cotton3Error):
    """A Cholesky pivot of the metric is not positive, or an entry is not
    finite: the metric is outside the positive cone.

    The flow raises it for every metric it refuses, with the states
    computed before the failure attached as ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = list(trajectory) if trajectory is not None else []

