"""Error taxonomy shared by every module in the package."""


class PlanarLocError(Exception):
    """Base class for all package-specific failures."""


class EmptyInput(PlanarLocError):
    pass


class CoincidentPoints(PlanarLocError):
    pass


class DuplicatePoints(PlanarLocError):
    pass


class CollinearPoints(PlanarLocError):
    pass


class OverlappingSegments(PlanarLocError):
    pass


class NotUnimodular(PlanarLocError):
    pass


class ZeroVector(PlanarLocError):
    pass


class LengthMismatch(PlanarLocError):
    pass


class NotOrthogonal(PlanarLocError):
    pass


class WeightConditionViolated(PlanarLocError):
    pass


class MixedSigns(PlanarLocError):
    pass


class CertificatePreconditionFailed(PlanarLocError):
    pass


class VertexPreconditionFailed(PlanarLocError):
    pass


class MaxIterationsExceeded(PlanarLocError):
    """Raised when the iterative solver runs out of iterations.

    Carries the best iterate seen so far in ``location`` together with its
    (failing) ``certificate`` so callers can inspect how close the run got.
    """

    def __init__(self, message, location=None, certificate=None):
        super().__init__(message)
        self.location = location
        self.certificate = certificate


class ProblemFormatError(PlanarLocError):
    """Unparseable or invalid problem/result file; message carries the spot."""
