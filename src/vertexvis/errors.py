"""Exception types shared across the package, and the deadline check."""

import time

__all__ = [
    "VertexVisError",
    "IdOutOfRangeError",
    "SelfLoopError",
    "DuplicateEdgeError",
    "DisconnectedError",
    "TooLargeError",
    "InvalidParameterError",
    "IsolatedVertexError",
    "InvalidRegionError",
    "WitnessRejectedError",
    "UnsupportedFamilyError",
    "NotBlockGraphError",
    "CompleteGraphError",
    "SolveTimeoutError",
    "GraphFormatError",
]


class VertexVisError(Exception):
    """Base class for every error raised by this library."""


class IdOutOfRangeError(VertexVisError):
    """A vertex id falls outside 0..n-1."""


class SelfLoopError(VertexVisError): ...


class DuplicateEdgeError(VertexVisError): ...


class DisconnectedError(VertexVisError):
    """A distance-dependent operation was asked about a disconnected graph."""


class TooLargeError(VertexVisError):
    """The instance exceeds a fixed size cap: MAX_FILE_VERTICES for any
    graph, or the cap of an exhaustive solver."""


class InvalidParameterError(VertexVisError): ...


class IsolatedVertexError(VertexVisError): ...


class InvalidRegionError(VertexVisError): ...


class WitnessRejectedError(VertexVisError):
    """A constructed witness set failed its own verification gate."""


class UnsupportedFamilyError(VertexVisError): ...


class NotBlockGraphError(VertexVisError): ...


class CompleteGraphError(VertexVisError): ...


class SolveTimeoutError(VertexVisError):
    """A solver exceeded its configured wall-clock budget."""


def check_deadline(deadline, what: str) -> None:
    """Every timed operation takes deadline, one time.monotonic() value per
    request or None; work past it raises SolveTimeoutError, never a
    truncated answer."""
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeoutError(f"{what} exceeded its time budget")


class GraphFormatError(VertexVisError):
    """A graph file or vertex-set file could not be parsed."""
