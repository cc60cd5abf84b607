"""Exception taxonomy shared by all modules."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class VertexOutOfRangeError(GraphError):
    """A vertex index falls outside 0..n-1."""


class DisconnectedError(GraphError):
    """A distance-based operation received a disconnected graph."""


class TooSmallError(GraphError):
    """The Mycielskian is connected only when the graph has no isolated vertex."""


class NoEdgesError(GraphError):
    """A degree-based index is undefined on an edgeless graph."""


class DiameterNotTwoError(GraphError):
    """The closed-form degree distance requires diameter exactly 2."""

    def __init__(self, diameter: int):
        self.diameter = diameter
        super().__init__(f"graph has diameter {diameter}, the identity requires 2")


class InvalidParameterError(GraphError):
    """A parameter is outside its domain: a family's minimums, a non-square matrix."""


class TooLargeError(GraphError):
    """Exhaustive enumeration is capped at 6 vertices."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text, or a file that cannot be read as UTF-8 text."""
