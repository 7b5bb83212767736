"""Exception types shared across the package."""


class VipGuideError(Exception):
    """Base class for every error raised by this package."""


class ConsistencyError(VipGuideError):
    """Perception data violates a structural invariant (dims, runs, ids)."""


class FrameDecodeError(VipGuideError):
    """A frame record or depth sidecar could not be parsed."""


class GeometryError(VipGuideError):
    """Geometric computation called outside its domain."""


class InfeasibleConfigError(GeometryError):
    """No admissible drone pose exists for the given configuration."""


class CalibrationError(VipGuideError):
    """Depth calibration could not be fitted or evaluated."""


class InsufficientHistoryError(VipGuideError):
    """A track does not hold enough samples for rate estimation."""


class PlannerError(VipGuideError):
    """Local planner called with invalid partitioning or inputs."""


class GraphError(VipGuideError):
    """Navigation graph file or query violates the graph schema."""


class UnreachableError(GraphError):
    """No route exists between the requested nodes."""


class ConfigError(VipGuideError):
    """Pipeline or geometry configuration is missing or invalid."""
