"""Exception types shared across the package."""


class BasinLabError(Exception):
    """Base class for all computational errors raised by basinlab."""


class NotParabolic(BasinLabError, ValueError):
    """Input polynomial does not fix the origin with multiplier one."""


class LinearMap(BasinLabError, ValueError):
    """All nonlinear coefficients vanish, so there is no parabolic point."""


class NoConvergence(BasinLabError, RuntimeError):
    """Iterative solver failed to reach its residual target."""


class OriginInput(BasinLabError, ValueError):
    """The translation chart is undefined at the origin."""


class DegenerateAngle(BasinLabError, ValueError):
    """Gap angle outside the range where the wedge geometry is sane."""


class BadRadii(BasinLabError, ValueError):
    """Radial bound arguments are not ordered as required."""


class NonPositiveImaginary(BasinLabError, ValueError):
    """Log-height bound needs strictly positive imaginary parts."""


class SmallRealPart(BasinLabError, ValueError):
    """Axis-crossing bound needs the normalized point away from the axis."""


class OutsideDomain(BasinLabError, ValueError):
    """Point is not strictly inside the model domain."""


class NumericOverflow(BasinLabError, ArithmeticError):
    """Distance computation left the range of double precision."""


class PathExitsDomain(BasinLabError, ValueError):
    """A polyline segment leaves the model domain."""


class ConstructionFailed(BasinLabError, RuntimeError):
    """Parameter recipe could not produce a valid construction."""


class PointCapExceeded(BasinLabError, RuntimeError):
    """The enumeration of Q would pass its point cap before reaching (k_max, l_max)."""


class NotInBasin(BasinLabError, ValueError):
    """Reference point does not classify into the requested direction."""


class SeedNotInBasin(BasinLabError, ValueError):
    """Flood-fill seed pixel is not labeled with a basin direction."""


class IoFailure(BasinLabError, OSError):
    """A report file or image could not be written: the OSError of the CLI's
    one writer, cli._write, or of raster.write_image, as a typed error."""
