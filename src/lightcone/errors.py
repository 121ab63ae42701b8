"""Exception types shared across the library."""


class LightconeError(Exception):
    """Base class for all library errors."""


class DegenerateChain(LightconeError):
    """Spectral decomposition of the closed chain is degenerate (d = 0)."""


class ChiralityViolated(LightconeError):
    """A jet required to be chirally symmetric fails the trace conditions."""


class OnLightCone(LightconeError):
    """Kernel with a logarithmic singularity evaluated on the cone boundary."""


class ZeroMomentum(LightconeError):
    """Kernel evaluated at vanishing spatial momentum."""


class NonFiniteMomentum(LightconeError):
    """Kernel oracle evaluated at a momentum component that is not finite."""


class InvalidWidth(LightconeError):
    """Mollifier width that is not finite and positive, or a width ladder
    that is empty or not one-dimensional; also a length of the radial
    Fourier t-rule (t_max, t_fine_hw, t_fine_dx, and so oracle_value's
    damping scale t_damp, which sets t_max) that is not finite and
    positive."""


class TooCloseToSingularSet(LightconeError):
    """Evaluation point too close to a singular set for the requested scheme."""


class QuadratureNotConverged(LightconeError):
    """Successive quadrature refinements disagree beyond tolerance."""


class UnsupportedKernel(LightconeError):
    """Operation not defined for this kernel id."""


class SpacelikeQ(LightconeError):
    """Query momentum is spacelike where a timelike one is required."""


class OutsideUpperCone(LightconeError):
    """Query momentum is outside the open upper mass cone."""


class FitUnstable(LightconeError):
    """Least-squares scaling fit did not stabilize."""


class InvalidMode(LightconeError):
    """Field mode violates its on-shell or transversality constraints."""


class MalformedMode(InvalidMode):
    """Field mode given a number outside its domain (not finite, an index
    that is not an integer, a square or frequency that overflows): malformed
    input rather than inadmissible field content."""


class TailNotNegligible(LightconeError):
    """Truncated tail of an unbounded integral exceeds tolerance."""


class ConfigInvalid(LightconeError):
    """Run configuration failed validation."""


class ConfigMalformed(ConfigInvalid):
    """Run configuration lacks a parameter or gives one a value outside its
    domain (not a number, non-finite, non-positive): a usage error rather
    than inadmissible field content."""
