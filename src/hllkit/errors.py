"""Exception types shared across the sketch and estimator modules."""


class HllError(Exception):
    """Base class for every error raised by this package."""


class FormatError(HllError):
    """Serialized sketch bytes are malformed (bad magic, version, or length)."""


class RangeError(HllError):
    """A parameter or register value lies outside its allowed range."""


class ConfigMismatchError(HllError):
    """Sketches with different (p, q) parameters were combined."""


class UnsupportedConfigError(HllError):
    """The requested estimator does not support this sketch configuration."""


class ZeroRegistersExhaustedError(HllError):
    """Linear counting needs at least one register that is still zero."""


class OutOfDomainError(HllError):
    """An estimate fell outside the domain where a correction formula is valid."""


class DomainError(HllError):
    """A function argument lies outside its mathematical domain."""


class DegenerateHistogramError(HllError):
    """The register histogram carries no usable information.

    ``kind`` is ``"zero"`` when every register is still zero and
    ``"saturated"`` when every register sits at its maximum value.
    """

    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(f"degenerate register histogram ({kind})")


class NoConvergenceError(HllError):
    """An iterative solver exhausted its iteration budget."""
