"""Exception types shared across the sketch and estimator modules, and the
rules that turn an outside number or sequence into one the library computes with.

* ``integer``: a Python or numpy integer in a given range becomes an ``int``;
  anything else, an integral float included, raises ``RangeError``.
* ``real``: a Python or numpy int or float, or a 0-d array of one, becomes a
  ``float``; anything else (a sequence, a string, ``None``, a complex number)
  or an int past the float range raises the caller's error class
  (``DomainError`` by default).  Finiteness and range stay with the caller.
* ``array``: a sequence becomes an ndarray; one that numpy cannot read, such
  as a ragged one, raises the caller's error class (``RangeError`` by default).
* ``reals``: a number or a sequence of them becomes a float64 ndarray, each
  element read as ``real`` reads one number, else ``DomainError``.
"""

import numpy as np


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


def integer(value, what: str, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer in
    [low, high] (no upper bound when ``high`` is None), else ``RangeError``."""
    if isinstance(value, (int, np.integer)):
        n = int(value)  # a small numpy type would wrap in later arithmetic
        if n >= low and (high is None or n <= high):
            return n
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise RangeError(f"{what} {value!r} is not an integer {bound}")


def array(value, what: str, error: type[HllError] = RangeError) -> np.ndarray:
    """``value`` as ``np.asarray`` reads it; a ragged sequence raises ``error``."""
    try:
        return np.asarray(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise error(f"{what} is not an array of numbers: {exc}") from None


def reals(value, what: str) -> np.ndarray:
    """``value`` as a float64 array if each element is one number, else ``DomainError``."""
    arr = array(value, what, DomainError)
    if arr.dtype.kind not in "biuf":  # strings, complex numbers, ints past int64
        items = [real(v, what) for v in arr.ravel().tolist()]
        arr = np.array(items).reshape(arr.shape)
    return arr.astype(np.float64, copy=False)


def real(value, what: str, error: type[HllError] = DomainError) -> float:
    """``value`` as a ``float`` if it is one number, else ``error``."""
    # floats first: sigma and tau each take one per estimate
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]  # the scalar a 0-d array holds
    if isinstance(value, (int, float, np.integer, np.floating)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{what} {value!r} is not a real number")
