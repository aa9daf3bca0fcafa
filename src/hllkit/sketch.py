"""Register-based distinct-count sketch with byte-wide registers.

A sketch keeps m = 2**p single-byte registers.  For each inserted 64-bit
hash, the top p bits select a register and the following q bits are scanned
most-significant-first for the position of the first one bit (q+1 when those
bits are all zero).  The register keeps the maximum position seen, so a
sketch is fully determined by the *set* of hashes inserted, never by their
order or multiplicity.  All estimators in this package consume only the
histogram of register values, which therefore acts as the sufficient
statistic of the sketch.  ``Sketch.histogram`` returns it as an int64 array,
and every estimator reads its histogram argument through ``histogram_counts``.

Valid parameters: 2 <= p <= 26, q >= 0, p + q <= 64.  Register values live
in 0..q+1 and fit one byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigMismatchError, FormatError, RangeError, array, instance, integer

MAGIC = b"HLLS"
VERSION = 1

P_MIN, P_MAX = 2, 26
HASH_BITS = 64
HASH_MAX = (1 << HASH_BITS) - 1
# 2^-k for k = 0..HASH_BITS, built once and shared read-only; powers of two
# are exact, so every sum over a slice is the same as over a fresh table
_POW2 = np.exp2(-np.arange(HASH_BITS + 1, dtype=float))
_POW2.flags.writeable = False


def weighted_sum(counts, lo: int, hi: int) -> float:
    """sum_{k=lo}^{hi-1} counts[k] 2^-k as one dot; numpy's dot does not add
    left to right, so a sum of the dots of parts can differ in its last bits."""
    return float(counts[lo:hi] @ _POW2[lo:hi])


@lru_cache(maxsize=None)  # q <= 62, so at most 63 tables
def level_weights(q: int) -> np.ndarray:
    """Read-only 2^-min(k, q) for k = 0..q+1, the hash-level law.

    A hash offers its register level k >= 1 with probability 2^-min(k, q),
    and for k <= q a level above k with probability 2^-k: the sampler's
    level pmf, the likelihoods' rate scales and their linear weights all
    read this one table.
    """
    table = np.append(_POW2[: q + 1], _POW2[q])
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SketchConfig:
    """Sketch shape: p index bits (m = 2**p registers) and q scanned value bits."""

    p: int
    q: int

    def __post_init__(self):
        p, q = integer(self.p, "p", P_MIN, P_MAX), integer(self.q, "q", 0)
        if p + q > HASH_BITS:
            raise RangeError(f"p+q={p + q} exceeds {HASH_BITS} hash bits")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def m(self) -> int:
        return 1 << self.p

    @property
    def max_register(self) -> int:
        return self.q + 1


@lru_cache(maxsize=None)  # a failure is not kept, so at most 25 x 63 configs
def _config(p: int, q: int) -> SketchConfig:
    """The one shared ``SketchConfig(p, q)``, for decoding many sketches."""
    return SketchConfig(p, q)


def tally(values, config: SketchConfig, shape: tuple, what: str) -> np.ndarray:
    """``values`` as int64 counts, or RangeError unless they are integers of
    ``shape`` that tally the m registers of ``config``: non-negative and
    summing to m, so each is at most m and fits int64."""
    counts = array(values, what)
    if counts.shape != shape:
        raise RangeError(f"{what} has shape {counts.shape}, config wants {shape}")
    if not _is_integral(counts):
        raise RangeError(f"{what} must be integers")
    items = counts.ravel().tolist()  # Python numbers: the sum cannot wrap
    if min(items) < 0:
        raise RangeError(f"{what} must be non-negative")
    if (total := sum(items)) != config.m:
        raise RangeError(f"{what} mass {total} != m={config.m}")
    return counts.astype(np.int64, copy=False)


def histogram_counts(h, config: SketchConfig) -> np.ndarray:
    """``h`` as the int64 histogram of ``config``: RangeError unless ``config``
    is a ``SketchConfig`` and ``h`` tallies its m registers over 0..q+1."""
    config = config_of(config)
    return tally(h, config, (config.q + 2,), "histogram")


class Sketch:
    """Mutable register array addressed by hash prefix.

    ``insert`` updates in place; ``merge`` is pure and returns a fresh sketch.
    """

    __slots__ = ("config", "_regs")

    def __init__(self, config: SketchConfig):
        self.config = config = config_of(config)
        self._regs = np.zeros(config.m, dtype=np.uint8)

    @classmethod
    def from_registers(cls, config: SketchConfig, values) -> "Sketch":
        """Build a sketch from explicit register values (validated).

        Integer and bool arrays pass on their dtype; float values must be
        finite integers, and anything else raises RangeError rather than being
        cast.
        """
        config = config_of(config)
        arr = array(values, "register values")
        if arr.shape != (config.m,):
            raise RangeError(f"expected {config.m} register values, got {arr.shape}")
        if not _is_integral(arr):
            raise RangeError("register values must be integers")
        if arr.size and (np.any(arr < 0) or np.any(arr > config.max_register)):
            raise RangeError(f"register values must lie in 0..{config.max_register}")
        sk = cls(config)
        sk._regs[:] = arr
        return sk

    @property
    def registers(self) -> np.ndarray:
        """Underlying register array (treat as read-only)."""
        return self._regs

    def insert(self, hash_value: int) -> None:
        """Insert one 64-bit hash value, by the rule of ``insert_many``."""
        self.insert_many(integer(hash_value, "hash value", 0, HASH_MAX))

    def insert_many(self, hashes) -> None:
        """Vectorized insertion of an array of 64-bit hash values.

        Raises RangeError unless every value is an integer in [0, 2**64).  A
        single integer is read as one hash, as ``np.asarray`` reads it.
        """
        h = _hash_array(hashes).ravel()
        if h.size == 0:
            return
        p, q = self.config.p, self.config.q
        # an index below 2**26 reads the same as int64
        idx = (h >> (HASH_BITS - p)).view(np.int64)
        np.maximum.at(self._regs, idx, _register_values(h, p, q))

    def histogram(self) -> np.ndarray:
        """The int64 count of registers at each value 0..q+1.

        Small sketches are counted a byte at a time.  Above 256(q+2)
        registers, ``bincount`` reads them two bytes at a time (m is even), so
        it visits m/2 elements and fills a (q+2, 256) table of byte pairs, of
        which only the first q+2 columns can be non-zero; that table is then
        smaller than the registers.  Value k is counted by the pairs with k in
        one byte (row k) plus those with k in the other (column k).  The fold
        is symmetric in the two bytes, so byte order does not matter.
        """
        q2 = self.config.q + 2
        if self._regs.size <= 256 * q2:
            return np.bincount(self._regs, minlength=q2)
        pairs = np.bincount(self._regs.view(np.uint16), minlength=256 * q2)
        pairs = pairs.reshape(q2, 256)[:, :q2]
        return pairs.sum(0) + pairs.sum(1)

    def merge(self, other: "Sketch") -> "Sketch":
        """Pure register-wise maximum; inputs are left untouched."""
        shared_config(self, other, "merge")
        out = Sketch(self.config)
        np.maximum(self._regs, other._regs, out=out._regs)
        return out

    def to_bytes(self) -> bytes:
        """Serialize: magic, version byte, p byte, q byte, m register bytes."""
        head = MAGIC + bytes([VERSION, self.config.p, self.config.q])
        return b"".join((head, self._regs))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        """Parse ``to_bytes`` output, validating structure and register range."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise FormatError(f"serialized sketch is {type(data).__name__}, not bytes")
        if isinstance(data, memoryview):
            data = data.tobytes()  # its bytes in C order, whatever its shape or strides
        if len(data) < 7:
            raise FormatError(f"serialized sketch truncated ({len(data)} bytes)")
        if data[:4] != MAGIC:
            raise FormatError(f"bad magic {bytes(data[:4])!r}")
        if data[4] != VERSION:
            raise FormatError(f"unsupported version {data[4]}")
        config = _config(data[5], data[6])
        if len(data) - 7 != config.m:
            raise FormatError(
                f"expected {config.m} register bytes, got {len(data) - 7}"
            )
        regs = np.frombuffer(data, dtype=np.uint8, offset=7)
        if regs.max() > config.max_register:
            raise RangeError("register value exceeds q+1")
        # one copy, with no zero fill first: frombuffer aliases ``data``
        sk = cls.__new__(cls)
        sk.config = config
        sk._regs = regs.copy()
        return sk

    def __eq__(self, other):
        if not isinstance(other, Sketch):
            return NotImplemented
        return self.config == other.config and np.array_equal(self._regs, other._regs)

    def __repr__(self):
        filled = int(np.count_nonzero(self._regs))
        return f"Sketch(p={self.config.p}, q={self.config.q}, nonzero={filled})"


def config_of(value) -> SketchConfig:
    """``value`` if it is a ``SketchConfig``, else RangeError: no tuple,
    sketch or None is read as one."""
    return instance(value, SketchConfig, "config")


def shared_config(s1, s2, verb: str) -> SketchConfig:
    """The configuration of ``s1`` and ``s2``, or ConfigMismatchError unless
    both are sketches of the same one."""
    if isinstance(s1, Sketch) and isinstance(s2, Sketch) and s1.config == s2.config:
        return s1.config
    c1, c2 = (s.config if isinstance(s, Sketch) else type(s).__name__ for s in (s1, s2))
    raise ConfigMismatchError(f"cannot {verb} {c1} with {c2}")


def _hash_array(hashes) -> np.ndarray:
    """``hashes`` as uint64, or RangeError for anything but integers in [0, 2**64).

    Unsigned and bool arrays pass on their dtype alone; signed arrays need a
    sign check.  Floats and objects are converted element by element: numpy
    reads a list that mixes ints below and above 2**63 as float64, so only
    the original elements are exact.
    """
    h = array(hashes, "hash values")
    if h.dtype.kind in "ub":
        return h.astype(np.uint64, copy=False)
    if h.dtype.kind == "i":
        if h.size and h.min() < 0:
            raise RangeError("hash values must be non-negative")
        return h.astype(np.uint64)
    if h.ndim != 1:
        raise RangeError("hash values must be integers in [0, 2**64)")
    return np.array(
        [integer(x, "hash value", 0, HASH_MAX) for x in hashes], dtype=np.uint64
    )


def _is_integral(arr: np.ndarray) -> bool:
    """True for integer and bool arrays, on their dtype alone, and for float
    arrays whose values are all finite integers."""
    if arr.dtype.kind in "iub":
        return True
    return arr.dtype.kind == "f" and bool(
        np.all(np.isfinite(arr) & (arr == np.floor(arr)))
    )


@lru_cache(maxsize=None)  # t <= 16, so at most 17 tables and 128 KB
def _value_table(t: int) -> np.ndarray:
    """Read-only 1 + the count of leading zero bits of every t-bit v, as uint8."""
    table = np.empty(1 << t, dtype=np.uint8)
    table[0] = t + 1
    for k in range(t):
        table[1 << k : 2 << k] = t - k
    table.flags.writeable = False
    return table


def _register_values(h: np.ndarray, p: int, q: int) -> np.ndarray:
    """Register value 1 + the count of leading zero bits of the q-bit field
    below the top p bits of each hash in ``h``, as uint8.

    The top t = min(q, 16) bits of the field are looked up in one table.  A
    field whose top t bits are all zero reads t + 1 there; when q > t it has
    q - t bits left, and its value is t plus theirs, by the same lookup one
    level down (at most four levels, as q <= 62).
    """
    t = min(q, 16)
    top = h >> (HASH_BITS - p - t)
    top &= (1 << t) - 1
    vals = _value_table(t).take(top.view(np.int64))
    if q > t and vals.max() > t:
        deep = vals > t
        vals[deep] = t + _register_values(h[deep], p + t, q - t)
    return vals
