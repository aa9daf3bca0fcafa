"""Register-based distinct-count sketch with byte-wide registers.

A sketch keeps m = 2**p single-byte registers.  For each inserted 64-bit
hash, the top p bits select a register and the following q bits are scanned
most-significant-first for the position of the first one bit (q+1 when those
bits are all zero).  The register keeps the maximum position seen, so a
sketch is fully determined by the *set* of hashes inserted, never by their
order or multiplicity.  All estimators in this package consume only the
histogram of register values, which therefore acts as the sufficient
statistic of the sketch.

Valid parameters: 2 <= p <= 26, q >= 0, p + q <= 64.  Register values live
in 0..q+1 and fit one byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigMismatchError, FormatError, RangeError, integer

MAGIC = b"HLLS"
VERSION = 1

P_MIN, P_MAX = 2, 26
HASH_BITS = 64
HASH_MAX = (1 << HASH_BITS) - 1
# 2^-k for k = 0..HASH_BITS, built once and shared read-only; powers of two
# are exact, so every sum over a slice is the same as over a fresh table
_POW2 = np.exp2(-np.arange(HASH_BITS + 1, dtype=float))
_POW2.flags.writeable = False


def pow2_weights(q: int) -> np.ndarray:
    """Read-only 2^-k for every register value k = 0..q+1."""
    return _POW2[: q + 2]


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


class RegisterHistogram:
    """Counts of register values: counts[k] registers hold value k, k in 0..q+1."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        counts = np.asarray(counts)
        if not _is_integral(counts):
            raise RangeError("histogram counts must be integers")
        if (counts < 0).any():
            raise RangeError("histogram counts must be non-negative")
        if counts.dtype.kind in "uf" and (counts >= 2**63).any():
            raise RangeError("histogram counts must be below 2**63 to fit int64")
        self.counts = counts.astype(np.int64, copy=False)
        if self.counts.ndim != 1 or self.counts.size < 2:
            raise RangeError("histogram needs one count per register value 0..q+1")

    @property
    def c0(self) -> int:
        """Number of registers still at zero."""
        return int(self.counts[0])

    @property
    def saturated(self) -> int:
        """Number of registers at the maximum value q+1."""
        return int(self.counts[-1])

    def total(self) -> int:
        return int(self.counts.sum())

    def check(self, config: SketchConfig) -> "RegisterHistogram":
        """Validate this histogram against a configuration (shape and mass)."""
        if self.counts.size != config.q + 2:
            raise RangeError(
                f"histogram has {self.counts.size} bins, config wants {config.q + 2}"
            )
        if self.total() != config.m:
            raise RangeError(f"histogram mass {self.total()} != m={config.m}")
        return self

    def __eq__(self, other):
        if not isinstance(other, RegisterHistogram):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)

    def __repr__(self):
        return f"RegisterHistogram({self.counts.tolist()})"


class Sketch:
    """Mutable register array addressed by hash prefix.

    ``insert`` updates in place; ``merge`` is pure and returns a fresh sketch.
    """

    __slots__ = ("config", "_regs")

    def __init__(self, config: SketchConfig):
        self.config = config
        self._regs = np.zeros(config.m, dtype=np.uint8)

    @classmethod
    def from_registers(cls, config: SketchConfig, values) -> "Sketch":
        """Build a sketch from explicit register values (validated).

        Integer and bool arrays pass on their dtype; float values must be
        finite integers, and anything else raises RangeError rather than being
        cast.
        """
        arr = np.asarray(values)
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
        """Insert one 64-bit hash value."""
        hash_value = integer(hash_value, "hash value", 0, HASH_MAX)
        p, q = self.config.p, self.config.q
        idx = hash_value >> (HASH_BITS - p)
        if q:
            bits = (hash_value >> (HASH_BITS - p - q)) & ((1 << q) - 1)
            value = q - bits.bit_length() + 1 if bits else q + 1
        else:
            value = 1
        if value > self._regs[idx]:
            self._regs[idx] = value

    def insert_many(self, hashes) -> None:
        """Vectorized insertion of an array of 64-bit hash values.

        Raises RangeError unless every value is an integer in [0, 2**64).  A
        single integer is read as one hash, as ``np.asarray`` reads it.
        """
        h = _hash_array(hashes).ravel()
        if h.size == 0:
            return
        p, q = self.config.p, self.config.q
        # every shift makes a fresh array, so the in-place steps below leave
        # the caller's hashes alone; an index below 2**26 reads the same as int64
        idx = (h >> (HASH_BITS - p)).view(np.int64)
        bits = h >> (HASH_BITS - p - q)
        bits &= (1 << q) - 1
        np.maximum.at(self._regs, idx, _register_values(bits, q))

    def histogram(self) -> RegisterHistogram:
        """Count of registers at each value 0..q+1.

        Small sketches are counted a byte at a time.  Above 256(q+2)
        registers, ``bincount`` reads them two bytes at a time (m is even), so
        it visits m/2 elements and fills a (q+2, 256) table of byte pairs, of
        which only the first q+2 columns can be non-zero; that table is then
        smaller than the registers.  Value k is counted by the pairs with k in
        one byte (row k) plus those with k in the other (column k).  The fold
        is symmetric in the two bytes, so byte order does not matter.

        The counts skip ``RegisterHistogram``'s checks, as ``from_bytes``
        skips those of ``from_registers``: registers lie in 0..q+1, so either
        path gives q+2 non-negative int64 counts in one dimension, which is
        all the constructor would confirm.  Its checks cost about a quarter
        of a p=12 histogram, and the error studies build one per trial.
        """
        q2 = self.config.q + 2
        if self._regs.size <= 256 * q2:
            counts = np.bincount(self._regs, minlength=q2)
        else:
            pairs = np.bincount(self._regs.view(np.uint16), minlength=256 * q2)
            pairs = pairs.reshape(q2, 256)[:, :q2]
            counts = pairs.sum(0) + pairs.sum(1)
        hist = RegisterHistogram.__new__(RegisterHistogram)
        hist.counts = counts
        return hist

    def merge(self, other: "Sketch") -> "Sketch":
        """Pure register-wise maximum; inputs are left untouched."""
        if self.config != other.config:
            raise ConfigMismatchError(
                f"cannot merge {self.config} with {other.config}"
            )
        out = Sketch(self.config)
        np.maximum(self._regs, other._regs, out=out._regs)
        return out

    def to_bytes(self) -> bytes:
        """Serialize: magic, version byte, p byte, q byte, m register bytes."""
        head = MAGIC + bytes([VERSION, self.config.p, self.config.q])
        return head + self._regs.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        """Parse ``to_bytes`` output, validating structure and register range."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise FormatError(f"serialized sketch is {type(data).__name__}, not bytes")
        if len(data) < 7:
            raise FormatError(f"serialized sketch truncated ({len(data)} bytes)")
        if data[:4] != MAGIC:
            raise FormatError(f"bad magic {data[:4]!r}")
        if data[4] != VERSION:
            raise FormatError(f"unsupported version {data[4]}")
        config = SketchConfig(data[5], data[6])
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


def _hash_array(hashes) -> np.ndarray:
    """``hashes`` as uint64, or RangeError for anything but integers in [0, 2**64).

    Unsigned and bool arrays pass on their dtype alone; signed arrays need a
    sign check.  Floats and objects are converted element by element: numpy
    reads a list that mixes ints below and above 2**63 as float64, so only
    the original elements are exact.
    """
    h = np.asarray(hashes)
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


def _register_values(bits: np.ndarray, q: int) -> np.ndarray:
    """Register value q + 1 - bit_length(v) of each q-bit field v, as uint8;
    ``bits`` is overwritten when q > 53.

    The value is read from the biased exponent E of v as a float64, which is
    E - 1022 = bit_length(v) for v > 0, so the value is q + 1023 - E.  The
    read is exact: a field below 2**53 converts exactly, and a wider one
    keeps its top one bit and the 52 below it, so only the next bit down can
    round it up, possibly to the next power of two; ``v >> 53`` has a one in
    that place, and ``v & ~(v >> 53)`` clears it (and otherwise only bits
    further down).  A zero field has E = 0, so q + 1023 - E is capped at
    q + 1, the value of a field with no one bit.  Fields are below 2**63, so
    they convert from their int64 view, which is faster than from uint64.
    """
    if q > 53:
        bits &= ~(bits >> 53)
    e = bits.view(np.int64).astype(np.float64).view(np.int64)
    e >>= 52
    np.subtract(q + 1023, e, out=e)
    np.minimum(e, q + 1, out=e)
    return e.astype(np.uint8)
