"""Sketch structure: insertion bit layout, merge lattice, histogram, serialization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hllkit.classic import raw_estimate
from hllkit.errors import ConfigMismatchError, FormatError, HllError, RangeError
from hllkit.improved import improved_estimate
from hllkit.joint import inclusion_exclusion_estimate, joint_ml_estimate
from hllkit.ml import ml_bracket, ml_estimate, ml_root_function
from hllkit.sim import RngSeed, sample_joint_pair, sample_sketch
from hllkit.sketch import Sketch, SketchConfig, _register_values, tally

HASHES = st.integers(min_value=0, max_value=2**64 - 1)
# 0, every power of two, every 2**k - 1 (including 2**64 - 1), and around
# 2**k - 2**(k-54), which lie half way between two float64 values
BIT_EDGES = sorted(
    {0} | {1 << k for k in range(64)} | {(1 << k) - 1 for k in range(1, 65)}
    | {(1 << k) - (1 << (k - 54)) + d for k in range(54, 65) for d in (-1, 0, 1)}
)


def spread_hashes(p):
    """Hashes whose index and value bits are drawn apart, so that small draws
    do not all land in register 0."""
    return st.tuples(st.integers(0, (1 << p) - 1), st.integers(0, 2**(64 - p) - 1)).map(
        lambda t: (t[0] << (64 - p)) | t[1])


def make(p=12, q=20):
    return Sketch(SketchConfig(p, q))


class TestConfig:
    def test_m_is_power_of_two(self):
        assert SketchConfig(12, 20).m == 4096
        assert SketchConfig(2, 0).m == 4

    @pytest.mark.parametrize("p,q", [(1, 0), (27, 0), (12, -1), (12, 53), (26, 39)])
    def test_invalid_parameters_rejected(self, p, q):
        with pytest.raises(RangeError):
            SketchConfig(p, q)

    @pytest.mark.parametrize("p,q", [(8, 2.5), (2.5, 3), (8.0, 16), (8, "16"), (None, 0)])
    def test_non_integer_parameters_rejected(self, p, q):
        with pytest.raises(RangeError):
            SketchConfig(p, q)

    def test_numpy_integer_parameters_accepted(self):
        assert SketchConfig(np.int64(8), np.uint8(16)) == SketchConfig(8, 16)

    @pytest.mark.parametrize("kind", [np.int8, np.int16, np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("p,q", [(2, 62), (7, 20), (12, 20)])
    def test_numpy_integer_parameters_stored_as_int(self, kind, p, q):
        # in a small numpy type, 1 << p and p + q would wrap
        cfg, want = SketchConfig(kind(p), kind(q)), SketchConfig(p, q)
        assert cfg.m == want.m == 1 << p and type(cfg.m) is int
        assert type(cfg.p) is int and type(cfg.q) is int
        assert Sketch(cfg).registers.size == want.m
        assert cfg == want and hash(cfg) == hash(want)

    @pytest.mark.parametrize("kind", [np.int8, np.int16, np.uint8, np.uint16, np.int64])
    def test_numpy_integer_parameters_past_64_bits_rejected(self, kind):
        with pytest.raises(RangeError, match="exceeds 64"):
            SketchConfig(kind(2), kind(127))

    def test_boundary_parameters_accepted(self):
        SketchConfig(2, 62)
        SketchConfig(26, 38)
        SketchConfig(26, 0)


class TestInsert:
    def test_all_zero_hash_saturates_first_register(self):
        # no one bit among the q value bits -> value q+1, lands in register 0
        sk = make()
        sk.insert(0)
        assert sk.registers[0] == 21
        assert np.count_nonzero(sk.registers) == 1

    def test_leading_value_bit_gives_one(self):
        # index bits 000000000101 (=5), first value bit set -> value 1
        sk = make()
        sk.insert((5 << 52) | (1 << 51))
        assert sk.registers[5] == 1

    @pytest.mark.parametrize("j", [1, 2, 5, 19, 20])
    def test_first_one_bit_position_is_register_value(self, j):
        # single one bit at scan position j within the q value bits -> value j
        sk = make()
        sk.insert(1 << (64 - 12 - j))
        assert sk.registers[0] == j

    def test_double_insert_is_single_insert(self):
        a, b = make(), make()
        h = 0x9E3779B97F4A7C15
        a.insert(h)
        b.insert(h)
        b.insert(h)
        assert a == b

    def test_register_keeps_maximum(self):
        sk = make(4, 4)
        sk.insert(1 << (64 - 4 - 2))  # value 2
        sk.insert(1 << (64 - 4 - 4))  # value 4, same register
        assert sk.registers[0] == 4
        sk.insert(1 << (64 - 4 - 1))  # value 1 must not lower it
        assert sk.registers[0] == 4

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_out_of_range_hash_rejected(self, bad):
        with pytest.raises(RangeError):
            make().insert(bad)

    def test_float_hash_rejected(self):
        with pytest.raises(RangeError):
            make().insert(1.5)

    def test_q_zero_sets_bitmap_bit(self):
        sk = make(4, 0)
        sk.insert(3 << 60)
        assert sk.registers[3] == 1
        assert sk.config.max_register == 1

    @given(st.lists(HASHES, max_size=60), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_irrelevant(self, hashes, rnd):
        a, b = make(6, 10), make(6, 10)
        for h in hashes:
            a.insert(h)
        shuffled = list(hashes)
        rnd.shuffle(shuffled)
        for h in shuffled:
            b.insert(h)
        assert a == b

    @given(st.lists(HASHES, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_registers_never_decrease(self, hashes):
        sk = make(5, 12)
        prev = sk.registers.copy()
        for h in hashes:
            sk.insert(h)
            assert np.all(sk.registers >= prev)
            prev = sk.registers.copy()


class TestInsertMany:
    def test_matches_scalar_inserts(self):
        rng = np.random.default_rng(7)
        hashes = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
        a, b = make(8, 16), make(8, 16)
        a.insert_many(hashes)
        for h in hashes:
            b.insert(int(h))
        assert a == b

    def test_power_of_two_value_fields(self):
        # exact power-of-two bit fields are where float log2 shortcuts go wrong
        p, q = 8, 40
        crafted = [1 << (64 - p - j) for j in range(1, q + 1)]
        crafted += [(1 << (64 - p - j)) | (1 << (64 - p - q)) for j in range(1, q)]
        a, b = make(p, q), make(p, q)
        a.insert_many(np.array(crafted, dtype=np.uint64))
        for h in crafted:
            b.insert(h)
        assert a == b

    def test_empty_input_is_noop(self):
        sk = make()
        sk.insert_many(np.array([], dtype=np.uint64))
        assert sk == make()

    def test_empty_list_is_noop(self):
        # np.asarray([]) is float64, which must not trip the float check
        sk = make()
        sk.insert_many([])
        assert sk == make()

    def test_float_hashes_rejected(self):
        sk = make()
        with pytest.raises(RangeError):
            sk.insert_many([1.7])
        assert sk == make()

    def test_negative_hash_rejected(self):
        with pytest.raises(RangeError):
            make().insert_many([-1])

    @pytest.mark.parametrize("bad", [[2**64], [1, 2**64], [2**70]])
    def test_hash_above_64_bits_rejected(self, bad):
        with pytest.raises(RangeError):
            make().insert_many(bad)

    @pytest.mark.parametrize("q", [0, 20])
    def test_single_integer_is_one_hash(self, q):
        a, b = make(4, q), make(4, q)
        a.insert_many(2**63 + 5)
        b.insert(2**63 + 5)
        assert a == b

    def test_list_mixing_small_and_large_ints(self):
        # numpy reads [1, 2**63] as float64; the exact integers must still land
        hashes = [1, 2**63, 2**64 - 1]
        a, b = make(), make()
        a.insert_many(hashes)
        for h in hashes:
            b.insert(h)
        assert a == b

    @given(st.lists(HASHES, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_bit_length_matches_int_bit_length(self, drawn):
        # the q-bit fields among the edges, and the top q bits of each draw,
        # each placed below a p = 2 index of zero
        for q in (0, 1, 15, 16, 17, 20, 31, 32, 33, 48, 49, 52, 53, 54, 62):
            fields = [v for v in BIT_EDGES if v < 1 << q] + [v >> (64 - q) for v in drawn]
            hashes = np.array([v << (62 - q) for v in fields], dtype=np.uint64)
            got = _register_values(hashes, 2, q)
            assert got.dtype == np.uint8
            assert got.tolist() == [q + 1 - v.bit_length() for v in fields]

    @given(st.sampled_from([(12, 0), (12, 1), (12, 16), (12, 17), (12, 20), (12, 33),
                            (12, 49), (2, 62), (26, 38), (12, 52), (11, 53),
                            (10, 54)]).flatmap(
        lambda pq: st.tuples(st.just(pq), st.lists(spread_hashes(pq[0]), max_size=200))))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_inserts_across_q(self, case):
        (p, q), hashes = case
        a, b = make(p, q), make(p, q)
        a.insert_many(np.array(hashes, dtype=np.uint64))
        for h in hashes:
            b.insert(h)
        assert a == b


class TestMerge:
    def test_merge_with_fresh_is_identity(self):
        sk = make()
        sk.insert(123456789)
        assert sk.merge(make()) == sk

    def test_config_mismatch_rejected(self):
        with pytest.raises(ConfigMismatchError):
            make(12, 20).merge(make(12, 19))
        with pytest.raises(ConfigMismatchError):
            make(12, 20).merge(make(11, 21))

    def test_merge_does_not_alias_inputs(self):
        a, b = make(), make()
        a.insert(1 << 63)
        before_a, before_b = a.registers.copy(), b.registers.copy()
        out = a.merge(b)
        out._regs[:] = 99
        assert np.array_equal(a.registers, before_a)
        assert np.array_equal(b.registers, before_b)

    def test_union_oracle_1000_hashes(self):
        # merge of per-set sketches must equal the sketch of the union
        rng = np.random.default_rng(11)
        pool = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
        set_a, set_b = pool[:700], pool[400:]  # overlapping split
        sa, sb, su = make(), make(), make()
        sa.insert_many(set_a)
        sb.insert_many(set_b)
        su.insert_many(pool)
        assert sa.merge(sb) == su

    @given(st.lists(HASHES, max_size=30), st.lists(HASHES, max_size=30),
           st.lists(HASHES, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_semilattice_laws(self, ha, hb, hc):
        a, b, c = make(4, 8), make(4, 8), make(4, 8)
        for sk, hs in ((a, ha), (b, hb), (c, hc)):
            for h in hs:
                sk.insert(h)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(a) == a


def _tally(counts, config):
    return tally(counts, config, (config.q + 2,), "histogram")


class TestHistogram:
    def test_fresh_sketch(self):
        h = make().histogram()
        assert h[0] == 4096
        assert h.sum() == 4096
        assert np.all(h[1:] == 0)

    def test_single_register_at_three(self):
        sk = make()
        sk.insert(1 << (64 - 12 - 3))  # value 3 into register 0
        h = sk.histogram()
        assert h[0] == 4095
        assert h[3] == 1
        assert h.sum() == 4096

    @given(st.lists(HASHES, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_mass_conserved(self, hashes):
        sk = make(5, 11)
        for h in hashes:
            sk.insert(h)
        h = sk.histogram()
        assert h.sum() == 32
        assert h.size == 13
        assert _tally(h, sk.config) is h  # passes, and an int64 array is not copied

    def test_histogram_of_merge_conserves_mass(self):
        rng = np.random.default_rng(3)
        a, b = make(6, 10), make(6, 10)
        a.insert_many(rng.integers(0, 2**64, 500, dtype=np.uint64))
        b.insert_many(rng.integers(0, 2**64, 500, dtype=np.uint64))
        assert a.merge(b).histogram().sum() == 64

    # byte counts up to m = 256 (q+2) registers, byte pairs above: (11, 6) and
    # (10, 2) sit on the switch, (11, 5) and (10, 1) just above it
    @given(st.sampled_from([(2, 0), (2, 62), (4, 60), (10, 1), (10, 2), (11, 5), (11, 6),
                            (12, 20), (16, 16), (16, 48)]),
           st.sampled_from(["random", "zero", "saturated"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_counts_match_bytewise_bincount(self, pq, fill, seed):
        p, q = pq
        m = 1 << p
        rng = np.random.default_rng(seed)
        regs = {
            "random": rng.integers(0, rng.integers(1, q + 3), m),
            "zero": np.zeros(m, dtype=int),
            "saturated": np.full(m, q + 1),
        }[fill]
        sk = Sketch.from_registers(SketchConfig(p, q), regs)
        assert sk.histogram().tolist() == np.bincount(regs, minlength=q + 2).tolist()

    def test_check_rejects_wrong_shape_or_mass(self):
        with pytest.raises(RangeError, match="shape"):
            _tally([1, 2, 3], SketchConfig(2, 0))  # 2 bins wanted
        with pytest.raises(RangeError, match="shape"):
            _tally([2, 2], SketchConfig(2, 1))  # 3 bins wanted
        with pytest.raises(RangeError, match="non-negative"):
            _tally([4, -1, 1], SketchConfig(2, 1))
        with pytest.raises(RangeError, match="mass 6 != m=4"):
            _tally([1, 2, 3], SketchConfig(2, 1))

    @pytest.mark.parametrize("estimate", [raw_estimate, improved_estimate, ml_estimate, ml_bracket])
    def test_counts_whose_int64_sum_wraps_to_m_rejected(self, estimate):
        # 2 (2**63 - 1) + 18 wraps to 16 = m in int64: the mass check passed,
        # then ml_estimate gave 9.2058, raw_estimate 1.33e-17, improved_estimate
        # a DomainError and ml_bracket an invalid bracket
        h = [2**63 - 1, 2**63 - 1, 18, 0]
        with pytest.raises(RangeError, match=f"mass {2**64 + 16} != m=16"):
            estimate(h, SketchConfig(4, 2))

    @pytest.mark.parametrize(
        "counts", [[1.5, 2.5], [2.0, np.nan], [2.0, np.inf], ["1", "3"], [1, 2**70]]
    )
    def test_non_integral_counts_rejected(self, counts):
        with pytest.raises(RangeError, match="must be integers"):
            _tally(counts, SketchConfig(2, 0))

    def test_integral_float_counts_accepted(self):
        got = _tally([1.0, 3.0], SketchConfig(2, 0))
        assert got.dtype == np.int64
        assert np.array_equal(got, _tally([1, 3], SketchConfig(2, 0)))

    @pytest.mark.parametrize(
        "counts",
        [[1e300, 1.0], [2.0**63, 1.0], np.array([2**63, 1], dtype=np.uint64)],
        ids=["1e300", "float-2**63", "uint64-2**63"],
    )
    def test_counts_past_int64_rejected_for_their_size(self, counts):
        # the int64 cast would wrap them negative, with a warning for floats;
        # a count above m fails the mass test before any cast
        with pytest.raises(RangeError, match="mass .* != m=4"):
            _tally(counts, SketchConfig(2, 0))


class TestSerialization:
    def test_fresh_roundtrip_and_layout(self):
        sk = make()
        blob = sk.to_bytes()
        assert blob[:4] == b"HLLS"
        assert blob[4] == 1
        assert blob[5] == 12
        assert blob[6] == 20
        assert len(blob) == 7 + 4096
        assert Sketch.from_bytes(blob) == sk

    def test_roundtrip_after_bulk_insertions(self):
        rng = np.random.default_rng(5)
        sk = make()
        sk.insert_many(rng.integers(0, 2**64, size=100_000, dtype=np.uint64))
        assert Sketch.from_bytes(sk.to_bytes()) == sk

    def test_bad_magic(self):
        blob = bytearray(make(2, 0).to_bytes())
        blob[0] = ord("X")
        with pytest.raises(FormatError):
            Sketch.from_bytes(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(make(2, 0).to_bytes())
        blob[4] = 2
        with pytest.raises(FormatError):
            Sketch.from_bytes(bytes(blob))

    def test_truncated_payload(self):
        blob = make(2, 0).to_bytes()
        with pytest.raises(FormatError):
            Sketch.from_bytes(blob[:-1])
        with pytest.raises(FormatError):
            Sketch.from_bytes(blob[:3])

    @pytest.mark.parametrize("data", [5, None, 1.5], ids=["int", "none", "float"])
    def test_non_bytes_rejected(self, data):
        with pytest.raises(FormatError):  # was a raw TypeError from len()
            Sketch.from_bytes(data)

    def test_register_above_qplus1_rejected(self):
        blob = bytearray(make(2, 3).to_bytes())
        blob[7] = 5  # q+2, one above the maximum register value
        with pytest.raises(RangeError):
            Sketch.from_bytes(bytes(blob))

    def test_bad_parameter_bytes_rejected(self):
        # p below minimum, then p + q past 64 bits; decoded configs are
        # cached, so a second call must fail the same way
        for p, q in ((1, 0), (2, 63)):
            blob = bytearray(make(2, 0).to_bytes())
            blob[5:7] = bytes([p, q])
            for _ in range(2):
                with pytest.raises(RangeError):
                    Sketch.from_bytes(bytes(blob))

    def test_decodes_share_one_config(self):
        blob = make(4, 6).to_bytes()
        assert Sketch.from_bytes(blob).config is Sketch.from_bytes(blob).config

    def test_strided_memoryview_read_by_bytes(self):
        sk = make(4, 6)
        sk.insert(5 << 60)
        blob = sk.to_bytes()
        interleaved = bytearray(2 * len(blob))
        interleaved[::2] = blob
        assert Sketch.from_bytes(memoryview(interleaved)[::2]) == sk

    def test_2d_memoryview_read_by_bytes(self):
        sk = make(4, 6)
        sk.insert(5 << 60)
        rows = np.frombuffer(sk.to_bytes(), dtype=np.uint8).reshape(1, -1)
        assert Sketch.from_bytes(memoryview(rows)) == sk

    def test_bad_magic_in_memoryview_shows_its_bytes(self):
        blob = bytearray(make(4, 6).to_bytes())
        blob[0] = ord("X")
        with pytest.raises(FormatError, match=r"^bad magic b'XLLS'$"):
            Sketch.from_bytes(memoryview(blob))

    @pytest.mark.parametrize("wrap", [bytes, bytearray])
    def test_decoded_sketch_is_writable_copy(self, wrap):
        sk = make(4, 6)
        sk.insert(5 << 60)
        blob = wrap(sk.to_bytes())
        before = bytes(blob)
        decoded = Sketch.from_bytes(blob)
        decoded.insert(1 << 63)
        decoded.insert_many(np.array([2**64 - 1], dtype=np.uint64))
        assert bytes(blob) == before
        assert decoded != sk

    def test_mutating_source_bytearray_leaves_sketch(self):
        sk = make(4, 6)
        sk.insert(5 << 60)
        blob = bytearray(sk.to_bytes())
        decoded = Sketch.from_bytes(blob)
        blob[7:] = bytes([6]) * 16
        assert decoded == sk

    @given(st.lists(HASHES, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, hashes):
        sk = make(4, 6)
        for h in hashes:
            sk.insert(h)
        assert Sketch.from_bytes(sk.to_bytes()) == sk


class TestFromRegisters:
    def test_valid_values(self):
        cfg = SketchConfig(2, 3)
        sk = Sketch.from_registers(cfg, [0, 1, 4, 2])
        assert sk.histogram().tolist() == [1, 1, 1, 0, 1]

    def test_wrong_length(self):
        with pytest.raises(RangeError):
            Sketch.from_registers(SketchConfig(2, 3), [0, 1])

    def test_value_out_of_range(self):
        with pytest.raises(RangeError):
            Sketch.from_registers(SketchConfig(2, 3), [0, 0, 0, 5])

    @pytest.mark.parametrize("bad", [1.5, 0.5, float("nan")])
    def test_non_integral_value_rejected(self, bad):
        # casting into the uint8 registers would truncate 1.5 to 1 and 0.5 to 0
        with pytest.raises(RangeError):
            Sketch.from_registers(SketchConfig(2, 3), [bad, 0, 0, 0])

    def test_integral_floats_accepted(self):
        cfg = SketchConfig(2, 3)
        sk = Sketch.from_registers(cfg, [0.0, 1.0, 4.0, 2.0])
        assert sk == Sketch.from_registers(cfg, [0, 1, 4, 2])


class TestKernelDigests:
    """sha256 of registers and histogram counts, pinned: any change to the
    insertion, histogram or sampling kernels that moves one bit fails here."""

    @staticmethod
    def _feed(digest, sk):
        digest.update(sk.registers.tobytes())
        digest.update(sk.histogram().astype("<i8").tobytes())

    @staticmethod
    def _streams(p, q):
        """The sketch after each batch: uniform hashes, then the same shifted
        right by 0..63 bits, so that every bit length and the saturated value
        all occur."""
        rng = np.random.default_rng(p * 100 + q)
        sk = make(p, q)
        for size in (1 << (p - 2), 1 << p, 1 << (p + 2)):
            h = rng.integers(0, 2**64, size=size, dtype=np.uint64)
            shifts = rng.integers(0, 64, size=size, dtype=np.uint64)
            sk.insert_many(h)
            yield sk
            sk.insert_many(h >> shifts)
            yield sk

    @pytest.mark.parametrize("p,q,want", [
        (12, 20, "6303e3c3bbb94829bd55617b0bdac6a9bc688e089a0db87728f749d18f0c1f68"),
        (16, 16, "f903e6b9da574ba68ca30a4a7e86dffe19da039122a66589cc36e119adf95620"),
        (4, 60, "ffe51150bd2e3d9e0eace88709684785dc4c372b635fab79b15d2487f0885fad"),
    ])
    def test_insert_many(self, p, q, want):
        digest = hashlib.sha256()
        for sk in self._streams(p, q):
            self._feed(digest, sk)
        assert digest.hexdigest() == want

    def test_insert_many_long_zero_runs(self):
        # uniform hashes whose bits below the index are shifted right by
        # 0, 16, 32 or 48 bits, give or take two, so that value fields with
        # their top 16, 32 or 48 bits zero fill the registers; one fresh sketch
        # per shift band, so that each band sets its own register maxima
        digest = hashlib.sha256()
        for p, q in ((12, 16), (12, 17), (12, 33), (12, 49), (11, 53), (10, 54),
                     (2, 62), (4, 0)):
            rng = np.random.default_rng(p * 100 + q)
            low = np.uint64((1 << (64 - p)) - 1)
            for base in (0, 16, 32, 48):
                h = rng.integers(0, 2**64, size=4096, dtype=np.uint64)
                shifts = rng.integers(max(base - 2, 0), base + 3, size=4096, dtype=np.uint64)
                sk = make(p, q)
                sk.insert_many((h & ~low) | ((h & low) >> shifts))
                self._feed(digest, sk)
        assert digest.hexdigest() == (
            "84da43c80b6b2757bd35509dacb34443a2c12dffcd79ab83d270f3bc42435d21")

    @staticmethod
    def _estimates(h, config):
        """repr of every single-sketch estimate and ML quantity of one histogram."""
        bracket = ml_bracket(h, config)
        return repr([raw_estimate(h, config), improved_estimate(h, config),
                     ml_estimate(h, config), bracket.lower, bracket.upper,
                     ml_root_function(bracket.lower, h, config)])

    def test_estimators(self):
        # the insert_many streams above, tiny draws where the ML root takes
        # the small-u series, and a histogram with saturated registers
        cases = [(sk.config, sk.histogram()) for pq in ((12, 20), (16, 16), (4, 60))
                 for sk in self._streams(*pq)]
        config = SketchConfig(12, 20)
        cases += [(config, sample_sketch(n, config, RngSeed(2017).generator(n)).histogram())
                  for n in (1, 2, 5)]
        counts = np.zeros(config.q + 2, dtype=np.int64)
        counts[[0, 1, 7, config.q, config.q + 1]] = [3000, 600, 400, 60, 36]
        cases.append((config, counts))
        digest = hashlib.sha256()
        for config, h in cases:
            digest.update(self._estimates(h, config).encode())
        assert digest.hexdigest() == (
            "b670fb966472da9d6dcf06194b3478bec5a6b34cbdc1af542a1ad101a0357483")

    def test_estimators_wide_words(self):
        # with p + q > 52 a histogram's sum of C_k 2^-k holds more bits than a
        # float does, so a sum taken in another order moves the last bits:
        # histograms whose register values are spread over 0..q+1, among them
        # one where adding the dot's slices apart moves raw and ML two ulps
        cases = []
        for p, q in ((4, 60), (2, 62), (11, 53)):
            config, rng = SketchConfig(p, q), np.random.default_rng(p * 100 + q)
            for _ in range(300):
                top = int(rng.integers(1, q + 2))
                counts = np.bincount(rng.integers(0, top + 1, size=config.m), minlength=q + 2)
                if counts[0] < config.m and counts[-1] < config.m:
                    cases.append((config, counts))
        config = SketchConfig(4, 60)
        counts = np.zeros(config.q + 2, dtype=np.int64)
        counts[[0, 5, 6, 8, 12, 15, 16, 21, 24, 28, 30, 31, 53, 55, 57, 58]] = 1
        cases.append((config, counts))
        digest = hashlib.sha256()
        for config, h in cases:
            digest.update(self._estimates(h, config).encode())
        assert digest.hexdigest() == (
            "d23ffc325a94a83e57ccf366b41240a69badb9c31bc2a63778154cfe05bc2fa9")

    def test_joint_estimators(self):
        # sampled pairs, a pair with saturated registers on both sides, two
        # fully saturated sketches and one saturated side against a finite
        # one; a failed estimate is pinned by its error's type
        pairs = []
        for p, q in ((12, 16), (12, 20), (11, 53)):
            config, rng = SketchConfig(p, q), RngSeed(p * 100 + q)
            for gi, cards in enumerate([(10000, 10000, 10000), (10000, 10000, 100),
                                        (100, 100, 10000), (100000, 1000, 1000)]):
                pairs += [sample_joint_pair(*cards, config, rng.generator(gi * 5 + t))
                          for t in range(5)]
        # pairs whose values are spread over 0..q+1 while each side keeps
        # registers at zero, so that their histograms' sums are wide words too
        for p, q in ((4, 60), (11, 53)):
            config, rng = SketchConfig(p, q), np.random.default_rng(p * 100 + q)
            for _ in range(100):
                top = int(rng.integers(1, q + 2))
                regs = rng.integers(0, top + 1, size=(3, config.m))
                ra, rb, rx = regs * (rng.random((3, config.m)) < 0.6)
                pairs.append((Sketch.from_registers(config, np.maximum(ra, rx)),
                              Sketch.from_registers(config, np.maximum(rb, rx))))
        config = SketchConfig(4, 2)
        pairs.append(sample_joint_pair(20, 20, 20, config, RngSeed(42).generator(0)))
        full = Sketch.from_registers(config, np.full(config.m, config.q + 1))
        pairs += [(full, full), (full, Sketch.from_registers(config, np.ones(config.m)))]
        digest = hashlib.sha256()
        for s1, s2 in pairs:
            for fn in (inclusion_exclusion_estimate, joint_ml_estimate):
                try:
                    est = fn(s1, s2)
                    out = [est.a, est.b, est.x]
                except HllError as exc:
                    out = type(exc).__name__
                digest.update(repr(out).encode())
        assert digest.hexdigest() == (
            "55ff0f7d6630b58545585d27ae57bc8ab6ea374b21727174073ab9e22f0afe82")

    def test_sample_sketch_error_curve_grid(self):
        config, rng = SketchConfig(12, 20), RngSeed(2017)
        digest = hashlib.sha256()
        for i, n in enumerate(int(v) for v in np.rint(np.geomspace(1, 1e7, 22))):
            self._feed(digest, sample_sketch(n, config, rng.generator(i)))
        assert digest.hexdigest() == (
            "e480b0fa2552102195653fba7b90ab1439522a737c516688847a360bd26295cb")

    def test_sample_joint_pair_joint_table(self):
        # the four joint-table configurations, 20 trials each, seeded as
        # run_joint_experiment seeds them: three draws from one generator,
        # then the two merges
        config, rng, trials = SketchConfig(12, 16), RngSeed(2017), 20
        digest = hashlib.sha256()
        for gi, (a, b, x) in enumerate([(10000, 10000, 10000), (10000, 10000, 100),
                                        (100, 100, 10000), (100000, 1000, 1000)]):
            for t in range(trials):
                s1, s2 = sample_joint_pair(a, b, x, config, rng.generator(gi * trials + t))
                self._feed(digest, s1)
                self._feed(digest, s2)
        assert digest.hexdigest() == (
            "4b32e539cfe0b8f3daf47e0a42f414dab5dd0e6396639ace1ea42b541ff5535e")
