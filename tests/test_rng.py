"""Seeded randomness: hash derivation, SplitMix64 streams, Box-Muller."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stegolink.channel import ChannelConfig
from stegolink.pipeline import PipelineConfig, make_secret
from stegolink.predictor import ConditionSet, Predictor, embed_text
from stegolink.reference import generate_reference
from stegolink.rng import (
    _BLOCK_PAIRS,
    RandomStream,
    derive,
    gaussian_stream,
    hash_token,
    uniform_stream,
)
from stegolink.schedule import build_schedule
from stegolink.tokenkey import build_mask, init_latent

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def splitmix_oracle(seed, n):
    # independent pure-int SplitMix64, output i uses counter seed+(i+1)*golden
    out = []
    for i in range(n):
        z = (seed + (i + 1) * GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        out.append(z ^ (z >> 31))
    return out


def uniform_oracle(seed, n):
    return [(w >> 11) * 2.0 ** -53 for w in splitmix_oracle(seed, n)]


def gaussian_oracle(seed, n):
    pairs = (n + 1) // 2
    u = uniform_oracle(seed, 2 * pairs)
    out = []
    for j in range(pairs):
        u1 = u[2 * j] if u[2 * j] != 0.0 else 2.0 ** -53
        u2 = u[2 * j + 1]
        r = math.sqrt(-2.0 * math.log(u1))
        out.append(r * math.cos(2.0 * math.pi * u2))
        out.append(r * math.sin(2.0 * math.pi * u2))
    return np.array(out[:n])


def whole_array_gaussian(seed, n):
    # the unblocked numpy body: every value of the draw computed at once
    pairs = (n + 1) // 2
    u = uniform_stream(seed, 2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    u1 = np.where(u1 == 0.0, 2.0 ** -53, u1)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def traced_peak(fn):
    # numpy reports its buffers to tracemalloc, so this repeats exactly
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BAD_COUNTS = [3.5, 2.0, True, False, "2", None]


class TestHashToken:
    def test_empty_token_empty_domain_hashes_the_separator(self):
        # first 8 bytes of SHA-256(b"\x1f") big-endian: the separator is always hashed
        assert hash_token("", "") == 0xFFE679BB831C95B6

    def test_matches_independent_sha256(self):
        for token, domain in [("9000", "init"), ("9000", "mask"), (b"\x00\x01", "ref")]:
            t = token.encode() if isinstance(token, str) else token
            digest = hashlib.sha256(t + b"\x1f" + domain.encode()).digest()
            expected = int.from_bytes(digest[:8], "big")
            assert hash_token(token, domain) == expected

    def test_deterministic(self):
        assert hash_token("9000", "init") == hash_token("9000", "init")

    def test_domains_separate(self):
        values = {hash_token("9000", d) for d in ("init", "mask", "ref")}
        assert len(values) == 3

    def test_str_and_bytes_tokens_agree(self):
        assert hash_token("abc", "init") == hash_token(b"abc", "init")

    @pytest.mark.parametrize("like", [bytearray, memoryview, lambda b: np.frombuffer(b, dtype=np.uint8)])
    def test_bytes_like_tokens_and_domains_agree(self, like):
        assert hash_token(like(b"abc"), like(b"init")) == hash_token(b"abc", "init")

    @pytest.mark.parametrize("token,domain,name", [
        (5, "x", "token"),  # bytes(5) is five zero bytes
        ([1, 2], "x", "token"),  # bytes([1, 2]) is b"\x01\x02"
        (None, "x", "token"),
        (1.5, "x", "token"),
        ("x", 5, "domain"),
        ("x", None, "domain"),
    ])
    def test_neither_text_nor_bytes_refused(self, token, domain, name):
        with pytest.raises(ValueError, match=f"^{name}: must be a str or a bytes-like object$"):
            hash_token(token, domain)

    @pytest.mark.parametrize("call,name", [
        (lambda: embed_text(7), "token"),
        (lambda: build_mask(7, (1, 2, 2), 0.5), "token"),
        (lambda: init_latent(7, (1, 2, 2)), "token"),
        (lambda: generate_reference(7, ConditionSet(*map(embed_text, "kfr")), build_schedule(2),
                                    Predictor("zero"), (1, 2, 2)), "token"),
        (lambda: derive(7, 3), "domain"),
    ], ids=["embed_text", "build_mask", "init_latent", "generate_reference", "derive"])
    def test_entry_points_refuse_a_token_that_is_not_text(self, call, name):
        # each once ran on a hash of bytes(7) or bytes(3), with no error
        with pytest.raises(ValueError, match=f"^{name}: "):
            call()


# every entry point that takes a seed, as a call on the value, and the parameter its error names
SEED_ENTRY_POINTS = {
    "derive": (lambda v: derive(v, "x"), "seed"),
    "uniform_stream": (lambda v: uniform_stream(v, 1), "seed"),
    "gaussian_stream": (lambda v: gaussian_stream(v, 1), "seed"),
    "RandomStream": (RandomStream, "seed"),
    "Predictor": (lambda v: Predictor("zero", v), "weight_seed"),
    "ChannelConfig": (lambda v: ChannelConfig(noise_seed=v), "noise_seed"),
    "make_secret": (lambda v: make_secret(v, (1, 2, 2)), "seed"),
    **{f"PipelineConfig.{name}": (lambda v, name=name: PipelineConfig(**{name: v}), name)
       for name in ("predictor_seed", "secret_seed", "noise_seed")},
}


class TestSeedRule:
    # a seed is an integer in [0, 2^64) wherever it enters; bool is an int subclass,
    # so True once made seed 1

    @pytest.mark.parametrize("value", [-1, 2 ** 64, True, 1.0, "7", None])
    @pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
    def test_refused_naming_the_parameter(self, entry, value):
        call, name = SEED_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name}: must be an integer in \\[0, 2\\^64\\)$"):
            call(value)

    @pytest.mark.parametrize("value", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
    def test_range_ends_accepted(self, entry, value):
        call, _ = SEED_ENTRY_POINTS[entry]
        call(value)

    def test_seeds_are_plain_ints(self):
        assert type(hash_token("9000", "x")) is int
        assert type(derive(12345, "x")) is int


class TestDerive:
    def test_deterministic_and_label_separated(self):
        s = 12345
        assert derive(s, "a") == derive(s, "a")
        assert derive(s, "a") != derive(s, "b")

    @pytest.mark.parametrize("s", [0, 1, 12345, 2 ** 64 - 1])
    def test_matches_hash_of_big_endian_seed_bytes(self, s):
        assert derive(s, "noise") == hash_token(s.to_bytes(8, "big"), "noise")


class TestUniformStream:
    def test_first_output_reference_vector(self):
        # splitmix64 first output for seed 0
        assert uniform_stream(0, 1)[0] == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53

    @pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, (1 << 64) - 1])
    def test_matches_pure_python_oracle(self, seed):
        got = uniform_stream(seed, 64)
        assert np.array_equal(got, np.array(uniform_oracle(seed, 64)))

    def test_empty(self):
        assert uniform_stream(7, 0).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uniform_stream(7, -1)

    @pytest.mark.parametrize("draw", [uniform_stream, gaussian_stream])
    @pytest.mark.parametrize("n", BAD_COUNTS)
    def test_non_integer_count_rejected(self, draw, n):
        with pytest.raises(ValueError, match="^n "):
            draw(7, n)

    @pytest.mark.parametrize("n", BAD_COUNTS + [-1])
    def test_rejected_take_leaves_the_stream_where_it_was(self, n):
        # a rejected count must not move draws_emitted, or the next take repeats a draw
        rs = RandomStream(7)
        rs.take(3)
        with pytest.raises(ValueError, match="^n "):
            rs.take(n)
        assert rs.draws_emitted == 3
        assert np.array_equal(rs.take(2), uniform_stream(7, 5)[3:])

    def test_range(self):
        u = uniform_stream(3, 10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_mean_bound(self):
        u = uniform_stream(11, 1_000_000)
        assert abs(float(u.mean()) - 0.5) < 0.002


class TestGaussianStream:
    @pytest.mark.parametrize("seed", [0, 42, 0xABCDEF])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_matches_pure_python_oracle(self, seed, n):
        assert np.array_equal(gaussian_stream(seed, n), gaussian_oracle(seed, n))

    def test_deterministic(self):
        a = gaussian_stream(9, 100)
        b = gaussian_stream(9, 100)
        assert np.array_equal(a, b)

    def test_prefix_stable(self):
        # pair boundaries fixed at even offsets, so prefixes never shift
        long = gaussian_stream(5, 101)
        for n in (1, 2, 3, 50, 100):
            assert np.array_equal(gaussian_stream(5, n), long[:n])

    def test_moments(self):
        g = gaussian_stream(2024, 1_000_000)
        assert abs(float(g.mean())) < 0.005
        assert abs(float(g.var()) - 1.0) < 0.01

    def test_domain_separation_over_token_corpus(self):
        # the three pipeline domains never share a 16-draw prefix
        seen = set()
        for i in range(100):
            token = f"token-{i}"
            for domain in ("init", "mask", "ref"):
                head = tuple(gaussian_stream(hash_token(token, domain), 16))
                assert head not in seen
                seen.add(head)


class TestBlockedGaussian:
    # draws are computed _BLOCK_PAIRS pairs at a time, straight into the output

    @pytest.mark.parametrize("seed", [0, 42, 0xABCDEF])
    @pytest.mark.parametrize("n", [0, 1, 7, 64, 513]
                             + [2 * k * _BLOCK_PAIRS + d for k in (1, 2) for d in (-3, -2, -1, 0, 1, 2, 3)]
                             + [100_003])
    def test_blocks_keep_the_bits_of_the_whole_array(self, seed, n):
        got = gaussian_stream(seed, n)
        want = whole_array_gaussian(seed, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [64, 256])
    def test_mlp_weights_are_one_stream_split_at_a_pair(self, n):
        p = Predictor("tiny-mlp", 7)
        w1, w2 = p.weights_for(n)
        hidden, m = w1.shape
        raw = gaussian_stream(derive(p.weight_seed, f"tiny-mlp:{n}"), hidden * m + n * hidden)
        want1 = raw[:hidden * m].reshape(hidden, m) / np.sqrt(m)
        want2 = raw[hidden * m:].reshape(n, hidden) / np.sqrt(hidden)
        assert np.array_equal(w1.view(np.uint64), want1.view(np.uint64))
        assert np.array_equal(w2.view(np.uint64), want2.view(np.uint64))

    def test_a_long_draw_peaks_near_its_result(self):
        g, peak = traced_peak(lambda: gaussian_stream(5, 1_000_000))
        assert peak <= g.nbytes + 2 ** 20, f"{peak} bytes traced for an {g.nbytes}-byte draw"

    def test_a_weight_build_peaks_near_its_weights(self):
        weights, peak = traced_peak(lambda: Predictor("tiny-mlp", 7).weights_for(1024))
        kept = sum(w.nbytes for w in weights)
        assert peak <= kept + 2 ** 20, f"{peak} bytes traced for {kept} bytes of weights"


class TestRandomStream:
    def test_split_equals_whole(self):
        whole = uniform_stream(77, 30)
        rs = RandomStream(77)
        assert np.array_equal(np.concatenate([rs.take(11), rs.take(19)]), whole)

    def test_state_advances_linearly(self):
        rs = RandomStream(5)
        assert rs.draws_emitted == 0
        rs.take(3)
        rs.take(0)
        assert rs.draws_emitted == 3
        assert np.array_equal(rs.take(2), uniform_stream(5, 5)[3:])
