"""Deterministic seeding, hashing, and random streams.

Every random value in the package is a pure function of a byte-string token,
so two parties that share the token regenerate identical latents with no
state exchange.  The stack is:

    SHA-256(token | 0x1F | domain)  ->  64-bit seed, a plain int
    SplitMix64(seed)                ->  uniform doubles in [0, 1)
    Box-Muller on uniform pairs     ->  standard normal doubles

A seed is an int in [0, 2^64), checked by _check_seed wherever one enters.

SplitMix64 reference: https://prng.di.unimi.it/splitmix64.c
Box-Muller transform: https://en.wikipedia.org/wiki/Box%E2%80%93Muller_transform

SplitMix64 is counter-based (state after n draws is seed + n*GOLDEN mod 2^64),
which lets us evaluate any block of the stream as a vectorized elementwise
finalizer instead of a sequential loop.  The integer layer is exact; the
float layers use only IEEE-754 double operations.

Gaussian streams are computed in blocks of _BLOCK_PAIRS pairs, written
straight into the output, so a long draw needs its result plus a few
block-sized temporaries rather than several arrays of its full length.
Blocking cannot change a bit: the integer layer is counter-based, so a block
starting at draw k yields exactly draws k, k+1, ... of the whole stream, and
every later step (scaling, log, sqrt, cos, sin, products) is elementwise, so
each output depends only on its own pair of draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64_MAX = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_DOMAIN_SEPARATOR = b"\x1f"
_INV_2_53 = 2.0 ** -53
_BLOCK_PAIRS = 4096  # 64 KiB of output per block: its temporaries stay in L2


def _is_int(value) -> bool:
    # bool is an int subclass, but never a valid count or seed
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # a float, or an integer _is_int accepts: never a bool, a string or None
    return isinstance(value, float) or _is_int(value)


def _check_seed(value, name: str = "seed") -> int:
    # the seed range: an integer in [0, 2^64), checked, never converted
    if not (_is_int(value) and 0 <= value <= _U64_MAX):
        raise ValueError(f"{name}: must be an integer in [0, 2^64)")
    return value


def _utf8(text: str, name: str) -> bytes:
    # a lone surrogate (a JSON "\ud800" escape, argv bytes that are not
    # UTF-8) has no UTF-8 form, so no hash
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{name}: must be text that UTF-8 can encode (no lone surrogates)") from None


def _check_text(value, name: str) -> str:
    # a free-text field: a non-empty str that hash_token can hash
    if not (isinstance(value, str) and value):
        raise ValueError(f"{name}: must be a non-empty string")
    _utf8(value, name)
    return value


def _as_bytes(value, name: str) -> bytes:
    # text as UTF-8, a bytes-like object as its bytes; bytes(5) is five zero bytes
    if isinstance(value, str):
        return _utf8(value, name)
    try:
        return bytes(memoryview(value))
    except TypeError:
        raise ValueError(f"{name}: must be a str or a bytes-like object") from None


def hash_token(token: bytes | str, domain: bytes | str = b"") -> int:
    """Map (token, domain) to a 64-bit seed: big-endian first 8 bytes of SHA-256.

    The hash input is token | 0x1F | domain; the 0x1F separator keeps
    ("ab", "c") distinct from ("a", "bc").  Domains partition one token into
    independent streams ("init", "mask", "ref", ...).  Text is hashed as
    UTF-8; a token or domain that is neither text nor bytes-like, or text
    that UTF-8 cannot encode, raises a ValueError naming it.
    """
    tok = _as_bytes(token, "token")
    dom = _as_bytes(domain, "domain")
    digest = hashlib.sha256(tok + _DOMAIN_SEPARATOR + dom).digest()
    return int.from_bytes(digest[:8], "big")


def derive(seed: int, label: bytes | str) -> int:
    """A labeled sub-seed: the hash of the seed's 8 big-endian bytes under label."""
    return hash_token(_check_seed(seed).to_bytes(8, "big"), label)


def _splitmix_block(seed_value: int, start: int, count: int) -> np.ndarray:
    # draws start+1 .. start+count of the stream, as raw uint64 words;
    # all arithmetic wraps mod 2^64 (numpy C semantics)
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed_value) + k * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        z = z ^ (z >> np.uint64(31))
    return z


def _bits_to_unit(bits: np.ndarray) -> np.ndarray:
    # top 53 bits scaled into [0, 1); 53-bit integers are exact in a double
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _check_count(n) -> None:
    if not (_is_int(n) and n >= 0):
        raise ValueError("n must be a non-negative integer")


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """First n uniform [0, 1) doubles of the seed's SplitMix64 stream."""
    _check_count(n)
    return _bits_to_unit(_splitmix_block(_check_seed(seed), 0, n))


def _fill_gaussian(seed_value: int, first_pair: int, out: np.ndarray) -> None:
    # out (1-D, even length) gets the normals of pairs first_pair, first_pair+1,
    # ..., one block of _BLOCK_PAIRS pairs at a time
    total = out.size // 2
    for j in range(0, total, _BLOCK_PAIRS):
        pairs = min(_BLOCK_PAIRS, total - j)
        u = _bits_to_unit(_splitmix_block(seed_value, 2 * (first_pair + j), 2 * pairs))
        u1 = u[0::2]
        u2 = u[1::2]
        u1 = np.where(u1 == 0.0, _INV_2_53, u1)  # keep log finite
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out[2 * j:2 * (j + pairs):2] = radius * np.cos(angle)
        out[2 * j + 1:2 * (j + pairs):2] = radius * np.sin(angle)


def gaussian_stream(seed: int, n: int) -> np.ndarray:
    """First n standard normal doubles via Box-Muller on uniform pairs.

    Pair j consumes uniform draws (2j, 2j+1) and both of its outputs are
    kept, in order.  Pair boundaries are fixed at even stream offsets, so any
    prefix of the output is independent of how many values are requested.
    """
    _check_count(n)
    out = np.empty(2 * ((n + 1) // 2), dtype=np.float64)
    _fill_gaussian(_check_seed(seed), 0, out)
    return out[:n]


class RandomStream:
    """Stateful view of a SplitMix64 uniform stream.

    Advancing n draws and then m draws yields exactly the same values as
    advancing n+m draws from a fresh stream with the same seed.
    """

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self.draws_emitted = 0

    def take(self, n: int) -> np.ndarray:
        _check_count(n)
        block = _bits_to_unit(_splitmix_block(self.seed, self.draws_emitted, n))
        self.draws_emitted += n
        return block
