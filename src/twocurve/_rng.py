"""Deterministic counter-based random streams (splitmix64 bit mixer).

All randomness in this package derives from explicit (stream, counter)
pairs: a 64-bit stream id and a 64-bit counter map to one output word
through the splitmix64 mixing function.  Draws are seekable and
order-independent -- worker ``p`` obtains word ``i`` as
``mix64(stream_p + GAMMA*(i+1))`` with no shared state -- so serial runs,
parallel runs, and runs split across invocations by path-index ranges
produce bit-identical results.

Uniform deviates are built from the top 53 bits of the output word and lie
strictly inside (0, 1); standard normals come from the Box-Muller transform
applied to counter pairs (2k, 2k+1).

This module provides pure-Python integer helpers (used for seed/stream
derivation and scalar draws) and vectorized numpy routines (used by the
numpy kernels).  The compiled kernels of ``_hsle.c`` reimplement the same
integer recurrence, so their uniform deviates equal these bit for bit.
The adaptive kernel forms its normals with the same libm calls as the
Python adaptive kernel; the compiled ``z_evolve`` forms those of
:func:`normal_pair_array` from numpy's ``np.log`` of its uniforms, taken
between its two passes, because numpy's vector ``log`` and libm's differ
in the last bit.
"""
from __future__ import annotations

import math

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15

_U64 = np.uint64
_GAMMA_U = _U64(GAMMA)
_ONE_U = _U64(1)
_SH11 = _U64(11)
_SH27 = _U64(27)
_SH30 = _U64(30)
_SH31 = _U64(31)
_M1_U = _U64(0xBF58476D1CE4E5B9)
_M2_U = _U64(0x94D049BB133111EB)
_INV53 = 2.0 ** -53
TWO_PI = 2.0 * math.pi


def mix64(z: int) -> int:
    """Splitmix64 finalizer: avalanching 64-bit mix of ``z``."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def derive_stream(master_seed: int, index: int) -> int:
    """Child stream id for worker/path ``index`` under ``master_seed``.

    Distinct indices give statistically independent streams; the map is
    pure, so any subset of indices can be regenerated in isolation.
    """
    return mix64((master_seed + GAMMA * (index + 1)) & MASK64)


def raw_word(stream: int, i: int) -> int:
    """The ``i``-th 64-bit output word of ``stream``."""
    return mix64((stream + GAMMA * (i + 1)) & MASK64)


def uniform(stream: int, i: int) -> float:
    """Uniform deviate in the open interval (0, 1) at counter ``i``."""
    return ((raw_word(stream, i) >> 11) + 0.5) * _INV53


def normal_pair(stream: int, k: int) -> tuple[float, float]:
    """The ``k``-th pair of independent standard normals of ``stream``.

    Box-Muller transform of the uniforms at counters (2k, 2k+1), evaluated
    by :func:`normal_pair_array` on a one-element batch: numpy's vector
    ``log`` differs from ``math.log`` in the last bit for about 0.3% of
    arguments, so a libm evaluation here would not match the vectorized
    draws.
    """
    g0, g1 = normal_pair_array(np.array([stream], dtype=np.uint64), k)
    return float(g0[0]), float(g1[0])


# ---------------------------------------------------------------------------
# Vectorized (numpy) versions.  These operate on uint64 *arrays*; numpy
# integer arrays wrap silently on overflow, which is exactly the modular
# arithmetic the mixer requires.
# ---------------------------------------------------------------------------

def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer on a uint64 array."""
    z = np.array(z, dtype=np.uint64, copy=True)
    z ^= z >> _SH30
    z *= _M1_U
    z ^= z >> _SH27
    z *= _M2_U
    z ^= z >> _SH31
    return z


def derive_stream_array(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive_stream` over an array of indices."""
    idx = np.atleast_1d(np.asarray(indices, dtype=np.uint64))
    out = mix64_array(_U64(master_seed & MASK64) + _GAMMA_U * (idx + _ONE_U))
    return out.reshape(np.shape(indices))


def uniform_array(streams: np.ndarray, index) -> np.ndarray:
    """Uniform deviates in (0, 1): counter ``index`` of each stream.

    ``streams`` and ``index`` broadcast against each other (either may be
    an array); the result is float64 with the broadcast shape.
    """
    # work on >=1-d arrays: 0-d array operands decay to numpy scalars,
    # whose wraparound (intended here) would raise overflow warnings
    s = np.atleast_1d(np.asarray(streams, dtype=np.uint64))
    i = np.atleast_1d(np.asarray(index, dtype=np.uint64))
    w = mix64_array(s + _GAMMA_U * (i + _ONE_U))
    out = ((w >> _SH11).astype(np.float64) + 0.5) * _INV53
    return out.reshape(np.broadcast_shapes(np.shape(streams), np.shape(index)))


def normal_pair_array(streams: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`normal_pair`: the ``k``-th normal pair per stream."""
    kk = np.atleast_1d(np.asarray(k, dtype=np.uint64))
    two_k = kk + kk
    u0 = uniform_array(streams, two_k)
    u1 = uniform_array(streams, two_k + _ONE_U)
    r = np.sqrt(-2.0 * np.log(u0))
    a = TWO_PI * u1
    return r * np.cos(a), r * np.sin(a)
