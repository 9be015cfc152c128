"""Counter-based random streams (splitmix64), and the map of every draw.

A 64-bit stream id and a 64-bit counter i give one output word,
``mix64(stream + GAMMA*(i+1))``, with no shared state, so serial, parallel
and split runs draw the same bits.  A stream id is such a word too: stream
index k of master seed s is word k of s (:func:`derive_stream`).  Uniforms
take the top 53 bits of a word and lie inside (0, 1).  Every Box-Muller
normal of the package (:func:`normal_pair_array`, the Python adaptive
kernel's own draw, and ``_hsle.c``, which repeats the recurrence) is
sqrt(-2 log u0) * (cos, sin)(2 pi u1) of the uniforms at counters (2k,
2k+1), with libm's log (``math.log``: numpy's vector ``log`` differs in
the last bit for about 0.3% of arguments) and libm's ``sqrt``, ``cos``
and ``sin``, whose bits numpy's float64 ones give too.

The map of draws lists every (stream, counter) pair the package reads; no
two draws share one (``tests/test_rng_map.py`` logs the reads of two small
estimates against it):

* Hit path i (``montecarlo``): curve j = 1, 2 draws from stream index
  2i + j - 1 (:func:`hit_streams`).  Curve 2 reuses its stream at every
  radius, on purpose (common random numbers).
* Z-weighted path i (``timecurve``): stream index i (:func:`z_streams`).
* The adaptive kernel: the substep at unit offset ``off`` of macro step m
  is unit u = m*bmax + off, and reads counters UNIT_DRAWS*u + slot: slots
  0 and 1 for its normal, RETURN_SLOT for the target-side return decision.
  Slot 3 is never read; it is kept for a later draw of the same substep
  (a Brownian-bridge refinement of an overshoot).
* ``z_evolve``: step s reads counters 2s and 2s + 1.
* Outside the map: the ``check`` inputs (``ensemble.sample_states``,
  ``checks.check_eigenfunctions``) come from numpy ``default_rng`` seeds.

Path ids lie in [0, PATH_LIMIT), so that 2i + 1 fits in 64 bits.
``_hsle.c`` writes the kernels' counters out literally;
``TestCompiledKernel`` and ``TestCompiledZEvolve`` hold it to the Python
kernels' bytes.
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

# the map of draws (module docstring)
UNIT_DRAWS = 4
RETURN_SLOT = 2
PATH_LIMIT = 2 ** 63


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
    """Stream id of stream index ``index`` of ``master_seed``: its word
    ``index``.  Distinct indices give independent streams."""
    return mix64((master_seed + GAMMA * (index + 1)) & MASK64)


def uniform(stream: int, i: int) -> float:
    """Uniform deviate in the open interval (0, 1) at counter ``i``."""
    return ((derive_stream(stream, i) >> 11) + 0.5) * _INV53


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


def _words(streams, index) -> np.ndarray:
    """Word ``index`` of each stream, with the broadcast shape of the two
    (either may be an array)."""
    # work on >=1-d arrays: 0-d array operands decay to numpy scalars,
    # whose wraparound (intended here) would raise overflow warnings
    s = np.atleast_1d(np.asarray(streams, dtype=np.uint64))
    i = np.atleast_1d(np.asarray(index, dtype=np.uint64))
    w = mix64_array(s + _GAMMA_U * (i + _ONE_U))
    return w.reshape(np.broadcast_shapes(np.shape(streams), np.shape(index)))


def derive_stream_array(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive_stream` over an array of indices."""
    return _words(master_seed & MASK64, indices)


def uniform_array(streams: np.ndarray, index) -> np.ndarray:
    """Uniform deviates in (0, 1): counter ``index`` of each stream.

    ``streams`` and ``index`` broadcast against each other (either may be
    an array); the result is float64 with the broadcast shape.
    """
    return ((_words(streams, index) >> _SH11).astype(np.float64)
            + 0.5) * _INV53


def normal_pair_array(streams: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """The ``k``-th pair of independent standard normals of each stream:
    the Box-Muller pair of counters (2k, 2k+1), with libm's log
    (``math.log``, elementwise)."""
    kk = np.atleast_1d(np.asarray(k, dtype=np.uint64))
    two_k = kk + kk
    u0 = uniform_array(streams, two_k)
    u1 = uniform_array(streams, two_k + _ONE_U)
    log_u0 = np.array(list(map(math.log, u0.ravel().tolist())))
    r = np.sqrt(-2.0 * log_u0.reshape(u0.shape))
    a = TWO_PI * u1
    return r * np.cos(a), r * np.sin(a)


def _path_ids(ids: range) -> np.ndarray:
    """The ids of the ascending range ``ids`` as uint64; ValueError unless
    every one lies in [0, PATH_LIMIT)."""
    if ids and not (0 <= ids[0] and ids[-1] < PATH_LIMIT):
        raise ValueError(f"path ids must lie in [0, 2^63), got {ids}")
    return np.arange(ids.start, ids.stop, ids.step, dtype=np.uint64)


def hit_streams(master_seed: int, ids: range) -> tuple:
    """(first, second): the streams of the two curves of the hit paths in
    the range ``ids`` (module docstring)."""
    two_i = _path_ids(ids) * _U64(2)
    return (derive_stream_array(master_seed, two_i),
            derive_stream_array(master_seed, two_i + _ONE_U))


def z_streams(master_seed: int, ids: range) -> np.ndarray:
    """The streams of the z-weighted paths in the range ``ids``."""
    return derive_stream_array(master_seed, _path_ids(ids))
