"""The map of draws in the ``_rng`` docstring, checked against every draw of
two small estimates: the Python/numpy kernels run, and every (stream,
counter) read of the ``_rng`` draw functions is logged with the kernel
call that made it."""
import collections

import numpy as np
import pytest

from twocurve import _kernels, _rng, montecarlo as mc
from twocurve.context import KappaContext
from twocurve.green import BoundaryConfig

S8 = np.pi / 4.0
SYM_CFG = BoundaryConfig(3 * S8, S8, -S8, -3 * S8)
SEED = 19
PATHS = range(5, 17)
# the draw functions as they are, before the fixture logs them
UNIFORM, UNIFORM_ARRAY = _rng.uniform, _rng.uniform_array


@pytest.fixture
def draws(monkeypatch):
    """The log of draws: (call, stream, counter) per read, with the kernel
    calls in order, under the Python/numpy kernels."""
    monkeypatch.setattr(_kernels, "_hsle_lib", lambda: None)
    reads, calls = [], []

    def logged_uniform(stream, i):
        reads.append((len(calls) - 1, int(stream), int(i)))
        return UNIFORM(stream, i)

    def logged_uniform_array(streams, index):
        s, i = np.broadcast_arrays(np.asarray(streams, dtype=np.uint64),
                                   np.asarray(index, dtype=np.uint64))
        reads.extend(zip([len(calls) - 1] * s.size, s.ravel().tolist(),
                         i.ravel().tolist()))
        return UNIFORM_ARRAY(streams, index)

    def counted(name):
        kernel = getattr(_kernels, name)

        def call(*args):
            calls.append(name)
            return kernel(*args)
        return call

    for name in ("_hsle_evolve_adaptive_np", "_z_evolve_np"):
        monkeypatch.setattr(_kernels, name, counted(name))
    monkeypatch.setattr(_rng, "uniform", logged_uniform)
    monkeypatch.setattr(_rng, "uniform_array", logged_uniform_array)
    return reads, calls


def _stream_index(seed, n_indices):
    return {_rng.derive_stream(seed, k): k for k in range(n_indices)}


def _no_counter_read_twice(reads):
    repeats = [key for key, n in collections.Counter(reads).items() if n > 1]
    assert not repeats


def test_hit_draws_follow_the_map(draws):
    reads, calls = draws
    ctx = KappaContext(7.5)
    mc.estimate_two_curve_hit(ctx, SYM_CFG, [0.05, 0.1, 0.2],
                              n_paths=len(PATHS), dt=1e-3, seed=SEED,
                              path_start=PATHS.start)
    # one chunk: the first curves' call, then the second curves' per radius
    assert calls == ["_hsle_evolve_adaptive_np"] * 4
    _no_counter_read_twice(reads)
    slots = collections.Counter(counter % 4 for _, _, counter in reads)
    assert sorted(slots) == [0, 1, 2]
    # target-side returns happened: decision draws below the return
    # probability (EPS_KILL / EPS_RET)^((8 - kappa) / kappa)
    p_ret = (_kernels.EPS_KILL / _kernels.EPS_RET) ** (0.5 / 7.5)
    assert any(UNIFORM(s, c) < p_ret for _, s, c in reads if c % 4 == 2)
    index = _stream_index(SEED, 2 * PATHS.stop)
    assert all(s in index for _, s, _ in reads)
    first = {index[s] for call, s, _ in reads if call == 0}
    second = {index[s] for call, s, _ in reads if call > 0}
    assert first == {2 * i for i in PATHS}
    assert second and second <= {2 * i + 1 for i in PATHS}
    assert not first & second
    # the second curves reuse their streams and counters at every radius
    assert set.intersection(*({(s, c) for call, s, c in reads if call == k}
                              for k in (1, 2, 3)))


def test_z_weighted_draws_follow_the_map(draws):
    reads, calls = draws
    ctx = KappaContext(6.0)
    dt, n_steps = 1e-2, 50
    mc.estimate_survival_weighted(ctx, (1.2, 1.9), [n_steps * dt],
                                  n_paths=len(PATHS), dt=dt, seed=SEED,
                                  path_start=PATHS.start)
    assert calls == ["_z_evolve_np"]
    _no_counter_read_twice(reads)
    index = _stream_index(SEED, PATHS.stop)
    assert {index[s] for _, s, _ in reads} == set(PATHS)
    per_path = collections.Counter(s for _, s, _ in reads)
    # every path lives all its steps here: counters 2s and 2s + 1
    assert set(per_path.values()) == {2 * n_steps}
    assert {c for _, _, c in reads} == set(range(2 * n_steps))


@pytest.mark.parametrize("ids", [range(-1, 3), range(2 ** 63 - 1, 2 ** 63 + 1),
                                 range(2 ** 63, 2 ** 63 + 2)])
def test_path_ids_past_the_map_are_rejected(ids):
    for streams in (_rng.hit_streams, _rng.z_streams):
        with pytest.raises(ValueError, match="path ids"):
            streams(SEED, ids)


def test_streams_of_the_map():
    ids = range(2 ** 63 - 3, 2 ** 63)
    first, second = _rng.hit_streams(SEED, ids)
    assert first.tolist() == [_rng.derive_stream(SEED, 2 * i) for i in ids]
    assert second.tolist() == [_rng.derive_stream(SEED, 2 * i + 1)
                               for i in ids]
    assert _rng.z_streams(SEED, ids).tolist() == [
        _rng.derive_stream(SEED, i) for i in ids]
