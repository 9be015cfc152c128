"""Shared test helpers."""
import inspect
import sys

import numpy as np
import pytest

from twocurve import cli  # noqa: F401  (loads every package module)
from twocurve import density as dens
from twocurve.quadrature import tanh_sinh_rule
from twocurve.timecurve import xy_of_z


def _level5_survival_integrals(ctx, basis, n_limit):
    """The survival mode integrals of level <= n_limit as one fixed
    level-5 tanh-sinh tensor sum, with no escalation to stop early."""
    z, w = (np.pi * v for v in tanh_sinh_rule(5))
    ratio = dens.pz_over_gu_grid(ctx, z)
    z1, z2 = np.meshgrid(z, z, indexing="ij")
    x, y = xy_of_z((z1.ravel(), z2.ravel()))
    weights = (np.outer(w, w) * ratio).ravel()
    ref = np.zeros(basis.modes_up_to(n_limit))
    for rows, sl, V in dens.mode_blocks(basis, n_limit, x, y):
        ref[rows] += V @ weights[sl]
    return ref * (np.pi * ctx.kappa / 8.0)


@pytest.fixture
def level5_survival_integrals():
    return _level5_survival_integrals


def _kappa_caches():
    """Every ``functools.cache`` function of the package whose first
    parameter is the context or kappa: the per-kappa caches."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("twocurve.") or module is None:
            continue
        for f in vars(module).values():
            if callable(getattr(f, "cache_clear", None)) and next(
                    iter(inspect.signature(f).parameters), None) in (
                    "ctx", "kappa"):
                found[f.__module__, f.__qualname__] = f
    return tuple(found.values())


@pytest.fixture
def kappa_caches():
    return _kappa_caches()


@pytest.fixture
def clear_kappa_caches(kappa_caches):
    """Empties every per-kappa cache before and after the test, for a test
    that counts evaluations or patches what a cache would keep (a cache
    filled under a patch would serve every later test).  Never autouse:
    the rest of the suite runs on warmed caches, so its pinned digests also
    show that a result does not depend on what ran before."""
    for cache in kappa_caches:
        cache.cache_clear()
    yield kappa_caches
    for cache in kappa_caches:
        cache.cache_clear()
