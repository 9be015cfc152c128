"""Shared test helpers."""
import numpy as np
import pytest

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
