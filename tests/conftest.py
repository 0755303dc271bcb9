"""Shared scenarios and deterministic instances used across the test modules.

Expected constants asserted in the tests were computed by the standalone
scripts under scripts/, which rebuild every number from scratch (scipy SVD
routes, brute-force scans, closed-form arithmetic) without importing this
package.
"""

import numpy as np
import pytest

from rankgap.generators import indicator_scenario, paired_indicator
from rankgap.matrix import RatingsMatrix


@pytest.fixture(scope="session")
def paired_scene():
    """Two popular indicator groups of 4 users, two singleton niche groups."""
    return paired_indicator(4, 1)


@pytest.fixture(scope="session")
def multi_scene():
    """Four popular groups of 100 users, a 4-user picky item, a lone niche user."""
    return indicator_scenario((100, 100, 100, 100), (4, 1))


def float_bits(*values: float) -> list[str]:
    """Each value's exact bits (float.hex): -0.0 and 0.0 differ, NaNs agree."""
    return [float(v).hex() for v in values]


def build_gap_case(group: int = 200, attach=(0, 1)) -> tuple[RatingsMatrix, int]:
    """Deterministic popularity-split instance inside the gap class.

    Four popular indicator groups of ``group`` users; two niche columns, each
    carried by one dedicated user who rates it 0.3 and one popular column
    (from ``attach``) 0.25.
    """
    n_bar, n_niche = 4, 2
    n = n_bar + n_niche
    m = n_bar * group + n_niche
    a = np.zeros((m, n))
    for j in range(n_bar):
        a[j * group : (j + 1) * group, j] = 1.0
    for j in range(n_niche):
        u = n_bar * group + j
        a[u, n_bar + j] = 0.3
        a[u, attach[j]] = 0.25
    return RatingsMatrix(a), n_bar


def build_strategy_case(group: int = 400) -> dict:
    """Deterministic replacement-strategy instance with every check passing.

    Four popular indicator groups of ``group`` users, one switch user topping
    the target column at 0.3 (popular rating 0.1 on column 0), one residual
    minority user topping the last column at 0.2 (popular rating 0.16 on
    column 1).  The first 40% of each popular group uprates the target
    column to 0.75.
    """
    n_bar, n = 4, 6
    q = round(0.4 * group)
    m = n_bar * group + 2
    a = np.zeros((m, n))
    for j in range(n_bar):
        a[j * group : (j + 1) * group, j] = 1.0
    u_switch, u_residual = n_bar * group, n_bar * group + 1
    a[u_switch, n_bar] = 0.3
    a[u_switch, 0] = 0.1
    a[u_residual, n_bar + 1] = 0.2
    a[u_residual, 1] = 0.16
    matrix = RatingsMatrix(a)
    collective = frozenset(
        u for j in range(n_bar) for u in range(j * group, j * group + q)
    )
    r_tilde = a[:, n_bar].copy()
    r_tilde[sorted(collective)] = 0.75
    return {
        "matrix": matrix,
        "n_bar": n_bar,
        "r_tilde": r_tilde,
        "alpha": 2.0,
        "collective": collective,
        "u_switch": u_switch,
        "u_residual": u_residual,
    }


@pytest.fixture(scope="session")
def gap_case():
    return build_gap_case()


@pytest.fixture(scope="session")
def strategy_case():
    return build_strategy_case()
