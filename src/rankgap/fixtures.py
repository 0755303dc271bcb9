"""Named accessors for the completion walkthrough fixtures, built from literals."""

from __future__ import annotations

import numpy as np

from .completion import PartialMatrix
from .matrix import GroupPartition, RatingsMatrix, block_partition

_OBS_6X6 = (
    (0, 0, 1), (0, 2, 0), (0, 4, 0), (1, 0, 0), (1, 2, 0), (1, 3, 0),
    (2, 0, 1), (2, 1, 0), (2, 2, 1), (2, 4, 0), (2, 5, 0), (3, 1, 0),
    (4, 0, 0), (5, 0, 0), (5, 1, 0), (5, 4, 0),
)


def mc_4x4_true() -> RatingsMatrix:
    """Rank-2 true matrix for the tiny online-completion walkthrough."""
    return RatingsMatrix(np.array([[1, 0, 0, 4], [0, 1, 1, 2], [0, 1, 1, 2], [5, 0, 0, 20]]))


def mc_4x4_round1() -> PartialMatrix:
    """Observations after one exploration round: four entries."""
    return PartialMatrix.from_triples(4, 4, ((0, 1, 0), (1, 2, 1), (2, 2, 1), (3, 3, 20)))


def mc_4x4_round_t() -> PartialMatrix:
    """Observations after several rounds: ten entries, including a 2x2
    identity minor that forces every completion to rank 2 or more."""
    return PartialMatrix.from_triples(4, 4, (
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 3, 2),
        (2, 1, 1), (2, 2, 1), (3, 1, 0), (3, 2, 0), (3, 3, 20),
    ))


def mc_4x4_completed() -> RatingsMatrix:
    """A rank-2 completion consistent with the round-t observations."""
    return RatingsMatrix(np.array([[1, 0, 0, 20], [0, 1, 1, 2], [0, 1, 1, 2], [1, 0, 0, 20]]))


def mc_10x10() -> tuple[RatingsMatrix, GroupPartition]:
    """10x10 two-block matrix whose minority block holds exactly two
    positive entries, used for the exploration Monte Carlo."""
    r = np.zeros((10, 10))
    r[:8, :8] = [
        [0.2, 0.7, 0.4, 0.9, 0.1, 0.6, 0.3, 0.8],
        [0.5, 0.1, 0.9, 0.2, 0.7, 0.4, 0.8, 0.3],
        [0.8, 0.3, 0.6, 0.1, 0.9, 0.2, 0.5, 0.7],
        [0.1, 0.9, 0.2, 0.5, 0.8, 0.3, 0.7, 0.4],
        [0.6, 0.4, 0.7, 0.3, 0.2, 0.9, 0.1, 0.8],
        [0.3, 0.8, 0.1, 0.7, 0.4, 0.5, 0.9, 0.2],
        [0.9, 0.2, 0.5, 0.4, 0.3, 0.8, 0.6, 0.1],
        [0.4, 0.5, 0.8, 0.6, 0.1, 0.7, 0.2, 0.9],
    ]
    r[8, 8] = 0.8
    r[9, 9] = 0.9
    return RatingsMatrix(r), block_partition(8, 8, 10, 10)


def mc_6x6_observed() -> tuple[PartialMatrix, GroupPartition]:
    """Sixteen observed entries of a 6x6 instance plus its user/item split."""
    return PartialMatrix.from_triples(6, 6, _OBS_6X6), block_partition(3, 3, 6, 6)


def mc_6x6_less_sparse() -> RatingsMatrix:
    """A feasible rank-2 completion of the 6x6 instance that carries
    nonzero off-majority entries; reduction strips them at equal rank."""
    r = np.zeros((6, 6))
    for u, i, v in _OBS_6X6:
        r[u, i] = v
    for u, i in ((2, 3), (3, 0), (3, 2), (3, 3)):
        r[u, i] = 1.0
    return RatingsMatrix(r)


__all__ = [
    "mc_4x4_true",
    "mc_4x4_round1",
    "mc_4x4_round_t",
    "mc_4x4_completed",
    "mc_10x10",
    "mc_6x6_observed",
    "mc_6x6_less_sparse",
]
