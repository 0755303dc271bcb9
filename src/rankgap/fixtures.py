"""Named accessors for the packaged completion fixtures."""

from __future__ import annotations

from importlib import resources

from .completion import PartialMatrix, load_partial_json
from .matrix import GroupPartition, RatingsMatrix, block_partition, load_ratings_csv


def _data(name: str):
    return resources.files("rankgap").joinpath("data", name)


def _csv(name: str) -> RatingsMatrix:
    with resources.as_file(_data(name)) as path:
        return load_ratings_csv(path)[0]


def _partial(name: str) -> PartialMatrix:
    with resources.as_file(_data(name)) as path:
        return load_partial_json(path)


def mc_4x4_true() -> RatingsMatrix:
    """Rank-2 true matrix for the tiny online-completion walkthrough."""
    return _csv("mc_4x4_true.csv")


def mc_4x4_round1() -> PartialMatrix:
    """Observations after one exploration round: four entries."""
    return _partial("mc_4x4_round1.json")


def mc_4x4_round_t() -> PartialMatrix:
    """Observations after several rounds: ten entries, including a 2x2
    identity minor that forces every completion to rank 2 or more."""
    return _partial("mc_4x4_round_t.json")


def mc_4x4_completed() -> RatingsMatrix:
    """A rank-2 completion consistent with the round-t observations."""
    return _csv("mc_4x4_completed.csv")


def mc_10x10() -> tuple[RatingsMatrix, GroupPartition]:
    """10x10 two-block matrix whose minority block holds exactly two
    positive entries, used for the exploration Monte Carlo."""
    return _csv("mc_10x10_true.csv"), block_partition(8, 8, 10, 10)


def mc_6x6_observed() -> tuple[PartialMatrix, GroupPartition]:
    """Sixteen observed entries of a 6x6 instance plus its user/item split."""
    return _partial("mc_6x6_observed.json"), block_partition(3, 3, 6, 6)


def mc_6x6_less_sparse() -> RatingsMatrix:
    """A feasible rank-2 completion of the 6x6 instance that carries
    nonzero off-majority entries; reduction strips them at equal rank."""
    return _csv("mc_6x6_less_sparse.csv")


__all__ = [
    "mc_4x4_true",
    "mc_4x4_round1",
    "mc_4x4_round_t",
    "mc_4x4_completed",
    "mc_10x10",
    "mc_6x6_observed",
    "mc_6x6_less_sparse",
]
