"""Collective uprating: strategy application, sufficiency checks, eta finder.

A collective is a nonempty set of majority users who all report the same
positive value eta for one minority target item, held as a sorted index
array. The functions here decide when such a strategy is guaranteed to
improve welfare, search for a working eta with closed-form arithmetic, and
bound how much parameter misestimation the guarantee survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import (
    GroupPartition,
    OpenInterval,
    PartitionError,
    RatingsMatrix,
    _block_sigmas,
    _index_array,
)


def _power(name: str, value: float, exponent: int = 2) -> float:
    """value**exponent for the closed forms below. A float power that
    overflows raises OverflowError rather than giving inf; here it raises a
    ValueError that names the quantity."""
    try:
        return value**exponent
    except OverflowError:
        raise ValueError(
            f"{name} is too large: {value!r} to the power {exponent} overflows a float"
        ) from None


def _column_sq(R: RatingsMatrix, item: int) -> float:
    """Sum of one item's squared ratings: picky_col_sq when the item is the target."""
    with np.errstate(over="ignore"):
        total = float((R.entries[:, item] ** 2).sum())
    if not math.isfinite(total):
        raise ValueError(
            f"picky_col_sq is too large: the squared ratings of item {item} overflow a float"
        )
    return total


def _collective_index(users) -> np.ndarray:
    """``users`` as a collective: its distinct user indices as a sorted,
    read-only np.intp array, the form of GroupPartition's fields (see
    ``matrix._index_array``).  There must be at least one."""
    out = _index_array(users, "collective")
    if not out.size:
        raise ValueError("collective must be nonempty")
    return out


def _require_majority(collective: np.ndarray, p: GroupPartition) -> None:
    """Raise ValueError naming the collective's users outside p's majority."""
    outside = np.setdiff1d(collective, p.majority_users, assume_unique=True)
    if outside.size:
        raise ValueError(f"collective users {outside.tolist()} are not majority users")


@dataclass(frozen=True, eq=False)
class CollectiveStrategy:
    """Uniform uprating of one minority item by a set of majority users.

    ``collective`` takes any iterable of user indices and holds them as a
    collective index array (see ``_collective_index``).  Strategies compare
    by identity.
    """

    target_item: int
    collective: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "collective", _collective_index(self.collective))
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")

    def validate_for(self, p: GroupPartition) -> None:
        if self.target_item not in p.minority_items:
            raise ValueError(f"target item {self.target_item} is not a minority item")
        _require_majority(self.collective, p)


@dataclass(frozen=True)
class FinderInputs:
    """Parameter vector consumed by the eta finder and the robustness margin.

    kappa is supplied rather than recomputed: a real collective may only
    estimate it. The alpha < sigma_kmaj requirement is the setting assumption
    under which the finder's guarantee is stated.
    """

    sigma_kmaj: float
    alpha: float
    n_bar: int
    picky_col_sq: float
    av: float
    kappa: float
    coll_size: int

    def __post_init__(self) -> None:
        for name in ("sigma_kmaj", "alpha", "picky_col_sq", "av", "kappa"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
            object.__setattr__(self, name, v)
        if int(self.n_bar) < 1:
            raise ValueError(f"n_bar must be >= 1, got {self.n_bar}")
        if int(self.coll_size) < 1:
            raise ValueError(f"coll_size must be >= 1, got {self.coll_size}")
        object.__setattr__(self, "n_bar", int(self.n_bar))
        object.__setattr__(self, "coll_size", int(self.coll_size))
        if not self.alpha < self.sigma_kmaj:
            raise ValueError(
                f"alpha ({self.alpha}) must be below sigma_kmaj ({self.sigma_kmaj})"
            )

    def as_vector(self) -> np.ndarray:
        """The six perturbable parameters, in a fixed order (kappa is held known)."""
        return np.array(
            [
                self.sigma_kmaj,
                self.alpha,
                float(self.n_bar),
                self.picky_col_sq,
                self.av,
                float(self.coll_size),
            ]
        )


@dataclass(frozen=True)
class SufficiencyReport:
    """Named condition booleans with margins and the gap they open."""

    conditions: dict[str, bool]
    margins: dict[str, float]
    verdict: bool
    gap_interval: OpenInterval | None = None


# ---------------------------------------------------------------------------
# Strategy application and aggregate value
# ---------------------------------------------------------------------------

def apply_uprating(
    R_star: RatingsMatrix, p: GroupPartition, s: CollectiveStrategy
) -> RatingsMatrix:
    """Revealed matrix: R_star with the collective's target entries set to eta."""
    p.validate_for(R_star)
    s.validate_for(p)
    out = R_star.entries.copy()
    out[s.collective, s.target_item] = s.eta
    return RatingsMatrix(out)


def aggregate_value(R: RatingsMatrix, coll, p: GroupPartition) -> float:
    """Largest majority-item rating mass held by the collective ``coll`` (an
    index array, or any iterable of user indices) under the partition ``p``,
    which must cover R."""
    coll = _collective_index(coll)
    if not p.covers(*R.shape):
        raise PartitionError(f"partition does not cover a {R.rows}x{R.cols} matrix")
    return float(R.entries[coll][:, p.majority_items].sum(axis=0).max())


# ---------------------------------------------------------------------------
# Sufficient conditions
# ---------------------------------------------------------------------------

def sufficient_gap(
    R_star: RatingsMatrix, p: GroupPartition, s: CollectiveStrategy
) -> OpenInterval:
    """Interval of exploration limits under which the uprating is effective.

    The right endpoint is sqrt(min(sigma_kmaj^2, eta^2 |coll| + ||target col||^2)
    - eta sqrt(n_bar) AV); a negative radicand gives an empty interval (NaN
    upper endpoint).
    """
    p.validate_for(R_star)
    s.validate_for(p)
    sigma_kmaj, sigma1_min = _block_sigmas(R_star, p)
    col_sq = _column_sq(R_star, s.target_item)
    av = aggregate_value(R_star, s.collective, p)
    radicand = _gap_radicand(sigma_kmaj, s.eta, len(s.collective), col_sq, p.n_bar, av)
    return _gap_window(sigma1_min, radicand)


def _gap_radicand(
    sigma_kmaj: float, eta: float, coll_size: int, col_sq: float, n_bar: int, av: float
) -> float:
    """min(sigma_kmaj^2, eta^2 |coll| + col_sq) - eta sqrt(n_bar) AV: the gap
    condition holds when alpha^2 lies below it."""
    return (
        min(_power("sigma_kmaj", sigma_kmaj), _power("eta", eta) * coll_size + col_sq)
        - eta * math.sqrt(n_bar) * av
    )


def _gap_window(sigma1_min: float, radicand: float) -> OpenInterval:
    """(sigma1_min, sqrt(radicand)); a negative radicand gives a NaN upper end."""
    return OpenInterval(sigma1_min, math.sqrt(radicand) if radicand >= 0 else float("nan"))


def check_sufficient_conditions(
    z: FinderInputs, sigma1_min: float, eta: float
) -> SufficiencyReport:
    """Evaluate the three closed-form conditions for an effective uprating.

    Conditions (all strict, exact floating comparisons):
      eta_below_kappa:      0 < eta < kappa
      alpha_in_new_gap:     alpha^2 < min(sigma_kmaj^2, eta^2 |coll| + picky_col_sq)
                            - eta sqrt(n_bar) AV
      alpha_above_minority: alpha > sigma1_min
    """
    alpha_sq = _power("alpha", z.alpha)
    radicand = _gap_radicand(z.sigma_kmaj, eta, z.coll_size, z.picky_col_sq, z.n_bar, z.av)
    conditions = {
        "eta_below_kappa": 0.0 < eta < z.kappa,
        "alpha_in_new_gap": alpha_sq < radicand,
        "alpha_above_minority": z.alpha > sigma1_min,
    }
    margins = {
        "eta_below_kappa": z.kappa - eta,
        "alpha_in_new_gap": radicand - alpha_sq,
        "alpha_above_minority": z.alpha - sigma1_min,
    }
    return SufficiencyReport(
        conditions=conditions,
        margins=margins,
        verdict=all(conditions.values()),
        gap_interval=_gap_window(sigma1_min, radicand),
    )


# ---------------------------------------------------------------------------
# Closed-form eta finder
# ---------------------------------------------------------------------------

def find_eta(z: FinderInputs) -> float:
    """Return an uprating value meeting the sufficient conditions, or 0.

    Pure arithmetic: intersect the upper bounds (from the gap numerator and
    from kappa) with the feasible region of the quadratic condition, then
    return the midpoint of the surviving range. A return of 0 means no eta
    satisfies the sufficient conditions. Comparisons are exact; boundary
    equality conservatively routes to the "no" side, matching the open
    intervals in the guarantee.
    """
    if z.av <= 0:
        raise ValueError("aggregate value must be positive for the finder's divisions")
    root_av = math.sqrt(z.n_bar) * z.av
    alpha_sq = _power("alpha", z.alpha)
    n_up = min((_power("sigma_kmaj", z.sigma_kmaj) - alpha_sq) / root_av, z.kappa)
    d = z.n_bar * _power("av", z.av) + 4 * z.coll_size * (alpha_sq - z.picky_col_sq)
    if d < 0:
        # No real root: the quadratic lower bound does not bind. This branch
        # is unreachable when alpha exceeds the target column's norm, but it
        # is kept for defensive completeness.
        n_lo = n_up / 2
    else:
        n_lo = (root_av + math.sqrt(d)) / (2 * z.coll_size)
    if n_lo < n_up:
        return (n_lo + n_up) / 2
    if d >= 0:
        n_up = min((root_av - math.sqrt(d)) / (2 * z.coll_size), n_up)
    if n_up > 0:
        return n_up / 2
    return 0.0


def grid_feasible_eta(
    z: FinderInputs, sigma1_min: float = 0.0, steps: int = 10_000
) -> float | None:
    """Brute-force scan for a passing eta on a uniform grid over (0, kappa).

    Oracle companion to find_eta: returns the first passing grid point
    kappa*j/steps (j = 1..steps-1) or None. Resolution is kappa/steps, so a
    None result rules out feasibility only up to that resolution.

    The grid is scanned in one array pass that evaluates the three
    conditions of check_sufficient_conditions elementwise, with the same
    expressions and the same strict comparisons; it calls neither that
    function, nor find_eta, nor the radicand and window helpers they share,
    so it stays independent of the code it checks.
    Memory grows with steps (a few float arrays of steps - 1 entries).
    """
    if not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if z.kappa <= 0:
        return None
    # A grid point past about 1.3e154 squares to inf, and one past about
    # 1e308 is inf itself, as in Python floats.  An inf saturates correctly:
    # sigma_kmaj squared is finite, so the min is finite and the radicand
    # never forms inf - inf.  A NaN (inf * 0 when av is 0) arises only at an
    # inf grid point, which eta < kappa already rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        eta = z.kappa * np.arange(1, steps) / steps
        passing = (
            (0.0 < eta)
            & (eta < z.kappa)
            & (
                _power("alpha", z.alpha)
                < np.minimum(
                    _power("sigma_kmaj", z.sigma_kmaj), eta**2 * z.coll_size + z.picky_col_sq
                )
                - eta * math.sqrt(z.n_bar) * z.av
            )
            & (z.alpha > sigma1_min)
        )
    hits = np.flatnonzero(passing)
    return float(eta[hits[0]]) if hits.size else None


# ---------------------------------------------------------------------------
# Robustness to parameter misspecification
# ---------------------------------------------------------------------------

def margin_numerator(z: FinderInputs, eta: float) -> float:
    """Slack of the gap condition at eta: positive iff eta passes it."""
    radicand = _gap_radicand(z.sigma_kmaj, eta, z.coll_size, z.picky_col_sq, z.n_bar, z.av)
    return radicand - _power("alpha", z.alpha)


def lipschitz_bound(l1_norm: float, l2_norm: float, n: int, eta: float) -> float:
    """Growth bound for the gap-condition slack under parameter perturbation."""
    eta_4 = _power("eta", eta, 4)
    l2_sq = _power("l2_norm", l2_norm)
    return math.sqrt(
        4 * l2_sq + eta * _power("l1_norm", l1_norm) / 4 + eta**2 * n + max(4 * l2_sq, 1 + eta_4)
    )


def robustness_margin(
    z_hat: FinderInputs, eta_hat: float, l1_norm: float, l2_norm: float, n: int
) -> float:
    """Estimation-error budget under which eta_hat stays effective.

    If the true parameter vector z* satisfies ||z_hat - z*||_2 < margin, an
    eta_hat that passed the sufficient conditions under z_hat still passes
    them under z*. The norms are those of the true matrix (max column sum
    and top singular value), assumed known; callers holding only estimates
    should label the margin heuristic.
    """
    if not math.isfinite(eta_hat) or eta_hat <= 0:
        raise ValueError(f"eta_hat must be finite and positive, got {eta_hat}")
    for name, norm in (("l1_norm", l1_norm), ("l2_norm", l2_norm)):
        if not math.isfinite(norm) or norm < 0:
            raise ValueError(f"{name} must be finite and nonnegative, got {norm}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    f = margin_numerator(z_hat, eta_hat)
    if f <= 0:
        raise ValueError("eta_hat does not satisfy the gap condition under z_hat")
    return f / lipschitz_bound(l1_norm, l2_norm, n, eta_hat)


__all__ = [
    "CollectiveStrategy",
    "FinderInputs",
    "SufficiencyReport",
    "apply_uprating",
    "aggregate_value",
    "sufficient_gap",
    "check_sufficient_conditions",
    "find_eta",
    "grid_feasible_eta",
    "margin_numerator",
    "lipschitz_bound",
    "robustness_margin",
]
