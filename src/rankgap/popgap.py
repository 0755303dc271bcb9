"""Generalized popularity model on [0,1]-valued ratings matrices.

The block model in :mod:`rankgap.matrix` demands exact zeros across groups.
Here group structure is softer: the first ``n_bar`` columns are declared
popular, users are classed by where their row maximum lands, and every
guarantee flows from a single ratings-gap scalar computed from the spectrum
of the popular column block.  All inequalities in this module are strict and
evaluated in plain double precision; reports carry margins so near-boundary
instances are visible instead of silently flipping.

A :class:`PopularitySplit` is the model: every check is one of its members,
and state derived from one (matrix, n_bar) pair -- top-item mask, user
classes, switch set, popular spectrum, the full spectrum -- is computed once
per split.  Per-user checks are masked numpy reductions of the same
expressions a per-row scan with :func:`top_items` evaluates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matrix import (
    OpenInterval,
    RatingsMatrix,
    SpectralSummary,
    _index_array,
    _mask_indices,
    _numeric_rank,
    singular_values_of,
    spectral,
)

__all__ = [
    "PopularitySplit",
    "UserClasses",
    "ClassMembershipReport",
    "SingularBounds",
    "DeltaWindow",
    "GeneralStrategy",
    "GeneralSufficiencyReport",
    "LargerSplitCheck",
    "top_items",
    "class_membership",
    "singular_bounds_check",
    "projection_gap_check",
    "check_general_sufficiency",
    "no_larger_nbar_check",
]

_GAP_UNDEFINED = "popular block has numeric rank below n_bar; gap undefined"


@dataclass(frozen=True)
class PopularitySplit:
    """A ratings matrix in [0,1]^(m x n) whose first ``n_bar`` columns are popular."""

    matrix: RatingsMatrix
    n_bar: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "n_bar", operator.index(self.n_bar))
        except TypeError:
            raise ValueError(f"n_bar must be an integer, got {self.n_bar!r}") from None
        n = self.matrix.cols
        if not 0 < self.n_bar < n:
            raise ValueError(f"n_bar must satisfy 0 < n_bar < {n}, got {self.n_bar}")
        a = self.matrix.entries
        if a.min() < 0.0 or a.max() > 1.0:
            raise ValueError("popularity split requires entries in [0, 1]")

    @property
    def popular_block(self) -> np.ndarray:
        return self.matrix.entries[:, : self.n_bar]

    @property
    def unpopular_block(self) -> np.ndarray:
        return self.matrix.entries[:, self.n_bar :]

    def popular_prefs(self) -> RatingsMatrix:
        """Copy of the matrix with every unpopular column zeroed, shape preserved."""
        out = np.array(self.matrix.entries, dtype=float)
        out[:, self.n_bar :] = 0.0
        return RatingsMatrix(out, nonnegative=True)

    @cached_property
    def kappa(self) -> float:
        """Largest column sum among unpopular items."""
        return float(self.unpopular_block.sum(axis=0).max())

    @cached_property
    def kappa_lower(self) -> float:
        """Smallest column sum among unpopular items."""
        return float(self.unpopular_block.sum(axis=0).min())

    @cached_property
    def _tail_kappa(self) -> float:
        """Largest column sum among columns strictly past the target column."""
        tail = self.matrix.entries[:, self.n_bar + 1 :]
        return float(tail.sum(axis=0).max()) if tail.shape[1] else 0.0

    @cached_property
    def _popular_spectrum(self) -> np.ndarray:
        """The popular block's singular values, one SVD for both readers below."""
        return singular_values_of(self.popular_block)

    @property
    def popular_rank(self) -> int:
        return _numeric_rank(self._popular_spectrum)

    @property
    def sigma_popular(self) -> float:
        """The n_bar-th singular value of the popular block (0 when absent)."""
        s = self._popular_spectrum
        return float(s[self.n_bar - 1]) if self.n_bar <= s.size else 0.0

    @cached_property
    def spectrum(self) -> SpectralSummary:
        """The whole matrix's decomposition, shared by the bounds and the projector."""
        return spectral(self.matrix)

    @cached_property
    def delta_gap(self) -> float | None:
        """Gap scalar 2^(5/2) * kappa * n^(3/2) / sigma_popular^2 driving every
        class check; None when the popular block's rank is below n_bar."""
        if self.popular_rank < self.n_bar:
            return None
        return 2.0**2.5 * self.kappa * self.matrix.cols**1.5 / self.sigma_popular**2

    @cached_property
    def window(self) -> OpenInterval:
        """Tolerance window (sqrt((n-nbar) kappa), 2^(5/4) n^(3/4) sqrt(kappa)): any
        tolerance inside it selects rank exactly ``n_bar`` for an in-class matrix."""
        n = self.matrix.cols
        return OpenInterval(
            math.sqrt((n - self.n_bar) * self.kappa), 2.0**1.25 * n**0.75 * math.sqrt(self.kappa)
        )

    @cached_property
    def _row_max(self) -> np.ndarray:
        return self.matrix.entries.max(axis=1)

    @cached_property
    def _top_mask(self) -> np.ndarray:
        """m x n mask of the entries equal to their exact row maximum."""
        return self.matrix.entries == self._row_max[:, None]

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Majority, minority and switching users: a row maximum on a popular
        column, on an unpopular one, on the first unpopular (target) one."""
        top, nb = self._top_mask, self.n_bar
        return top[:, :nb].any(axis=1), top[:, nb:].any(axis=1), top[:, nb]

    @property
    def class_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-user majority and minority masks: ``classes`` as boolean arrays."""
        return self._masks[:2]

    @cached_property
    def classes(self) -> UserClasses:
        """Majority users top out on a popular column, minority on an unpopular one."""
        majority, minority, _ = self._masks
        return UserClasses(_mask_indices(majority), _mask_indices(minority))

    @cached_property
    def switch_users(self) -> np.ndarray:
        """Minority users whose row maximum is attained on the first unpopular
        column, as a sorted, read-only np.intp array."""
        return _mask_indices(self._masks[2])

    @cached_property
    def _off_top_max(self) -> np.ndarray:
        """Best rating outside each row's top set; +inf on an all-tied row,
        which has none, so every margin ``(top - gap) - off`` there is -inf."""
        off = np.where(self._top_mask, -np.inf, self.matrix.entries).max(axis=1)
        off[self._top_mask.all(axis=1)] = np.inf
        return off

    @cached_property
    def membership(self) -> ClassMembershipReport:
        """The popularity-gap class conditions, evaluated with strict inequalities."""
        classes = self.classes
        majority_users, minority_users = classes.majority, classes.minority
        delta = self.delta_gap
        if delta is None:
            majority_margins, minority_margins = np.empty(0), np.empty(0)
        else:
            top, off = self._row_max[majority_users], self._off_top_max[majority_users]
            majority_margins = (top - delta) - off
            minority_margins = self.popular_block[minority_users].max(axis=1) - delta
        majority_ok = majority_margins > 0.0
        minority_ok = minority_margins > 0.0
        for array in (majority_margins, minority_margins, majority_ok, minority_ok):
            array.flags.writeable = False
        return ClassMembershipReport(
            n_bar=self.n_bar,
            kappa=self.kappa,
            kappa_lower=self.kappa_lower,
            sigma_popular=self.sigma_popular,
            delta_gap=delta,
            majority_users=majority_users,
            minority_users=minority_users,
            majority_margins=majority_margins,
            minority_margins=minority_margins,
            majority_gap_ok=majority_ok,
            minority_support_ok=minority_ok,
            in_class=delta is not None and bool(majority_ok.all() and minority_ok.all()),
            popularity_inequality=self.window.upper < self.sigma_popular,
            classes_exclusive=classes.exclusive,
            has_minority=classes.has_minority,
            reason=_GAP_UNDEFINED if delta is None else None,
        )

    @cached_property
    def singular_bounds(self) -> SingularBounds:
        """sigma_nbar(R) >= 2^(5/4) n^(3/4) sqrt(kappa) and
        sigma_{nbar+1}(R) <= sqrt((n-nbar) kappa)."""
        return SingularBounds(
            sigma_nbar=self.spectrum.sigma(self.n_bar),
            sigma_next=self.spectrum.sigma(self.n_bar + 1),
            lower_bound=self.window.upper,
            upper_bound=self.window.lower,
        )

    @cached_property
    def projection_gap(self) -> float:
        """Frobenius distance from the rank-n_bar projector to the popular-axis projector.

        The projector is built from the top n_bar right singular directions of
        the matrix; the reference is the diagonal 0/1 matrix selecting the
        popular columns.  Callers compare the distance against
        ``delta_gap / (2 sqrt(n))``.
        """
        summary = self.spectrum
        if summary.numeric_rank < self.n_bar:
            raise ValueError("matrix numeric rank is below n_bar; projector ill-defined")
        vt = summary.right_t[: self.n_bar]
        projector = vt.T @ vt
        n = self.matrix.cols
        reference = np.zeros((n, n))
        reference[np.arange(self.n_bar), np.arange(self.n_bar)] = 1.0
        return float(np.linalg.norm(projector - reference, "fro"))

    @cached_property
    def delta_window(self) -> DeltaWindow:
        """Feasible slack window for the worthwhile-target requirement.

        Sums range over true ratings: non-switching minority users compare
        their best and worst ratings among the popular columns plus the
        target, while switching users compare the target rating against their
        best popular one.  An empty switch set yields an upper endpoint of 0,
        so no positive point.
        """
        entries = self.matrix.entries
        nb = self.n_bar
        _, minority, sw = self._masks
        head = entries[minority & ~sw, : nb + 1]
        lower = max(0.0, float(head.max(axis=1).sum() - head.min(axis=1).sum()))
        gain = entries[sw, nb].sum() - entries[sw, :nb].max(axis=1).sum()
        return DeltaWindow(lower=lower, upper=float(gain))

    def _sigma_hat_radicand(self, column: np.ndarray) -> float:
        energy = float(column @ column)
        cross = float(np.linalg.norm(column @ self.popular_block))
        return min(energy, self.sigma_popular**2) - cross

    def sigma_hat(self, r_tilde: np.ndarray) -> float:
        """Closed-form lower estimate of the post-replacement (n_bar+1)-th singular value.

        sqrt(min(r~.r~, sigma_popular^2) - ||r~^T A||_2) with A the popular
        block.  The estimate never exceeds the true value; a negative radicand
        means the replacement is too correlated with the popular block to
        certify anything.
        """
        column = _validate_replacement(self.matrix, r_tilde)
        radicand = self._sigma_hat_radicand(column)
        if radicand < 0.0:
            raise ValueError(f"estimate radicand is negative ({radicand}); no certificate")
        return math.sqrt(radicand)

    def collective_ratings_gap(self, r_tilde: np.ndarray) -> float:
        """Gap scalar for the replaced matrix, priced from the original one:
        2^(5/2) * n^(3/2) * tail kappa / sigma_hat^2, with the largest column
        sum among the columns past the target as the tail kappa."""
        estimate = self.sigma_hat(r_tilde)
        if estimate == 0.0:
            raise ValueError("singular value estimate is zero; gap unbounded")
        return 2.0**2.5 * self.matrix.cols**1.5 * self._tail_kappa / estimate**2

    def general_sufficiency(self, r_tilde: np.ndarray, alpha: float) -> GeneralSufficiencyReport:
        """Judge one replacement strategy; passing verdicts certify a welfare gain.

        Raises on malformed inputs (a negative alpha, then the column's shape,
        range, or a changed minority entry); failed standing assumptions are
        reported, never silently ignored.
        """
        alpha = float(alpha)
        if alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        column = GeneralStrategy(r_tilde).validate_for(self)

        membership = self.membership
        majority, minority, switching = self._masks
        preconditions = {
            "in_class": membership.in_class,
            "classes_exclusive": membership.classes_exclusive,
            "has_minority": membership.has_minority,
            "switch_nonempty": bool(switching.any()),
            "target_sufficiently_liked": self.delta_window.has_positive_point,
            "alpha_in_gap": self.window.contains(alpha),
        }

        n = self.matrix.cols
        nb = self.n_bar
        entries = self.matrix.entries
        tail_bound = math.sqrt((n - nb - 1) * self._tail_kappa)

        margins: dict[str, float] = {}
        radicand = self._sigma_hat_radicand(column)
        margins["sigma_hat_radicand"] = radicand
        estimate = math.sqrt(radicand) if radicand >= 0.0 else None
        margins["alpha_below_sigma_hat"] = (
            estimate - alpha if estimate is not None else -math.inf
        )

        gap: float | None = None
        if estimate is not None and estimate > 0.0:
            gap = self.collective_ratings_gap(column)

        conditions: dict[str, bool | None] = {
            "alpha_below_sigma_hat": estimate is not None and alpha < estimate,
            "uprating_below_majority_top": None,
            "majority_gap_preserved": None,
            "switch_users_promoted": None,
            "residual_minority_supported": None,
        }

        if gap is not None:
            residual = minority & ~switching
            top, off = self._row_max, self._off_top_max
            for name, values in (
                ("uprating_below_majority_top", (top[majority] - gap) - column[majority]),
                ("majority_gap_preserved", (top[majority] - gap) - off[majority]),
                ("switch_users_promoted", (entries[switching, nb] - gap) - off[switching]),
                ("residual_minority_supported", entries[residual, : nb + 1].max(axis=1) - gap),
            ):
                margin = float(np.min(values, initial=math.inf))
                conditions[name] = margin > 0.0
                margins[name] = margin

        margins["alpha_above_tail"] = alpha - tail_bound
        alpha_above_tail = alpha > tail_bound

        verdict = all(preconditions.values()) and all(
            value is True for value in conditions.values()
        )
        return GeneralSufficiencyReport(
            preconditions=preconditions,
            conditions=conditions,
            margins=margins,
            sigma_hat=estimate,
            ratings_gap=gap,
            alpha_above_tail=alpha_above_tail,
            verdict=verdict,
        )

    @cached_property
    def larger_splits(self) -> LargerSplitCheck:
        """Whether any larger popular-column count keeps the matrix in class."""
        n = self.matrix.cols
        floor = (n - self.n_bar) * self.kappa / (2.0**2.5 * n**1.5)
        premise = self.membership.in_class and self.kappa_lower > floor
        if not premise:
            return LargerSplitCheck(premise_holds=False, confirmed=None)

        checked: dict[int, bool] = {}
        for wider in range(self.n_bar + 1, n):
            checked[wider] = PopularitySplit(self.matrix, wider).membership.in_class
        checked[n] = False
        return LargerSplitCheck(
            premise_holds=True,
            confirmed=not any(checked.values()),
            checked=checked,
        )


def top_items(row: np.ndarray) -> np.ndarray:
    """Indices attaining the exact row maximum, ascending."""
    row = np.asarray(row, dtype=float)
    return np.flatnonzero(row == row.max())


@dataclass(frozen=True, eq=False)
class UserClasses:
    """Per-user grouping induced by where each row maximum lands.

    ``majority`` and ``minority`` are sorted, read-only np.intp arrays of user
    indices, built from any form ``GroupPartition`` takes its groups in.  A
    user whose tied top items straddle the popular boundary is in both
    (``dual``); exclusivity is an assumption to check, not a structural fact.
    Classes compare by identity: compare the arrays to compare two.
    """

    majority: np.ndarray
    minority: np.ndarray

    def __post_init__(self) -> None:
        for name in ("majority", "minority"):
            object.__setattr__(self, name, _index_array(getattr(self, name), name))

    @property
    def dual(self) -> np.ndarray:
        return np.intersect1d(self.majority, self.minority, assume_unique=True)

    @property
    def exclusive(self) -> bool:
        return not self.dual.size

    @property
    def has_minority(self) -> bool:
        return bool(self.minority.size)


@dataclass(frozen=True, eq=False)
class ClassMembershipReport:
    """Outcome of the popularity-gap class checks for one split.

    Per-user results are read-only arrays.  ``majority_users`` and
    ``minority_users`` are the split's :class:`UserClasses` arrays.
    ``majority_margins`` holds, per majority user, how far the top rating
    beats every other rating beyond ``delta_gap``; ``minority_margins`` holds,
    per minority user, how far the best popular rating exceeds ``delta_gap``.
    Both are aligned with their users and empty when the gap is undefined.
    ``majority_gap_ok`` and ``minority_support_ok`` are ``margins > 0.0``.
    ``in_class`` requires the gap to be defined and every per-user check to
    pass; the exclusivity flags are reported alongside but are a separate
    assumption.  Reports compare by identity: compare the fields to compare
    two reports.
    """

    n_bar: int
    kappa: float
    kappa_lower: float
    sigma_popular: float
    delta_gap: float | None
    majority_users: np.ndarray
    minority_users: np.ndarray
    majority_margins: np.ndarray
    minority_margins: np.ndarray
    majority_gap_ok: np.ndarray
    minority_support_ok: np.ndarray
    in_class: bool
    popularity_inequality: bool
    classes_exclusive: bool
    has_minority: bool
    reason: str | None = None


@dataclass(frozen=True)
class SingularBounds:
    """Spectrum-level consequences of class membership (non-strict bounds)."""

    sigma_nbar: float
    sigma_next: float
    lower_bound: float
    upper_bound: float

    @property
    def lower_ok(self) -> bool:
        return self.sigma_nbar >= self.lower_bound

    @property
    def upper_ok(self) -> bool:
        return self.sigma_next <= self.upper_bound


@dataclass(frozen=True)
class DeltaWindow:
    """Half-open window [lower, upper) of slack values making the target worthwhile.

    ``lower`` aggregates how much the non-switching minority could lose when
    the target column turns popular; ``upper`` aggregates how much the
    switching minority stands to gain.  The underlying requirement asks for a
    strictly positive slack, so it holds exactly when the window contains a
    positive point.
    """

    lower: float
    upper: float

    @property
    def has_positive_point(self) -> bool:
        return self.upper > self.lower

    @property
    def witness(self) -> float:
        """A positive point inside the window; meaningful only when one exists."""
        return 0.5 * (self.lower + self.upper)


def _validate_replacement(matrix: RatingsMatrix, column: np.ndarray) -> np.ndarray:
    column = np.asarray(column, dtype=float)
    if column.shape != (matrix.rows,):
        raise ValueError(
            f"replacement column must have shape ({matrix.rows},), got {column.shape}"
        )
    if not np.isfinite(column).all():
        raise ValueError("replacement column must be finite")
    if column.min() < 0.0 or column.max() > 1.0:
        raise ValueError("replacement column entries must lie in [0, 1]")
    return column


@dataclass(frozen=True, eq=False)
class GeneralStrategy:
    """Replacement of the first unpopular column by an arbitrary [0,1] vector.

    Only users outside the minority may have their entry changed; minority
    entries must be carried over verbatim.  The realistic variant additionally
    never lowers any entry.
    """

    replacement_column: np.ndarray

    def __post_init__(self) -> None:
        column = np.asarray(self.replacement_column, dtype=float).copy()
        column.setflags(write=False)
        object.__setattr__(self, "replacement_column", column)

    def validate_for(self, split: PopularitySplit) -> np.ndarray:
        """The replacement column, checked against ``split``."""
        column = _validate_replacement(split.matrix, self.replacement_column)
        current = split.matrix.entries[:, split.n_bar]
        changed = np.flatnonzero(split._masks[1] & (column != current))
        if changed.size:
            u = int(changed[0])
            raise ValueError(
                f"minority user {u} must keep rating {current[u]!r} on the target column"
            )
        return column

    def is_realistic(self, split: PopularitySplit) -> bool:
        """True when no entry drops below its true value."""
        column = _validate_replacement(split.matrix, self.replacement_column)
        return bool((column >= split.matrix.entries[:, split.n_bar]).all())

    def apply(self, split: PopularitySplit) -> RatingsMatrix:
        out = np.array(split.matrix.entries, dtype=float)
        out[:, split.n_bar] = self.validate_for(split)
        return RatingsMatrix(out, nonnegative=True)


@dataclass(frozen=True)
class GeneralSufficiencyReport:
    """Evaluation of the five sufficient conditions for a replacement strategy.

    ``preconditions`` cover the standing assumptions on the untouched matrix
    (class membership, exclusive nonempty classes, a worthwhile nonempty
    switch set, tolerance inside the selection window).  ``conditions`` are
    the five strategy checks; entries are None when the singular value
    estimate fails so they cannot be priced.  Margins are positive exactly
    when the matching check passes.  ``alpha_above_tail`` restates a bound the
    gap precondition already implies and never gates the verdict.
    """

    preconditions: dict[str, bool]
    conditions: dict[str, bool | None]
    margins: dict[str, float]
    sigma_hat: float | None
    ratings_gap: float | None
    alpha_above_tail: bool
    verdict: bool


@dataclass(frozen=True)
class LargerSplitCheck:
    """Whether every split larger than the given one falls out of the class.

    ``confirmed`` is None when the premise (class membership plus a floor on
    the smallest unpopular column sum) does not hold, so nothing is claimed.
    ``checked`` maps each larger split to its membership result; the full-width
    split has no unpopular columns and counts as out of class by convention.
    """

    premise_holds: bool
    confirmed: bool | None
    checked: dict[int, bool] = field(default_factory=dict)


# (matrix, n_bar) entry points kept only because the benchmark's certify round
# calls them by name; each is one split member.


def class_membership(matrix: RatingsMatrix, n_bar: int) -> ClassMembershipReport:
    return PopularitySplit(matrix, n_bar).membership


def singular_bounds_check(matrix: RatingsMatrix, n_bar: int) -> SingularBounds:
    return PopularitySplit(matrix, n_bar).singular_bounds


def projection_gap_check(matrix: RatingsMatrix, n_bar: int) -> float:
    return PopularitySplit(matrix, n_bar).projection_gap


def check_general_sufficiency(
    matrix: RatingsMatrix, n_bar: int, r_tilde: np.ndarray, alpha: float
) -> GeneralSufficiencyReport:
    return PopularitySplit(matrix, n_bar).general_sufficiency(r_tilde, alpha)


def no_larger_nbar_check(matrix: RatingsMatrix, n_bar: int) -> LargerSplitCheck:
    return PopularitySplit(matrix, n_bar).larger_splits
