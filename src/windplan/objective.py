"""Criterion scaling and weighted site-cost evaluation.

Single-criterion runs price sites by the raw criterion (physical units,
argmin-equivalent). Multi-criterion runs min-max scale each criterion to
[0, 1] and then rescale each distribution to a common mean of 1.0 so
that outlier-compressed criteria still carry weight in the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import SiteTable, ValidationError

TARGET_MEAN = 1.0
CRITERIA = ("lcoe", "scenicness", "network_length")


@dataclass(frozen=True)
class Weights:
    w_c: float
    w_s: float
    w_l: float

    def __post_init__(self):
        for name, w in (("w_c", self.w_c), ("w_s", self.w_s), ("w_l", self.w_l)):
            if not 0.0 <= w <= 1.0:
                raise ValidationError(f"weight {name}={w} outside [0, 1]")
        if self.w_c == self.w_s == self.w_l == 0.0:
            raise ValidationError("at least one weight must be positive")

    def active(self) -> list[str]:
        return [n for n, w in zip(CRITERIA, (self.w_c, self.w_s, self.w_l)) if w > 0]

    def single_criterion(self) -> str | None:
        """The lone active criterion name, or None if several are active."""
        act = self.active()
        return act[0] if len(act) == 1 else None


@dataclass
class ScaledCriteria:
    """Per-site scaled-and-mean-equalized criterion values."""
    lcoe: np.ndarray
    scenicness: np.ndarray
    network_length: np.ndarray

    def by_name(self, name: str) -> np.ndarray:
        return getattr(self, name)


def minmax_scale(values) -> tuple[np.ndarray, float, float, bool]:
    """Affine map of values onto [0, 1]; (scaled, x_min, x_max, degenerate).

    A constant input is degenerate: everything maps to 0 and the flag is
    set.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("minmax_scale: empty value list")
    x_min = float(arr.min())
    x_max = float(arr.max())
    if x_max == x_min:
        return np.zeros_like(arr), x_min, x_max, True
    return (arr - x_min) / (x_max - x_min), x_min, x_max, False


def _require_lengths(sites: SiteTable) -> None:
    missing = np.isnan(sites.network_length)
    if missing.any():
        raise ValidationError(
            f"site {int(sites.ids[missing.argmax()])} has no network_length; run prep first")


def scale_candidates(sites: SiteTable) -> ScaledCriteria:
    """Min-max scale all three criteria over the pool, then multiply each so
    its mean is TARGET_MEAN."""
    _require_lengths(sites)
    out = {}
    for name in CRITERIA:
        arr = minmax_scale(getattr(sites, name))[0]
        mean = float(arr.mean())
        if mean == 0.0:
            raise ValidationError(f"criterion {name!r} has zero mean; cannot equalize")
        out[name] = arr * (TARGET_MEAN / mean)
    return ScaledCriteria(**out)


def site_costs(sites: SiteTable, weights: Weights,
               scaled: ScaledCriteria | None = None) -> np.ndarray:
    """Per-site objective contribution, aligned with the table rows.

    Exactly one active weight: raw criterion values (times the weight).
    Several active weights: scaled-equalized values; `scaled` is computed
    over the given pool when not supplied.
    """
    single = weights.single_criterion()
    if single is not None:
        _require_lengths(sites)
        w = {"lcoe": weights.w_c, "scenicness": weights.w_s,
             "network_length": weights.w_l}[single]
        return w * getattr(sites, single)
    if scaled is None:
        scaled = scale_candidates(sites)
    return (weights.w_c * scaled.lcoe + weights.w_s * scaled.scenicness
            + weights.w_l * scaled.network_length)
