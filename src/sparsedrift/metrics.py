"""Error norms, support-recovery scores, and rate-slope regression."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class ErrorNorms(NamedTuple):
    l1: float
    l2: float


def error_norms(theta_hat: np.ndarray, theta0: np.ndarray) -> ErrorNorms:
    """(||theta_hat - theta0||_1, ||theta_hat - theta0||_2)."""
    a = np.asarray(theta_hat, dtype=float)
    b = np.asarray(theta0, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return ErrorNorms(l1=float(np.sum(np.abs(diff))), l2=float(np.linalg.norm(diff)))


@dataclass(frozen=True)
class SupportScore:
    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int
    threshold: float


def support_score(theta_hat: np.ndarray, theta0: np.ndarray, tau: float = 0.0) -> SupportScore:
    """Precision/recall/F1 of the supports {|.| > tau}.

    Conventions: two empty supports score 1.0 across the board; an empty
    prediction against a nonempty truth scores 0 precision (and recall).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    pred = np.abs(np.asarray(theta_hat, dtype=float)) > tau
    true = np.abs(np.asarray(theta0, dtype=float)) > tau
    if pred.shape != true.shape:
        raise ValueError("length mismatch")
    tp = int(np.sum(pred & true))
    fp = int(np.sum(pred & ~true))
    fn = int(np.sum(~pred & true))
    if not pred.any() and not true.any():
        precision = recall = f1 = 1.0
    else:
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return SupportScore(
        precision=precision,
        recall=recall,
        f1=f1,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        threshold=tau,
    )


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float


def rate_fit(points: Sequence[tuple[float, float]]) -> RateFit:
    """Ordinary least squares of log(error) on log(T), over points at 2 or more distinct T."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not pts[:, 0].min() < pts[:, 0].max():
        raise ValueError("need (T, error) points at 2 or more distinct T")
    if np.any(pts <= 0):
        raise ValueError("T and error values must be strictly positive")
    x = np.log(pts[:, 0])
    y = np.log(pts[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2)
