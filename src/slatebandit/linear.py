"""Linear bandit heads over learned feature vectors.

The head is refit from sufficient statistics (reward-weighted feature sum and
feature Gram matrix), reduced to the principal subspace that carries almost
all of the spectrum, and queried per request for point estimates, effective
counts, and sampled choices. Refitting is cheap by design; the feature network
underneath retrains on a slower cadence.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import NoDataError, ValidationError, atomic_write, categorical

DEFAULT_PCR_THRESHOLD = 0.99
RIDGE_SCALE = 1e-8


@dataclass
class SufficientStats:
    """Windowed accumulation of (features, reward) pairs.

    ``reward_feature_sum`` is the sum of reward * features and ``gram`` the sum
    of feature outer products over the retained entries. With a window set,
    entries age out exactly as in the discrete counters: an entry at ts is
    retained while now - ts < window.
    """

    dim: int
    window_seconds: int | None = None
    reward_feature_sum: np.ndarray = field(init=False)
    gram: np.ndarray = field(init=False)
    count: int = field(init=False, default=0)
    entries: deque = field(init=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValidationError("dim must be positive")
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ValidationError("window_seconds must be positive")
        self.reward_feature_sum = np.zeros(self.dim)
        self.gram = np.zeros((self.dim, self.dim))
        self.entries = deque()

    def time_range(self) -> tuple[int, int] | None:
        if not self.entries:
            return None
        return self.entries[0][0], self.entries[-1][0]


def absorb(stats: SufficientStats, phi: np.ndarray, reward: float, ts: int) -> None:
    """Fold one observation in, aging out entries the window no longer covers."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (stats.dim,):
        raise ValidationError(f"features must have shape ({stats.dim},)")
    if not np.all(np.isfinite(phi)) or not np.isfinite(reward):
        raise ValidationError("features and reward must be finite")
    if stats.entries and ts < stats.entries[-1][0]:
        raise ValidationError("entries must be absorbed in time order")
    if stats.window_seconds is not None:
        evict_before(stats, ts - stats.window_seconds)
    stats.entries.append((ts, phi.copy(), float(reward)))
    stats.reward_feature_sum += reward * phi
    stats.gram += np.outer(phi, phi)
    stats.count += 1


def evict_before(stats: SufficientStats, cutoff: int) -> None:
    while stats.entries and stats.entries[0][0] <= cutoff:
        _, phi, reward = stats.entries.popleft()
        stats.reward_feature_sum -= reward * phi
        stats.gram -= np.outer(phi, phi)
        stats.count -= 1
    if not stats.entries:
        stats.reward_feature_sum = np.zeros(stats.dim)
        stats.gram = np.zeros((stats.dim, stats.dim))
        stats.count = 0


@dataclass
class BanditHead:
    """A fitted head: principal basis, projected design, and weights.

    ``eigenvalues`` is the diagonal of the projected design after any ridge;
    in the ``basis`` the design is that diagonal, so it fixes the posterior
    covariance on its own.
    """

    dim: int
    basis: np.ndarray
    eigenvalues: np.ndarray
    weights: np.ndarray
    pcr_threshold: float
    ridge: float = 0.0
    count: int = 0
    time_range: tuple[int, int] | None = None

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def fit(
    stats: SufficientStats,
    pcr_threshold: float = DEFAULT_PCR_THRESHOLD,
) -> BanditHead:
    """Least-squares weights on the principal subspace of the Gram matrix.

    The Gram spectrum is cut at the smallest rank holding at least
    ``pcr_threshold`` of the total eigenvalue mass; the projected design is
    diagonal in that basis, and the weights solve the projected normal
    equations. A ridge of 1e-8 * trace/dim is added only if the retained
    spectrum is not strictly positive, so exact integer counters pass through
    untouched.
    """
    if not (0.0 < pcr_threshold <= 1.0):
        raise ValidationError("pcr_threshold must lie in (0, 1]")
    if stats.count == 0:
        raise NoDataError("no data")
    sym = (stats.gram + stats.gram.T) / 2.0
    eigvals_asc, eigvecs_asc = np.linalg.eigh(sym)
    eigvals = np.maximum(eigvals_asc[::-1], 0.0)
    eigvecs = eigvecs_asc[:, ::-1]
    cum = np.cumsum(eigvals)
    total = float(cum[-1])
    if total <= 0.0:
        raise NoDataError("no data")
    rank = int(np.searchsorted(cum, pcr_threshold * total, side="left")) + 1
    rank = min(rank, len(eigvals))
    retained = eigvals[:rank].copy()
    basis = np.ascontiguousarray(eigvecs[:, :rank])

    ridge = 0.0
    if retained.min() <= 0.0:
        ridge = RIDGE_SCALE * float(np.trace(sym)) / stats.dim
    lam = retained + ridge

    projected_f = basis.T @ stats.reward_feature_sum
    weights = basis @ (projected_f / lam)
    return BanditHead(
        dim=stats.dim,
        basis=basis,
        eigenvalues=lam,
        weights=weights,
        pcr_threshold=pcr_threshold,
        ridge=ridge,
        count=stats.count,
        time_range=stats.time_range(),
    )


def predict(head: BanditHead, phi: np.ndarray) -> float:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (head.dim,):
        raise ValidationError(f"features must have shape ({head.dim},)")
    return float(head.weights @ phi)


def bonus(head: BanditHead, phi: np.ndarray) -> float:
    """Effective observation count behind the head's estimate along ``phi``.

    The reciprocal of the posterior quadratic form phi' inv(design) phi in the
    retained subspace. A feature direction with no retained mass returns 0 (no
    evidence). The quadratic form accumulates in extended precision so that a
    one-hot direction with c absorbed trials comes back as exactly c.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (head.dim,):
        raise ValidationError(f"features must have shape ({head.dim},)")
    projected = head.basis.T @ phi
    p = projected.astype(np.longdouble)
    lam = head.eigenvalues.astype(np.longdouble)
    quad = (p * p / lam).sum()
    if quad == 0.0:
        return 0.0
    return float(np.longdouble(1.0) / quad)


def ews_weights(bonuses: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Unnormalized sampling weights exp(-2 * bonus * gap^2)."""
    bonuses = np.asarray(bonuses, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if bonuses.shape != gaps.shape:
        raise ValidationError("bonuses and gaps must align")
    if np.any(bonuses < 0) or np.any(gaps < 0):
        raise ValidationError("bonuses and gaps must be non-negative")
    return np.exp(-2.0 * bonuses * gaps**2)


def ews_probabilities(head: BanditHead, phis: Sequence[np.ndarray]) -> np.ndarray:
    """Selection probabilities for one sampling round over the candidates.

    Gaps are the point-estimate shortfalls to the best candidate; the best
    candidate has gap 0 and weight 1, and candidates with no evidence keep
    weight 1 regardless of gap, which is what drives exploration toward them.
    """
    if not len(phis):
        raise NoDataError("no candidates")
    estimates = np.array([predict(head, phi) for phi in phis])
    gaps = estimates.max() - estimates
    np.maximum(gaps, 0.0, out=gaps)
    bonuses = np.array([bonus(head, phi) for phi in phis])
    weights = ews_weights(bonuses, gaps)
    return weights / weights.sum()


def ews_sample(
    head: BanditHead,
    candidates: Sequence[tuple[str, np.ndarray]],
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Draw one candidate index by estimate-with-suppression sampling.

    Returns the chosen index and the full probability vector of the round so
    callers can log propensities.
    """
    probs = ews_probabilities(head, [phi for _, phi in candidates])
    return categorical(probs, rng), probs


def ts_sample(
    head: BanditHead,
    candidates: Sequence[tuple[str, np.ndarray]],
    prior_scale: float,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Rank candidates under one posterior draw of the weight vector.

    The weight perturbation has covariance prior_scale * inv(design) in the
    retained subspace. Returns the argmax index (score ties broken by action
    id) and each candidate's sampled score; one draw ranks the whole slate.
    """
    if prior_scale <= 0:
        raise ValidationError("prior_scale must be positive")
    if not len(candidates):
        raise NoDataError("no candidates")
    z = rng.standard_normal(head.rank)
    sampled_weights = head.weights + np.sqrt(prior_scale) * (
        head.basis @ ((1.0 / np.sqrt(head.eigenvalues)) * z)
    )
    scores = np.array([float(sampled_weights @ phi) for _, phi in candidates])
    best = min(range(len(candidates)), key=lambda i: (-scores[i], candidates[i][0]))
    return best, scores


def save_head(head: BanditHead, path: str | os.PathLike) -> None:
    record = {
        "dim": head.dim,
        "basis": head.basis.tolist(),
        "eigenvalues": head.eigenvalues.tolist(),
        "weights": head.weights.tolist(),
        "pcr_threshold": head.pcr_threshold,
        "ridge": head.ridge,
        "count": head.count,
        "time_range": list(head.time_range) if head.time_range else None,
    }
    atomic_write(path, json.dumps(record, sort_keys=True) + "\n")


def load_head(path: str | os.PathLike) -> BanditHead:
    """Read a saved head. Older heads also carry the inverse Cholesky factor
    of the design; it is ignored, since ``eigenvalues`` determines it."""
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    time_range = record.get("time_range")
    return BanditHead(
        dim=int(record["dim"]),
        basis=np.asarray(record["basis"], dtype=float),
        eigenvalues=np.asarray(record["eigenvalues"], dtype=float),
        weights=np.asarray(record["weights"], dtype=float),
        pcr_threshold=float(record["pcr_threshold"]),
        ridge=float(record.get("ridge", 0.0)),
        count=int(record.get("count", 0)),
        time_range=tuple(time_range) if time_range else None,
    )
