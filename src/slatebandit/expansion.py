"""Promoting actions from a foreign flow into a context's recommendation pool.

Actions that only ever surface through another surface (say, free-text
disambiguation) accumulate survey evidence there. When that evidence makes an
action credibly better than doing nothing, the action is copied into the
target context's bank so the recommendation policy can start serving it.

The gate is exact and draws nothing: P(candidate rate > reference rate) under
the two Beta posteriors is a finite sum whenever one of the four Beta
parameters is an integer, which whole-number counts always give (Evan Miller,
"Formulas for Bayesian A/B Testing", 2015). Counts with no integer parameter
fall back to one-dimensional quadrature.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .core import NULL_ACTION_ID, ValidationError, atomic_write
from .mab import ArmStats, ContextBank

VERDICT_PROMOTED = "promoted"
VERDICT_BELOW_THRESHOLD = "below_threshold"
VERDICT_INSUFFICIENT_TRIALS = "insufficient_trials"
VERDICT_ALREADY_PRESENT = "already_present"


@dataclass
class ExpansionConfig:
    """Gate parameters: evidence floor and false-positive budget."""

    min_trials: float = 10.0
    false_positive_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.min_trials < 1:
            raise ValidationError("min_trials must be at least 1")
        if not (0.0 < self.false_positive_rate < 1.0):
            raise ValidationError("false_positive_rate must lie in (0, 1)")


def _lnbeta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _exceedance_sum(a1: float, b1: float, a2: float, b2: float) -> float:
    """P(X1 > X2) for X1 ~ Beta(a1, b1), X2 ~ Beta(a2, b2), summed over the
    a1 terms of the closed form; a1 must be a positive integer, the other
    parameters may be any positive reals."""
    base = _lnbeta(a2, b2)
    return math.fsum(
        math.exp(_lnbeta(a2 + i, b1 + b2) - math.log(b1 + i) - _lnbeta(1.0 + i, b1) - base)
        for i in range(int(a1))
    )


def _exceedance_quadrature(a1: float, b1: float, a2: float, b2: float) -> float:
    """P(X1 > X2) as the integral of f_X1 * F_X2 over (0, 1)."""
    # Only counts with no integer Beta parameter get here, which the
    # simulator never produces, so scipy stays unimported on the serving path.
    from scipy import integrate, special

    norm = _lnbeta(a1, b1)

    def integrand(x: float) -> float:
        density = math.exp((a1 - 1.0) * math.log(x) + (b1 - 1.0) * math.log1p(-x) - norm)
        return density * float(special.betainc(a2, b2, x))

    value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, limit=200)
    return value


def prob_better(candidate: ArmStats, reference: ArmStats) -> float:
    """Exact P(candidate rate > reference rate) under Beta(s + 1, f + 1)
    posteriors.

    The closed form sums over one integer parameter. Swapping the two arms
    (P(X > Y) = 1 - P(Y > X)) and mirroring both (1 - X ~ Beta(b, a)) bring
    any of the four parameters into the summed slot, so the sum runs over the
    smallest integer one. With no integer parameter the value comes from
    quadrature instead.
    """
    ac, bc = candidate.successes + 1.0, candidate.failures + 1.0
    ar, br = reference.successes + 1.0, reference.failures + 1.0
    # (summed parameter, arguments of _exceedance_sum, whether to complement)
    forms = (
        (ac, (ac, bc, ar, br), False),
        (ar, (ar, br, ac, bc), True),
        (br, (br, ar, bc, ac), False),
        (bc, (bc, ac, br, ar), True),
    )
    exact = [form for form in forms if form[0].is_integer()]
    if not exact:
        p = _exceedance_quadrature(ac, bc, ar, br)
    else:
        _, args, complement = min(exact, key=lambda form: form[0])
        p = _exceedance_sum(*args)
        if complement:
            p = 1.0 - p
    return min(1.0, max(0.0, p))


@dataclass
class CandidateVerdict:
    action_id: str
    trials: float
    prob_better: float | None
    verdict: str

    def to_dict(self) -> dict:
        return {
            "action_id": self.action_id,
            "trials": self.trials,
            "prob_better": self.prob_better,
            "verdict": self.verdict,
        }


@dataclass
class ExpansionReport:
    context_id: str
    promoted: list[str] = field(default_factory=list)
    verdicts: list[CandidateVerdict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "context_id": self.context_id,
            "promoted": list(self.promoted),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def expand(
    bank: ContextBank,
    foreign_survey_stats: dict[str, ArmStats],
    config: ExpansionConfig,
) -> ExpansionReport:
    """Promote foreign actions whose survey rate credibly beats the null item.

    The reference is the bank's own survey posterior for the null item (doing
    nothing must be beatable with probability at least 1 - false_positive_rate).
    A promoted action gets a copy of its foreign survey entries and a fresh,
    empty click-stats entry; its click posterior starts at the uniform prior so
    the policy explores it. Candidates already known to the bank are skipped.
    Candidates are processed in sorted id order and the gate draws nothing, so
    the report depends only on the counts.
    """
    reference = bank.survey_stats.get(NULL_ACTION_ID)
    if reference is None:
        raise ValidationError("bank has no survey stats for the null item")
    report = ExpansionReport(context_id=bank.context_id)
    for action_id in sorted(foreign_survey_stats):
        stats = foreign_survey_stats[action_id]
        if (
            action_id == NULL_ACTION_ID
            or action_id in bank.click_stats
            or action_id in bank.survey_stats
        ):
            report.verdicts.append(
                CandidateVerdict(action_id, stats.trials, None, VERDICT_ALREADY_PRESENT)
            )
            continue
        if stats.trials < config.min_trials:
            report.verdicts.append(
                CandidateVerdict(action_id, stats.trials, None, VERDICT_INSUFFICIENT_TRIALS)
            )
            continue
        p = prob_better(stats, reference)
        if p >= 1.0 - config.false_positive_rate:
            bank.survey_stats[action_id] = stats.copy()
            bank.click_stats[action_id] = ArmStats()
            report.promoted.append(action_id)
            report.verdicts.append(CandidateVerdict(action_id, stats.trials, p, VERDICT_PROMOTED))
        else:
            report.verdicts.append(
                CandidateVerdict(action_id, stats.trials, p, VERDICT_BELOW_THRESHOLD)
            )
    return report


def save_report(report: ExpansionReport, path: str | os.PathLike) -> None:
    atomic_write(path, json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
