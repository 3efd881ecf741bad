"""Riesz potential on martingales and the embedding experiments.

I_alpha scales the difference f_n by m^{-alpha n} and leaves F_0 alone.  The
experiments track ratios of norms across increasing depths and issue a
BOUNDED or GROWING verdict; finite depths cannot observe true boundedness, so
the verdict is a regression on at least five depth points, never a single
depth.  GROWING requires the least-squares slope of log(ratio) against N to
exceed half the predicted rate of the relevant divergence (for the linear
divergences here: log(N_max/N_min)/(N_max - N_min) over the depth window).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtration import (
    FiltrationSpec,
    Martingale,
    evaluate,
    multiplicative_martingale,
)
from .norms import (
    lorentz_p1_norm,
    lp_norm,
    martingale_difference,
    martingale_level,
)
from .spacew import SubspaceW, delta_vector, random_w_martingale


@dataclass
class EmbeddingReport:
    depths: list[int]
    lhs: np.ndarray          # per depth (max over trials where applicable)
    rhs: np.ndarray
    ratios: np.ndarray
    verdict: str             # "BOUNDED" or "GROWING"
    slope: float             # least-squares slope of log(ratio) vs depth
    predicted_rate: float
    details: dict = field(default_factory=dict)


def riesz_potential(F: Martingale, alpha: float) -> Martingale:
    """Scale f_n by m^{-alpha n}; F_0 passes through unchanged."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    factors = np.array([float(F.spec.m) ** (-alpha * n) for n in range(1, F.spec.depth + 1)])
    return F.scaled(factors)


def trend_verdict(depths, ratios) -> tuple[str, float, float]:
    """(verdict, slope, predicted rate): the rule of every embedding and trace experiment.

    The slope fits log(ratio) against depth over the positive ratios (0 when
    fewer than two); the predicted rate log(hi/lo)/(hi - lo) is the signature
    of ratios growing like c*N.
    """
    lo, hi = min(depths), max(depths)
    predicted = float(np.log(hi / lo) / (hi - lo))
    x = np.asarray(depths, dtype=float)
    y = np.asarray(ratios, dtype=float)
    keep = y > 0
    slope = float(np.polyfit(x[keep], np.log(y[keep]), 1)[0]) if keep.sum() >= 2 else 0.0
    growing = len(depths) >= 5 and slope > 0.5 * predicted
    return ("GROWING" if growing else "BOUNDED"), slope, predicted


def delta_martingale(spec: FiltrationSpec) -> Martingale:
    """F = prod(1 + h_i) - 1 for the delta direction: the L_1-normalized

    density of a point mass minus its mean.  E|F_n| = 2(1 - m^{-n}) <= 2 while
    the Riesz image escapes every L_p.
    """
    G = multiplicative_martingale(spec, delta_vector(spec.m))
    minus_one = Martingale(spec, -np.ones(1), Martingale.zero(spec).diffs, validate=False)
    return G + minus_one


def delta_counterexample(p: float, spec: FiltrationSpec, depths=None) -> EmbeddingReport:
    """Growth certificate for the delta construction against I_{(p-1)/p}.

    Tracks the p-th power sum sum_n ||m^{-((p-1)/p)n} f_n||_p^p, whose
    increments are exactly constant, so the partial sums grow linearly in N.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    m = spec.m
    F = delta_martingale(spec)
    terms = []
    for n in range(1, spec.depth + 1):
        fn = martingale_difference(F, n)
        terms.append(float(m) ** (-(p - 1) * n) * lp_norm(fn, p) ** p)
    terms = np.array(terms)
    power_sums = np.array([terms[:d].sum() for d in depths])
    l1_norms = np.array(
        [lp_norm(martingale_level(F.truncated(d), d), 1.0) for d in depths]
    )
    verdict, slope, predicted = trend_verdict(depths, power_sums)
    per_level_constant = float(m) ** (-p) * ((m - 1) ** p + (m - 1))
    return EmbeddingReport(
        depths=list(depths),
        lhs=power_sums,
        rhs=l1_norms,
        ratios=power_sums,
        verdict=verdict,
        slope=slope,
        predicted_rate=predicted,
        details={
            "per_level_terms": terms,
            "per_level_constant": per_level_constant,
            "l1_bounded_by_two": bool(np.all(l1_norms <= 2.0 + 1e-12)),
        },
    )


def _random_martingale(spec, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    diffs = []
    for n in range(spec.depth):
        block = rng.standard_normal((spec.m**n, spec.m, spec.ell)) * scale
        block -= block.mean(axis=1, keepdims=True)
        diffs.append(block)
    return Martingale(spec, np.zeros(spec.ell), diffs, validate=False)


def hls_experiment(p: float, q: float, spec: FiltrationSpec, trials: int = 20, seed: int = 0,
                   depths=None) -> EmbeddingReport:
    """||I_{(q-p)/(qp)} F||_{L_q} / ||F||_{L_p} for random martingales.

    The operator is bounded with a uniform constant, so the expected
    verdict is BOUNDED.  Single-scale rows (one nonzero difference level) obey the
    local embedding with ratio <= 1.
    """
    if not q > p > 1:
        raise ValueError(f"need q > p > 1, got p={p}, q={q}")
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    alpha = (q - p) / (q * p)
    per_trial = np.zeros((len(depths), trials))
    for i, d in enumerate(depths):
        sub = spec.truncated(d)
        for t in range(trials):
            F = _random_martingale(sub, seed=[seed, d, t])
            num = lp_norm(martingale_level(riesz_potential(F, alpha), d), q)
            den = lp_norm(martingale_level(F, d), p)
            if den > 0:
                per_trial[i, t] = num / den
    ratios = per_trial.max(axis=1)
    verdict, slope, predicted = trend_verdict(depths, ratios)
    return EmbeddingReport(
        depths=list(depths),
        lhs=ratios,
        rhs=np.ones_like(ratios),
        ratios=ratios,
        verdict=verdict,
        slope=slope,
        predicted_rate=predicted,
        details={"alpha": alpha, "trials": trials, "per_trial": per_trial},
    )


def lorentz_sum_lhs(F: Martingale, p: float, depth: int | None = None) -> float:
    """sum_{n=1}^N m^{-((p-1)/p)n} ||f_n||_{L_{p,1}}: the strengthened left side."""
    depth = F.spec.depth if depth is None else depth
    total = 0.0
    for n in range(1, depth + 1):
        fn = martingale_difference(F, n)
        total += float(F.spec.m) ** (-(p - 1) / p * n) * lorentz_p1_norm(fn, p)
    return total


def main_inequality_experiment(
    W: SubspaceW,
    p: float,
    spec: FiltrationSpec,
    trials: int = 20,
    seed: int = 0,
    depths=None,
    scale_profile=None,
    use_delta: bool = False,
) -> EmbeddingReport:
    """Lorentz-sum left side against ||F||_{L_1} for W-martingales.

    With ``use_delta`` the delta construction is fed instead (for a
    delta-containing W this is the growth example).  Also reports the Besov
    Besov-sum quantity ||I_{(p-1)/p} F||_{B_p^{0,1}}.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    m = spec.m
    weight = lambda n: float(m) ** (-(p - 1) / p * n)

    def ratios_for_martingale(F):
        # One deep martingale, evaluated at all truncation depths: the level
        # norms are shared, only the running sums and ||F_d||_1 differ.
        lorentz_terms = [
            weight(n) * lorentz_p1_norm(martingale_difference(F, n), p)
            for n in range(1, spec.depth + 1)
        ]
        besov_terms = [
            weight(n) * lp_norm(martingale_difference(F, n), p)
            for n in range(1, spec.depth + 1)
        ]
        out = []
        for d in depths:
            lhs = sum(lorentz_terms[: d])
            besov = sum(besov_terms[: d])
            l1 = lp_norm(martingale_level(F.truncated(d), d), 1.0)
            out.append((lhs, besov, l1))
        return out

    n_mart = 1 if use_delta else trials
    per_trial = np.zeros((len(depths), n_mart))
    per_depth_besov_max = np.zeros(len(depths))
    for t in range(n_mart):
        if use_delta:
            F = delta_martingale(spec)
        else:
            F = random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t])
        for i, (lhs, besov, l1) in enumerate(ratios_for_martingale(F)):
            if l1 > 0:
                per_trial[i, t] = lhs / l1
                per_depth_besov_max[i] = max(per_depth_besov_max[i], besov / l1)
    per_depth_ratio_max = per_trial.max(axis=1)
    verdict, slope, predicted = trend_verdict(depths, per_depth_ratio_max)
    return EmbeddingReport(
        depths=list(depths),
        lhs=per_depth_ratio_max,
        rhs=np.ones_like(per_depth_ratio_max),
        ratios=per_depth_ratio_max,
        verdict=verdict,
        slope=slope,
        predicted_rate=predicted,
        details={
            "besov_ratios": per_depth_besov_max,
            "trials": n_mart,
            "p": p,
            "per_trial": per_trial,
        },
    )
