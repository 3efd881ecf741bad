"""Riesz potential on martingales and the embedding experiments.

I_alpha scales the difference f_n by m^{-alpha n} and leaves F_0 alone.  The
experiments here and in ``trace`` track ratios of norms across increasing
depths: ``ratio_trials`` is their one loop over trials, each trial's parts
coming back over all depths at once, read from the level magnitudes its
martingale keeps (``F.norms``, ``F.diff_norms``) with no truncated copy; and
``trend_verdict`` turns the per-depth ratios into the one report type,
``EmbeddingReport``, with a BOUNDED or GROWING verdict.  Finite depths cannot
observe true boundedness, so the verdict is a regression on at least five
depth points, and fewer than two distinct depths are refused.  GROWING requires the least-squares slope
of log(ratio) against N to exceed half the predicted rate of the relevant
divergence (for the linear divergences here: log(N_max/N_min)/(N_max - N_min)
over the depth window).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtration import FiltrationSpec, Martingale, Product, _sweep, evaluate, vector_norms
from .norms import besov_terms, lorentz_p1_from_distribution, lp_norm
from .spacew import SubspaceW, delta_vector, random_w_martingale


@dataclass
class EmbeddingReport:
    depths: list[int]
    ratios: np.ndarray       # per depth (max over trials where applicable)
    verdict: str             # "BOUNDED" or "GROWING"
    slope: float             # least-squares slope of log(ratio) vs depth
    predicted_rate: float
    details: dict = field(default_factory=dict)


def riesz_potential(F: Martingale, alpha: float) -> Martingale:
    """Scale f_n by m^{-alpha n}; F_0 passes through unchanged."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return F.scaled([float(F.spec.m) ** (-alpha * n) for n in range(1, F.spec.depth + 1)])


def trend_verdict(depths, ratios) -> EmbeddingReport:
    """The report of every embedding and trace experiment, its details left to the caller.

    The slope fits log(ratio) against depth over the positive ratios (0 when
    fewer than two); the predicted rate log(hi/lo)/(hi - lo) is the signature
    of ratios growing like c*N, so at least two distinct depths are needed.
    """
    if len(set(depths)) < 2:
        raise ValueError(f"a trend needs at least two distinct depths, got {sorted(set(depths))}")
    lo, hi = min(depths), max(depths)
    predicted = float(np.log(hi / lo) / (hi - lo))
    x = np.asarray(depths, dtype=float)
    y = np.asarray(ratios, dtype=float)
    keep = y > 0
    slope = float(np.polyfit(x[keep], np.log(y[keep]), 1)[0]) if keep.sum() >= 2 else 0.0
    growing = len(depths) >= 5 and slope > 0.5 * predicted
    return EmbeddingReport(list(depths), ratios, "GROWING" if growing else "BOUNDED", slope, predicted)


def ratio_trials(draws, parts) -> list[np.ndarray]:
    """The loop of every ratio experiment: for each numerator, its ratios to the
    denominator by depth (rows) and trial (columns).

    ``draws`` yields one trial at a time and ``parts(trial)`` gives
    (denominator, numerator, ...), each over all depths; a ratio stays 0
    where the denominator is not positive.
    """
    den, *nums = np.array([parts(trial) for trial in draws]).transpose(1, 2, 0)
    return [np.divide(num, den, out=np.zeros_like(den), where=den > 0) for num in nums]


def delta_martingale(spec: FiltrationSpec) -> Martingale:
    """F = prod(1 + h_i) - 1 for the delta direction: the L_1-normalized

    density of a point mass minus its mean.  E|F_n| = 2(1 - m^{-n}) <= 2 while
    the Riesz image escapes every L_p.
    """
    G = _delta(spec)  # F = G - 1 adds 0.0 to G's levels, so each -0.0 becomes 0.0
    return Martingale(spec, np.zeros(1), [np.add(d, 0.0, out=d) for d in G.levels(spec.depth)], validate=False)


def _delta(spec: FiltrationSpec) -> Product:
    if spec.ell != 1:
        raise ValueError("multiplicative martingales are scalar; lift afterwards")
    return Product(spec.m, delta_vector(spec.m))


def delta_counterexample(p: float, spec: FiltrationSpec, depths=None) -> EmbeddingReport:
    """Growth certificate for the delta construction against I_{(p-1)/p}.

    Tracks the p-th power sum sum_n ||m^{-((p-1)/p)n} f_n||_p^p, whose
    increments are exactly constant, so the partial sums grow linearly in N.
    The terms and the L_1 norms come from one sweep over levels formed as
    read; each level's powers, and the last level's magnitudes, are in place.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    _require_levels(depths, spec.depth)
    m, terms = float(spec.m), []

    def level(block, n):  # F's level n (G's plus 0.0) and its term m^{-(p-1)n} lp_norm(|f_n|, m^{-n}, p)^p
        mags = vector_norms(np.add(block, 0.0, out=block)).ravel()
        mags **= p
        terms.append(m ** (-(p - 1) * n) * float((m ** (-n) * np.sum(mags)) ** (1.0 / p)) ** p)
        return block

    levels = map(level, _delta(spec).levels(spec.depth), range(1, spec.depth + 1))
    swept = enumerate(_sweep(spec, np.zeros(1), levels, spec.depth))  # the last level's magnitudes in its memory
    l1 = {d: lp_norm(vector_norms(x, in_place=d == spec.depth), m ** (-d), 1.0) for d, x in swept if d in depths}
    terms = np.array(terms)
    power_sums = np.array([terms[:d].sum() for d in depths])
    l1_norms = np.array([l1[d] for d in depths])
    report = trend_verdict(depths, power_sums)
    report.details.update(
        per_level_terms=terms,
        per_level_constant=float(m) ** (-p) * ((m - 1) ** p + (m - 1)),
        l1_bounded_by_two=bool(np.all(l1_norms <= 2.0 + 1e-12)),
    )
    return report


def _require_levels(depths, depth: int) -> None:
    """Refuse depths outside [1, depth], the levels a martingale of that
    depth keeps beyond F_0."""
    if not 1 <= min(depths) <= max(depths) <= depth:
        raise ValueError(f"depths must lie in [1, {depth}], got {min(depths)} to {max(depths)}")


def _random_martingale(spec, seed):
    rng = np.random.default_rng(seed)
    diffs = []
    for n in range(spec.depth):
        block = rng.standard_normal((spec.m**n, spec.m, spec.ell))
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

    def parts(t):  # a fresh martingale at every depth, read at its last level only, so nothing is kept
        norms = []
        for d in depths:
            F = _random_martingale(spec.truncated(d), seed=[seed, d, t])
            top, image, weight = evaluate(F, d), evaluate(riesz_potential(F, alpha), d), float(spec.m) ** (-d)
            norms.append((lp_norm(vector_norms(top), weight, p), lp_norm(vector_norms(image), weight, q)))
        return np.transpose(norms)

    (per_trial,) = ratio_trials(range(trials), parts)
    report = trend_verdict(depths, per_trial.max(axis=1))
    report.details.update(alpha=alpha, trials=trials, per_trial=per_trial)
    return report


def lorentz_terms(F: Martingale, p: float, depth: int) -> np.ndarray:
    """m^{-((p-1)/p)n} ||f_n||_{L_{p,1}} for n = 1..depth."""
    m = float(F.spec.m)
    return np.array([
        m ** (-(p - 1) / p * n) * lorentz_p1_from_distribution(F.diff_norms[n - 1].ravel(), m ** (-n), p)
        for n in range(1, depth + 1)
    ])


def lorentz_sum_lhs(F: Martingale, p: float, depth: int | None = None) -> float:
    """sum_{n=1}^N m^{-((p-1)/p)n} ||f_n||_{L_{p,1}}: the strengthened left
    side, added in order of n."""
    terms = lorentz_terms(F, p, F.spec.depth if depth is None else depth)
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


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
    delta-containing W this is the growth example).  Also reports the
    Besov-sum quantity ||I_{(p-1)/p} F||_{B_p^{0,1}}.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    _require_levels(depths, spec.depth)
    draws = [delta_martingale(spec)] if use_delta else (
        random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t]) for t in range(trials)
    )
    levels = np.asarray(depths)

    def parts(F):  # the running sums reach depth d at index d - 1 (Lorentz, from n = 1) and d (Besov)
        l1 = [lp_norm(F.norms[d], float(spec.m) ** (-d), 1.0) for d in depths]
        lorentz = np.cumsum(lorentz_terms(F, p, max(depths)))[levels - 1]
        return l1, lorentz, np.cumsum(besov_terms(F, -(p - 1) / p, p))[levels]

    per_trial, besov = ratio_trials(draws, parts)
    report = trend_verdict(depths, per_trial.max(axis=1))
    report.details.update(
        besov_ratios=besov.max(axis=1), trials=per_trial.shape[1], p=p, per_trial=per_trial
    )
    return report
