"""Trace embeddings against a reference measure nu.

The (alpha, p) Frostman condition nu(omega)^{1/p} <= C m^{(alpha-1)n} gates
the continuity of the Riesz potential from the constrained martingale space
into L_p(nu).  This module computes the exact Frostman constant, generates
capped multiplicative cascades that satisfy it by construction, runs the
positive embedding experiments, and builds the divergent example
nu = F_0 + I_gamma[F] available when the kappa profile is linear.  One ratio
loop, ``trace_experiment_p`` on ``riesz.ratio_trials``, serves every p >= 1
and returns ``riesz.EmbeddingReport`` with ``alpha``, ``p`` and the per-depth
``frostman_constants`` in its details; ``trace_experiment_l1`` is its p = 1
run plus the per-flat-tree controls of ``decomp.verify_tree_trace``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import classify_atoms, verify_tree_trace
from .filtration import (
    FiltrationSpec,
    Martingale,
    TreeMeasure,
    evaluate,
    martingale_to_measure,
    multiplicative_martingale,
)
from .kappa import kappa_of, rank_one_directions
from .norms import lp_nu_norm, martingale_level
from .riesz import EmbeddingReport, ratio_trials, riesz_potential, trend_verdict
from .spacew import SubspaceW, random_w_martingale

KAPPA_LINEARITY_TOL = 1e-6

# Dirichlet concentration of a capped cascade's raw branch weights.
CASCADE_CONCENTRATION = 0.6


def frostman_constant(nu: TreeMeasure, alpha: float, p: float) -> float:
    """Smallest C with nu(omega)^{1/p} <= C m^{(alpha-1)n} over all atoms; exact."""
    if not nu.is_scalar or np.any(nu.leaf_mass < 0):
        raise ValueError("the Frostman condition applies to nonnegative scalar measures")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    m = float(nu.spec.m)
    best = 0.0
    for n in range(nu.spec.depth + 1):
        mass = nu.level_mass(n)
        best = max(best, float(mass.max()) ** (1.0 / p) * m ** ((1.0 - alpha) * n))
    return best


def capped_cascade_measure(
    spec: FiltrationSpec, alpha: float, p: float, seed
) -> TreeMeasure:
    """Random multiplicative cascade obeying nu(omega) <= m^{(alpha-1)p n} exactly.

    Per atom the Dirichlet branch weights are mixed toward uniform just enough
    to respect the cap at the next level, so the (alpha, p) Frostman constant
    is at most 1 while the cascade stays genuinely random.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if (alpha - 1.0) * p < -1.0:
        raise ValueError("cap decays faster than uniform splitting; no cascade fits")
    m = spec.m
    rng = np.random.default_rng(seed)
    masses = np.ones(1)
    for n in range(spec.depth):
        cap_next = float(m) ** ((alpha - 1.0) * p * (n + 1))
        raw = rng.dirichlet(np.full(m, CASCADE_CONCENTRATION), size=masses.size)
        caps = cap_next / masses[:, None]  # per-child weight budget
        # lam mixes raw toward uniform: need lam*raw + (1-lam)/m <= caps
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_bound = (caps - 1.0 / m) / (raw - 1.0 / m)
        lam_bound = np.where(raw > caps, np.clip(lam_bound, 0.0, 1.0), 1.0)
        lam = lam_bound.min(axis=1, keepdims=True)
        weights = lam * raw + (1.0 - lam) / m
        masses = (masses[:, None] * weights).reshape(-1)
    return TreeMeasure(spec, masses)


def trace_experiment_p(
    nu: TreeMeasure,
    W: SubspaceW,
    alpha: float,
    p: float,
    trials: int = 20,
    seed: int = 0,
    depths=None,
    scale_profile=None,
) -> EmbeddingReport:
    """||I_alpha F||_{L_p(nu)} / ||F||_{L_1} across depths for random
    W-martingales; p >= 1, as ``frostman_constant`` checks before any trial."""
    if depths is None:
        depths = list(range(4, nu.spec.depth + 1))
    if max(depths) > nu.spec.depth:
        raise ValueError(f"depths end at {max(depths)}, beyond the measure's depth {nu.spec.depth}")
    spec = FiltrationSpec(nu.spec.m, max(depths), W.ell)
    constants = np.array([frostman_constant(nu.truncated(d), alpha, p) for d in depths])
    draws = (
        random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t])
        for t in range(trials)
    )

    def parts(F, d):
        Fd = F.truncated(d)
        img = martingale_level(riesz_potential(Fd, alpha), d)
        den = float(np.linalg.norm(evaluate(Fd, d), axis=1).mean())
        return den, lp_nu_norm(img, nu.truncated(d), p)

    (per_trial,) = ratio_trials(depths, draws, parts)
    report = trend_verdict(depths, per_trial.max(axis=1))
    report.details.update(
        alpha=alpha, p=p, frostman_constants=constants, trials=trials, per_trial=per_trial
    )
    return report


def trace_experiment_l1(
    nu: TreeMeasure,
    W: SubspaceW,
    alpha: float,
    trials: int = 20,
    seed: int = 0,
    depths=None,
    scale_profile=None,
    epsilon: float = 0.1,
    interp_p: float = 2.0,
) -> EmbeddingReport:
    """The limiting p = 1 trace experiment plus the per-flat-tree controls.

    Alongside the global ratios, each flat tree T of the first three trials'
    martingales is checked against
    ||I_alpha[F_T]||_{L_1(nu)} <= C m^{-n_0} |F_{n_0}(omega_0)| and the
    restricted measure martingale against the interpolatory bound with the
    Frostman constant, at the auxiliary exponent ``interp_p``, finite and
    > 1 (checked before any trial).
    """
    if not np.isfinite(interp_p) or interp_p <= 1:
        raise ValueError(f"interp_p must be finite and > 1, got {interp_p}")
    report = trace_experiment_p(nu, W, alpha, 1.0, trials, seed, depths, scale_profile)
    depth = max(report.depths)
    spec = FiltrationSpec(nu.spec.m, depth, W.ell)
    full_nu = nu.truncated(depth)
    nu_levels = [full_nu.level_mass(n) for n in range(depth + 1)]
    c_frostman = report.details["frostman_constants"][-1]
    tree_constants = []
    interp_max_ratio = 0.0
    for t in range(min(trials, 3)):  # the same draws as the trials above
        F = random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t])
        tree_c, interp_r = verify_tree_trace(
            F, classify_atoms(F, epsilon), full_nu, nu_levels, alpha, interp_p, c_frostman
        )
        tree_constants.extend(tree_c)
        interp_max_ratio = max(interp_max_ratio, interp_r)
    report.details.update(
        tree_constants=tree_constants,
        interp_bound_holds=interp_max_ratio <= 1.0 + 1e-9,
        interp_max_ratio=interp_max_ratio,
    )
    return report


@dataclass
class TraceSharpnessReport:
    gamma: float
    alpha: float
    kappa_zero: float
    linear_deviation: float
    depths: list[int]
    frostman_constants: np.ndarray
    partial_sums: np.ndarray          # sum_n m^{-(alpha+gamma) n} E f_n^2
    exact_l1_nu: np.ndarray           # ||I_alpha F||_{L_1(nu)} at each depth
    slope: float
    derived_constant: float
    clamped_leaves: int


def build_sharpness_trace_measure(
    W: SubspaceW, gamma: float, spec: FiltrationSpec, seed: int = 0, depths=None
) -> tuple[TreeMeasure, Martingale, TraceSharpnessReport]:
    """The divergent pair (nu, F) of the linear-kappa trace construction.

    F is the product martingale of the kappa(1/2) maximizer, nu is the measure
    of F_0 + I_gamma[F], and alpha = kappa(0)/log m - gamma.  Requires kappa
    linear on [0, 1] (checked on a grid) and 0 < gamma < kappa(0)/log m.
    Raises ``FloatingPointError``, a numeric failure, when a leaf mass of nu
    is negative beyond round-off (1e-12).
    """
    m = spec.m
    directions = rank_one_directions(W, seed=seed)
    kappa_zero = kappa_of(W, 0.0, directions=directions).value
    if not 0.0 < gamma < kappa_zero / np.log(m):
        raise ValueError(
            f"gamma must lie in (0, kappa(0)/log m) = (0, {kappa_zero / np.log(m):.6f}), got {gamma}"
        )
    thetas = np.linspace(0.0, 1.0, 11)
    deviation = max(
        abs(kappa_of(W, float(t), directions=directions).value - (1.0 - t) * kappa_zero)
        for t in thetas
    )
    if deviation > KAPPA_LINEARITY_TOL:
        raise ValueError(
            f"kappa profile deviates from linearity by {deviation:.3e}; "
            "the divergent construction needs 2 kappa(1/2) = kappa(0)"
        )
    half = kappa_of(W, 0.5, directions=directions)
    v = half.v
    scalar_spec = FiltrationSpec(m, spec.depth, 1)
    G = multiplicative_martingale(scalar_spec, v)
    nu_mart = riesz_potential(G, gamma)
    nu = martingale_to_measure(nu_mart)
    clamped = int(np.sum((nu.leaf_mass < 0) & (nu.leaf_mass >= -1e-12)))
    if np.any(nu.leaf_mass < -1e-12):
        raise FloatingPointError("construction produced genuinely negative masses")
    nu = TreeMeasure(scalar_spec, np.clip(nu.leaf_mass, 0.0, None))

    alpha = kappa_zero / np.log(m) - gamma
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    constants = np.array([frostman_constant(nu.truncated(d), alpha, 1.0) for d in depths])
    terms = np.array(
        [
            float(m) ** (-(alpha + gamma) * n)
            * float(np.mean(G.difference_values(n)[:, 0] ** 2))
            for n in range(1, spec.depth + 1)
        ]
    )
    partial_sums = np.array([terms[:d].sum() for d in depths])
    exact = np.array(
        [
            lp_nu_norm(
                martingale_level(riesz_potential(G.truncated(d), alpha), d),
                nu.truncated(d),
                1.0,
            )
            for d in depths
        ]
    )
    s2 = float(np.mean(v**2))
    derived = s2 * np.exp(-kappa_zero)
    slope = float(np.polyfit(depths, partial_sums, 1)[0]) if len(depths) >= 2 else 0.0
    report = TraceSharpnessReport(
        gamma=gamma,
        alpha=alpha,
        kappa_zero=kappa_zero,
        linear_deviation=deviation,
        depths=list(depths),
        frostman_constants=constants,
        partial_sums=partial_sums,
        exact_l1_nu=exact,
        slope=slope,
        derived_constant=derived,
        clamped_leaves=clamped,
    )
    return nu, G, report
