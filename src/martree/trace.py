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
run plus the per-flat-tree controls of ``decomp.verify_tree_trace`` on the
first three trials as drawn.  Each trial's Riesz image is formed once, nu
is truncated once per depth, and every depth's norms read the level
magnitudes the martingales keep; the sharpness construction returns nu and
its report from two sweeps over the scaled levels of a ``filtration.Product``,
holding one level and one truncation of nu at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomp import classify_atoms, verify_tree_trace
from .filtration import FiltrationSpec, Product, TreeMeasure, _sweep, vector_norms
from .kappa import kappa_of, rank_one_directions
from .norms import lp_nu_norm
from .riesz import EmbeddingReport, _require_levels, ratio_trials, riesz_potential, trend_verdict
from .spacew import SubspaceW, random_w_martingale

KAPPA_LINEARITY_TOL = 1e-6

# Dirichlet concentration of a capped cascade's raw branch weights.
CASCADE_CONCENTRATION = 0.6


def frostman_constant(nu: TreeMeasure, alpha: float, p: float) -> float:
    """Smallest C with nu(omega)^{1/p} <= C m^{(alpha-1)n} over all atoms; exact."""
    if not nu.is_scalar or not (nu.leaf_mass >= 0).all():
        raise ValueError("the Frostman condition applies to nonnegative scalar measures, without NaN masses")
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
    return _trace_trials(nu, W, alpha, p, trials, seed, depths, scale_profile, keep=0)[0]


def _trace_trials(nu, W, alpha, p, trials, seed, depths, scale_profile, keep: int):
    """``trace_experiment_p``'s report and its first ``keep`` trial
    martingales, as the ratio loop drew them."""
    if depths is None:
        depths = list(range(4, nu.spec.depth + 1))
    if max(depths) > nu.spec.depth:
        raise ValueError(f"depths end at {max(depths)}, beyond the measure's depth {nu.spec.depth}")
    spec = FiltrationSpec(nu.spec.m, max(depths), W.ell)
    nus = [nu.truncated(d) for d in depths]
    constants = np.array([frostman_constant(nu_d, alpha, p) for nu_d in nus])
    draws = (
        random_w_martingale(W, spec, scale_profile=scale_profile, seed=[seed, t])
        for t in range(trials)
    )
    kept = []

    def parts(F):
        if len(kept) < keep:
            kept.append(F)
        image = riesz_potential(F, alpha)
        dens = [float(F.norms[d].mean()) for d in depths]
        return dens, [lp_nu_norm(image.norms[d], nu_d, p) for d, nu_d in zip(depths, nus)]

    (per_trial,) = ratio_trials(draws, parts)
    report = trend_verdict(depths, per_trial.max(axis=1))
    report.details.update(
        alpha=alpha, p=p, frostman_constants=constants, trials=trials, per_trial=per_trial
    )
    return report, kept


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
    report, drawn = _trace_trials(nu, W, alpha, 1.0, trials, seed, depths, scale_profile, keep=3)
    depth = max(report.depths)
    full_nu = nu.truncated(depth)
    nu_levels = [full_nu.level_mass(n) for n in range(depth + 1)]
    c_frostman = report.details["frostman_constants"][-1]
    tree_constants = []
    interp_max_ratio = 0.0
    for F in drawn:  # the first three trials above, their level magnitudes kept
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
) -> tuple[TreeMeasure, TraceSharpnessReport]:
    """nu and the report of the divergent pair (nu, F) of the linear-kappa trace construction.

    F is the product martingale of the kappa(1/2) maximizer, nu is the measure
    of F_0 + I_gamma[F], and alpha = kappa(0)/log m - gamma.  Requires kappa
    linear on [0, 1] (checked on a grid) and 0 < gamma < kappa(0)/log m.  F's
    levels are formed as two sweeps read them, never held.  Raises
    ``FloatingPointError``, a numeric failure, when a leaf mass of nu is
    negative beyond round-off (1e-12).
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
    G, depth = Product(m, kappa_of(W, 0.5, directions=directions).v), spec.depth
    scalar_spec = FiltrationSpec(m, depth, 1)
    for leaves in _sweep(scalar_spec, np.ones(1), G.levels(depth, scale=gamma), depth):
        pass  # F_N of I_gamma[G], a fresh array
    leaf_mass = np.divide(leaves, float(m) ** depth, out=leaves)[:, 0]  # m^{-N} F_N, as martingale_to_measure
    clamped = int(np.sum((leaf_mass < 0) & (leaf_mass >= -1e-12)))
    if np.any(leaf_mass < -1e-12):
        raise FloatingPointError("construction produced genuinely negative masses")
    nu = TreeMeasure(scalar_spec, np.clip(leaf_mass, 0.0, None, out=leaf_mass))

    alpha = kappa_zero / np.log(m) - gamma
    if depths is None:
        depths = list(range(4, spec.depth + 1))
    if len(depths):  # no depths give empty rows
        _require_levels(depths, depth)
    per_depth, terms = {}, []  # depth -> (Frostman constant, ||I_alpha G||_{L_1(nu)}), nu truncated once per depth

    def scaled(level, n):  # G's level n gives its term m^{-(alpha+gamma)n} E f_n^2, then is scaled in place
        terms.append(float(m) ** (-(alpha + gamma) * n) * float(np.mean(level.ravel() ** 2)))
        level *= float(m) ** (-alpha * n)
        return level

    levels = map(scaled, G.levels(depth), range(1, depth + 1))
    for n, values in enumerate(_sweep(scalar_spec, np.ones(1), levels, depth)):
        if n in depths:  # the last level's magnitudes and their products with nu's masses are formed in its memory
            nu_n, mags = nu if n == depth else nu.truncated(n), vector_norms(values, in_place=n == depth)
            l1 = float(np.sum(np.multiply(nu_n.level_mass(n), mags, out=mags)))  # lp_nu_norm(mags, nu_n, 1.0)
            per_depth[n] = frostman_constant(nu_n, alpha, 1.0), l1
            del nu_n, mags  # not held while the next level is formed
    constants, exact = (np.array([per_depth[d][i] for d in depths]) for i in (0, 1))
    terms = np.array(terms)
    partial_sums = np.array([terms[:d].sum() for d in depths])
    slope = float(np.polyfit(depths, partial_sums, 1)[0]) if len(depths) >= 2 else 0.0
    return nu, TraceSharpnessReport(
        gamma=gamma, alpha=alpha, kappa_zero=kappa_zero, linear_deviation=deviation, depths=list(depths),
        frostman_constants=constants, partial_sums=partial_sums, exact_l1_nu=exact, slope=slope,
        derived_constant=float(np.mean(G.v**2)) * np.exp(-kappa_zero), clamped_leaves=clamped,
    )
