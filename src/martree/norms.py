"""Exact norms of simple tree functions: L_p, weak L_p, Lorentz L_{p,1}, Besov, H_1.

A norm of a function constant on the atoms of one level takes its pointwise
Euclidean magnitudes there and the mass of one atom, m^{-n} at level n.
Callers read the magnitudes from the martingale that keeps them:
``F.norms[n]`` is |F_n|, ``F.diff_norms[n - 1].ravel()`` is |f_n| for
n >= 1, and |f_0| is ``F.norms[0]``.  Every norm then reduces to a finite sum
over the distinct magnitudes.  The Lorentz norm is fixed as

    ||g||_{p,1} = p * int_0^inf mu{ |g| > s }^{1/p} ds
               = int_0^1 t^{1/p - 1} g*(t) dt,

which is exact on simple functions and, for p > 1, a genuine norm.

The per-segment forms (``lp_norm_segments``, ``lorentz_p1_segments``) take
many consecutive segments of magnitudes in one pass and share one layout,
the segments by count (``_by_count``), so each segment is reduced as a
contiguous row of its own length, bit for bit as the segment alone.
"""

from __future__ import annotations

import numpy as np

from .filtration import Martingale, TreeMeasure


def lp_norm(mags: np.ndarray, weight: float, p: float) -> float:
    """(sum_atoms weight |g|^p)^{1/p} from the magnitudes |g| on atoms of
    mass ``weight``; exact max for p = inf."""
    if p == np.inf:
        return float(mags.max()) if mags.size else 0.0
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((weight * np.sum(mags**p)) ** (1.0 / p))


def lorentz_p1_from_distribution(mags: np.ndarray, weights: np.ndarray | float, p: float) -> float:
    """p * int mu{|g|>s}^{1/p} ds as a finite sum over the sorted values.

    ``mags``/``weights`` describe the distribution of |g|: ``weights`` holds
    each atom's mass, or one scalar mass for every atom.  Atoms where g
    vanishes may be omitted since they never enter the layer-cake integral.
    """
    if p <= 1:
        raise ValueError(f"Lorentz L_(p,1) requires p > 1, got {p}")
    keep = mags > 0
    if not np.any(keep):
        return 0.0
    vals = mags[keep]
    wts = weights[keep] if np.ndim(weights) else np.full(vals.shape, float(weights))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    cum = np.cumsum(wts[order])
    drops = vals - np.append(vals[1:], 0.0)
    return float(p * np.sum(cum ** (1.0 / p) * drops))


def _by_count(values: np.ndarray, counts: np.ndarray):
    """The consecutive segments of ``values``, ``counts[i]`` of them in
    segment i, laid out in order of their count.

    Returns the segments' stable order by count, their values gathered in
    that order, each nonempty segment's last position there, and the
    (first segment, count c, first value, rows) blocks: the segments of c
    values are the rows of one contiguous (rows, c) array, which numpy
    reduces row by row as each segment alone, pairwise for length c.
    """
    order = np.argsort(counts, kind="stable")
    by_count = counts[order]
    ends = np.cumsum(by_count)
    starts = ends - by_count
    gather = np.arange(by_count.sum()) + np.repeat((np.cumsum(counts) - counts)[order] - starts, by_count)
    first = np.flatnonzero(np.diff(by_count, prepend=0))
    blocks = list(zip(first.tolist(), by_count[first].tolist(), starts[first].tolist(),
                      np.diff(first, append=by_count.size).tolist()))
    return order, values[gather], ends[by_count > 0] - 1, blocks


def _reduce_rows(vals: np.ndarray, order: np.ndarray, blocks, reduce) -> np.ndarray:
    """``reduce`` of each (rows, c) block of ``_by_count``, scattered back to
    the segments' order; 0.0 for an empty segment."""
    out = np.zeros(order.size)
    for k, c, e, rows in blocks:
        out[order[k : k + rows]] = reduce(vals[e : e + rows * c].reshape(rows, c))
    return out


def lorentz_p1_segments(mags: np.ndarray, lengths: np.ndarray, weight: float, p: float) -> np.ndarray:
    """``lorentz_p1_from_distribution`` of each consecutive segment of
    ``mags``, every atom of mass ``weight``; bit for bit, in one pass.

    The positive values of each segment are laid out by count
    (``_by_count``); each block is sorted row by row and, once every drop is
    known, its rows of terms are summed as one segment alone is.  Values are
    sorted negated, which puts them in descending order; ties are equal
    values, so their order is moot.
    """
    if p <= 1:
        raise ValueError(f"Lorentz L_(p,1) requires p > 1, got {p}")
    keep = mags > 0
    kept = np.concatenate(([0], np.cumsum(keep)))[np.cumsum(np.asarray(lengths, dtype=np.int64))]
    counts = np.diff(kept, prepend=0)
    order, vals, last, blocks = _by_count(mags[keep], counts)
    np.negative(vals, out=vals)
    for k, c, e, rows in blocks:
        vals[e : e + rows * c].reshape(rows, c).sort(axis=1)
    # drop = value - next value, and the last value of each segment itself
    drops = np.empty_like(vals)
    np.subtract(vals[1:], vals[:-1], out=drops[:-1])
    drops[last] = -vals[last]
    scale = np.cumsum(np.full(int(counts.max(initial=0)), float(weight))) ** (1.0 / p)
    return p * _reduce_rows(drops, order, blocks, lambda terms: (terms * scale[: terms.shape[1]]).sum(axis=1))


def lp_norm_segments(mags: np.ndarray, lengths: np.ndarray, weight: float, p: float) -> np.ndarray:
    """(sum weight * |mags|^p)^{1/p} of each consecutive segment of ``mags``,
    every atom of mass ``weight > 0``, and the max for p = inf; bit for bit
    as one segment alone, in one pass over the ``_by_count`` layout."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    lengths = np.asarray(lengths, dtype=np.int64)
    order, vals, _, blocks = _by_count(mags if p == np.inf else weight * mags**p, lengths)
    if p == np.inf:
        return _reduce_rows(vals, order, blocks, lambda rows: rows.max(axis=1))
    sums = _reduce_rows(vals, order, blocks, lambda rows: rows.sum(axis=1))
    # one scalar power per segment, the libm pow of the single-segment form
    return np.array([s ** (1.0 / p) for s in sums.tolist()])


def weak_lp_norm(mags: np.ndarray, weight: float, p: float) -> float:
    """sup_s s * mu{|g|>s}^{1/p} from the magnitudes |g| on atoms of mass
    ``weight``; the sup sits just below one of the values."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    vals = mags[mags > 0]
    if vals.size == 0:
        return 0.0
    vals = vals[np.argsort(vals)[::-1]]
    cum = np.cumsum(np.full(vals.shape, weight))
    return float(np.max(vals * cum ** (1.0 / p)))


def besov_terms(F: Martingale, beta: float, p: float) -> np.ndarray:
    """m^{beta n} ||f_n||_{L_p} for n = 0..N, with the convention f_0 = F_0."""
    m = float(F.spec.m)
    mags = [F.norms[0], *(d.ravel() for d in F.diff_norms)]
    return np.array([m ** (beta * n) * lp_norm(g, m ** (-n), p) for n, g in enumerate(mags)])


def besov_norm(F: Martingale, beta: float, p: float) -> float:
    """sum_{n=0}^N m^{beta n} ||f_n||_{L_p}, added in order of n."""
    return float(np.cumsum(besov_terms(F, beta, p))[-1])


def h1_norm(F: Martingale) -> float:
    """E max_{0 <= n <= N} |F_n|, computed exactly over the leaves from
    ``F.norms``."""
    mags = F.norms
    running = mags[0]
    for n in range(1, F.spec.depth + 1):
        running = np.maximum(np.repeat(running, F.spec.m), mags[n])
    return float(running.mean())


def lp_nu_norm(mags: np.ndarray, nu: TreeMeasure, p: float) -> float:
    """(sum_atoms |g|^p nu(atom))^{1/p} from the magnitudes |g| on the atoms
    of one level, with nu aggregated to that level."""
    if not nu.is_scalar:
        raise ValueError("L_p(nu) norms require a scalar reference measure")
    if not (nu.leaf_mass >= 0).all():
        raise ValueError("L_p(nu) norms require a nonnegative reference measure, without NaN masses")
    level = next((n for n in range(nu.spec.depth + 1) if nu.spec.m**n == mags.size), None)
    if level is None:
        raise ValueError(f"{mags.size} atoms are no level of the reference measure, "
                         f"whose levels hold {nu.spec.m}^n atoms for n <= {nu.spec.depth}")
    mass = nu.level_mass(level)
    if p == np.inf:
        support = mass > 0
        return float(np.max(mags[support])) if np.any(support) else 0.0
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(np.sum(mass * mags**p) ** (1.0 / p))
