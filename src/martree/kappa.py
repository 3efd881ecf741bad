"""The kappa profile of a constraint subspace.

For a vector v in V with v_j >= -1,

    kappa_v(theta) = theta * log((1/m) sum_j |1 + v_j|^{1/theta})
                   = log || 1 + v ||_{L_{1/theta}},

and kappa(theta) is the supremum of kappa_v over all v admitting some a != 0
with v (x) a in W.  The profile is convex, non-increasing, vanishes at
theta = 1, and its slope at 1,

    kappa'(1) = inf { -(1/m) sum_j (1 + v_j) log(1 + v_j) },

controls the lower Hausdorff dimension bound 1 + kappa'(1)/log m.

The feasible set is the rank-one slice of W intersected with a box, so the
search works in two stages: alternating projections between W and the
rank-one cone harvest candidate directions, each direction contributes the
exact optimum of the induced one-parameter family (a full scaling ray stays
inside W), and an SLSQP polish with explicit membership constraints explores
curved parts of the variety from those starting points.  Every witness
returned is re-snapped to an exactly feasible ray point.

Each ray's optimum is bracketed on a grid and polished by Brent's bounded
minimizer (Brent 1973, ch. 5).  ``_brent_bounded`` is scipy 1.17's
``minimize_scalar(method="bounded")`` statement for statement, as a
generator, so all rays of a search are polished in lockstep with one
batched evaluation per round, and each ends bit for bit where scipy's
per-ray polish ends.

kappa_v is a log-mean-exp of log|1 + v_j| / theta, taken in numpy with the
very float operations of scipy 1.17's ``logsumexp`` (scaled by b = 1/m), so
its values are scipy's bit for bit without scipy's per-call array-API
dispatch, and do not change with the installed scipy.

Only the SLSQP joint polish imports scipy.optimize, where it runs: loading
it costs about half a second of start-up, and the polish runs only on a W
of dimension 2 or more, so a search on a line never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spacew import SubspaceW, _row_norms, project

# A witness must land this close to W, relative to its size.
WITNESS_DISTANCE_TOL = 1e-10

# Reported optimizer accuracy; strict_gap_check margins below this are
# treated as equality.
OPTIMIZER_TOL = 1e-6

# Points of the grid that brackets each ray's optimum before the bounded polish.
RAY_GRID_POINTS = 4001

# The bounded polish's absolute tolerance in t and its cap on evaluations
# (scipy's xatol and maxiter).
BRENT_XATOL = 1e-13
BRENT_MAXFUN = 500


def kappa_v(v: np.ndarray, theta: float) -> float:
    """log of the L_{1/theta} norm of 1 + v on m uniform points; theta in [0, 1]."""
    v = np.asarray(v, dtype=float)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return float(kappa_v_many(v[None, :], theta)[0])


def kappa_v_many(V: np.ndarray, theta: float) -> np.ndarray:
    """kappa_v for a whole batch of vectors; V has shape (batch, m)."""
    mags = np.abs(1.0 + np.asarray(V, dtype=float))
    if theta == 0.0:
        return np.log(mags.max(axis=1))
    with np.errstate(divide="ignore"):
        logs = np.log(mags)
    return theta * _log_mean_exp(logs / theta)


def _log_mean_exp(a: np.ndarray) -> np.ndarray:
    """log((1/k) sum_j exp(a_j)) of each row of a (batch, k) array, bit for
    bit as scipy's ``logsumexp(a, axis=1, b=1/k)`` on real input.

    The row maxima are taken out of the sum: with M the weight at the
    maximum, the result is log1p(s/M) + log(M) + max, s the weighted sum of
    exp(a_j - max) over the other entries.  Rows where that is not finite
    fall back to log(sum_j b exp(a_j)).
    """
    b = 1.0 / a.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=1, keepdims=True)
        at_max = a == a_max
        weight_at_max = np.sum(b * at_max, axis=1)
        # scipy keeps s = 0 as is; s / M is 0 there too, as M > 0 unless s is NaN
        s = np.sum(b * np.exp(np.where(at_max, -np.inf, a) - a_max), axis=1) / weight_at_max
        out = np.log1p(s) + np.log(weight_at_max) + a_max[:, 0]
    not_finite = ~np.isfinite(out)
    if np.any(not_finite):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[not_finite] = np.log(np.sum(b * np.exp(a[not_finite]), axis=1))
    return out


def entropy_v(v: np.ndarray) -> float:
    """-(1/m) sum (1+v_j) log(1+v_j) with 0 log 0 = 0."""
    return float(_entropy_rows(np.asarray(v, dtype=float)[None, :])[0])


def _entropy_rows(V: np.ndarray) -> np.ndarray:
    """entropy_v of each row of V, refusing as it does any entry below -1."""
    if np.any(V < -1 - 1e-12):
        raise ValueError("entropy requires v_j >= -1")
    return entropy_v_many(V)


def entropy_v_many(V: np.ndarray) -> np.ndarray:
    """entropy_v for a batch of vectors; values outside the box are clipped."""
    x = np.clip(1.0 + np.asarray(V, dtype=float), 0.0, None)
    terms = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
    return -terms.mean(axis=1)


def kappa_upper_bound(theta: float, m: int) -> float:
    """(1 - theta) log m: the vertex bound valid for every W."""
    return (1.0 - theta) * np.log(m)


@dataclass
class KappaWitness:
    v: np.ndarray
    a: np.ndarray
    value: float
    residual: float  # distance of v (x) a from W


@dataclass
class KappaProfile:
    theta_grid: np.ndarray
    values: np.ndarray
    witnesses: list[KappaWitness]
    kappa_prime_one: float
    prime_witness: KappaWitness
    dimension_bound: float


def rank_one_directions(W: SubspaceW, n_starts: int = 32, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Unit rank-one directions (u, a) with u (x) a numerically inside W.

    Alternating projection between W and the rank-one cone from random
    starting elements of W; distinct limits are deduplicated.  All starts
    iterate in lockstep on one stack of blocks, each leaving it when its own
    stopping test fires; every stacked step (SVD, rank-one part, projection,
    norm) rounds each block as the single-block step does, so the limits are
    those of one start at a time, bit for bit.
    """
    if W.dim == 0:
        return []
    rng = np.random.default_rng(seed)
    m, ell = W.m, W.ell
    coeffs = np.array([rng.standard_normal(W.dim) for _ in range(n_starts)]).reshape(n_starts, W.dim)
    X = W.combine(coeffs).reshape(n_starts, m * ell)
    norm = _row_norms(X)
    X = X[norm != 0] / norm[norm != 0, None]
    running = np.arange(len(X))
    for _ in range(200):
        if not running.size:
            break
        U, s, Vt = np.linalg.svd(X[running].reshape(-1, m, ell))
        R = s[:, 0, None, None] * (U[:, :, 0, None] * Vt[:, 0, None, :])
        X_new = project(R, W).reshape(-1, m * ell)
        norm = _row_norms(X_new)
        moved = ~(norm < 1e-14)
        X_new = X_new[moved] / norm[moved, None]
        still = ~(_row_norms(X_new - X[running[moved]]) < 1e-15)
        X[running[moved]] = X_new
        running = running[moved][still]
    X = X.reshape(-1, m, ell)
    U, s, Vt = np.linalg.svd(X)
    distances = W.residuals(X)
    found: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(len(X)):
        if s[i, 0] > 0 and (s[i, 1:] ** 2).sum() <= 1e-20 and distances[i] <= 1e-10:
            u, a = U[i, :, 0], Vt[i, 0]
            if abs(u.sum()) < 1e-8 and all(
                abs(np.sum(np.outer(u, a) * np.outer(u2, a2))) <= 1.0 - 1e-8 for u2, a2 in found
            ):
                found.append((u, a))
    return found


def feasible_interval(u: np.ndarray) -> tuple[float, float]:
    """The t-range with t * u_j >= -1 for all j."""
    u = np.asarray(u, dtype=float)
    pos = u > 1e-14
    neg = u < -1e-14
    t_lo = np.max(-1.0 / u[pos]) if np.any(pos) else -np.inf
    t_hi = np.min(-1.0 / u[neg]) if np.any(neg) else np.inf
    return float(t_lo), float(t_hi)


def _np_sign(v: float) -> float:
    """np.sign of a float: -1.0, 0.0 or 1.0, and v itself when v is NaN."""
    return v if v != v else float((v > 0) - (v < 0))


def _np_maximum(v: float, w: float) -> float:
    """np.maximum of two floats: the larger (w on a tie, as between 0.0 and
    -0.0), and a NaN argument (the first if both are)."""
    return v if v > w or v != v else w


def _brent_bounded(a, b):
    """Brent's bounded minimizer on [a, b] as a generator: scipy 1.17's
    ``_minimize_scalar_bounded``, statement for statement.

    It yields each point to evaluate, is sent that point's value, and
    returns (x, f) at the end.  xatol is BRENT_XATOL and at most
    BRENT_MAXFUN points are evaluated.  The arithmetic is on Python floats,
    whose IEEE operations and comparisons round and order as numpy's float64
    scalars do (NaN included) at a fraction of the per-operation cost; the
    helpers stand in for ``np.sign`` and ``np.maximum`` with numpy's NaN
    results.  So a search fed the values scipy's would see ends at scipy's
    point bit for bit.
    """
    a, b = float(a), float(b)
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = _np_sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = _np_sign(rat) + (rat == 0)
        x = xf + si * _np_maximum(abs(rat), tol1)
        fu = yield x
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1

        if num >= BRENT_MAXFUN:
            break
    return xf, fx


def _optimize_rays(us, objective_many, maximize):
    """(value, t): the optimum of objective(t * u) over the feasible t-interval
    of each ray u, optimizing every ray at once.

    Each ray's grid brackets its optimum, and Brent's bounded search polishes
    it.  The searches run in lockstep: each round evaluates the pending point
    of every live search in one ``objective_many`` call.  Each value is the
    one scipy's ``minimize_scalar(method="bounded")`` would be given, so every
    ray ends as a per-ray scipy polish would end it, bit for bit.
    """
    if not us:
        return []
    sign = -1.0 if maximize else 1.0
    grids, searches = [], []
    for u in us:
        t_lo, t_hi = feasible_interval(u)
        if not np.isfinite(t_lo) or not np.isfinite(t_hi):
            # u in V always has entries of both signs, so this cannot trigger for
            # genuine directions; guard anyway.
            t_lo, t_hi = max(t_lo, -1e6), min(t_hi, 1e6)
        ts = np.linspace(t_lo, t_hi, RAY_GRID_POINTS)
        vals = objective_many(ts[:, None] * u[None, :])
        best = int(np.argmax(vals) if maximize else np.argmin(vals))
        grids.append((t_lo, t_hi, ts[best], vals, best))
        searches.append(_brent_bounded(ts[max(best - 1, 0)], ts[min(best + 1, RAY_GRID_POINTS - 1)]))
    U = np.array(us, dtype=float)
    points = [next(search) for search in searches]
    polished = [None] * len(us)
    live = list(range(len(us)))
    while live:
        values = sign * objective_many(np.array([points[i] for i in live])[:, None] * U[live])
        running = []
        for i, value in zip(live, values.tolist()):
            try:
                points[i] = searches[i].send(value)
                running.append(i)
            except StopIteration as done:
                polished[i] = done.value
        live = running
    optima = []
    for (t_lo, t_hi, t_best, vals, best), (x, f) in zip(grids, polished):
        candidates = [(vals[best], t_best), (sign * f, x), (vals[0], t_lo), (vals[-1], t_hi)]
        if maximize:
            value, t = max(candidates, key=lambda c: c[0])
        else:
            value, t = min(candidates, key=lambda c: c[0])
        optima.append((float(value), float(t)))
    return optima


def _joint_polish(W, v0, a0, objective_many, maximize):
    m, ell = W.m, W.ell

    def neg_obj(z):
        return (-1.0 if maximize else 1.0) * float(objective_many(z[None, :m])[0])

    def eq_resid(z):
        v, a = z[:m], z[m:]
        X = np.outer(v, a)
        return np.concatenate([(X - project(X, W)).ravel(), [a @ a - 1.0]])

    from scipy import optimize

    z0 = np.concatenate([v0, a0])
    try:
        res = optimize.minimize(
            neg_obj,
            z0,
            method="SLSQP",
            bounds=[(-1.0, None)] * m + [(None, None)] * ell,
            constraints=[{"type": "eq", "fun": eq_resid}],
            options={"maxiter": 300, "ftol": 1e-14},
        )
    except (ValueError, FloatingPointError):
        return None
    if not np.all(np.isfinite(res.x)):
        return None
    return res.x[:m], res.x[m:]


def _snap_to_rank_one(W, v, a):
    """Project (v, a) to an exactly feasible rank-one direction (u, a) of W, or None."""
    X = project(np.outer(v, a), W)
    for _ in range(100):
        U, s, Vt = np.linalg.svd(X)
        X_new = project(s[0] * np.outer(U[:, 0], Vt[0]), W)
        if np.linalg.norm(X_new - X) < 1e-15 * max(1.0, s[0]):
            X = X_new
            break
        X = X_new
    U, s, Vt = np.linalg.svd(X)
    if s[0] < 1e-12 or float(W.residuals(X / s[0])) > WITNESS_DISTANCE_TOL:
        return None
    return U[:, 0], Vt[0]


def _ray_witnesses(W, directions, objective_many, maximize):
    """The optimum of each direction's ray, as a witness with its distance from W."""
    witnesses = []
    for (u, a), (value, t) in zip(directions, _optimize_rays([u for u, _ in directions], objective_many, maximize)):
        v = t * u
        witnesses.append(KappaWitness(v=v, a=a, value=value, residual=float(W.residuals(np.outer(v, a))) if t else 0.0))
    return witnesses


def _optimize_over_rank_ones(W, objective_many, maximize, seed, directions=None):
    zero = KappaWitness(v=np.zeros(W.m), a=np.zeros(W.ell), value=float(objective_many(np.zeros((1, W.m)))[0]),
                        residual=0.0)
    if W.dim == 0:
        return zero
    if directions is None:
        directions = rank_one_directions(W, seed=seed)
    best = zero
    better = (lambda x, y: x > y) if maximize else (lambda x, y: x < y)
    ray_optima = _ray_witnesses(W, directions, objective_many, maximize)
    for witness in ray_optima:
        if witness.residual <= WITNESS_DISTANCE_TOL and better(witness.value, best.value):
            best = witness
    if W.dim >= 2:
        # The rank-one slice of W may be curved; explore it from the ray optima.
        snapped = []
        for witness in sorted(ray_optima, key=lambda w: w.value, reverse=maximize)[:4]:
            a0 = witness.a if np.linalg.norm(witness.a) else np.eye(W.ell)[0]
            out = _joint_polish(W, witness.v, a0, objective_many, maximize)
            direction = None if out is None else _snap_to_rank_one(W, *out)
            if direction is not None:
                snapped.append(direction)
        for witness in _ray_witnesses(W, snapped, objective_many, maximize):
            if better(witness.value, best.value):
                best = witness
    return best


def kappa_of(W: SubspaceW, theta: float, seed: int = 0, directions=None) -> KappaWitness:
    """kappa(theta): supremum of kappa_v over the feasible rank-one slice of W.

    v = 0 is always feasible, so the value is >= 0.  The returned witness has
    an exactly feasible rank-one (residual <= 1e-10).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return _optimize_over_rank_ones(
        W, lambda V: kappa_v_many(V, theta), maximize=True, seed=seed, directions=directions
    )


def kappa_prime_one(W: SubspaceW, seed: int = 0, directions=None) -> KappaWitness:
    """kappa'(1): infimum of the negative-entropy functional; value in [-log m, 0]."""
    return _optimize_over_rank_ones(W, _entropy_rows, maximize=False, seed=seed, directions=directions)


def dimension_bound(W: SubspaceW, seed: int = 0) -> float:
    """1 + kappa'(1)/log m, the lower Hausdorff dimension bound; in [0, 1]."""
    return _bound_of(kappa_prime_one(W, seed=seed), W.m)


def _bound_of(prime: KappaWitness, m: int) -> float:
    """The dimension bound 1 + kappa'(1)/log m, clipped to [0, 1], of a kappa'(1) witness."""
    return float(np.clip(1.0 + prime.value / np.log(m), 0.0, 1.0))


def strict_gap_check(W: SubspaceW, p: float, seed: int = 0) -> tuple[bool, float]:
    """Whether kappa(1/p) sits strictly below ((p-1)/p) log m, with the margin.

    Numerically equivalent to the second structural condition.
    """
    if p != np.inf and p <= 1:
        raise ValueError(f"p must exceed 1 (or be inf), got {p}")
    theta = 0.0 if p == np.inf else 1.0 / p
    bound = kappa_upper_bound(theta, W.m)
    witness = kappa_of(W, theta, seed=seed)
    margin = bound - witness.value
    return bool(margin > OPTIMIZER_TOL), float(margin)


def kappa_profile(W: SubspaceW, grid_size: int = 21, seed: int = 0) -> KappaProfile:
    """kappa on a theta grid plus kappa'(1) and the dimension bound."""
    thetas = np.linspace(0.0, 1.0, grid_size)
    directions = rank_one_directions(W, seed=seed)
    witnesses = [kappa_of(W, float(t), directions=directions) for t in thetas]
    values = np.array([w.value for w in witnesses])
    prime = kappa_prime_one(W, directions=directions)
    return KappaProfile(
        theta_grid=thetas,
        values=values,
        witnesses=witnesses,
        kappa_prime_one=prime.value,
        prime_witness=prime,
        dimension_bound=_bound_of(prime, W.m),
    )
