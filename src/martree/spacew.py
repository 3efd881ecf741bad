"""The constraint subspace W of difference blocks and its structural conditions.

W is a subspace of V^ell, the m-by-ell blocks with zero column sums, stored as
an orthonormal basis under the Frobenius inner product.  ``project`` is the one
orthogonal projection onto W: it takes a whole (..., m, ell) stack of blocks,
one block included, and every other question about W (residuals, the
structural conditions, the rank-one search of the kappa profile) is asked
through it.  The two structural conditions ask whether W contains nonzero
rank-one blocks v (x) a; the second restricts v to the delta directions
m*e_j - 1.  The second condition is a pure linear-algebra question (one
null-space problem per coordinate j); the first is a nonconvex feasibility
problem answered by multi-start descent, with INCONCLUSIVE as an honest third
outcome; a descent start whose step leaves its simplex bit for bit unchanged
is finished at once with the result that running on to ``maxiter`` would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtration import FiltrationSpec, Martingale

# Singular values below this (relative) level count as zero in the exact
# delta-direction search.
SECOND_CONDITION_TOL = 1e-9

# Thresholds for the nonconvex rank-one search: minima at or below the first
# value certify a violation, minima above the second certify satisfaction.
FIRST_CONDITION_VIOLATED = 1e-12
FIRST_CONDITION_HOLDS = 1e-6
# Random Nelder-Mead starts of that search.
FIRST_CONDITION_STARTS = 24


@dataclass
class SubspaceW:
    """Orthonormal basis of a subspace of V^ell; basis has shape (k, m, ell)."""

    m: int
    ell: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float).reshape(-1, self.m, self.ell)
        k = self.basis.shape[0]
        if k:  # both checks are written so that NaN fails them
            colsums = np.abs(self.basis.sum(axis=1)).max()
            if not colsums <= 1e-10:
                raise ValueError(f"basis blocks leave V^ell (column sum {colsums:.3e})")
            flat = self.basis.reshape(k, -1)
            gram = flat @ flat.T
            if not np.abs(gram - np.eye(k)).max() <= 1e-10:
                raise ValueError("basis is not orthonormal under the Frobenius product")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def zero(cls, m: int, ell: int) -> "SubspaceW":
        return cls(m, ell, np.zeros((0, m, ell)))

    @classmethod
    def from_blocks(cls, blocks, m: int, ell: int) -> "SubspaceW":
        """Span of the given blocks, projected to V^ell and orthonormalized."""
        arr = np.asarray(blocks, dtype=float).reshape(-1, m, ell)
        arr = arr - arr.mean(axis=1, keepdims=True)
        flat = arr.reshape(arr.shape[0], -1)
        if flat.shape[0] == 0:
            return cls.zero(m, ell)
        u, s, vt = np.linalg.svd(flat, full_matrices=False)
        rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 1.0)))
        return cls(m, ell, vt[:rank].reshape(rank, m, ell))

    @classmethod
    def random(cls, m: int, ell: int, k: int, seed) -> "SubspaceW":
        if not 0 <= k <= (m - 1) * ell:
            raise ValueError(f"dimension {k} outside [0, (m-1)*ell] = [0, {(m - 1) * ell}]")
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((k, m, ell))
        w = cls.from_blocks(blocks, m, ell)
        if w.dim != k:
            raise ValueError("random blocks were degenerate; try another seed")
        return w

    @classmethod
    def full_v(cls, m: int, ell: int) -> "SubspaceW":
        """The whole space V^ell, dimension (m-1) * ell."""
        eye = np.eye(m * ell).reshape(m * ell, m, ell)
        return cls.from_blocks(eye, m, ell)

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """The block sum_i c_i B_i of every row c of a (..., k) stack of coefficients.

        One stacked matmul, a gemv per row, so each row gives the very block
        it gives alone; a single (N, k) @ (k, m ell) gemm rounds differently.
        """
        coeffs = np.ascontiguousarray(coeffs, dtype=float)
        flat = np.matmul(coeffs[..., None, :], self.basis.reshape(self.dim, self.m * self.ell))
        return flat.reshape(coeffs.shape[:-1] + (self.m, self.ell))

    def residuals(self, blocks: np.ndarray) -> np.ndarray:
        """Frobenius distance to W of every block in a (..., m, ell) array."""
        blocks = np.asarray(blocks, dtype=float)
        rest = blocks - project(blocks, self)
        return _row_norms(rest.reshape(-1, self.m * self.ell)).reshape(blocks.shape[:-2])


def _row_norms(flat: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(row)`` of each row of a 2-D array, bit for bit: the
    sqrt of the row's dot with itself, the 1-D norm's form.  Not the
    ``np.linalg.norm(flat, axis=1)`` form, which sums the squares in another
    order and differs in the last bit for some rows of two or more entries;
    ``filtration.vector_norms`` is that form."""
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def delta_vector(m: int, j: int = 0) -> np.ndarray:
    """m e_j - 1: the direction with m-1 equal coordinates."""
    v = -np.ones(m)
    v[j] = m - 1.0
    return v


def project(blocks: np.ndarray, W: SubspaceW) -> np.ndarray:
    """Orthogonal projection onto W of every block in a (..., m, ell) stack.

    P_W x = sum_i <B_i, x> B_i: the coefficients and their combination each
    run as one stacked matmul, a gemv per block, so every block of a stack is
    projected bit for bit as it is alone.  Idempotent and self-adjoint.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.shape[-2:] != (W.m, W.ell):
        raise ValueError(f"block shape {blocks.shape} does not match {(W.m, W.ell)}")
    if W.dim == 0:
        return np.zeros_like(blocks)
    flat = blocks.reshape(-1, W.m * W.ell, 1)
    coeffs = np.matmul(W.basis.reshape(W.dim, -1), flat)[:, :, 0]
    return W.combine(coeffs).reshape(blocks.shape)


def random_w_martingale(
    W: SubspaceW,
    spec: FiltrationSpec,
    scale_profile=None,
    seed=0,
) -> Martingale:
    """Martingale whose difference blocks are i.i.d. Gaussian inside W.

    ``scale_profile`` maps the difference index n in [1, N] to a scalar factor
    applied to f_n (an array of length N or a callable); default all ones.
    F_0 = 0.
    """
    if (spec.m, spec.ell) != (W.m, W.ell):
        raise ValueError("filtration spec and W disagree on (m, ell)")
    if scale_profile is None:
        scales = np.ones(spec.depth)
    elif callable(scale_profile):
        scales = np.array([float(scale_profile(n)) for n in range(1, spec.depth + 1)])
    else:
        scales = np.asarray(scale_profile, dtype=float)
        if scales.shape != (spec.depth,):
            raise ValueError("scale profile must give one factor per level")
    rng = np.random.default_rng(seed)
    diffs = []
    for n in range(spec.depth):
        n_atoms = spec.m**n
        if W.dim == 0:
            diffs.append(np.zeros((n_atoms, spec.m, spec.ell)))
            continue
        coeffs = rng.standard_normal((n_atoms, W.dim))
        blocks = np.tensordot(coeffs, W.basis, axes=(1, 0))
        diffs.append(scales[n] * blocks)
    return Martingale(spec, np.zeros(spec.ell), diffs, validate=False)


def check_second_condition(W: SubspaceW) -> tuple[bool, tuple[int, np.ndarray] | None, dict]:
    """Exact test for delta-direction rank-ones (m e_j - 1) (x) a in W.

    For each j the map a -> (I - P_W)((m e_j - 1) (x) a) is linear in a; the
    condition fails exactly when some such map is rank deficient.  Returns
    (holds, witness, diagnostics); the witness is (j, a).
    """
    diag = {"sigma_min": []}
    if W.dim == 0:
        # the residual map is the identity on every delta direction
        diag["sigma_min"] = [1.0] * W.m
        return True, None, diag
    for j in range(W.m):
        v = delta_vector(W.m, j)
        blocks = v[:, None] * np.eye(W.ell)[:, None, :]  # blocks[s] = v (x) e_s
        columns = (blocks - project(blocks, W)).reshape(W.ell, -1).T
        sigma = np.linalg.svd(columns, compute_uv=False)
        smin = float(sigma[-1]) / np.linalg.norm(v)
        diag["sigma_min"].append(smin)
        if smin <= SECOND_CONDITION_TOL:
            _, _, vt = np.linalg.svd(columns)
            a = vt[-1]
            a = a / np.linalg.norm(a)
            return False, (j, a), diag
    return True, None, diag


def _second_singular_ratios(C: np.ndarray, W: SubspaceW) -> np.ndarray:
    """sigma_2(w)^2 / ||w||^2 of w = W.combine(c) for every row c of C.

    Every step is the stacked form of the single-block one, so each ratio is
    bit for bit what one block alone gives: the combine runs as one gemv per
    row, the squared norm as a pairwise row sum, and sigma_2 is squared by
    libm pow, as a NumPy scalar's ``** 2`` does (the array ``** 2`` is x * x,
    which differs from it in the last bit now and then).
    """
    blocks = W.combine(C)
    sq = (blocks * blocks).reshape(len(blocks), W.m * W.ell).sum(axis=1)
    sigma = np.linalg.svd(blocks, compute_uv=False)[:, 1].tolist()
    zero = sq == 0.0  # the zero block has ratio 1
    return np.where(zero, 1.0, np.array([math.pow(s, 2) for s in sigma]) / np.where(zero, 1.0, sq))


def _nelder_mead_lockstep(f, X0: np.ndarray, xatol: float, fatol: float, maxiter: int):
    """scipy's Nelder-Mead (``optimize.minimize``, no bounds, maxfev unset)
    from every row of X0 at once, one iteration at a time.

    ``f`` maps a (P, N) stack of points to their P values, each row alone.
    Every start's simplex goes through the very float operations of scipy
    1.17's ``_minimize_neldermead``, so its result is scipy's bit for bit; a
    start leaves the stack when its own stopping test fires.  Each iteration
    makes one call for the reflection points of all running starts, one for
    the expansion or contraction points of those that need one, and one for
    the shrunk simplices.  Returns the per-start ``x``, ``fun``, ``nit`` and
    ``nfev``.

    A start whose iteration gives back its ``sim`` and ``fsim`` bit for bit
    (compared as uint64, so NaN equals itself and 0.0 stays apart from -0.0)
    is at a fixed point: the step depends on nothing else, ``f`` values each
    row alone and a row's argsort is deterministic, so every later iteration
    repeats it with the same number of calls.  Such a start is finished there
    with ``nit = maxiter`` and ``nfev`` counting the iterations it skips; scipy
    would run them all and end with the same ``x``, ``fun``, ``nit`` and
    ``nfev``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    # reflection, expansion, outside and inside contraction: a * xbar - b * worst
    a = np.array([1 + rho, 1 + rho * chi, 1 + psi * rho, 1 - psi], dtype=float)[:, None]
    b = np.array([rho, rho * chi, psi * rho, -psi], dtype=float)[:, None]
    S, N = X0.shape
    sim = np.repeat(np.asarray(X0, dtype=float)[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    y = sim[:, k + 1, k]
    sim[:, k + 1, k] = np.where(y != 0, (1 + nonzdelt) * y, zdelt)
    fsim = f(sim.reshape(-1, N)).reshape(S, N + 1)
    rows = np.arange(S)[:, None]
    for _ in range(2):  # scipy sorts twice; an unstable argsort may reorder ties again
        ind = np.argsort(fsim, axis=1)
        fsim, sim = fsim[rows, ind], sim[rows, ind]
    x, fun = np.empty((S, N)), np.empty(S)
    nit, nfev = np.empty(S, dtype=int), np.empty(S, dtype=int)
    ids = np.arange(S)  # the starts still running, one row of sim, fsim and calls each
    calls = np.full(S, N + 1)
    iterations = 1

    def finish(done, n):
        """Record the starts in ``done`` as ending after n iterations; return the rest."""
        x[ids[done]] = sim[done, 0]
        fun[ids[done]] = fsim[done].min(axis=1)
        nit[ids[done]], nfev[ids[done]] = n, calls[done]
        return ids[~done], sim[~done], fsim[~done], calls[~done]

    while ids.size and iterations < maxiter:
        done = np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol
        if done.any():
            done &= np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol
            if done.any():
                ids, sim, fsim, calls = finish(done, iterations)
                if not ids.size:
                    break
        P = ids.size
        sim_bits, fsim_bits = sim.view(np.uint64).copy(), fsim.view(np.uint64).copy()
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        points = a * xbar[:, None, :] - b * sim[:, -1:, :]
        fp = np.full((P, 4), np.nan)
        fp[:, 0] = fxr = f(points[:, 0])
        expand = fxr < fsim[:, 0]
        contract = ~expand & ~(fxr < fsim[:, -2])
        outside = contract & (fxr < fsim[:, -1])
        inside = contract & ~outside
        second = expand + 2 * outside + 3 * inside  # the point scipy evaluates next, if any
        need = np.flatnonzero(second)
        fp[need, second[need]] = f(points[need, second[need]])
        choice = np.where(expand & ~(fp[:, 1] < fxr), 0, second)
        shrink = (outside & ~(fp[:, 2] <= fxr)) | (inside & ~(fp[:, 3] < fsim[:, -1]))
        step_calls = 1 + (second > 0) + N * shrink
        calls += step_calls
        shrinking = shrink.any()
        if shrinking:
            best = sim[shrink, :1]
            shrunk = best + sigma * (sim[shrink, 1:] - best)
        sim[:, -1] = points[rows[:P, 0], choice]
        fsim[:, -1] = fp[rows[:P, 0], choice]
        if shrinking:
            sim[shrink, 1:] = shrunk
            fsim[shrink, 1:] = f(shrunk.reshape(-1, N)).reshape(-1, N)
        iterations += 1
        ind = np.argsort(fsim, axis=1)
        fsim, sim = fsim[rows[:P], ind], sim[rows[:P], ind]
        fixed = (sim.view(np.uint64) == sim_bits).all(axis=(1, 2))
        fixed &= (fsim.view(np.uint64) == fsim_bits).all(axis=1)
        if fixed.any():
            # every later iteration repeats this one: same state, same calls
            calls[fixed] += (maxiter - iterations) * step_calls[fixed]
            ids, sim, fsim, calls = finish(fixed, maxiter)
    finish(np.ones(ids.size, dtype=bool), iterations)
    return x, fun, nit, nfev


def check_first_condition(
    W: SubspaceW, seed: int = 0
) -> tuple[bool | None, tuple[np.ndarray, np.ndarray] | None, dict]:
    """Multi-start search for any nonzero rank-one block inside W.

    Minimizes sigma_2(w)^2 / ||w||^2 over unit w in W.  Minima <= 1e-12 give a
    violation with the rank-one witness (v, a); minima above 1e-6 over every
    start certify satisfaction; anything between is reported as None
    (inconclusive).
    """
    if W.dim == 0:
        return True, None, {"min_ratio": np.inf, "starts": 0}
    if min(W.m, W.ell) < 2:
        # With ell = 1 every nonzero block is rank one.
        block = W.basis[0]
        u, s, vt = np.linalg.svd(block)
        return False, (u[:, 0] * s[0], vt[0]), {"min_ratio": 0.0, "starts": 0}
    rng = np.random.default_rng(seed)
    X0 = np.empty((FIRST_CONDITION_STARTS, W.dim))
    for x0 in X0:
        x0[:] = rng.standard_normal(W.dim)
        x0 /= np.linalg.norm(x0)
    # All starts run in lockstep; each ends as scipy's Nelder-Mead with
    # options {"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000} would end.
    xs, funs, _, _ = _nelder_mead_lockstep(
        lambda C: _second_singular_ratios(C, W), X0, xatol=1e-12, fatol=1e-15, maxiter=2000
    )
    best = np.inf
    best_coeffs = None
    for x, fun in zip(xs, funs):
        if fun < best:
            best = float(fun)
            best_coeffs = x
    diag = {"min_ratio": best, "starts": FIRST_CONDITION_STARTS}
    if best <= FIRST_CONDITION_VIOLATED:
        block = W.combine(best_coeffs)
        u, s, vt = np.linalg.svd(block)
        v = u[:, 0] * s[0]
        a = vt[0]
        # Polish the rank-one witness back into W.
        for _ in range(60):
            block = project(np.outer(v, a), W)
            u, s, vt = np.linalg.svd(block)
            v, a = u[:, 0] * s[0], vt[0]
        return False, (v, a), diag
    if best > FIRST_CONDITION_HOLDS:
        return True, None, diag
    return None, None, diag
