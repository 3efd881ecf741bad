"""The constraint subspace W of difference blocks and its structural conditions.

W is a subspace of V^ell, the m-by-ell blocks with zero column sums, stored as
an orthonormal basis under the Frobenius inner product.  The two structural
conditions ask whether W contains nonzero rank-one blocks v (x) a; the second
restricts v to the delta directions m*e_j - 1.  The second condition is a pure
linear-algebra question (one null-space problem per coordinate j); the first
is a nonconvex feasibility problem answered by multi-start descent, with
INCONCLUSIVE as an honest third outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .filtration import FiltrationSpec, Martingale

# Singular values below this (relative) level count as zero in the exact
# delta-direction search.
SECOND_CONDITION_TOL = 1e-9

# Thresholds for the nonconvex rank-one search: minima at or below the first
# value certify a violation, minima above the second certify satisfaction.
FIRST_CONDITION_VIOLATED = 1e-12
FIRST_CONDITION_HOLDS = 1e-6


@dataclass
class SubspaceW:
    """Orthonormal basis of a subspace of V^ell; basis has shape (k, m, ell)."""

    m: int
    ell: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float).reshape(-1, self.m, self.ell)
        k = self.basis.shape[0]
        if k:
            colsums = np.abs(self.basis.sum(axis=1)).max()
            if colsums > 1e-10:
                raise ValueError(f"basis blocks leave V^ell (column sum {colsums:.3e})")
            flat = self.basis.reshape(k, -1)
            gram = flat @ flat.T
            if np.abs(gram - np.eye(k)).max() > 1e-10:
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

    def coefficients(self, block: np.ndarray) -> np.ndarray:
        return self.basis.reshape(self.dim, -1) @ np.asarray(block, dtype=float).reshape(-1)

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=float), self.basis, axes=(0, 0))

    def distance(self, block: np.ndarray) -> float:
        block = np.asarray(block, dtype=float)
        return float(np.linalg.norm(block - project(block, self)))

    def residuals(self, blocks: np.ndarray) -> np.ndarray:
        """Frobenius distance to W of every block in a (..., m, ell) array.

        One batched residual, flat - (flat B^T) B, for the whole stack.  The
        products run as stacked matmuls, so every block gets the very BLAS
        calls ``distance`` makes (gemv or dot per block), and the results
        equal ``distance`` bit for bit; a single (N, mell) @ (mell, k) gemm
        rounds differently in the last bits.
        """
        blocks = np.asarray(blocks, dtype=float)
        if blocks.shape[-2:] != (self.m, self.ell):
            raise ValueError(f"blocks of shape {blocks.shape[-2:]} do not match {(self.m, self.ell)}")
        flat = blocks.reshape(-1, self.m * self.ell)
        if self.dim:
            basis = self.basis.reshape(self.dim, -1)
            coeffs = np.matmul(basis, flat[:, :, None])
            flat = flat - np.matmul(coeffs.transpose(0, 2, 1), basis)[:, 0, :]
        squares = np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0]
        return np.sqrt(squares).reshape(blocks.shape[:-2])


def delta_vector(m: int, j: int = 0) -> np.ndarray:
    """m e_j - 1: the direction with m-1 equal coordinates."""
    v = -np.ones(m)
    v[j] = m - 1.0
    return v


def project(block: np.ndarray, W: SubspaceW) -> np.ndarray:
    """Orthogonal projection onto W; idempotent and self-adjoint."""
    block = np.asarray(block, dtype=float)
    if block.shape != (W.m, W.ell):
        raise ValueError(f"block shape {block.shape} does not match {(W.m, W.ell)}")
    if W.dim == 0:
        return np.zeros_like(block)
    return W.combine(W.coefficients(block))


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


@dataclass
class StructuralReport:
    """Outcome of both structural checks plus optimization diagnostics.

    ``first_condition`` is True (holds), False (violated) or None
    (inconclusive); ``second_condition`` is exact.
    """

    second_condition: bool
    second_witness: tuple[int, np.ndarray] | None
    first_condition: bool | None
    first_witness: tuple[np.ndarray, np.ndarray] | None
    residuals: dict = field(default_factory=dict)


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
    flat_basis = W.basis.reshape(W.dim, -1)
    for j in range(W.m):
        v = delta_vector(W.m, j)
        columns = np.empty((W.m * W.ell, W.ell))
        for s in range(W.ell):
            block = np.outer(v, np.eye(W.ell)[s]).reshape(-1)
            columns[:, s] = block - flat_basis.T @ (flat_basis @ block)
        sigma = np.linalg.svd(columns, compute_uv=False)
        smin = float(sigma[-1]) / np.linalg.norm(v)
        diag["sigma_min"].append(smin)
        if smin <= SECOND_CONDITION_TOL:
            _, _, vt = np.linalg.svd(columns)
            a = vt[-1]
            a = a / np.linalg.norm(a)
            return False, (j, a), diag
    return True, None, diag


def _second_singular_ratio(coeffs: np.ndarray, W: SubspaceW) -> float:
    block = W.combine(coeffs)
    sq = float(np.sum(block * block))
    if sq == 0.0:
        return 1.0
    sigma = np.linalg.svd(block, compute_uv=False)
    if sigma.size < 2:
        return 0.0
    return float(sigma[1] ** 2 / sq)


def check_first_condition(
    W: SubspaceW, n_starts: int = 24, seed: int = 0
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
    best = np.inf
    best_coeffs = None
    for _ in range(n_starts):
        x0 = rng.standard_normal(W.dim)
        x0 /= np.linalg.norm(x0)
        res = optimize.minimize(
            _second_singular_ratio,
            x0,
            args=(W,),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000},
        )
        if res.fun < best:
            best = float(res.fun)
            best_coeffs = res.x
    diag = {"min_ratio": best, "starts": n_starts}
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


def structural_report(W: SubspaceW, n_starts: int = 24, seed: int = 0) -> StructuralReport:
    second, second_wit, diag2 = check_second_condition(W)
    first, first_wit, diag1 = check_first_condition(W, n_starts=n_starts, seed=seed)
    return StructuralReport(
        second_condition=second,
        second_witness=second_wit,
        first_condition=first,
        first_witness=first_wit,
        residuals={"second": diag2, "first": diag1},
    )
