"""Consensus-graph clustering by four-block alternating minimization.

Given V row-stochastic anchor graphs S_v (n x m), the solver minimizes

    || Z - sum_v alpha_v S_v ||_F^2  +  beta * ||Z||_*
                                     +  gamma * || Z - F G^T ||_F^2

over the consensus graph Z (n x m), a non-negative soft indicator
F (n x c), a column-orthonormal basis G (m x c), and simplex view
weights alpha. Each block update is the exact minimizer of its
subproblem, so the objective never rises. For a single view the alpha
step returns alpha = [1.0].

    F      max(Z G, 0)                          (separable clamp)
    G      the maximizer of Tr(G^T Z^T F) nearest the last G   (Procrustes)
    Z      soft-threshold the singular values of
           M = (sum_v alpha_v S_v + gamma F G^T) / (1 + gamma)
           at tau = beta / (2 (1 + gamma))      (nuclear-norm prox)
    alpha  active-set solve of a V-dim simplex QP

Hard labels are the row-argmax of F.

fit never forms Z. The thresholding goes through the m x m Gram matrix
M^T M, so a Z step yields Z = M P with P = V diag((sigma - tau)/sigma) V^T
(m x m), and FactoredZ keeps Z as (alpha, F, G, P). Every quantity a
cycle needs reduces to products of the sparse graphs (k nonzeros per row)
with n x c blocks, or to m x m algebra on the cross-Grams
C_uv = S_u^T S_v, which the AnchorGraphSet computes once when built:

    Z G, Z^T F           sparse S_v times an m x c or n x c block
    M^T M, S_v^T M       from C_uv, S_v^T F, F^T F and G
    <S_v, Z>             tr(S_v^T M P)
    ||Z||_*              sum (sigma - tau)
    fit, factor terms    the norms expanded around M, with
                         ||Z - M||^2 = sum min(sigma, tau)^2 and
                         ||F G^T||^2 = tr(F^T F G^T G)

so a cycle costs O(n k V c + n c^2 + V^2 m^2 + V m^2 c + m^3), linear in
n, and holds no n x m array. A cycle forms two sparse products: Z G in
the F step, and S_v^T F in the G step, which hands it on to the Z step.
A fit's SolverState.Z is that FactoredZ, and only FactoredZ.dense()
builds the n x m matrix (--save-graph, objective(), tests). The dense
references that the tests compare fit against live in tests/oracles.py.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .anchors import AnchorGraphSet
from .errors import InvalidParameter, NumericalBreakdown, RankDeficientWarning


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters and iteration controls for fit()."""

    c: int
    beta: float = 0.3
    gamma: float = 0.1
    max_iters: int = 200
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.c < 1:
            raise InvalidParameter(f"c must be >= 1, got {self.c}")
        # each test is written so that NaN fails it
        if not (0 <= self.beta < np.inf and 0 <= self.gamma < np.inf):
            raise InvalidParameter(
                f"need 0 <= beta, gamma < inf, got beta={self.beta}, gamma={self.gamma}"
            )
        if self.max_iters < 1:
            raise InvalidParameter(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.rel_tol < np.inf:
            raise InvalidParameter(f"need 0 < rel_tol < inf, got {self.rel_tol}")
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class SolverState:
    """Solver iterates. Z is a FactoredZ in fit and init_state, or a dense
    array in a dense reference loop."""

    Z: FactoredZ | np.ndarray
    F: np.ndarray
    G: np.ndarray
    alpha: np.ndarray
    objective_history: list = field(default_factory=list)
    iters_run: int = 0


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray
    state: SolverState
    elapsed: float
    converged: bool


def _weighted_sum(alpha: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_v alpha_v X[v] for a V x ... array X: the one matrix product
    that np.tensordot(alpha, X, axes=1) makes, without its overhead."""
    return np.dot(alpha.reshape(1, -1), X.reshape(X.shape[0], -1)).reshape(X.shape[1:])


def _gram_svd(gram: np.ndarray):
    """Right singular vectors and singular values of a matrix whose Gram
    matrix is `gram`, by its eigendecomposition."""
    lam, V = np.linalg.eigh(gram)
    return V, np.sqrt(np.clip(lam, 0.0, None))


class FactoredZ:
    """Z = M P without the n x m matrix, for M = (S_a + gamma F G^T) /
    (1 + gamma), S_a = sum_v a_v S_v, and P the m x m factor of the
    singular value thresholding of M at tau (tau = 0: P = I and Z = M).

    Supports Z @ X and, by t_times, Z^T Y for thin dense blocks: all
    update_F and update_G ask of Z. It also carries the pieces that
    update_alpha and _objective need. They are written in terms of the
    SVT residual Z - M = M (P - I) and of D = F G^T - S_a, for which
    M = S_a + kappa D with kappa = gamma / (1 + gamma):

        view_inner[v] = <S_v, Z>
        res_sq        = ||Z - M||^2 = sum_i min(sigma_i, tau)^2
        res_D         = <Z - M, D>,    res_views[v] = <S_v, Z - M>
        D_sq          = ||D||^2,       D_views[v]   = <S_v, D>

    Expanding around M rather than around 0 keeps the objective accurate
    when it is small next to ||Z||^2 (small beta and gamma).
    """

    def __init__(self, graphs: AnchorGraphSet, alpha, F, G, gamma: float, tau: float,
                 SvtF: np.ndarray):
        self.graphs, self.alpha, self.F, self.G = graphs, alpha, F, G
        self.gamma, self.tau = gamma, tau
        FtF = F.T @ F
        SvtM = np.einsum("vuij,u->vij", graphs.C, alpha)  # S_v^T S_a
        SvtM = (SvtM + gamma * (SvtF @ G.T)) / (1.0 + gamma)  # S_v^T M
        MtF = _weighted_sum(alpha, SvtF)                  # S_a^T F
        MtF = (MtF + gamma * (G @ FtF)) / (1.0 + gamma)   # M^T F
        # M^T M = M^T (S_a + gamma F G^T) / (1 + gamma)
        gram = _weighted_sum(alpha, SvtM).T
        self.gram = gram = (gram + gamma * (MtF @ G.T)) / (1.0 + gamma)
        GtB = np.einsum("vic,ic->v", SvtF, G)             # <S_v, F G^T>
        self.D_views = GtB - graphs.Q @ alpha
        self.D_sq = float(np.sum(FtF * (G.T @ G)) - alpha @ GtB - alpha @ self.D_views)
        self.view_inner = np.einsum("vii->v", SvtM)      # <S_v, M>
        if tau == 0.0:
            self.P = None
            self.res_sq = self.res_D = 0.0
            self.res_views = np.zeros_like(alpha)
            return
        V, sigma = _gram_svd(gram)
        keep = sigma > tau
        self.Vk, self.sigma = V[:, keep], sigma[keep]
        self.P = (self.Vk * ((self.sigma - tau) / self.sigma)) @ self.Vk.T
        w = tau / np.maximum(sigma, tau)                 # P - I = -V diag(w) V^T
        Pm = -(V * w) @ V.T
        self.res_sq = float(np.sum((w * sigma) ** 2))
        # <M (P - I), D> = tr((P - I) M^T D), M^T D = (1 + gamma) (M^T F G^T - M^T M)
        self.res_D = (1.0 + gamma) * float(np.sum(G * (Pm @ MtF)) + np.sum(w * sigma**2))
        self.res_views = np.einsum("vij,ij->v", SvtM, Pm)
        self.view_inner = self.view_inner + self.res_views

    def nuclear_norm(self) -> float:
        if self.P is not None:
            return float(np.sum(self.sigma - self.tau))
        # tau = 0: the sum of all singular values of M. From the Gram,
        # sigma_i is off by about eps sigma_max^2 / sigma_i, so the few
        # directions with sigma_i < 1e-3 sigma_max are resolved again from
        # a thin QR of M V_small (n x few).
        V, sigma = _gram_svd(self.gram)
        small = sigma < 1e-3 * sigma[-1]
        if small.any():
            R = np.linalg.qr(self @ V[:, small], mode="r")
            sigma = np.concatenate([sigma[~small], np.linalg.svd(R, compute_uv=False)])
        return float(sigma.sum())

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        if self.P is not None:
            X = self.P @ X
        out = self.graphs.mix_times(self.alpha, X)
        return (out + self.gamma * (self.F @ (self.G.T @ X))) / (1.0 + self.gamma)

    def t_times(self, Y: np.ndarray, SvtY: np.ndarray) -> np.ndarray:
        """Z^T Y, given the V products S_v^T Y as a V x m x c array."""
        MtY = _weighted_sum(self.alpha, SvtY)
        MtY = (MtY + self.gamma * (self.G @ (self.F.T @ Y))) / (1.0 + self.gamma)
        return MtY if self.P is None else self.P @ MtY

    def dense(self) -> np.ndarray:
        """The n x m matrix, by the arithmetic of the dense SVT in
        tests/oracles.py, so tau = 0 gives M bitwise."""
        M = self.graphs.mixture(self.alpha)
        M = (M + self.gamma * (self.F @ self.G.T)) / (1.0 + self.gamma)
        if self.P is None:
            return M
        U = (M @ self.Vk) / self.sigma
        return (U * (self.sigma - self.tau)) @ self.Vk.T


def init_state(graphs: AnchorGraphSet, config: SolverConfig) -> SolverState:
    """Even view weights, Z as their mixture, random F >= 0, random
    orthonormal G, which needs c <= m (else InvalidParameter)."""
    V, n, m = graphs.num_views, graphs.n, graphs.m
    if config.c > m:
        raise InvalidParameter(f"need c <= m, got c={config.c}, m={m}")
    alpha = np.full(V, 1.0 / V)
    rng = np.random.default_rng(config.seed)
    F = np.abs(rng.standard_normal((n, config.c)))
    G, _ = np.linalg.qr(rng.standard_normal((m, config.c)))
    Z = FactoredZ(graphs, alpha, F, G, 0.0, 0.0, graphs.each_t_times(F))
    return SolverState(Z=Z, F=F, G=G, alpha=alpha)


def update_F(Z, G: np.ndarray) -> np.ndarray:
    """Exact non-negative minimizer of ||Z - F G^T||_F^2 for orthonormal G.
    Z is a dense array or a FactoredZ."""
    return np.maximum(Z @ G, 0.0)


def update_G(Z, F: np.ndarray, G_prev: np.ndarray,
             SvtF: np.ndarray | None = None) -> np.ndarray:
    """Orthogonal Procrustes: maximize Tr(G^T W) with W = Z^T F. Z is a
    dense array, or a FactoredZ given together with an empty V x m x c
    array SvtF: then W is formed from the products S_v^T F written into
    SvtF, which the Z step of the same cycle takes instead of forming
    them again.

    For W = U diag(s) V^T with r singular values >= 1e-12, the maximizers
    are U_r V_r^T + Q V_n^T, Q orthonormal and orthogonal to U_r. The one
    nearest G_prev, Q = polar((I - U_r U_r^T) G_prev V_n), makes the step
    unique (Schoenemann, Psychometrika 31(1), 1966); at r = c it is U V^T."""
    if SvtF is None:
        W = Z.T @ F
    else:
        SvtF[...] = Z.graphs.each_t_times(F)
        W = Z.t_times(F, SvtF)
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    r = int(np.count_nonzero(s >= 1e-12))
    if r == s.size:
        return U @ Vt
    Ur, Vnt = U[:, :r], Vt[r:]
    # Uc spans the complement of U_r; any such basis gives the same G
    Uc = np.linalg.eigh(np.eye(W.shape[0]) - Ur @ Ur.T)[1][:, r:]
    P, t, Qt = np.linalg.svd(Uc.T @ (G_prev @ Vnt.T), full_matrices=False)
    if t[-1] < 1e-12:
        warnings.warn("Z^T F is rank deficient and the completion nearest G_prev "
                      "is not unique; the SVD convention fixes it",
                      RankDeficientWarning, stacklevel=2)
    return Ur @ Vt[:r] + (Uc @ (P @ Qt)) @ Vnt


def update_Z(graphs: AnchorGraphSet, alpha: np.ndarray, F: np.ndarray, G: np.ndarray,
             beta: float, gamma: float, SvtF: np.ndarray) -> FactoredZ:
    """Exact Z-block minimizer: the SVT of the blended target, factored,
    given SvtF, the V products S_v^T F as a V x m x c array."""
    return FactoredZ(graphs, alpha, F, G, gamma, beta / (2.0 * (1.0 + gamma)), SvtF)


def update_alpha(graphs: AnchorGraphSet, Z: FactoredZ) -> np.ndarray:
    """View weights minimizing ||Z - sum_v alpha_v S_v||_F^2 on the simplex.

    Expanding the norm gives the QP  alpha^T Q alpha - alpha^T q  with
    Q_uv = <S_u, S_v>_F, read off the cross-Grams, and q_v = 2 <S_v, Z>_F,
    read off Z's factors.
    """
    return _simplex_qp(graphs.Q, 2.0 * Z.view_inner)


def _simplex_qp(Q: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact minimizer of a^T Q a - a^T q on the simplex, Q symmetric PSD,
    by a primal active-set method (Nocedal and Wright, Numerical
    Optimization, ch. 16) started at the uniform weights; V = 1 returns
    [1.0] at once.

    A pass moves the free weights in the null space of sum p = 0, written
    p = N y with N = [I; -1^T], where the reduced Hessian N^T Q N has
    eigenpairs (w, U) and the reduced gradient N^T g has coordinates s in U:
      - along a flat direction (w = 0 to rounding) with s != 0 the
        objective is linear, so the step follows it to the first bound;
      - otherwise the step is the Newton step on the curved directions and
        zero along the flat ones, cut at the first weight it zeroes.
    A zeroed weight is held at 0. At a subspace minimizer the weights are
    returned once every held weight's multiplier g_i - lambda is >= 0, and
    else the most negative one is freed. Flat directions without gradient
    take no step, so identical views keep the uniform weights exactly.

    Between two frees the objective strictly falls, so no working set
    recurs; V 2^V passes bound the method, and reaching the bound means
    rounding made it cycle.
    """
    V = q.size
    eps = V * np.finfo(float).eps
    tol_w = 32.0 * eps * np.abs(Q).max()
    tol_g = 32.0 * eps * (2.0 * np.abs(Q).max() + np.abs(q).max())
    a = np.full(V, 1.0 / V)
    free = np.ones(V, dtype=bool)
    for _ in range(V << V):
        idx = np.flatnonzero(free)
        if idx.size > 1:
            N = np.vstack([np.eye(idx.size - 1), -np.ones((1, idx.size - 1))])
            g = 2.0 * (Q[idx] @ a) - q[idx]
            w, U = np.linalg.eigh(N.T @ Q[np.ix_(idx, idx)] @ N)
            s = U.T @ (N.T @ g)
            down = (w <= tol_w) & (np.abs(s) > tol_g)
            if down.any():
                p, newton = -(N @ (U[:, down] @ s[down])), False
                p /= np.abs(p).max()
            else:
                bent = w > tol_w
                p, newton = -(N @ (U[:, bent] @ (s[bent] / (2.0 * w[bent])))), True
            shrink = p < 0
            steps = a[idx[shrink]] / -p[shrink]
            if steps.size and (not newton or steps.min() <= 1.0):
                j = np.argmin(steps)
                hit = idx[shrink][j]
                a[idx] = np.maximum(a[idx] + steps[j] * p, 0.0)
                a[hit], free[hit] = 0.0, False
                continue
            a[idx] += p
        g = 2.0 * (Q @ a) - q
        mu = np.where(free, np.inf, g - g[free].mean())
        j = np.argmin(mu)
        if mu[j] >= -tol_g:
            return a
        free[j] = True
    raise NumericalBreakdown(f"the view-weight active set cycled (V={V})")


def objective(state: SolverState, graphs: AnchorGraphSet, config: SolverConfig) -> float:
    """Value of the full objective at the given state, from the dense Z;
    a FactoredZ is densified first."""
    Z, F, G = state.Z, state.F, state.G
    Z = Z.dense() if isinstance(Z, FactoredZ) else Z
    fit_term = float(np.sum((Z - graphs.mixture(state.alpha)) ** 2))
    factor_term = float(np.sum((Z - F @ G.T) ** 2))
    nuclear = float(np.linalg.svd(Z, compute_uv=False).sum())
    return fit_term + config.beta * nuclear + config.gamma * factor_term


def _objective(Z: FactoredZ, alpha: np.ndarray, beta: float, gamma: float) -> float:
    """objective() at a FactoredZ, its own F and G, and weights alpha.
    With d = Z.alpha - alpha and k = Z's kappa,

        Z - S_alpha = (Z - M) + k D + S_d
        Z - F G^T   = (Z - M) - (1 - k) D
    """
    k = Z.gamma / (1.0 + Z.gamma)
    d = Z.alpha - alpha
    fit_term = (Z.res_sq + k * k * Z.D_sq + float(d @ Z.graphs.Q @ d) + 2.0 * k * Z.res_D
                + 2.0 * float(d @ Z.res_views) + 2.0 * k * float(d @ Z.D_views))
    factor_term = Z.res_sq + (1.0 - k) ** 2 * Z.D_sq - 2.0 * (1.0 - k) * Z.res_D
    nuclear = Z.nuclear_norm() if beta != 0.0 else 0.0
    return fit_term + beta * nuclear + gamma * factor_term


def labels_from_F(F: np.ndarray) -> np.ndarray:
    """Row-argmax of the soft indicator; ties go to the lowest column."""
    return np.argmax(F, axis=1)


def fit(graphs: AnchorGraphSet, config: SolverConfig) -> ClusteringResult:
    """Run the alternating scheme until the relative objective change
    drops below rel_tol or max_iters cycles elapse. Cycle 0 evaluates the
    objective at init_state's point; each later cycle runs the F, G, Z and
    alpha steps, then the objective. A LinAlgError or a non-finite
    objective in any cycle raises NumericalBreakdown naming that cycle."""
    t0 = time.perf_counter()
    state = init_state(graphs, config)
    history = state.objective_history
    beta, gamma = config.beta, config.gamma
    converged = False
    for cycle in range(config.max_iters + 1):
        try:
            if cycle:
                state.F = update_F(state.Z, state.G)
                SvtF = np.empty((graphs.num_views, graphs.m, config.c))
                state.G = update_G(state.Z, state.F, state.G, SvtF)
                state.Z = update_Z(graphs, state.alpha, state.F, state.G,
                                   beta, gamma, SvtF)
                state.alpha = update_alpha(graphs, state.Z)
            history.append(_objective(state.Z, state.alpha, beta, gamma))
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"linear algebra failed at cycle {cycle}: {exc}") from None
        if not np.isfinite(history[-1]):
            raise NumericalBreakdown(f"objective became non-finite at cycle {cycle} "
                                     f"(beta={beta}, gamma={gamma})")
        state.iters_run = cycle
        if cycle and abs(history[-1] - history[-2]) / max(history[-2], 1e-12) < config.rel_tol:
            converged = True
            break

    return ClusteringResult(
        labels=labels_from_F(state.F),
        state=state,
        elapsed=time.perf_counter() - t0,
        converged=converged,
    )
