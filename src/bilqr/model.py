"""Problem definitions for the free-endpoint quadratic bilinear control
problem and the algebra feeding the frozen-coefficient iteration.

A problem is

    min  (1/2) int_0^tf u' R u dt  +  w ||x(tf) - xd||_2^2
    s.t. dx/dt = A x + B u + (sum_i u_i B_i) x + g,   x(0) = x0,

with the bilinear term rewritten as (sum_j x_j N_j) u, where column i of
N_j equals column j of B_i.  The frozen coefficient matrices of the
per-iteration linear-quadratic subproblem are

    drift(x, p)_ij = A_ij - [(N_j R^-1 L' + L R^-1 N_j') p]_i
    gram(x)        = B R^-1 B' - C R^-1 C'

with L = B + sum_j x_j N_j and C = L - B.  They satisfy the identity

    drift(x, p) x - gram(x) p = A x - L R^-1 L' p

for all finite (x, p), which is what makes a fixed point of the iteration
solve the original necessary conditions.

A problem holds its sample count q and keeps its q diagonal blocks
(`BilinearProblem.blocks`), the one form of the bilinear term that the
solver, diagnostics and simulators read: `input_gain` forms L(x) from
them and `bilinear_field` is the dynamics over them, with its constant
generator stack (`bilinear_generators`) for step maps.  The dense N_j
(`bilinear_factors`) are the reference form of `frozen_drift`,
`frozen_gram` and `consistency_residual`.

`NoiseSpec` is the additive noise of the stochastic variants; its
simulators and the mean reduction live in `bilqr.stochastic`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numkit import vec_norm

__all__ = [
    "BilinearProblem",
    "NoiseSpec",
    "BilinearFactors",
    "bilinear_factors",
    "input_gain",
    "frozen_drift",
    "frozen_gram",
    "consistency_residual",
    "diagonal_blocks",
    "bilinear_field",
    "bilinear_generators",
    "bilinear_generator",
]


@dataclass(frozen=True)
class BilinearProblem:
    """Immutable data of one bilinear control problem.

    `terminal_weight` is the coefficient w of the terminal penalty: 1 for a
    single system, 1/q for an averaged stack of q samples, one per equal
    diagonal block of A and of every B_i (q = 1: a single system).
    `blocks` holds those samples' stacks A (q, b, b), B (q, b, m),
    Bs (q, m, b, b), g (q, b) and x0 (q, b), sliced once here.
    """

    A: np.ndarray
    B: np.ndarray
    Blist: tuple
    g: np.ndarray
    x0: np.ndarray
    xd: np.ndarray
    tf: float
    R: np.ndarray
    terminal_weight: float = 1.0
    q: int = 1

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        g = np.atleast_1d(np.asarray(self.g, dtype=float))
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        xd = np.atleast_1d(np.asarray(self.xd, dtype=float))
        Blist = tuple(np.atleast_2d(np.asarray(Bi, dtype=float)) for Bi in self.Blist)

        n = A.shape[0]
        m = B.shape[1]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m}, got {B.shape}")
        if len(Blist) != m:
            raise ValueError(f"expected {m} bilinear maps, got {len(Blist)}")
        for i, Bi in enumerate(Blist):
            if Bi.shape != (n, n):
                raise ValueError(f"bilinear map {i} must be {n}x{n}, got {Bi.shape}")
        for name, v in (("g", g), ("x0", x0), ("xd", xd)):
            if v.shape != (n,):
                raise ValueError(f"{name} must have length {n}, got {v.shape}")
        if R.shape != (m, m):
            raise ValueError(f"R must be {m}x{m}, got {R.shape}")
        for name, v in (("A", A), ("B", B), ("Blist", Blist), ("g", g), ("x0", x0), ("xd", xd),
                        ("R", R), ("tf", self.tf), ("terminal_weight", self.terminal_weight)):
            if not np.all(np.isfinite(np.asarray(v, dtype=float))):
                raise ValueError(f"{name} must be finite")
        if not self.tf > 0:
            raise ValueError(f"tf must be positive, got {self.tf}")
        if not self.terminal_weight > 0:
            raise ValueError("terminal_weight must be positive")
        if np.max(np.abs(R - R.T)) > 1e-12 * max(1.0, np.max(np.abs(R))):
            raise ValueError("R must be symmetric")
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("R must be positive definite") from exc
        q = self.q
        if not (isinstance(q, int) and q >= 1 and n % q == 0):
            raise ValueError(f"q must be a positive integer dividing n = {n}, got {q!r}")
        blocks = [diagonal_blocks(M, q) for M in (A, *Blist)]
        if any(np.count_nonzero(blk) < np.count_nonzero(M) for blk, M in zip(blocks, (A, *Blist))):
            raise ValueError(f"A or a bilinear map has entries outside its {q} diagonal blocks")

        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Blist", Blist)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xd", xd)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "_Rinv", np.linalg.inv(R))
        object.__setattr__(self, "_Rinv_factor", np.linalg.cholesky(self._Rinv))
        object.__setattr__(self, "blocks", (blocks[0], B.reshape(q, -1, m),
                                            np.stack(blocks[1:], axis=1),
                                            g.reshape(q, -1), x0.reshape(q, -1)))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def Rinv(self) -> np.ndarray:
        return self._Rinv

    @property
    def Rinv_factor(self) -> np.ndarray:
        """The lower Cholesky factor C of R^-1 = C C', formed once."""
        return self._Rinv_factor

    def with_g(self, g: np.ndarray) -> "BilinearProblem":
        return replace(self, g=np.asarray(g, dtype=float))


KINDS = ("poisson", "wiener")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise channel: kind, input matrix G (n x k), Poisson rates."""

    kind: str
    G: np.ndarray
    lam: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        if not np.all(np.isfinite(G)):
            raise ValueError("G must be finite")
        object.__setattr__(self, "G", G)
        if self.kind == "poisson":
            if self.lam is None:
                raise ValueError("poisson noise requires rates lam")
            lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
            if lam.shape != (G.shape[1],):
                raise ValueError(f"lam must have length {G.shape[1]}, got {lam.shape}")
            if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
                raise ValueError("poisson rates must be finite and positive")
            object.__setattr__(self, "lam", lam)
        elif self.lam is not None:
            raise ValueError("wiener noise takes no rates")

    @property
    def k(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class BilinearFactors:
    """The state-indexed factorization of the bilinear term.

    `mats[j]` is the n x m matrix N_j whose column i equals column j of
    B_i, so that (sum_i u_i B_i) x == (sum_j x_j N_j) u for all u, x.
    """

    mats: np.ndarray  # (n, n, m)


def bilinear_factors(Blist) -> BilinearFactors:
    """Build the N_j family from the B_i family."""
    Bs = np.stack([np.atleast_2d(np.asarray(Bi, dtype=float)) for Bi in Blist])
    m, n, n2 = Bs.shape
    if n != n2:
        raise ValueError(f"bilinear maps must be square, got {Bs.shape[1:]}")
    # mats[j, k, i] = Bs[i, k, j]
    mats = np.transpose(Bs, (2, 1, 0))
    return BilinearFactors(np.ascontiguousarray(mats))


def input_gain(prob: BilinearProblem, x: np.ndarray) -> np.ndarray:
    """State-dependent input map B + sum_j x_j N_j over the last axis of x:
    (n, m) for a state, (T, n, m) for a table of states (T, n).  N_j lives
    in the rows of state j's sample, so each sample's rows are formed from
    its own blocks and states, in O(n b m) per state."""
    _, B, Bs, _, _ = prob.blocks
    q, m, b, _ = Bs.shape
    x = np.asarray(x, dtype=float)
    N = Bs.transpose(0, 3, 2, 1).reshape(q, b, b * m)  # [s, c] = the rows of N_j, j = (s, c)
    Nx = np.matmul(x.reshape(-1, q, b).swapaxes(0, 1), N).swapaxes(0, 1)
    return np.add(B, Nx.reshape(-1, q, b, m), order="C").reshape(x.shape[:-1] + (prob.n, m))


def frozen_drift(
    prob: BilinearProblem,
    factors: BilinearFactors,
    x: np.ndarray,
    p: np.ndarray,
) -> np.ndarray:
    """Drift matrix of the frozen linear subproblem at the iterate (x, p)."""
    lam = input_gain(prob, x)
    p = np.asarray(p, dtype=float)
    w = prob.Rinv @ (lam.T @ p)  # R^-1 L' p, shape (m,)
    v = np.einsum("jki,k->ji", factors.mats, p)  # N_j' p, shape (n, m)
    # column j of the correction: N_j w + (L R^-1) (N_j' p)
    corr = np.einsum("jki,i->kj", factors.mats, w) + (lam @ prob.Rinv) @ v.T
    return prob.A - corr


def frozen_gram(prob: BilinearProblem, factors: BilinearFactors, x: np.ndarray) -> np.ndarray:
    """Quadratic input weight B R^-1 B' - C R^-1 C' of the frozen subproblem.

    Symmetric by construction; may be indefinite and is consumed directly
    (never factored) downstream.
    """
    x = np.asarray(x, dtype=float)
    C = np.tensordot(x, factors.mats, axes=(0, 0))
    O = prob.B @ prob.Rinv @ prob.B.T - C @ prob.Rinv @ C.T
    return 0.5 * (O + O.T)


def consistency_residual(
    prob: BilinearProblem,
    factors: BilinearFactors,
    x: np.ndarray,
    p: np.ndarray,
) -> float:
    """l1 residual of the change-of-variables identity at (x, p).

    Contract: below 1e-10 for finite inputs; this is the load-bearing fact
    that makes a fixed point of the iteration satisfy the original
    necessary conditions.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    lam = input_gain(prob, x)
    lhs = frozen_drift(prob, factors, x, p) @ x - frozen_gram(prob, factors, x) @ p
    rhs = prob.A @ x - lam @ (prob.Rinv @ (lam.T @ p))
    return vec_norm(lhs - rhs)


def diagonal_blocks(M: np.ndarray, q: int) -> np.ndarray:
    """The q diagonal blocks (q, rows / q, cols / q) of M, in order."""
    M = np.asarray(M, dtype=float)
    r, c = M.shape[0] // q, M.shape[1] // q
    return np.ascontiguousarray(M.reshape(q, r, q, c)[np.arange(q), :, np.arange(q), :])


def bilinear_field(A, B, Bs, g, stack=None):
    """Bilinear right-hand side rhs(Y, u) of states Y (S, rows, b) under
    controls u (S or 1, rows or 1, m), block s under its own A, B, Bs, g;
    Y and u may carry leading axes beyond S, such as a table's steps.

    The field is affine in Y and in u, and brings its generator:
    `rhs.generator(u)` is `bilinear_generator` of the field's constant
    stack, which `numkit.step_maps` reads instead of probing the field.
    The stack is `stack` when given (`bilinear_generators` of the same
    blocks), else formed on the first generator call, so a field that is
    only evaluated never forms it."""
    S, m, b, _ = Bs.shape
    At, Bt, gr = A.swapaxes(1, 2), B.swapaxes(1, 2), g[:, np.newaxis]
    Nt = Bs.transpose(0, 3, 1, 2).reshape(S, b, m * b)  # y @ Nt[s]: each B_i y of block s

    def rhs(Y, u):
        BY = Y @ Nt
        out = Y @ At + u @ Bt + gr
        for i in range(m):
            out += u[..., i:i + 1] * BY[..., i * b:(i + 1) * b]
        return out

    def generator(u):
        nonlocal stack
        if stack is None:
            stack = bilinear_generators(A, B, Bs, g)
        return bilinear_generator(stack, u)

    rhs.generator = generator
    return rhs


def bilinear_generators(A, B, Bs, g) -> np.ndarray:
    """The constant generator stack (m + 1, S, b + 1, b + 1) of
    `bilinear_field` over the blocks A (S, b, b), B (S, b, m),
    Bs (S, m, b, b), g (S, b): Z_0 = [[0, g'], [0, A']] and
    Z_i = [[0, (B e_i)'], [0, B_i']] per block, so that under a control u
    [1, y] (Z_0 + sum_i u_i Z_i) = [0, rhs(y, u)]."""
    S, m, b, _ = Bs.shape
    stack = np.zeros((m + 1, S, b + 1, b + 1))
    stack[0, :, 0, 1:] = g
    stack[0, :, 1:, 1:] = A.swapaxes(1, 2)
    stack[1:, :, 0, 1:] = B.transpose(2, 0, 1)
    stack[1:, :, 1:, 1:] = Bs.transpose(1, 0, 3, 2)
    return stack


def bilinear_generator(stack: np.ndarray, u) -> np.ndarray:
    """The generators Z(u) = Z_0 + sum_i u_i Z_i (..., S, b + 1, b + 1) of a
    stack (m + 1, S, b + 1, b + 1) under controls u (..., S or 1, 1, m): a
    control shared by the blocks broadcasts over them, one row per block
    (as a Poisson group's control, when the stack holds each group's
    sample) scales its own block.  The terms are added in order with
    separate roundings, as `bilinear_field` adds its u_i B_i y terms, so
    with B = 0 and g = 0 the generators are the probed ones to the bit."""
    u = np.asarray(u, dtype=float)[..., 0, :]  # (..., S or 1, m)
    flat = stack.reshape(stack.shape[:2] + (-1,))
    Z = u[..., :1] * flat[1]
    Z += flat[0]
    for i in range(2, len(flat)):
        Z += u[..., i - 1:i] * flat[i]
    return Z.reshape(u.shape[:-2] + stack.shape[1:])
