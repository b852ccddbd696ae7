"""Sequential pairwise assignment engine with incremental imbalance tracking.

Subjects arrive in pairs and each pair receives opposite treatments.  The
engine maintains the signed row-sum vector S of the revealed adjacency prefix
(and, in the scalar loops, its squared norm: the squared imbalance) and
evaluates both candidate assignments of a new pair from the two newly revealed
rows, read over the pair's prefix columns N (all of them on a dense graph, the
pair's neighbours on neighbour lists): O(|N|) per pair.  Each loop reads the
pairs from one ``RevealedView`` walk, which reveals each pair as it yields it;
no loop reveals anything itself.

State is kept in float64, but in Python integers by the scalar loop on
neighbour lists.  For binary graphs every float is an integer below 2**53 (the
dense cap bounds it on a ``Graph``, and ``graph.check_exact_bound`` on neighbour
lists), so the arithmetic is exact and the incremental squared imbalance
equals a from-scratch recomputation, as integers, at every step.

Where every coin is fair (the random policy, or b = 1/2) on a binary graph,
the signs depend on the uniforms alone: :func:`run_design_final` and
:func:`run_design_many` then take no per-pair loop, and read the final I^2
from one exact recomputation.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .graph import CsrGraph, Graph, RevealedView, check_exact_bound, matvec

ADAPTIVE = "adaptive"
RANDOM = "random"
# A pair's two signs, (sigma, -sigma), as the column that multiplies sigma.
_PAIR_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class DesignConfig:
    """Assignment policy: biased coin with probability ``b`` on the smaller candidate.

    ``b`` must lie in [0.5, 1]; the boundary value 0.5 makes the adaptive
    policy coincide with the random policy (same draws, same assignments).
    The random policy ignores ``b``.
    """

    policy: str = ADAPTIVE
    b: float = 0.95
    seed: object = None

    def __post_init__(self):
        if self.policy not in (ADAPTIVE, RANDOM):
            raise ParameterError(f"unknown policy {self.policy!r}")
        if self.policy == ADAPTIVE and not (0.5 <= self.b <= 1.0):
            raise ParameterError("biasing probability must lie in [0.5, 1]")

    @property
    def effective_b(self) -> float:
        return 0.5 if self.policy == RANDOM else float(self.b)


def increment_from_view(rows: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, float, float]:
    """A dense pair's ``(y, z1, z2)`` from its ``rows``, as :meth:`RevealedView.pair_rows` yields them.

    ``y`` is the new-column difference over the prefix, ``z1``/``z2`` the
    inner products of the two new row prefixes with the sign prefix ``tau``.
    """
    block = rows.astype(np.float64)
    z1, z2 = (block @ tau).tolist()
    return block[1] - block[0], z1, z2


def candidate_imbalances(i2: float, s: np.ndarray, y: np.ndarray, z1: float, z2: float, e: float):
    """Exact squared imbalances (i2_01, i2_10) of treatments (0,1) and (1,0) on the new pair, in O(m).

    ``i2`` and ``s`` are the prefix's I^2 and S, ``y``, ``z1`` and ``z2`` the
    pair's increment and ``e`` its self-weight minus the entry joining it.
    Equals a full recomputation of the squared imbalance over the extended
    prefix, integer-exactly for binary graphs.
    """
    if y.shape != s.shape:
        raise ContractError(f"increment of length {y.shape[0]} does not match prefix {s.shape[0]}")
    sy = float(s @ y)
    base = i2 + float(y @ y)
    i2_01 = base - 2.0 * sy + (z1 + e) ** 2 + (z2 - e) ** 2
    i2_10 = base + 2.0 * sy + (z1 - e) ** 2 + (z2 + e) ** 2
    return i2_01, i2_10


def step(i2_01: float, i2_10: float, b: float, u: float) -> float:
    """The biased coin on a pair's candidates: sigma, +1.0 for (0, 1) and -1.0 for (1, 0).

    ``u`` is the pair's uniform and ``b`` is ``DesignConfig.effective_b``.
    The strictly smaller candidate wins with probability b, the larger with
    1 - b, exact ties fall to a fair coin: the pair gets (0, 1) when ``u`` is
    below 1/2 - (b - 1/2) sign(i2_01 - i2_10).  Ties are detected by exact
    comparison (integer-exact for binary graphs; no tolerance for weighted
    ones, where ties have measure zero and an epsilon would change the
    procedure's law).
    """
    # P(pair gets (0,1)) = 1/2 - (b - 1/2) sign(i2_01 - i2_10): b, 1 - b or 1/2, exactly.
    sign = (i2_01 > i2_10) - (i2_01 < i2_10)
    return 1.0 if u < 0.5 - (b - 0.5) * sign else -1.0


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a full sequential run.

    ``i2_trajectory`` holds the squared imbalance after each completed pair
    (int64 for binary graphs, float64 for weighted).  ``final_i2`` is its last
    value: by the odd-n convention the last unpaired subject does not change
    the reported imbalance.
    """

    tau: np.ndarray
    i2_trajectory: np.ndarray
    final_i2: int | float


def run_design(g: Graph | CsrGraph, cfg: DesignConfig, *, rng=None) -> DesignResult:
    """Run the sequential pairwise design over subjects in index order.

    Only the revealed principal submatrix is ever read while assigning.  An
    odd trailing subject is assigned by a fair coin.  Randomness budget: one
    ``rng.random(pairs)`` block before the first pair, pair m reading its
    m-th uniform, then one ``rng.random()`` for an odd trailing subject; a
    numpy ``Generator`` gives the doubles of one ``rng.random()`` per pair.
    A dense ``Graph`` runs :func:`_run_on_rows` and a ``CsrGraph``
    :func:`_run_on_lists`, with the same draws and results.
    """
    n = g.n
    if n < 2:
        raise ParameterError("design needs at least 2 subjects")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    loop = _run_on_lists if isinstance(g, CsrGraph) else _run_on_rows
    paired, trajectory = loop(RevealedView(g), rng.random(n // 2).tolist(), cfg)
    return DesignResult(_all_signs(paired, n, rng), trajectory, trajectory[-1].item())


def _run_on_rows(view: RevealedView, draws: list[float], cfg: DesignConfig):
    """``run_design``'s loop on a dense ``Graph`` in float64: paired signs, and I^2s as ``_i2_result``'s.

    Pair m reads the uniform ``draws[m]`` and calls :func:`increment_from_view`,
    :func:`candidate_imbalances` and :func:`step` once each; the update is
    DECISIONS.md D3's, as in :func:`run_design_many`.  The first pair has an
    empty prefix: both candidates are 2 e^2, so its coin is the fair tie.
    """
    b = cfg.effective_b
    pairs = len(draws)
    s, tau, traj = np.zeros(2 * pairs), np.zeros(2 * pairs), array("d")
    i2 = 0.0
    for length, u, (rows, e) in zip(range(0, 2 * pairs, 2), draws, view.pair_rows()):
        prefix = s[:length]
        y, z1, z2 = increment_from_view(rows, tau[:length])
        i2_01, i2_10 = candidate_imbalances(i2, prefix, y, z1, z2, e)
        sigma = step(i2_01, i2_10, b, u)
        # s -= sigma * y, in place: sigma * y is y or -y exactly, and x - (-y) is x + y.
        (np.subtract if sigma > 0 else np.add)(prefix, y, out=prefix)
        s[length], s[length + 1] = z1 + e * sigma, z2 - e * sigma
        tau[length], tau[length + 1] = sigma, -sigma
        i2 = i2_01 if sigma > 0 else i2_10
        traj.append(i2)
    return tau, _i2_result(view.graph, np.array(traj, dtype=np.float64))


def _run_on_lists(view: RevealedView, draws: list[float], cfg: DesignConfig):
    """``run_design``'s loop on neighbour lists in exact Python ints: paired signs, int64 I^2s.

    :func:`_run_on_rows`' rule, signature and result, with ``run_design_many``'s coin and update.
    Pair m reads ``draws[m]`` and :meth:`RevealedView.pair_sides`; a column in both of its rows
    cancels in z1 - z2 and S . y, and its entry of S gains sigma and loses it again.
    """
    bias = cfg.effective_b - 0.5
    pairs = len(draws)
    s, tau, traj = [0] * (2 * pairs), [0] * (2 * pairs), array("q")
    s_at, tau_at = s.__getitem__, tau.__getitem__
    i2 = 0
    for length, u, (r0, r1, yy, e) in zip(range(0, 2 * pairs, 2), draws, view.pair_sides()):
        z1 = sum(map(tau_at, r0))
        z2 = sum(map(tau_at, r1))
        # The candidates are c + d for (0, 1) and c - d for (1, 0), so sign(d) is their comparison.
        d = 2 * e * (z1 - z2) - 2 * (sum(map(s_at, r1)) - sum(map(s_at, r0)))
        sigma = 1 if u < 0.5 - bias * ((d > 0) - (d < 0)) else -1
        for j in r0:
            s[j] += sigma
        for j in r1:
            s[j] -= sigma
        s[length], s[length + 1] = z1 + e * sigma, z2 - e * sigma
        tau[length], tau[length + 1] = sigma, -sigma
        i2 += yy + 2 * e * e + z1 * z1 + z2 * z2 + sigma * d
        traj.append(i2)
    return tau, np.array(traj, dtype=np.int64)


def run_design_final(g: Graph | CsrGraph, cfg: DesignConfig) -> tuple[np.ndarray, int | float]:
    """``tau`` and ``final_i2`` of :func:`run_design` on ``cfg``'s seed, without its loop where it can.

    Where every coin is fair on a binary graph (:func:`_fair_coin`), ``tau``
    comes from the uniforms the loop would compare with 1/2, in the same
    order, and the final I^2 from one exact recompute over the paired
    subjects.  Otherwise it runs :func:`run_design`.
    """
    if not _fair_coin(g, cfg):
        res = run_design(g, cfg)
        return res.tau, res.final_i2
    n = g.n
    if n < 2:
        raise ParameterError("design needs at least 2 subjects")
    rng = np.random.default_rng(cfg.seed)
    pairs = n // 2
    tau = _all_signs(_fair_pairs(rng.random(pairs)), n, rng)
    return tau, imbalance_recompute(g, tau[:2 * pairs])


def _all_signs(paired: np.ndarray | list[int], n: int, rng) -> np.ndarray:
    """int8 signs of all n subjects: the paired ones, then an odd trailing subject's fair coin.

    The trailing coin is one uniform, below 1/2 for +1, drawn after every
    pair's (the odd-n convention, DECISIONS.md D3).
    """
    tau = np.empty(n, dtype=np.int8)
    tau[: len(paired)] = paired
    if n % 2:
        tau[-1] = 1 if rng.random() < 0.5 else -1
    return tau


def _i2_result(g: Graph | CsrGraph, values: np.ndarray) -> np.ndarray:
    """Squared imbalances as a weighted graph's floats, or a binary graph's integers as int64."""
    return values if g.weighted else np.asarray(np.rint(values), dtype=np.int64)


def _fair_coin(g: Graph | CsrGraph, cfg: DesignConfig) -> bool:
    """Whether ``cfg``'s coin is fair on every pair of ``g`` and ``tau`` may skip the loop.

    At effective b = 1/2 each pair's coin is fair whatever its candidates are,
    so ``tau`` depends on the uniforms alone.  Weighted graphs keep the loop:
    a recompute rounds differently from the incremental sums, and their
    outputs are pinned.
    """
    return cfg.effective_b == 0.5 and not g.weighted


def _fair_pairs(u: np.ndarray) -> np.ndarray:
    """Signs of the subjects of the pairs whose uniforms are ``u``, pairs along axis 0.

    A pair gets (+1, -1) when its uniform is below 1/2, as in both loops.
    """
    first = np.where(u < 0.5, 1.0, -1.0)
    return np.stack([first, -first], axis=1).reshape(2 * u.shape[0], *u.shape[1:])


def imbalance_recompute(g: Graph | CsrGraph, tau):
    """Squared imbalance of the signs of the first k subjects by direct multiplication.

    Reference checker for the incremental path, and the fair-coin arms' one
    recompute: the squared norm of A^(k) tau for k = ``len(tau)``, or of each
    column of a (k, r) block of signs, through :func:`graph.matvec`.  A vector
    is read as a one-column block, and each column's squared norm is summed in
    float64 as :func:`run_design_many` sums its finals.  Returns an int for
    binary graphs (int64 per column of a block): every partial sum is an
    integer below 2^53, held exactly (DECISIONS.md D3, "The exact recompute").
    """
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim not in (1, 2):
        raise ParameterError("signs must be a vector or a block of columns")
    if not 1 <= tau.shape[0] <= g.n:
        raise ParameterError(f"{tau.shape[0]} signs invalid for n={g.n}")
    if not np.isin(tau, (-1.0, 1.0)).all():
        raise ParameterError("signs must be +1 or -1")
    s = matvec(g, tau if tau.ndim == 2 else tau[:, None])
    i2 = _i2_result(g, np.einsum("ij,ij->j", s, s))
    return i2 if tau.ndim == 2 else i2[0].item()


def run_design_many(g: Graph | CsrGraph, cfg: DesignConfig, reps: int, *, rng=None) -> np.ndarray:
    """Final squared imbalances of ``reps`` independent runs on a fixed graph.

    Vectorizes the per-step coin across replicates.  The uniforms come as one
    (pairs, reps) block, the doubles of one ``rng.random(reps)`` per pair, and
    replicate r consumes the draws :func:`run_design` does when fed column r
    (property-tested against the scalar engine).  The candidates are ``c + d``
    (pair gets (0,1)) and ``c - d`` (pair gets (1,0)), so the coin reads sign(d)
    against an int8 table of the block.  Reads the graph through a
    :class:`RevealedView`'s walk, which reveals it pair by pair as
    :func:`run_design`'s does, and touches only the new pair's prefix columns N
    (:meth:`RevealedView.pair_blocks`): S and the signs are kept
    subject-major, as ``(n2, reps)`` arrays, so ``s[N]`` and ``tau[N]`` are
    row gathers.  On neighbour lists ``graph.check_exact_bound`` runs before
    the first draw.  S is A tau over the paired prefix, so each final is the
    squared norm of a column of S.  Returns int64 for binary graphs, float64
    for weighted ones.  The odd-n convention applies: a trailing unpaired
    subject never changes the value.  A fair coin on a binary graph
    (:func:`_fair_coin`) takes no loop: the signs come from the uniforms
    alone, and each replicate's I^2 from one recompute.
    """
    n = g.n
    if n < 2:
        raise ParameterError("design needs at least 2 subjects")
    if reps < 1:
        raise ParameterError("reps must be at least 1")
    if isinstance(g, CsrGraph):
        check_exact_bound(g.degrees, n)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    # The loop's per-pair rng.random(reps) blocks, drawn at once in row order.
    u = rng.random((n // 2, reps))
    if _fair_coin(g, cfg):
        return imbalance_recompute(g, _fair_pairs(u))
    bias = cfg.effective_b - 0.5
    # k = 2 #{t in (1/2 + bias, 1/2, 1/2 - bias) : u < t} - 3, so the scalar loop's test
    # u < 1/2 - bias sign(d), which gives the pair (0,1), holds exactly when k - 2 sign(d) > 0.
    k = (u < 0.5 + bias).astype(np.int8)
    for t in (0.5, 0.5 - bias):
        k += u < t  # int8 plus bool counts; bool plus bool would be a logical or
    del u
    k *= 2
    k -= 3
    n2 = n - (n % 2)
    # Subject-major: row j holds subject j's entry of S and its sign in every replicate.
    s = np.zeros((n2, reps), dtype=np.float64)
    tau = np.zeros((n2, reps), dtype=np.float64)
    # Pair m's two rows of each, as one (2, reps) view per pair.
    pair_s, pair_tau = s.reshape(-1, 2, reps), tau.reshape(-1, 2, reps)
    # Dense pairs come with their nonzero columns only, so a pair costs O(|N| reps), not O(L reps).
    # ndarray.dot reaches @'s BLAS routine without the matmul ufunc's dispatch, and a one-term
    # product by +-1 is exact (DECISIONS.md D3, "Why the bytes are the same").
    for k_m, new_s, new_tau, (cols, rows, y, e) in zip(k, pair_s, pair_tau, RevealedView(g).pair_blocks()):
        if cols.size:
            # z0, z1 and e (z0 - z1) in one product.
            p = rows.dot(tau.take(cols, axis=0))
            s_n = s.take(cols, axis=0)
            # d / 2: halving is exact, so its sign is d's.
            # sigma as a 1 x reps row, the right factor of the one-term products.
            sgn = np.sign(k_m - 2.0 * np.sign(p[2] - y.dot(s_n)))[None]
            s_n -= y[:, None].dot(sgn)
            s[cols] = s_n
            _PAIR_SIGNS.dot(sgn, out=new_tau)
            np.multiply(new_tau, e, out=new_s)
            new_s += p[:2]
        else:
            # No prefix neighbours, as for the first pair: d = 0 and the coin is the fair one.
            np.multiply(_PAIR_SIGNS, k_m, out=new_tau)
            np.sign(new_tau, out=new_tau)
            np.multiply(new_tau, e, out=new_s)
    return _i2_result(g, np.einsum("ij,ij->j", s, s))
