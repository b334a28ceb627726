"""Exact alignment-lattice log-likelihood, its gradients, and an enumeration oracle.

Lattice convention: node (t, u) means frame t is about to be consumed and u
labels have been emitted, for t in [1..T], u in [0..U].  A blank arc
(t, u) -> (t+1, u) consumes frame t; a label arc (t, u) -> (t, u+1) emits
label u+1 without consuming a frame.  Every alignment ends with a mandatory
final blank at (T, U) that consumes the last frame.

A batch is one dynamic program: the model scores arcs only at the packed
valid cells of every utterance, those scores are scattered into -inf-padded
(B, T_max, U_max + 1) grids, and alpha and beta run once over their
anti-diagonals in plain numpy.  The gradient of each utterance's marginal
log-probability with respect to each arc log-score is its posterior
occupancy, wired into the engine as a custom backward rule.  A single
utterance is a batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .model import HatModel, LatticeCells, MhatModel, label_posterior
from .numerics import Tensor


class StructureError(ValueError):
    """No alignment exists for the requested (T, U) pair."""


BRUTE_FORCE_LIMIT = 12  # max T+U accepted by the enumeration oracle


@dataclass
class AlignmentLattice:
    """Arc scores plus forward/backward quantities for one utterance.

    `log_alpha[t, u]` is the log mass of partial alignments reaching node
    (t, u); row 0 is an unused -inf boundary so the array is (T+1, U+1).
    `log_blank[t-1, u]` / `log_label[t-1, u]` hold the arc log-scores out
    of node (t, u).
    """

    t_len: int
    u_len: int
    log_blank: np.ndarray  # (T, U+1)
    log_label: np.ndarray  # (T, U)
    log_alpha: np.ndarray  # (T+1, U+1)
    log_beta: np.ndarray  # (T+1, U+1)
    log_prob: float


def _diagonal_arcs(
    t_lens: np.ndarray, u_lens: np.ndarray, blank_at: tuple, log_blank: np.ndarray, label_at: tuple, log_label: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter arc scores into -inf-padded arrays laid out by anti-diagonal.

    `blank_at` and `label_at` hold the (b, t, u) cell of each score, t
    0-based.  The arc out of node (t + 1, u) of utterance b lands at
    [t + 1 + u, b, u + 1] of a (T_max + U_max + 2, B, U_max + 3) array;
    the outer rows and columns stay -inf.  Returns (blank, label, final):
    blank arcs out of an utterance's last frame are left out, and its
    final blank, the mandatory terminal arc out of (T_b, U_b), is
    returned per utterance instead.
    """
    shape = (t_lens.max() + u_lens.max() + 2, t_lens.size, u_lens.max() + 3)
    b, t, u = blank_at
    last = t == t_lens[b] - 1
    final = np.empty(t_lens.size)
    end = last & (u == u_lens[b])
    final[b[end]] = log_blank[end]
    blank = np.full(shape, -np.inf)
    blank[t[~last] + 1 + u[~last], b[~last], u[~last] + 1] = log_blank[~last]
    label = np.full(shape, -np.inf)
    b, t, u = label_at
    label[t + 1 + u, b, u + 1] = log_label
    return blank, label, final


def _span(k: int, shape: tuple[int, ...]) -> tuple[int, int]:
    """The columns u + 1 of the nodes (k - u, u) on diagonal k inside the grid."""
    u_max = shape[2] - 3
    t_max = shape[0] - u_max - 2
    return max(0, k - t_max) + 1, min(u_max, k - 1) + 2


def _alphas(blank: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Forward log-masses by anti-diagonal: alpha[t + u, b, u + 1] is node (t, u).

    Both predecessors of a node lie on the previous diagonal, so each
    diagonal is one slice operation.  A node without a blank (t = 1) or
    label (u = 0) predecessor reads a -inf cell, which leaves `logaddexp`
    of the other term exact.
    """
    alpha = np.full(blank.shape, -np.inf)
    alpha[1, :, 1] = 0.0
    for k in range(2, blank.shape[0] - 1):
        lo, hi = _span(k, blank.shape)
        prev = alpha[k - 1]
        alpha[k, :, lo:hi] = np.logaddexp(
            prev[:, lo:hi] + blank[k - 1, :, lo:hi], prev[:, lo - 1 : hi - 1] + label[k - 1, :, lo - 1 : hi - 1]
        )
    return alpha


def _betas(blank: np.ndarray, label: np.ndarray, final: np.ndarray, t_lens: np.ndarray, u_lens: np.ndarray) -> np.ndarray:
    """Backward log-masses, laid out as `_alphas`.  Each utterance starts
    at its own final node (T_b, U_b), whose mass is its final blank."""
    beta = np.full(blank.shape, -np.inf)
    ends = t_lens + u_lens
    ending = {int(k): np.flatnonzero(ends == k) for k in np.unique(ends)}
    for k in range(blank.shape[0] - 2, 0, -1):
        lo, hi = _span(k, blank.shape)
        nxt = beta[k + 1]
        beta[k, :, lo:hi] = np.logaddexp(
            nxt[:, lo:hi] + blank[k, :, lo:hi], nxt[:, lo + 1 : hi + 1] + label[k, :, lo:hi]
        )
        if k in ending:
            done = ending[k]
            beta[k, done, u_lens[done] + 1] = final[done]
    return beta


def _node_grid(by_diagonal: np.ndarray, t_len: int, u_len: int) -> np.ndarray:
    """Nodes (t, u) of the first utterance as a (T + 1, U + 1) grid; row 0 is -inf."""
    t, u = np.ogrid[: t_len + 1, : u_len + 1]
    return by_diagonal[t + u, 0, u + 1]


def lattice_log_prob(log_blank: Tensor, log_label: Tensor, cells: LatticeCells) -> Tensor:
    """Marginal log-probability of every utterance of a batch, (B,), differentiable.

    One padded forward pass covers the batch.  The backward rule weights
    each arc by its posterior occupancy, alpha at its source plus beta at
    its target, times the upstream gradient of its utterance; the
    mandatory final blank has occupancy one.
    """
    t_lens, u_lens, n = cells.t_lens, cells.u_lens, cells.n_label
    b, t, u = cells.b, cells.t, cells.u
    blank, label, final = _diagonal_arcs(
        t_lens, u_lens, (b, t, u), log_blank.data, (b[:n], t[:n], u[:n]), log_label.data
    )
    alpha = _alphas(blank, label)
    tot = alpha[t_lens + u_lens, np.arange(t_lens.size), u_lens + 1] + final

    def vjp(g):
        beta = _betas(blank, label, final, t_lens, u_lens)
        k, c = t + 1 + u, u + 1  # each cell's source node (t + 1, u) sits at [k, b, c]
        src = alpha[k, b, c]
        if log_blank.requires_grad:
            # a blank out of the last frame reaches a -inf beta cell
            gb = np.exp(src + log_blank.data + beta[k + 1, b, c] - tot[b])
            gb[(t == t_lens[b] - 1) & (u == u_lens[b])] += 1.0
            log_blank._hand_over(g[b] * gb)
        if log_label.requires_grad and n:
            gl = np.exp(src[:n] + log_label.data + beta[k[:n] + 1, b[:n], c[:n] + 1] - tot[b[:n]])
            log_label._hand_over(g[b[:n]] * gl)

    return nm._op(tot, (log_blank, log_label), vjp)


def check_structure(X: np.ndarray, tokens: Sequence[int]) -> None:
    """Raise StructureError when no alignment exists: every path needs a frame."""
    if np.asarray(X).shape[0] < 1:
        raise StructureError(
            f"no alignment exists for T={np.asarray(X).shape[0]}, U={len(tokens)}"
        )


def batch_log_probs(model: MhatModel | HatModel, batch: Sequence[tuple[np.ndarray, Sequence[int]]]) -> Tensor:
    """log P(tokens | X) of every item, (B,), graph-attached."""
    if not batch:
        return Tensor(np.zeros(0))
    for x, y in batch:
        check_structure(x, y)
    return lattice_log_prob(*model.arc_log_scores(batch))


def forward_log_prob(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> Tensor:
    """log P(tokens | X) by the forward recursion; scalar, graph-attached."""
    return nm.total(batch_log_probs(model, [(X, tokens)]))


def build_lattice(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> AlignmentLattice:
    """Materialize arc scores and both recursions for inspection and tests."""
    check_structure(X, tokens)
    with nm.no_grad():
        log_blank, log_label, cells = model.arc_log_scores([(X, tokens)])
    t_lens, u_lens, n = cells.t_lens, cells.u_lens, cells.n_label
    t_len, u_len = int(t_lens[0]), int(u_lens[0])
    b, t, u = cells.b, cells.t, cells.u
    blank, label, final = _diagonal_arcs(
        t_lens, u_lens, (b, t, u), log_blank.data, (b[:n], t[:n], u[:n]), log_label.data
    )
    lb = np.empty((t_len, u_len + 1))
    lb[t, u] = log_blank.data
    ll = np.empty((t_len, u_len))
    ll[t[:n], u[:n]] = log_label.data
    alpha = _node_grid(_alphas(blank, label), t_len, u_len)
    return AlignmentLattice(
        t_len=t_len,
        u_len=u_len,
        log_blank=lb,
        log_label=ll,
        log_alpha=alpha,
        log_beta=_node_grid(_betas(blank, label, final, t_lens, u_lens), t_len, u_len),
        log_prob=float(alpha[t_len, u_len] + final[0]),
    )


def brute_force_log_prob(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> float:
    """Enumeration oracle: sum over every monotone alignment explicitly.

    Arc scores come from the single-step public heads (not the vectorized
    grid builder), so the oracle also cross-checks grid assembly.  Refuses
    instances beyond T+U <= 12.
    """
    check_structure(X, tokens)
    X = np.asarray(X, dtype=np.float64)
    t_len, u_len = X.shape[0], len(tokens)
    if t_len + u_len > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute_force_log_prob refuses T+U={t_len + u_len} > {BRUTE_FORCE_LIMIT}"
        )

    with nm.no_grad():
        f_rows = model.encode(X).data

        blank_cache: dict[tuple[int, int], float] = {}
        label_cache: dict[tuple[int, int], float] = {}

        def log_b(t: int, u: int) -> float:
            key = (t, u)
            if key not in blank_cache:
                prefix = tokens[:u]
                if isinstance(model, MhatModel):
                    b = model.blank_posterior(f_rows[t - 1], model.decode_blank(prefix))
                else:
                    b, _ = model.hat_joint(f_rows[t - 1], model.decode_state(prefix))
                blank_cache[key] = math.log(b)
                label_cache[key] = math.log1p(-b)
            return blank_cache[key]

        def log_label_arc(t: int, u: int) -> float:
            log_b(t, u)  # fill caches
            prefix = tokens[:u]
            if isinstance(model, MhatModel):
                post = label_posterior(
                    model.am_log_probs(f_rows[t - 1]),
                    model.ilm_log_probs(model.decode_label(prefix)),
                ).data
            else:
                _, lab = model.hat_joint(f_rows[t - 1], model.decode_state(prefix))
                post = lab.data
            return label_cache[(t, u)] + float(post[tokens[u]])

        paths = []
        n_arcs = t_len + u_len - 1  # before the forced final blank
        for label_positions in itertools.combinations(range(n_arcs), u_len):
            label_set = set(label_positions)
            t, u = 1, 0
            score = 0.0
            for arc in range(n_arcs):
                if arc in label_set:
                    score += log_label_arc(t, u)
                    u += 1
                else:
                    score += log_b(t, u)
                    t += 1
            score += log_b(t_len, u_len)
            paths.append(score)
    return nm.log_sum_exp(np.array(paths))


def canonical_order(batch: Sequence[tuple[np.ndarray, Sequence[int]]]) -> list[int]:
    """Batch positions sorted by T, then U, then tokens, then feature bytes.

    Items that tie on every key are identical, so the order depends only
    on the multiset of items.
    """

    def key(i):
        x, y = batch[i]
        return len(x), len(y), tuple(int(v) for v in y), np.asarray(x, dtype=np.float64).tobytes()

    return sorted(range(len(batch)), key=key)


def hat_loss(model: MhatModel | HatModel, batch: Sequence[tuple[np.ndarray, Sequence[int]]]) -> Tensor:
    """Summed negative sequence log-likelihood over a batch.

    The batch is scored in canonical order, so the loss and every gradient
    are bit-exact under batch permutation.
    """
    if not batch:
        return Tensor(0.0)
    return nm.neg(nm.total(batch_log_probs(model, [batch[i] for i in canonical_order(batch)])))
