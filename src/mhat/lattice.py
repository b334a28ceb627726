"""Exact alignment-lattice log-likelihood, its gradients, and an enumeration oracle.

Lattice convention: node (t, u) means frame t is about to be consumed and u
labels have been emitted, for t in [1..T], u in [0..U].  A blank arc
(t, u) -> (t+1, u) consumes frame t; a label arc (t, u) -> (t, u+1) emits
label u+1 without consuming a frame.  Every alignment ends with a mandatory
final blank at (T, U) that consumes the last frame.

A batch is one dynamic program: the model scores arcs only at the packed
valid cells of every utterance, those scores are scattered into -inf-padded
grids laid out by anti-diagonal, and alpha and beta run once over the
diagonals in plain numpy.  The grid rows are the utterances in descending
order of T + U, so each diagonal fills only the box of rows that reach it
and of columns their nodes can occupy; every node outside stays -inf.
The gradient of each utterance's marginal log-probability with respect to
each arc log-score is its posterior occupancy, wired into the engine as a
custom backward rule.  `forward_log_prob` scores one utterance as a batch
of one.  `build_lattice` and the enumeration oracle are the per-node
reference: they read arc scores that `node_arc_scores` takes from the
single-step heads, and `build_lattice` runs alpha and beta node by node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .model import HatModel, LatticeCells, MhatModel, label_posterior
from .numerics import Tensor


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


def _row_order(t_lens: np.ndarray, u_lens: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice rows: the batch in stable descending order of T_b + U_b.

    Returns the row of each batch position and T and U in row order."""
    order = np.argsort(-(t_lens + u_lens), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank, t_lens[order], u_lens[order]


def _diagonal_arcs(
    t_lens: np.ndarray, u_lens: np.ndarray, rows: np.ndarray, t: np.ndarray, u: np.ndarray,
    log_blank: np.ndarray, log_label: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter arc scores into -inf-padded arrays laid out by anti-diagonal.

    Cell i sits in lattice row rows[i] at frame t[i] (0-based) and label
    count u[i]; `t_lens` and `u_lens` are in row order, and the first
    `log_label.size` cells carry label arcs.  The arc out of node
    (t + 1, u) of row r lands at [t + 1 + u, r, u + 1] of a
    (max T+U + 2, B, U_max + 3) array, flat index
    ((t + 1 + u) * B + r) * (U_max + 3) + u + 1; the outer rows and columns
    stay -inf.  Returns (blank, label, flat index of each cell).
    """
    n_rows, width = t_lens.size, u_lens.max() + 3
    at = ((t + 1 + u) * n_rows + rows) * width + u + 1
    shape = ((t_lens + u_lens).max() + 2, n_rows, width)
    blank = np.full(shape, -np.inf)
    blank.reshape(-1)[at] = log_blank
    label = np.full(shape, -np.inf)
    label.reshape(-1)[at[: log_label.size]] = log_label
    return blank, label, at


def _bounds(t_lens: np.ndarray, u_lens: np.ndarray) -> list[tuple[int, int, int]]:
    """(m, lo, hi) of each diagonal k = t + u up to max T+U, for T and U in
    row order: rows [:m] reach diagonal k, and their nodes on it lie in
    columns u + 1 of [lo, hi).  Every other node of the diagonal is -inf."""
    ends = t_lens + u_lens
    k = np.arange(ends[0] + 1)
    m = np.searchsorted(-ends, -k, side="right")  # rows with T + U >= k
    t_max = np.maximum.accumulate(t_lens)[m - 1]
    u_max = np.maximum.accumulate(u_lens)[m - 1]
    lo = np.maximum(0, k - t_max) + 1
    hi = np.minimum(u_max, k - 1) + 2
    return list(zip(m.tolist(), lo.tolist(), hi.tolist()))


def _alphas(blank: np.ndarray, label: np.ndarray, bounds: list[tuple[int, int, int]]) -> np.ndarray:
    """Forward log-masses by anti-diagonal: alpha[t + u, r, u + 1] is node (t, u).

    Both predecessors of a node lie on the previous diagonal, so each
    diagonal is one slice operation over its box of `bounds`.  A node
    without a blank (t = 1) or label (u = 0) predecessor reads a -inf cell,
    which leaves `logaddexp` of the other term exact.
    """
    alpha = np.full(blank.shape, -np.inf)
    alpha[1, :, 1] = 0.0
    for k in range(2, len(bounds)):
        m, lo, hi = bounds[k]
        prev = alpha[k - 1, :m]
        alpha[k, :m, lo:hi] = np.logaddexp(
            prev[:, lo:hi] + blank[k - 1, :m, lo:hi], prev[:, lo - 1 : hi - 1] + label[k - 1, :m, lo - 1 : hi - 1]
        )
    return alpha


def _betas(
    blank: np.ndarray, label: np.ndarray, t_lens: np.ndarray, u_lens: np.ndarray, bounds: list[tuple[int, int, int]]
) -> np.ndarray:
    """Backward log-masses, laid out as `_alphas`.  Each row starts from its
    sink (T_b + 1, U_b) at mass 0: only its final blank reaches the sink, and
    no diagonal's box covers it.  Other last-frame blanks reach -inf cells."""
    beta = np.full(blank.shape, -np.inf)
    beta[t_lens + u_lens + 1, np.arange(t_lens.size), u_lens + 1] = 0.0
    for k in range(len(bounds) - 1, 0, -1):
        m, lo, hi = bounds[k]
        nxt = beta[k + 1, :m]
        beta[k, :m, lo:hi] = np.logaddexp(
            nxt[:, lo:hi] + blank[k, :m, lo:hi], nxt[:, lo + 1 : hi + 1] + label[k, :m, lo:hi]
        )
    return beta


def lattice_log_prob(log_blank: Tensor, log_label: Tensor, cells: LatticeCells) -> Tensor:
    """Marginal log-probability of every utterance of a batch, (B,), differentiable.

    One padded forward pass covers the batch; log P of a row is alpha at its
    last node plus its final blank.  The backward rule weights each arc by
    its posterior occupancy, alpha at its source plus beta at its target,
    times the upstream gradient of its utterance.
    """
    b, t, u, n = cells.b, cells.t, cells.u, cells.n_label
    rank, t_lens, u_lens = _row_order(cells.t_lens, cells.u_lens)
    blank, label, at = _diagonal_arcs(t_lens, u_lens, rank[b], t, u, log_blank.data, log_label.data)
    bounds = _bounds(t_lens, u_lens)
    alpha = _alphas(blank, label, bounds)
    end = t_lens + u_lens, np.arange(t_lens.size), u_lens + 1
    tot = (alpha[end] + blank[end])[rank]

    def vjp(g):
        beta = _betas(blank, label, t_lens, u_lens, bounds).reshape(-1)
        step = blank.shape[1] * blank.shape[2]  # one diagonal: at + step is the blank target
        src = alpha.reshape(-1)[at]
        if log_blank.requires_grad:
            gb = np.exp(src + log_blank.data + beta[at + step] - tot[b])
            log_blank._hand_over(g[b] * gb)
        if log_label.requires_grad and n:
            gl = np.exp(src[:n] + log_label.data + beta[at[:n] + step + 1] - tot[b[:n]])
            log_label._hand_over(g[b[:n]] * gl)

    return nm._op(tot, (log_blank, log_label), vjp)


def batch_log_probs(model: MhatModel | HatModel, batch: Sequence[tuple[np.ndarray, Sequence[int]]]) -> Tensor:
    """log P(tokens | X) of every item, (B,), graph-attached."""
    if not batch:
        return Tensor(np.zeros(0))
    return lattice_log_prob(*model.arc_log_scores(batch))


def forward_log_prob(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> Tensor:
    """log P(tokens | X) by the forward recursion; scalar, graph-attached.
    NaN or +inf raises EvaluationError; -inf from underflow is legal."""
    out = nm.total(batch_log_probs(model, [(X, tokens)]))
    nm.check_log_prob(float(out.data), "forward_log_prob")
    return out


def node_arc_scores(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Blank (T, U+1) and label (T, U) arc log-scores of one utterance.

    Entry [t-1, u] scores the arc out of node (t, u).  The scores come from
    the single-step public heads, one decoder call per prefix, and not from
    the batched `arc_log_scores`, so whatever reads them checks that too.
    """
    X, _ = model.encoder.frames([X])
    model.vocab.check_ids(tokens)
    u_len = len(tokens)
    log_blank, log_label = np.empty((len(X), u_len + 1)), np.empty((len(X), u_len))
    with nm.no_grad():
        F = model.encode(X).data
        for u in range(u_len + 1):
            if isinstance(model, MhatModel):
                g, ilm = model.decode_blank(tokens[:u]), model.ilm_log_probs(model.decode_label(tokens[:u]))
                heads = [(model.blank_logit(f, g).item(), label_posterior(model.am_log_probs(f), ilm)) for f in F]
            else:
                g = model.decode_state(tokens[:u])
                heads = [(model.blank_logit(f, g).item(), model.hat_joint(f, g)[1]) for f in F]
            s = np.array([logit for logit, _ in heads])
            log_blank[:, u] = nm.log_sigmoid(s).data
            if u < u_len:
                log_label[:, u] = nm.log_sigmoid(-s).data + [labels.data[tokens[u]] for _, labels in heads]
    return log_blank, log_label


def build_lattice(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> AlignmentLattice:
    """The arc scores of `node_arc_scores` and both recursions, node by node:
    the per-node reference for the batched diagonals of `lattice_log_prob`.
    A log P of NaN or +inf raises EvaluationError."""
    log_blank, log_label = node_arc_scores(model, X, tokens)
    t_len, u_len = log_label.shape
    alpha, beta = np.full((2, t_len + 1, u_len + 1), -np.inf)
    alpha[1, 0], beta[t_len, u_len] = 0.0, log_blank[t_len - 1, u_len]
    for t, u in itertools.product(range(1, t_len + 1), range(u_len + 1)):
        if t + u > 1:  # every node but the origin
            alpha[t, u] = np.logaddexp(alpha[t - 1, u] + log_blank[t - 2, u] if t > 1 else -np.inf,
                                       alpha[t, u - 1] + log_label[t - 1, u - 1] if u else -np.inf)
    for t, u in itertools.product(range(t_len, 0, -1), range(u_len, -1, -1)):
        if t + u < t_len + u_len:  # every node but the last
            beta[t, u] = np.logaddexp(beta[t + 1, u] + log_blank[t - 1, u] if t < t_len else -np.inf,
                                      beta[t, u + 1] + log_label[t - 1, u] if u < u_len else -np.inf)
    log_prob = nm.check_log_prob(float(alpha[t_len, u_len] + log_blank[t_len - 1, u_len]), "build_lattice")
    return AlignmentLattice(t_len, u_len, log_blank, log_label, alpha, beta, log_prob)


def brute_force_log_prob(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> float:
    """Enumeration oracle: sum over every monotone alignment explicitly.

    The arc scores are `node_arc_scores`, so the oracle also cross-checks
    grid assembly.  Refuses instances beyond T+U <= 12.
    """
    log_blank, log_label = node_arc_scores(model, X, tokens)
    t_len, u_len = log_label.shape
    if t_len + u_len > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute_force_log_prob refuses T+U={t_len + u_len} > {BRUTE_FORCE_LIMIT}")
    paths = []
    n_arcs = t_len + u_len - 1  # before the forced final blank
    for label_positions in itertools.combinations(range(n_arcs), u_len):
        t, u, score = 0, 0, 0.0
        for arc in range(n_arcs):
            if arc in label_positions:
                score += log_label[t, u]
                u += 1
            else:
                score += log_blank[t, u]
                t += 1
        paths.append(score + log_blank[t, u])
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
    model.encoder.frames([x for x, _ in batch])  # before reordering: an error names the caller's position
    return nm.neg(nm.total(batch_log_probs(model, [batch[i] for i in canonical_order(batch)])))
