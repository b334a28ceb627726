"""The engine and text-path pieces that cheaper ones replaced.

Kept verbatim as test oracles, each under its original name:
`Tensor._accumulate`, which copies every first gradient (a method: it
takes the tensor as `self`); `numerics._segment_sum` with its int64
sort; `numerics.gather_sum` with fancy-index gathers (it calls the
`_segment_sum` below); `numerics.tanh_gather_sum` as `numerics.tanh`
over that `gather_sum`, a graph that keeps the pre-activation rows too;
`model.lattice_cells` with its argsort into final order; the
per-utterance `Encoder.windows` (a method of the encoder);
`numerics.log_sum_exp` with its guarded shift and floored sum on every
call; `model._token_array` with its Python-level flatten and
`model.context_counts` with `np.unique` and `np.add.at`; the engine ops
`numerics.gather_rows` and `numerics.concat`; `EmbeddingDecoder.outputs`
as the graph of two gathers, a concat and an affine map (a method of the
decoder); and `losses.table_nll`, which `log_softmax_nll` below puts
after `numerics.log_softmax`, as every text loss did; `numerics._matmul_rows`
with its concatenated row blocks and `numerics.log_softmax_at` with its
`max` reduction and a second `x - m` in the backward pass; and the
lattice over batch rows in input order, each diagonal over every row and
the whole span of the padded grid (`lattice._diagonal_arcs`, `_span`,
`_alphas`, `_betas` and `lattice_log_prob`).  The new pieces
must give byte-identical arrays, and a whole training step with these
patched back in must give byte-identical gradients.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from mhat import numerics as nm
from mhat.model import ConfigError, LatticeCells, VocabError
from mhat.numerics import MATMUL_BLOCK_ROWS, ShapeError, Tensor, _coerce, _op


def _accumulate(self, g: np.ndarray) -> None:
    if self.grad is None:
        self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64)
    else:
        self.grad += g


def _segment_sum(g: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Row i of `g` added into row ids[i] of an (n, ...) zero array.

    A stable sort by id, then one `np.add.reduceat` over the runs of equal
    ids: each row sum keeps the order of `ids`, with no per-element scatter.
    """
    out = np.zeros((n, *g.shape[1:]))
    if ids.size:
        order = np.argsort(ids, kind="stable")
        s = ids[order]
        starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
        out[s[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return out


def gather_sum(a, ia, b, ib) -> Tensor:
    """Rows a[ia] + b[ib]; only the sum is kept for the backward pass, whose
    gradient sums into the rows of each index as in `gather_rows`."""
    a, b = _coerce(a), _coerce(b)
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(_segment_sum(g, ia, a.data.shape[0]))
        if b.requires_grad:
            b._accumulate(_segment_sum(g, ib, b.data.shape[0]))

    data = a.data[ia]
    data += b.data[ib]
    return _op(data, (a, b), vjp)


def tanh_gather_sum(a, ia, b, ib) -> Tensor:
    """tanh(a[ia] + b[ib]) as two ops: the graph holds both the sums and their tanh."""
    return nm.tanh(gather_sum(a, ia, b, ib))


def _token_array(transcripts: Sequence[Sequence[int]], sos_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Sentence lengths and all tokens concatenated; ids must lie in [0, sos_id)."""
    lengths = np.array([len(y) for y in transcripts], dtype=np.int64)
    toks = np.array([t for y in transcripts for t in y], dtype=np.int64)
    bad = (toks < 0) | (toks >= sos_id)
    if bad.any():
        raise VocabError(f"token id {toks[bad][0]} out of range for |V|={sos_id}")
    return lengths, toks


def context_counts(
    transcripts: Sequence[Sequence[int]], sos_id: int, n_out: int, eos_id: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Next-event counts of a batch, one row per distinct decoder context.

    Returns (contexts, counts): `contexts` holds the distinct (prev2, prev1)
    pairs in ascending order, (k, 2); `counts[i, y]` is how often event y
    follows context i, (k, n_out).  With `eos_id`, every sentence adds one
    event `eos_id` at its final context.  Token ids must lie in [0, sos_id).
    The table depends only on the multiset of sentences, not their order.
    """
    lengths, toks = _token_array(transcripts, sos_id)
    # event i follows the first pos[i] labels of its sentence; the last two
    # of them are padded[at[i] + 1] and padded[at[i]]
    ends = np.cumsum(lengths)
    pos = np.arange(toks.size) - np.repeat(ends - lengths, lengths)
    at, nxt = np.arange(toks.size), toks
    if eos_id is not None:  # one end event after each sentence's last label
        pos, at = np.concatenate([pos, lengths]), np.concatenate([at, ends])
        nxt = np.concatenate([nxt, np.full(lengths.size, eos_id, dtype=np.int64)])
    padded = np.concatenate([[sos_id, sos_id], toks])
    prev1 = np.where(pos >= 1, padded[at + 1], sos_id)
    prev2 = np.where(pos >= 2, padded[at], sos_id)
    keys, row = np.unique(prev2 * (sos_id + 1) + prev1, return_inverse=True)
    counts = np.zeros((keys.size, n_out), dtype=np.int64)
    np.add.at(counts, (row.reshape(-1), nxt), 1)
    return np.stack([keys // (sos_id + 1), keys % (sos_id + 1)], axis=1), counts


def concat(a, b) -> Tensor:
    """Concatenate along the trailing axis."""
    a, b = _coerce(a), _coerce(b)
    na = a.data.shape[-1]
    data = np.concatenate([a.data, b.data], axis=-1)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(g[..., :na])
        if b.requires_grad:
            b._accumulate(g[..., na:])

    return _op(data, (a, b), vjp)


def gather_rows(table, ids) -> Tensor:
    """Row lookup `table[ids]`; the gradient sums the rows of each id."""
    table = _coerce(table)
    ids = np.asarray(ids, dtype=np.int64)
    data = table.data[ids]

    def vjp(g):
        if table.requires_grad:
            rows = g.reshape(ids.size, *table.data.shape[1:])
            table._hand_over(nm._segment_sum(rows, ids.reshape(-1), table.data.shape[0]))

    return _op(data, (table,), vjp)


def outputs(self, ctx: np.ndarray) -> Tensor:
    """Decoder outputs for a batch of (prev2, prev1) context rows."""
    e = concat(gather_rows(self.table0, ctx[..., 0]), gather_rows(self.table1, ctx[..., 1]))
    return nm.affine(e, self.proj_w, self.proj_b)


def table_nll(rows: Tensor, weights: np.ndarray) -> Tensor:
    """-sum(weights * rows), gathered at the non-zero weights only.

    A -inf log-prob that no event uses then cannot turn the sum into NaN.
    """
    r, c = np.nonzero(weights)
    return nm.neg(nm.total(nm.mul(weights[r, c], rows[r, c])))


def log_softmax_nll(logits, weights) -> Tensor:
    return table_nll(nm.log_softmax(logits), weights)


def lattice_cells(t_lens: Sequence[int], transcripts: Sequence[Sequence[int]], sos_id: int) -> LatticeCells:
    """Pack the (T_b, U_b + 1) lattice grids of a batch into one cell list."""
    t_lens = np.asarray(t_lens, dtype=np.int64)
    u_lens, toks = _token_array(transcripts, sos_id)
    sizes = t_lens * (u_lens + 1)
    b = np.repeat(np.arange(t_lens.size), sizes)
    t, u = np.divmod(np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes), u_lens[b] + 1)
    last = u == u_lens[b]
    order = np.argsort(last, kind="stable")
    b, t, u = b[order], t[order], u[order]
    # after u emissions, the context is the u-th pair of bigram_contexts;
    # its labels are padded[at + 1] and padded[at]
    at = (np.cumsum(u_lens) - u_lens)[b] + u
    padded = np.concatenate([[sos_id, sos_id], toks])
    prev1 = np.where(u >= 1, padded[at + 1], sos_id)
    prev2 = np.where(u >= 2, padded[at], sos_id)
    keys, ctx = np.unique(prev2 * (sos_id + 1) + prev1, return_inverse=True)
    n_label = sizes.sum() - np.count_nonzero(last)
    return LatticeCells(
        t_lens=t_lens,
        u_lens=u_lens,
        b=b,
        t=t,
        u=u,
        frame=(np.cumsum(t_lens) - t_lens)[b] + t,
        ctx=ctx.reshape(-1),
        contexts=np.stack([keys // (sos_id + 1), keys % (sos_id + 1)], axis=1),
        labels=toks[at[:n_label]],
    )


def windows(self, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != self.cfg.d_x:
        raise ConfigError(
            f"feature dim mismatch: got {X.shape}, encoder expects (T, {self.cfg.d_x})"
        )
    if not np.isfinite(X).all():
        t, d = np.argwhere(~np.isfinite(X))[0]
        raise ConfigError(f"non-finite feature {X[t, d]!r} at frame {t}")
    t, c = X.shape[0], self.cfg.context
    padded = np.vstack([np.zeros((c, self.cfg.d_x)), X, np.zeros((c, self.cfg.d_x))])
    idx = np.arange(t)[:, None] + np.arange(2 * c + 1)[None, :]
    return padded[idx].reshape(t, (2 * c + 1) * self.cfg.d_x)


_TINY = np.finfo(np.float64).tiny


def log_sum_exp(z, axis=None):
    """Stable log-sum-exp; tolerates -inf entries (empty-path sentinel)."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ShapeError("log_sum_exp: empty input")
    m = z.max(axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    # a sum is >= exp(0) = 1 unless its entries are all -inf, where
    # log(tiny) + m is -inf as well: no log(0)
    out = np.log(np.maximum(np.exp(z - m_safe).sum(axis=axis, keepdims=True), _TINY)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def _matmul_rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m over the trailing axis of `a`, at most MATMUL_BLOCK_ROWS rows per call."""
    rows = a.reshape(-1, a.shape[-1])
    if rows.shape[0] <= MATMUL_BLOCK_ROWS:
        return a @ m
    step = MATMUL_BLOCK_ROWS
    out = np.concatenate([rows[i : i + step] @ m for i in range(0, rows.shape[0], step)])
    return out.reshape(*a.shape[:-1], m.shape[1])


def log_softmax_at(x, ids) -> Tensor:
    """log_softmax(x)[i, ids[i]] for each row i of a 2-D `x`.

    Only the picked entries are stored; the backward pass recomputes the
    softmax from `x`.
    """
    x = _coerce(x)
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(ids.size)
    m = x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(x.data - m).sum(axis=-1, keepdims=True))

    def vjp(g):
        if x.requires_grad:
            grad = np.exp((x.data - m) - lse) * -g[:, None]
            grad[rows, ids] += g
            x._hand_over(grad)

    return _op((x.data[rows, ids] - m[:, 0]) - lse[:, 0], (x,), vjp)


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
