"""The engine and text-path pieces that cheaper ones replaced.

Kept verbatim as test oracles, each under its original name:
`Tensor._accumulate`, which copies every first gradient (a method: it
takes the tensor as `self`); `numerics._segment_sum` with its int64
sort; `numerics.gather_sum` with fancy-index gathers (it calls the
`_segment_sum` below); `model.lattice_cells` with its argsort into final
order; the per-utterance `Encoder.windows` (a method of the encoder);
`numerics.log_sum_exp` with its guarded shift and floored sum on every
call; `model._token_array` with its Python-level flatten and
`model.context_counts` with `np.unique` and `np.add.at`; the engine ops
`numerics.gather_rows` and `numerics.concat`; `EmbeddingDecoder.outputs`
as the graph of two gathers, a concat and an affine map (a method of the
decoder); and `losses.table_nll`, which `log_softmax_nll` below puts
after `numerics.log_softmax`, as every text loss did.  The new pieces
must give byte-identical arrays, and a whole training step with these
patched back in must give byte-identical gradients.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from mhat import numerics as nm
from mhat.model import ConfigError, LatticeCells, VocabError
from mhat.numerics import ShapeError, Tensor, _coerce, _op


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
