"""The decoding-table fills that the lean fills replaced.

Kept verbatim as test oracles, each under its original name: `_fill` of
the utterance tables (both frame columns, then the label columns),
`_context_rows` and `_label_cols` of the MHAT and HAT scorers, and
`LmScorer._fill`.  They are methods; `MhatTables`, `HatTables` and
`LmTables` give them the attributes they read and fill every context of
every utterance, in rows of their own.  The HAT internal-LM row goes through
the Tensor engine as it did, and every log-sum-exp is the frozen one of
`reference_engine`.  The new tables must equal these byte for byte.
"""

from __future__ import annotations

import numpy as np

from mhat import numerics as nm
from reference_engine import log_sum_exp


def _fill(self, ctx: tuple[int, int], utt: int, row: int) -> None:
    c = ctx[0] * self.width + ctx[1]
    if not self._shared[c]:
        self._w2g[c], self.ilm_rows[c] = self._context_rows(ctx)
        self._shared[c] = True
    self._ctx_of[row] = c
    frame = self.frame_rows[row : row + self.t_lens[utt]]
    j = self.model.joint
    h = np.tanh(self._w1f[utt] + self._w2g[c])  # (T, d_h)
    s = h @ j.v.data + float(j.v_bias.data)
    tail = np.log1p(np.exp(-np.abs(s)))  # softplus(-s) and softplus(s) share it
    np.negative(np.maximum(-s, 0.0) + tail, out=frame[:, 0])
    np.negative(np.maximum(s, 0.0) + tail, out=frame[:, 1])
    self._label_cols(h, self.ilm_rows[c], utt, frame)


def _mhat_context_rows(self, ctx: tuple[int, int]):
    m = self.model
    z = m.ilm_w.data @ m.label_decoder.output_np(ctx) + m.ilm_b.data
    return m.joint.w2.data @ m.blank_decoder.output_np(ctx), z - log_sum_exp(z)


def _mhat_label_cols(self, h: np.ndarray, ilm: np.ndarray, utt: int, frame: np.ndarray) -> None:
    frame[:, 2] = log_sum_exp(self.A[utt, : len(frame)] + ilm, axis=1)


def hat_ilm_log_probs(self, g_u):
    """Internal-LM estimate: the label head with the acoustic embedding zeroed."""
    f0 = np.zeros(self.enc_cfg.d_f)
    h = self.joint.hidden(f0, g_u)
    return nm.log_softmax(nm.affine(h, self.label_w, self.label_b))


def _hat_context_rows(self, ctx: tuple[int, int]):
    m = self.model
    g = m.decoder.output_np(ctx)
    with nm.no_grad():
        return m.joint.w2.data @ g, hat_ilm_log_probs(m, g).data


def _hat_label_cols(self, h: np.ndarray, ilm: np.ndarray, utt: int, frame: np.ndarray) -> None:
    z = h @ self.model.label_w.data.T + self.model.label_b.data
    frame[:, 2:] = z - log_sum_exp(z, axis=1)[:, None]


def _lm_fill(self, ctx: tuple[int, int], utt: int, row: int) -> None:
    g = self.lm.decoder.output_np(ctx)
    z = self.lm.out_w.data @ g + self.lm.out_b.data
    self.log_prob_rows[row] = z - log_sum_exp(z)


class _Tables:
    """Every context of every utterance of `xs`, filled by the frozen fills:
    context c of utterance u owns the frame rows from `first_row(u, c)`."""

    _fill = _fill

    def __init__(self, model, xs, label_cols: int):
        with nm.no_grad():
            Fs = [model.encode(x).data for x in xs]
        j = model.joint
        self.model = model
        self._w1f = [F @ j.w1.data.T + j.hidden_bias.data for F in Fs]
        self.t_lens = [F.shape[0] for F in Fs]
        self.t_len = max(self.t_lens)
        self.width = model.vocab.size + 1
        self.n_ctx = self.width * self.width
        self._shared = np.zeros(self.n_ctx, dtype=bool)
        self._w2g, self.ilm_rows = np.empty((self.n_ctx, j.w2.data.shape[0])), np.empty((self.n_ctx, model.vocab.size))
        self._ctx_of: dict[int, int] = {}
        self.frame_rows = np.zeros((len(xs) * self.n_ctx * self.t_len, 2 + label_cols))
        self.Fs = Fs

    def first_row(self, utt: int, c: int) -> int:
        return (utt * self.n_ctx + c) * self.t_len

    def fill_all(self):
        for utt in range(len(self.t_lens)):
            for c in range(self.n_ctx):
                self._fill(divmod(c, self.width), utt, self.first_row(utt, c))
        return self


class MhatTables(_Tables):
    _context_rows = _mhat_context_rows
    _label_cols = _mhat_label_cols

    def __init__(self, model, xs):
        super().__init__(model, xs, 1)
        with nm.no_grad():
            As = [model.am_log_probs(F).data for F in self.Fs]
        self.A = np.zeros((len(As), self.t_len, model.vocab.size))
        for u, a in enumerate(As):
            self.A[u, : len(a)] = a


class HatTables(_Tables):
    _context_rows = _hat_context_rows
    _label_cols = _hat_label_cols

    def __init__(self, model, xs):
        super().__init__(model, xs, model.vocab.size)


class LmTables:
    """Row c holds context c's next-event log-probs."""

    _fill = _lm_fill

    def __init__(self, lm):
        self.lm = lm
        width = lm.vocab.size + 1
        self.log_prob_rows = np.zeros((width * width, lm.vocab.size + 1))
        for c in range(width * width):
            self._fill(divmod(c, width), 0, c)
