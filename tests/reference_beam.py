"""The dict-based beam search and scorers that the array search replaced.

Kept verbatim as a test oracle: one hypothesis object per candidate, one
dict cache per scorer, and each round ranked by a stable `sorted`.  The
array search in `mhat.decode` must return bit-identical ranked results.
Only the scorer construction in `beam_search` differs from the original,
so that this copy uses the scorers below; `_log_sum_exp` is a copy of
`numerics.log_sum_exp` as it was, so the oracle does not share the
normaliser of the tables it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mhat import numerics as nm
from mhat.decode import MAX_LABELS_PER_FRAME, NO_FUSION, DecodeResult, FusionConfig, _check_lm_vocab
from mhat.extlm import ExternalLm
from mhat.model import ConfigError, HatModel, MhatModel, context_of


def _log_sum_exp(z, axis=None):
    """Stable log-sum-exp; tolerates -inf entries (empty-path sentinel)."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("log_sum_exp: empty input")
    m = np.max(z, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(z - m_safe).sum(axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def _softplus_np(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class MhatScorer:
    """Per-utterance incremental scorer for decoding (no gradient graphs).

    Caches the encoder pass, the acoustic log-prob rows, and per-context
    decoder quantities keyed by the (prev2, prev1) label pair.
    """

    def __init__(self, model: MhatModel, X: np.ndarray):
        self.model = model
        with nm.no_grad():
            F = model.encode(X).data
            self.A = model.am_log_probs(F).data  # (T, |V|)
        j = model.joint
        self._w1f = F @ j.w1.data.T + j.hidden_bias.data  # (T, d_h)
        self._blank_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._ilm_cache: dict[tuple[int, int], np.ndarray] = {}
        self.t_len = F.shape[0]

    def context(self, prefix: Sequence[int]) -> tuple[int, int]:
        return context_of(prefix, self.model.vocab.sos_id)

    def _blank(self, ctx: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        hit = self._blank_cache.get(ctx)
        if hit is None:
            j = self.model.joint
            g = self.model.blank_decoder.output_np(ctx)
            s = np.tanh(self._w1f + j.w2.data @ g) @ j.v.data + float(j.v_bias.data)
            hit = (-_softplus_np(-s), -_softplus_np(s))  # (log b, log(1-b)) per frame
            self._blank_cache[ctx] = hit
        return hit

    def log_blank(self, t: int, ctx: tuple[int, int]) -> float:
        return float(self._blank(ctx)[0][t])

    def log_keep(self, t: int, ctx: tuple[int, int]) -> float:
        return float(self._blank(ctx)[1][t])

    def ilm_log_probs(self, ctx: tuple[int, int]) -> np.ndarray:
        hit = self._ilm_cache.get(ctx)
        if hit is None:
            m = self.model
            g = m.label_decoder.output_np(ctx)
            z = m.ilm_w.data @ g + m.ilm_b.data
            hit = z - _log_sum_exp(z)
            self._ilm_cache[ctx] = hit
        return hit

    def label_log_posteriors(self, t: int, ctx: tuple[int, int]) -> np.ndarray:
        z = self.A[t] + self.ilm_log_probs(ctx)
        return z - _log_sum_exp(z)


class HatScorer:
    """Per-utterance incremental scorer for the baseline HAT."""

    def __init__(self, model: HatModel, X: np.ndarray):
        self.model = model
        with nm.no_grad():
            F = model.encode(X).data
        j = model.joint
        self._w1f = F @ j.w1.data.T + j.hidden_bias.data
        self._ctx_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._ilm_cache: dict[tuple[int, int], np.ndarray] = {}
        self.t_len = F.shape[0]

    def context(self, prefix: Sequence[int]) -> tuple[int, int]:
        return context_of(prefix, self.model.vocab.sos_id)

    def _per_ctx(self, ctx: tuple[int, int]):
        hit = self._ctx_cache.get(ctx)
        if hit is None:
            m = self.model
            j = m.joint
            g = m.decoder.output_np(ctx)
            h = np.tanh(self._w1f + j.w2.data @ g)  # (T, d_h)
            s = h @ j.v.data + float(j.v_bias.data)
            z = h @ m.label_w.data.T + m.label_b.data
            labels = z - _log_sum_exp(z, axis=1)[:, None]
            hit = (-_softplus_np(-s), -_softplus_np(s), labels)
            self._ctx_cache[ctx] = hit
        return hit

    def log_blank(self, t: int, ctx: tuple[int, int]) -> float:
        return float(self._per_ctx(ctx)[0][t])

    def log_keep(self, t: int, ctx: tuple[int, int]) -> float:
        return float(self._per_ctx(ctx)[1][t])

    def label_log_posteriors(self, t: int, ctx: tuple[int, int]) -> np.ndarray:
        return self._per_ctx(ctx)[2][t]

    def ilm_log_probs(self, ctx: tuple[int, int]) -> np.ndarray:
        hit = self._ilm_cache.get(ctx)
        if hit is None:
            m = self.model
            with nm.no_grad():
                hit = m.hat_ilm_log_probs(m.decoder.output_np(ctx)).data
            self._ilm_cache[ctx] = hit
        return hit



class LmScorer:
    """Context-cached next-event distributions for beam search."""

    def __init__(self, lm: ExternalLm):
        self.lm = lm
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def next_log_probs(self, ctx: tuple[int, int]) -> np.ndarray:
        hit = self._cache.get(ctx)
        if hit is None:
            g = self.lm.decoder.output_np(ctx)
            z = self.lm.out_w.data @ g + self.lm.out_b.data
            hit = z - _log_sum_exp(z)
            self._cache[ctx] = hit
        return hit



@dataclass
class BeamHypothesis:
    tokens: tuple[int, ...]
    model_lp: float
    ext_lp: float = 0.0
    ilm_lp: float = 0.0
    finalized: bool = False

    def combined(self, fusion: FusionConfig) -> float:
        return (
            self.model_lp
            + fusion.lam_ext * self.ext_lp
            - fusion.effective_lam_ilm * self.ilm_lp
        )


def _merge(pool: dict, tokens: tuple[int, ...], model_lp: float, ext_lp: float, ilm_lp: float):
    hyp = pool.get(tokens)
    if hyp is None:
        pool[tokens] = BeamHypothesis(tokens, model_lp, ext_lp, ilm_lp)
    else:
        # same prefix, different alignments: model mass adds, LM terms coincide
        hyp.model_lp = float(np.logaddexp(hyp.model_lp, model_lp))


def _rank_key(fusion: FusionConfig):
    def key(item: tuple[tuple[int, ...], BeamHypothesis]):
        tokens, hyp = item
        return (-hyp.combined(fusion), len(tokens), tokens)

    return key


def beam_search(
    model: MhatModel | HatModel,
    X: np.ndarray,
    beam_width: int = 8,
    fusion: FusionConfig = NO_FUSION,
    max_labels_per_frame: int = MAX_LABELS_PER_FRAME,
) -> list[DecodeResult]:
    """Ranked hypotheses with separately tracked score components.

    Checks X as the array search does, with `Encoder.frames`: T=0 raises
    StructureError, like the lattice: no alignment exists.
    """
    if beam_width < 1:
        raise ConfigError("beam width must be >= 1")
    _check_lm_vocab(model, fusion)
    model.encoder.frames([X])
    scorer = (MhatScorer if isinstance(model, MhatModel) else HatScorer)(model, X)
    lm_scorer = LmScorer(fusion.lm) if fusion.lm is not None else None
    v = model.vocab.size
    key = _rank_key(fusion)

    pool: dict[tuple[int, ...], BeamHypothesis] = {(): BeamHypothesis((), 0.0)}
    for t in range(scorer.t_len):
        advanced: dict[tuple[int, ...], BeamHypothesis] = {}
        active = pool
        for round_no in range(max_labels_per_frame + 1):
            if not active:
                break
            fresh: dict[tuple[int, ...], BeamHypothesis] = {}
            for tokens, hyp in active.items():
                ctx = scorer.context(tokens)
                _merge(advanced, tokens, hyp.model_lp + scorer.log_blank(t, ctx), hyp.ext_lp, hyp.ilm_lp)
                if round_no == max_labels_per_frame:
                    continue
                base = hyp.model_lp + scorer.log_keep(t, ctx)
                lab = scorer.label_log_posteriors(t, ctx)
                ilm_row = scorer.ilm_log_probs(ctx)
                ext_row = lm_scorer.next_log_probs(ctx) if lm_scorer is not None else None
                for k in range(v):
                    _merge(
                        fresh,
                        tokens + (k,),
                        base + lab[k],
                        hyp.ext_lp + (ext_row[k] if ext_row is not None else 0.0),
                        hyp.ilm_lp + ilm_row[k],
                    )
            ranked = sorted(
                [(tok, hyp, True) for tok, hyp in advanced.items()]
                + [(tok, hyp, False) for tok, hyp in fresh.items()],
                key=lambda r: key((r[0], r[1])),
            )[:beam_width]
            advanced = {tok: hyp for tok, hyp, adv in ranked if adv}
            active = {tok: hyp for tok, hyp, adv in ranked if not adv}
        pool = advanced

    results = []
    for tokens, hyp in pool.items():
        if lm_scorer is not None:
            ctx = scorer.context(tokens)
            hyp.ext_lp += float(lm_scorer.next_log_probs(ctx)[fusion.lm.eos_id])
        hyp.finalized = True
        results.append((tokens, hyp))
    results.sort(key=key)
    return [
        DecodeResult(tok, hyp.model_lp, hyp.ext_lp, hyp.ilm_lp, hyp.combined(fusion))
        for tok, hyp in results
    ]
