"""Time-synchronous beam search over blank-augmented alignments, with LM fusion.

Search shape: hypotheses enter a frame, then alternate rounds of label
expansion (staying on the frame) and blank expansion (consuming it), with
the union of both pools pruned to the beam width after every round.
Hypotheses with identical prefixes merge their model mass (log-add), so a
saturating beam recovers the exact alignment marginal.  With beam width 1
the pruning commits the single best arc at every step, i.e. greedy search.

Fusion combines per-hypothesis components as
model + lam_ext * external - lam_ilm * internal, where the internal term
participates only in `ilme_subtract` mode; running plain `shallow` fusion
on an adapted model realizes adapted-LM fusion (no subtraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .extlm import ExternalLm
from .lattice import check_structure, forward_log_prob
from .model import ConfigError, HatModel, MhatModel

FUSION_MODES = ("none", "shallow", "ilme_subtract")
MAX_LABELS_PER_FRAME = 10  # guards against degenerate non-blank loops


@dataclass(frozen=True)
class FusionConfig:
    mode: str = "none"
    lam_ext: float = 0.0
    lam_ilm: float = 0.0
    lm: ExternalLm | None = None

    def __post_init__(self):
        if self.mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion mode: {self.mode!r}")
        if self.lam_ext < 0 or self.lam_ilm < 0:
            raise ConfigError("fusion weights must be >= 0")
        if self.mode == "none":
            if self.lam_ext != 0.0 or self.lam_ilm != 0.0:
                raise ConfigError("mode='none' requires lam_ext = lam_ilm = 0")
            if self.lm is not None:
                raise ConfigError("mode='none' takes no external LM")
        elif self.lm is None:
            raise ConfigError(f"fusion mode {self.mode!r} requires an external LM")

    @property
    def effective_lam_ilm(self) -> float:
        # the internal-LM score is subtracted only in ilme_subtract mode
        return self.lam_ilm if self.mode == "ilme_subtract" else 0.0


NO_FUSION = FusionConfig()


def _check_lm_vocab(model, fusion: FusionConfig) -> None:
    # fusion adds scores token-by-token, so the vocabularies must coincide
    if fusion.lm is not None and fusion.lm.vocab != model.vocab:
        raise ConfigError("external LM vocabulary differs from the model's")


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


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[int, ...]
    model_lp: float
    ext_lp: float
    ilm_lp: float
    combined: float


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

    Raises StructureError on T=0, like the lattice: no alignment exists.
    """
    if beam_width < 1:
        raise ConfigError("beam width must be >= 1")
    _check_lm_vocab(model, fusion)
    check_structure(X, ())
    scorer = model.scorer(X)
    lm_scorer = fusion.lm.scorer() if fusion.lm is not None else None
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


def greedy_decode(model: MhatModel | HatModel, X: np.ndarray) -> tuple[int, ...]:
    """Beam width 1: commits the argmax arc at every step."""
    return beam_search(model, X, beam_width=1, fusion=NO_FUSION)[0].tokens


def ilm_sequence_log_prob(model: MhatModel | HatModel, tokens: Sequence[int]) -> float:
    """Internal-LM log-probability of a label sequence (no EOS event)."""
    with nm.no_grad():
        if isinstance(model, MhatModel):
            rows = model.ilm_log_prob_rows(tokens).data
            u = len(tokens)
            return float(rows[np.arange(u), np.asarray(tokens, dtype=np.int64)].sum())
        out = 0.0
        for u, y in enumerate(tokens):
            row = model.hat_ilm_log_probs(model.decode_state(tokens[:u])).data
            out += float(row[y])
        return out


def score_sequence(
    model: MhatModel | HatModel,
    X: np.ndarray,
    tokens: Sequence[int],
    fusion: FusionConfig = NO_FUSION,
) -> DecodeResult:
    """Exact score breakdown of a fixed label sequence.

    The model component is the full lattice marginal; the external
    component includes the EOS event; the combined total applies the
    fusion weights exactly as beam search does.
    """
    _check_lm_vocab(model, fusion)
    with nm.no_grad():
        model_lp = float(forward_log_prob(model, X, tokens).data)
    ext_lp = fusion.lm.sentence_log_prob(tokens) if fusion.lm is not None else 0.0
    ilm_lp = ilm_sequence_log_prob(model, tokens)
    combined = model_lp + fusion.lam_ext * ext_lp - fusion.effective_lam_ilm * ilm_lp
    return DecodeResult(tuple(int(y) for y in tokens), model_lp, ext_lp, ilm_lp, combined)


# one record per utterance: uid, token ids, text, then the three components
RECORD_COLUMNS = ("uid", "token_ids", "text", "model_lp", "ext_lp", "ilm_lp")


def format_record(uid: str, result: DecodeResult, vocab) -> str:
    ids = " ".join(str(i) for i in result.tokens)
    text = vocab.text(result.tokens)
    return "\t".join(
        [uid, ids, text, repr(result.model_lp), repr(result.ext_lp), repr(result.ilm_lp)]
    )


def parse_record(line: str) -> tuple[str, tuple[int, ...]]:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != len(RECORD_COLUMNS):
        raise ValueError(f"malformed decode record: {line!r}")
    ids = parts[1].split()
    if not all(s.isascii() and s.isdigit() for s in ids):
        raise ValueError(f"malformed decode record: token ids {parts[1]!r}")
    return parts[0], tuple(int(s) for s in ids)
