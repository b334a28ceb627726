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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .extlm import ExternalLm, LmScorer
from .lattice import check_structure, forward_log_prob
from .model import ConfigError, HatModel, MhatModel, bigram_contexts

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
        if not (math.isfinite(self.lam_ext) and math.isfinite(self.lam_ilm)):
            raise ConfigError(f"fusion weights must be finite, got {self.lam_ext!r}, {self.lam_ilm!r}")
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


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[int, ...]
    model_lp: float
    ext_lp: float
    ilm_lp: float
    combined: float


def beam_search(
    model: MhatModel | HatModel,
    X: np.ndarray,
    beam_width: int = 8,
    fusion: FusionConfig | Sequence[FusionConfig] = NO_FUSION,
    max_labels_per_frame: int = MAX_LABELS_PER_FRAME,
    *,
    lm_scorer: LmScorer | None = None,
) -> list[DecodeResult] | list[list[DecodeResult]]:
    """Ranked hypotheses with separately tracked score components.

    `fusion` is one config, for one ranked list, or a sequence of configs
    that share one external LM (or use none), for one ranked list per
    config, in order.  The configs are searched in lockstep: a hypothesis
    carries its config's index (its group), each round scores the label
    extensions of every group's active hypotheses as one (n_active, |V|)
    block, and each group keeps its own beam_width best, exactly as if it
    were searched alone.

    `lm_scorer` (from the LM's `scorer()`) may be passed in to reuse its
    context table across calls, e.g. one LM over many utterances.  The
    block scores use the same float operations, in the same order, as one
    candidate at a time.

    Raises StructureError on T=0, like the lattice: no alignment exists.
    Raises EvaluationError when a config is left with no hypothesis of
    finite combined score, or when a scorer row holds a NaN or +inf.
    """
    fusions = [fusion] if isinstance(fusion, FusionConfig) else list(fusion)
    if not fusions:
        raise ConfigError("beam search needs at least one fusion config")
    if beam_width < 1:
        raise ConfigError("beam width must be >= 1")
    if max_labels_per_frame < 0:
        raise ConfigError("max_labels_per_frame must be >= 0")
    lms = {id(f.lm): f.lm for f in fusions if f.lm is not None}
    if len(lms) > 1:
        raise ConfigError("the fusion configs of one search must share one external LM")
    lm = next(iter(lms.values()), None)
    for f in fusions:
        _check_lm_vocab(model, f)
    check_structure(X, ())
    scorer = model.scorer(X)
    if lm is None:
        lm_scorer = None
    elif lm_scorer is None:
        lm_scorer = lm.scorer()
    elif lm_scorer.lm is not lm:
        raise ConfigError("LM scorer was built for another LM")
    v = model.vocab.size
    w = v + 1  # context id = prev2 * w + prev1
    n_groups = len(fusions)
    uses_lm = [f.lm is not None for f in fusions]
    no_lm = None if all(uses_lm) else ~np.array(uses_lm)[:, None]  # groups whose ext rows stay zero
    no_ext = np.zeros(v)

    lam_ext = [f.lam_ext for f in fusions]
    lam_ilm = [f.effective_lam_ilm for f in fusions]
    row_ext, row_ilm = np.array(lam_ext)[:, None], np.array(lam_ilm)[:, None]

    # a hypothesis is [(group, tokens), context id, model_lp, ext_lp, ilm_lp]
    pool = [[(g, ()), v * w + v, 0.0, 0.0, 0.0] for g in range(n_groups)]
    for t in range(scorer.t_len):
        # hypotheses that consumed frame t, one per (group, prefix)
        adv: list[list] = []
        where: dict[tuple[int, tuple[int, ...]], list] = {}
        act = pool
        for round_no in range(max_labels_per_frame + 1):
            if not act:
                break
            ids = np.array([h[1] for h in act])
            act_m, act_e, act_i = np.array([h[2:] for h in act]).T
            # one group takes scalar weights and a plain k-th cut (below), no
            # group arrays: through the group path a one-config decode took
            # about 1.2x as long (benchmark decode phase 1: 2,759 against
            # 3,427 /s, 10/10 pairs; BENCH_lockstep.json, "one_config_fork")
            if n_groups == 1:
                le, li = lam_ext[0], lam_ilm[0]
            else:
                act_g = np.array([h[0][0] for h in act])
                le, li = row_ext[act_g], row_ilm[act_g]
            rows = scorer.rows(ids)
            frame = scorer.frame_rows[rows, t]  # log b, log(1 - b), ...
            ilm = scorer.ilm_rows[rows]
            blank_m = (act_m + frame[:, 0]).tolist()
            for h, m in zip(act, blank_m):
                hit = where.get(h[0])
                if hit is None:
                    hit = where[h[0]] = [h[0], h[1], m, h[3], h[4]]
                    adv.append(hit)
                else:
                    # same prefix, different alignments: model mass adds, LM terms coincide
                    hit[2] = float(np.logaddexp(hit[2], m))
            n_adv = len(adv)
            combined = [h[2] + lam_ext[h[0][0]] * h[3] - lam_ilm[h[0][0]] * h[4] for h in adv]
            if round_no < max_labels_per_frame:
                model_lp = (act_m + frame[:, 1])[:, None] + scorer.label_rows(t, frame, ilm)
                ext_rows = no_ext
                if lm_scorer is not None:
                    lm_rows = lm_scorer.rows(ids)  # may grow the table
                    ext_rows = lm_scorer.log_prob_rows[lm_rows, :v]
                    if no_lm is not None:
                        ext_rows = np.where(no_lm[act_g], 0.0, ext_rows)
                ext_lp = act_e[:, None] + ext_rows
                ilm_lp = act_i[:, None] + ilm
                fresh = model_lp + le * ext_lp - li * ilm_lp
                combined = np.concatenate((combined, fresh.reshape(-1)))

            # per group, keep the beam_width best by (-combined, length,
            # tokens), advanced before fresh on a full tie (advanced come
            # first in q); the shortlist holds every candidate tied with its
            # group's k-th best score
            neg = -np.asarray(combined)
            if n_groups == 1:
                cut = np.partition(neg, beam_width - 1)[beam_width - 1] if neg.size > beam_width else np.inf
            else:
                group = [h[0][0] for h in adv]
                if neg.size > n_adv:
                    group = np.concatenate((group, np.repeat(act_g, v)))
                group = np.asarray(group, dtype=np.intp)
                sizes = np.bincount(group, minlength=n_groups)
                ends = sizes.cumsum()
                cut = neg[np.lexsort((neg, group))[np.minimum(ends - sizes + beam_width, ends) - 1]][group]
            short = (neg <= cut).nonzero()[0].tolist()
            ranked = []
            for q, c in zip(short, neg[short].tolist()):
                if q < n_adv:
                    g, tok = adv[q][0]
                else:
                    j, k = divmod(q - n_adv, v)
                    g, tok = act[j][0]
                    tok = tok + (k,)
                ranked.append((g, c, len(tok), tok, q))
            ranked.sort()

            parents, survivors, act, adv = act, adv, [], []
            kept = [0] * n_groups
            for g, _, _, tok, q in ranked:
                if kept[g] == beam_width:
                    continue
                kept[g] += 1
                if q >= n_adv:
                    j, k = divmod(q - n_adv, v)
                    act.append([(g, tok), parents[j][1] % w * w + k, model_lp[j, k], ext_lp[j, k], ilm_lp[j, k]])
                else:
                    adv.append(survivors[q])
            where = {h[0]: h for h in adv}
        pool = adv

    if lm_scorer is not None:
        scored = [h for h in pool if uses_lm[h[0][0]]]
        lm_rows = lm_scorer.rows(np.array([h[1] for h in scored], dtype=np.int64))
        for h, x in zip(scored, lm_scorer.log_prob_rows[lm_rows, lm.eos_id].tolist()):
            h[3] = h[3] + x
        lm_scorer.check_finite()
    scorer.check_finite()
    results: list[list] = [[] for _ in fusions]
    for (g, tok), _, m, e, i in pool:
        c = m + lam_ext[g] * e - lam_ilm[g] * i
        results[g].append((-c, len(tok), tok, DecodeResult(tok, float(m), float(e), float(i), float(c))))
    ranked_lists = [[r[3] for r in sorted(res, key=lambda r: r[:3])] for res in results]
    for g, ranked in enumerate(ranked_lists):
        if not any(math.isfinite(r.combined) for r in ranked):
            raise nm.EvaluationError(f"no hypothesis with a finite score survived under fusion config {g}")
    return ranked_lists[0] if isinstance(fusion, FusionConfig) else ranked_lists


def greedy_decode(model: MhatModel | HatModel, X: np.ndarray) -> tuple[int, ...]:
    """Beam width 1: commits the argmax arc at every step."""
    return beam_search(model, X, beam_width=1, fusion=NO_FUSION)[0].tokens


def ilm_sequence_log_prob(model: MhatModel | HatModel, tokens: Sequence[int]) -> float:
    """Internal-LM log-probability of a label sequence (no EOS event)."""
    model.vocab.check_ids(tokens)
    with nm.no_grad():
        rows = model.context_log_prob_rows(bigram_contexts(tokens, model.vocab.sos_id)).data
    return float(rows[np.arange(len(tokens)), np.asarray(tokens, dtype=np.int64)].sum())


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
