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

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .extlm import ExternalLm
from .lattice import forward_log_prob
from .model import ConfigError, HatModel, MhatModel, bigram_contexts, next_context_codes

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


class _Trie:
    """Prefix nodes, one tree per group (roots 0 .. n_roots-1), so a node
    names one (group, prefix): child[n, k] is node n extended by label k, or
    -1.  A node keeps its group, its context code (`context_codes`), its
    parent and the label that made it; `adv` is scratch space for the
    merge, -1 outside it."""

    def __init__(self, n_roots: int, v: int):
        cap = max(64, 4 * n_roots)
        self.child = np.full((cap, v), -1, dtype=np.int32)  # the largest table: int32 halves it
        self.adv, self.ctx, self.parent, self.label = np.full((4, cap), -1)
        self.group = np.zeros(cap, dtype=np.intp)  # stays 0 under one root
        self.group[:n_roots] = np.arange(n_roots)
        self.ctx[:n_roots] = (v + 1) * (v + 1) - 1  # (SOS, SOS)
        self.size, self.n_roots, self.next_ctx = n_roots, n_roots, next_context_codes(v)

    def extend(self, parents: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, bool]:
        """Nodes of `parents` extended by `labels` (distinct pairs), made
        where new, and whether any existed before."""
        nodes = self.child[parents, labels].astype(np.intp)  # indexing with intp is faster
        found = nodes.tolist()
        existed = max(found) >= 0
        if min(found) < 0:
            new = nodes < 0 if existed else slice(None)
            parents, labels = parents[new], labels[new]
            start, self.size = self.size, self.size + len(parents)
            if self.size > len(self.adv):
                for name in ("child", "adv", "group", "ctx", "parent", "label"):
                    old = getattr(self, name)
                    grown = np.full((self.size, *old.shape[1:]), 0 if name == "group" else -1, old.dtype)
                    setattr(self, name, np.concatenate((old, grown)))
            nodes[new] = ids = np.arange(start, self.size)
            self.child[parents, labels] = ids
            if self.n_roots > 1:
                self.group[start : self.size] = self.group[parents]
            self.ctx[start : self.size] = self.next_ctx[self.ctx[parents], labels]
            self.parent[start : self.size], self.label[start : self.size] = parents, labels
        return nodes, existed

    def tokens(self, nodes: Sequence[int]) -> list[tuple[int, ...]]:
        parent, label = self.parent[: self.size].tolist(), self.label[: self.size].tolist()
        out = []
        for n in nodes:
            tok = []
            while n >= self.n_roots:
                tok.append(label[n])
                n = parent[n]
            out.append(tuple(reversed(tok)))
        return out


def beam_search(
    model: MhatModel | HatModel,
    X: np.ndarray | Sequence[np.ndarray],
    beam_width: int = 8,
    fusion: FusionConfig | Sequence[FusionConfig] = NO_FUSION,
    max_labels_per_frame: int = MAX_LABELS_PER_FRAME,
):
    """Ranked hypotheses with separately tracked score components.

    `X` is one (T, d_x) utterance, or a sequence of them (a corpus), for one
    result per utterance.  `fusion` is one config, for one ranked list, or a
    sequence of configs that share one external LM (or use none), for one
    ranked list per config.  Every (utterance, config) pair is a group, and
    all groups are searched in lockstep, one frame at a time, each utterance
    stopping at its own last frame: a hypothesis is a prefix node (`_Trie`)
    and a row of scores, each round scores the label extensions of every
    group as one block, and each group keeps its own beam_width best,
    exactly as if it were searched alone, with the same float operations in
    the same order.  One scorer serves the corpus, so the rows that depend
    only on the model and the context are computed once, and so does one LM
    scorer.  Neither outlives the call: training and ILMA change parameters
    in place.

    `Encoder.frames` checks every utterance before any scorer is built, as
    in the lattice and the trainers: a bad one raises ConfigError or
    StructureError.  Raises EvaluationError when a group is left with no
    hypothesis of finite combined score, or when a scorer row holds a NaN
    or +inf.
    """
    corpus = not isinstance(X, np.ndarray)
    xs = list(X) if corpus else [X]
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
    if not xs:
        return []
    model.encoder.frames(xs)  # a list of T frames would otherwise read as T utterances
    lm_scorer = lm.scorer() if lm is not None else None
    scorer = model.scorer(xs)
    k = beam_width
    v = model.vocab.size
    n_ctx = (v + 1) * (v + 1)  # context codes; utterance u's scorer keys add u * n_ctx
    n_cfg, n_utt = len(fusions), len(xs)
    n_groups = n_utt * n_cfg  # group = utterance * n_cfg + config
    uses_lm = np.array([f.lm is not None for f in fusions] * n_utt)  # per group
    no_lm = None if all(f.lm is not None for f in fusions) else ~uses_lm[:, None]  # groups whose ext rows stay zero
    no_ext = np.zeros(v)
    lams = np.array([(f.lam_ext, f.effective_lam_ilm) for f in fusions] * n_utt)  # per group
    t_end = np.repeat(scorer.t_lens, n_cfg)  # per group
    stops = set(scorer.t_lens)  # the frames at which an utterance ends
    lam1 = lams[0, :, None, None]  # the weights of a one-group search, against columns 1 and 2 of its scores
    trie = _Trie(n_groups, v)
    # a hypothesis: a node and (model_lp, ext_lp, ilm_lp, lam_ext * ext_lp, lam_ilm * ilm_lp)
    pool, done = (np.arange(n_groups), np.zeros((n_groups, 5))), []
    for t in range(scorer.t_len):
        if t in stops:  # utterances whose last frame has passed
            live = t_end[trie.group[pool[0]]] > t
            done.append((pool[0][~live], pool[1][~live]))
            pool = pool[0][live], pool[1][live]
        act_n, act_f = pool
        adv_n, adv_f = act_n[:0], act_f[:0]  # hypotheses that consumed frame t
        may_merge = False
        for round_no in range(max_labels_per_frame + 1):
            n_act = len(act_n)
            if not n_act:
                break
            ctx = trie.ctx[act_n]
            # one group takes its weights and a plain k-th cut (below), no
            # group arrays: through the group path a one-config decode took
            # about 1.2x as long (BENCH_lockstep.json, "one_config_fork")
            if n_groups == 1:
                lam, utt, rows = lam1, 0, scorer.rows(ctx)
            else:
                act_g = trie.group[act_n]
                lam, utt = lams.take(act_g, 0).T[:, :, None], act_g // n_cfg
                rows = scorer.rows(utt * n_ctx + ctx)
            frame = scorer.frame_rows.take(rows + t, 0)  # log b, log(1 - b), ...; take: a third of indexing's cost
            fresh = None
            if round_no < max_labels_per_frame:
                ilm = scorer.ilm_rows.take(ctx, 0)
                ext_rows = no_ext
                if lm_scorer is not None:
                    ext_rows = lm_scorer.log_prob_rows.take(lm_scorer.rows(ctx), 0)[:, :v]
                    if no_lm is not None:
                        ext_rows = np.where(no_lm[act_g], 0.0, ext_rows)
                scores = np.empty((5, n_act, v))  # the five columns of every extension
                np.add((act_f[:, 0] + frame[:, 1])[:, None], scorer.label_rows(t, frame, ilm, utt), out=scores[0])
                np.add(act_f[:, 1, None], ext_rows, out=scores[1])
                np.add(act_f[:, 2, None], ilm, out=scores[2])
                np.multiply(lam, scores[1:3], out=scores[3:])  # lam_ext * ext, lam_ilm * ilm
                fresh = scores[4] - (scores[0] + scores[3])  # -combined, exactly

            act_f[:, 0] += frame[:, 0]  # the blank extensions, which consume frame t
            new_n, new_f = act_n, act_f
            if may_merge:
                # same prefix, different alignments: model mass adds, LM terms coincide
                trie.adv[adv_n] = np.arange(len(adv_n))
                pos = trie.adv[act_n]
                trie.adv[adv_n] = -1
                if max(pos.tolist()) >= 0:
                    hit = pos >= 0
                    p, merged = pos[hit], adv_f[:, 0]  # a column view: 1-D indexing is cheaper
                    merged[p] = np.logaddexp(merged[p], act_f[:, 0][hit])
                    new_n, new_f = act_n[~hit], act_f[~hit]
            if len(adv_n):
                adv_n, adv_f = np.concatenate((adv_n, new_n)), np.concatenate((adv_f, new_f))
            else:
                adv_n, adv_f = new_n, new_f
            neg = adv_f[:, 4] - (adv_f[:, 0] + adv_f[:, 3])

            # per group, keep the beam_width best by (-combined, length,
            # tokens), advanced before fresh on a full tie: every candidate up
            # to its group's k-th best score, then the tie-break only where a
            # tie at that score leaves more than k
            if n_groups == 1:
                both = neg if fresh is None else np.concatenate((neg, fresh.reshape(-1)))
                cut = np.sort(both)[k - 1] if both.size > k else np.inf  # cheaper than np.partition here
                keep = (both <= cut).nonzero()[0]
                s = bisect.bisect_left(keep.tolist(), len(neg))
                keep_adv, at = keep[:s], keep[s:] - len(neg)  # fresh.flat positions: row at // v, label at % v
                crowded = len(keep) > k
            else:
                adv_g = trie.group[adv_n]
                cut = _group_cuts(neg, fresh, adv_g, act_g, k, n_groups)
                keep_adv = (neg <= cut[adv_g]).nonzero()[0]
                at = (fresh <= cut[act_g][:, None]).reshape(-1).nonzero()[0] if fresh is not None else act_g[:0]
                kept = np.bincount(adv_g[keep_adv], minlength=n_groups) + np.bincount(act_g[at // v], minlength=n_groups)
                crowded = kept.max() > k
            if crowded:
                keep_adv, at = _break_ties(keep_adv, at, neg, fresh, k, adv_n, act_n, n_groups, trie)

            if len(keep_adv) < len(adv_n):
                adv_n, adv_f = adv_n[keep_adv], adv_f.take(keep_adv, 0)
            if not len(at):
                break
            j, label = np.divmod(at, v)
            act_n, may_merge = trie.extend(act_n[j], label)
            act_f = scores.reshape(5, -1).take(at, 1).T
        pool = adv_n, adv_f
    done.append(pool)

    nodes, hyps = done[0] if len(done) == 1 else (np.concatenate([d[0] for d in done]), np.concatenate([d[1] for d in done]))
    m, e, i = hyps[:, :3].T
    g = trie.group[nodes]
    if lm_scorer is not None:
        e = np.where(uses_lm[g], e + lm_scorer.log_prob_rows[lm_scorer.rows(trie.ctx[nodes]), lm.eos_id], e)
        lm_scorer.check_finite()
    scorer.check_finite()
    c = m + lams[g, 0] * e - lams[g, 1] * i
    ranked: list[list] = [[] for _ in range(n_groups)]
    for gr, tok, *vals in zip(g.tolist(), trie.tokens(nodes.tolist()), m.tolist(), e.tolist(), i.tolist(), c.tolist()):
        ranked[gr].append((-vals[3], len(tok), tok, DecodeResult(tok, *vals)))
    ranked = [[r[3] for r in sorted(res, key=lambda r: r[:3])] for res in ranked]
    for gr, res in enumerate(ranked):
        if not any(math.isfinite(r.combined) for r in res):
            where = f" of utterance {gr // n_cfg}" if corpus else ""
            raise nm.EvaluationError(f"no hypothesis with a finite score survived under fusion config {gr % n_cfg}{where}")
    per_utt = [ranked[u * n_cfg] if isinstance(fusion, FusionConfig) else ranked[u * n_cfg : (u + 1) * n_cfg]
               for u in range(n_utt)]
    return per_utt if corpus else per_utt[0]


def _group_cuts(neg, fresh, adv_g, act_g, k, n_groups) -> np.ndarray:
    """Each group's k-th smallest -combined over its advanced hypotheses and
    its active ones' extensions (NaN last).  Only an active hypothesis's k
    best extensions can be among its group's k best, so only those are sorted."""
    group = adv_g
    if fresh is not None:
        top = np.partition(fresh, k - 1, axis=1)[:, :k] if fresh.shape[1] > k else fresh
        neg = np.concatenate((neg, top.reshape(-1)))
        group = np.concatenate((adv_g, np.repeat(act_g, top.shape[1])))
    order = np.argsort(neg)
    order = order[np.argsort(group[order].astype(np.min_scalar_type(n_groups - 1)), kind="stable")]
    sizes = np.bincount(group, minlength=n_groups)
    ends = sizes.cumsum()
    return neg[order[np.minimum(ends - sizes + k, ends) - 1]]


def _break_ties(keep_adv, at, neg, fresh, k, adv_n, act_n, n_groups, trie):
    """The kept advanced rows and extensions (`fresh.flat` positions), cut to each
    group's k best by (-combined, length, tokens), advanced first on a full tie."""
    j, label = np.divmod(at, fresh.shape[1]) if fresh is not None else (at, at)
    n, nodes = len(keep_adv), np.concatenate((adv_n[keep_adv], act_n[j]))
    scores = np.concatenate((neg[keep_adv], fresh[j, label] if fresh is not None else neg[:0]))
    labels = [()] * n + [(k_,) for k_ in label.tolist()]  # the label a fresh candidate adds
    ranked = sorted((gr, c, len(tok + lab), tok + lab, q >= n, q) for q, (gr, c, tok, lab) in enumerate(
        zip(trie.group[nodes].tolist(), scores.tolist(), trie.tokens(nodes.tolist()), labels)))
    out, kept = [], [0] * n_groups
    for gr, *_, q in ranked:
        if kept[gr] < k:
            kept[gr] += 1
            out.append(q)
    out = np.array(sorted(out), dtype=np.intp)
    return keep_adv[out[out < n]], at[out[out >= n] - n]


def greedy_decode(model: MhatModel | HatModel, X: np.ndarray) -> tuple[int, ...]:
    """Beam width 1: commits the argmax arc at every step."""
    return beam_search(model, X, beam_width=1, fusion=NO_FUSION)[0].tokens


def ilm_sequence_log_prob(model: MhatModel | HatModel, tokens: Sequence[int]) -> float:
    """Internal-LM log-probability of a label sequence (no EOS event).
    NaN or +inf raises EvaluationError; -inf from underflow is legal."""
    model.vocab.check_ids(tokens)
    with nm.no_grad():
        rows = model.context_log_prob_rows(bigram_contexts(tokens, model.vocab.sos_id)).data
    lp = float(rows[np.arange(len(tokens)), np.asarray(tokens, dtype=np.int64)].sum())
    return nm.check_log_prob(lp, "ilm_sequence_log_prob")


def score_sequence(
    model: MhatModel | HatModel,
    X: np.ndarray,
    tokens: Sequence[int],
    fusion: FusionConfig = NO_FUSION,
) -> DecodeResult:
    """Exact score breakdown of a fixed label sequence.

    The model component is the full lattice marginal; the external
    component includes the EOS event; the combined total applies the
    fusion weights exactly as beam search does.  A NaN or +inf component
    raises EvaluationError naming the function that computed it.
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
