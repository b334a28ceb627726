"""Text-only internal-LM adaptation with KLD regularization.

Only the group-"ilm" parameters (label decoder plus its output projection)
are ever touched; the blank and acoustic branches stay bit-identical, so
adaptation cannot distort segmentation or acoustic scores.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numerics as nm
from .losses import batch_table, perplexity
from .model import ConfigError, ContextTable, EventCodes, MhatModel
from .numerics import Tensor
from .training import Sgd, check_schedule


@dataclass
class IlmaConfig:
    # plain fixed-step SGD; lr is calibrated against the sum-reduction loss
    # (gradients scale with the token count of a batch)
    rho: float = 0.5
    steps: int = 600
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")
        check_schedule(self.batch_size, self.lr, ("steps", self.steps))


@dataclass
class AdaptReport:
    rho: float
    steps: int
    source_ppl_before: float | None = None
    source_ppl_after: float | None = None
    target_ppl_before: float | None = None
    target_ppl_after: float | None = None
    loss_curve: list[float] = field(default_factory=list)

    def kv_lines(self) -> list[str]:
        lines = [f"rho {self.rho!r}", f"steps {self.steps}"]
        for key in ("source_ppl_before", "source_ppl_after", "target_ppl_before", "target_ppl_after"):
            val = getattr(self, key)
            if val is not None:
                lines.append(f"{key} {val!r}")
        return lines

    def render_text(self) -> str:
        rows = [("metric", "before", "after")]
        if self.source_ppl_before is not None:
            rows.append(("source ppl", f"{self.source_ppl_before:.3f}", f"{self.source_ppl_after:.3f}"))
        if self.target_ppl_before is not None:
            rows.append(("target ppl", f"{self.target_ppl_before:.3f}", f"{self.target_ppl_after:.3f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        out = [f"adaptation: rho={self.rho} steps={self.steps}"]
        for r in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(out)


def ilm_snapshot(model: MhatModel) -> MhatModel:
    """The pre-adaptation teacher: a copy of the model whose group-"ilm"
    tensors are new and frozen.  Its other tensors (encoder, blank branch,
    joint) are the model's own, not copies, so the snapshot stays the
    pre-adaptation model only while they do not move, as during ILMA,
    which moves only the "ilm" group."""
    p = model.params
    return copy.deepcopy(model, {id(t): t for n, t in p.entries.items() if p.group[n] != "ilm"})


def ilma_loss(
    model: MhatModel,
    teacher: MhatModel,
    transcripts: Sequence[Sequence[int]],
    rho: float,
) -> Tensor:
    """(1-rho) data cross-entropy plus rho teacher cross-entropy.

    Both terms weight the student's log-prob rows over the batch's context
    table: the data term by the next-token counts N, the teacher term by
    each context's token count times the teacher's full distribution (an
    exact expectation, not samples), which makes rho=1 exactly stationary
    at the snapshot parameters.  At rho=0 the weights are N itself, so the
    value and gradients are `ilm_loss`'s, bit for bit.
    `transcripts` may also be the batch's `ContextTable`.
    """
    if not (0.0 <= rho <= 1.0):
        raise ConfigError(f"rho must lie in [0, 1], got {rho}")
    if not isinstance(transcripts, ContextTable) and any(len(y) == 0 for y in transcripts):
        raise ConfigError("ilma_loss requires non-empty transcripts")
    ctx, counts = batch_table(model, transcripts)
    if not len(ctx):
        return Tensor(0.0)
    teacher_probs = np.exp(teacher.context_log_prob_np(ctx))
    weights = (1.0 - rho) * counts + rho * counts.sum(axis=1, keepdims=True) * teacher_probs
    return nm.log_softmax_nll(model.context_logits(ctx), weights)


def run_ilma(
    model: MhatModel,
    corpus,
    cfg: IlmaConfig,
    heldout_source: Sequence[Sequence[int]] | None = None,
    heldout_target: Sequence[Sequence[int]] | None = None,
) -> AdaptReport:
    """Adapt the internal LM on text; mutates only group-"ilm" tensors.

    `corpus` may be a data.Corpus or a plain list of token sequences.  All
    steps' picks are drawn first and their context tables built in one pass,
    so a token id outside the vocabulary raises VocabError before any
    parameter moves.  A NaN or infinite step loss raises EvaluationError
    naming the step.
    """
    transcripts = [it.tokens for it in corpus.items] if hasattr(corpus, "items") else list(corpus)
    transcripts = [y for y in transcripts if len(y) > 0]
    if not transcripts:
        raise ConfigError("adaptation corpus is empty")
    if model.trained_alpha is None or model.trained_alpha == 0.0:
        warnings.warn(
            "adapting a model trained without an internal-LM loss; "
            "its internal LM may not be a usable standalone LM",
            stacklevel=2,
        )

    rng = np.random.default_rng(cfg.seed)
    size = min(cfg.batch_size, len(transcripts))
    picks = [rng.choice(len(transcripts), size=size, replace=False) for _ in range(cfg.steps)]
    tables = EventCodes(transcripts, model.vocab.size).tables(picks)
    source = batch_table(model, heldout_source) if heldout_source else None
    target = batch_table(model, heldout_target) if heldout_target else None

    report = AdaptReport(rho=cfg.rho, steps=cfg.steps)
    if source is not None:
        report.source_ppl_before = perplexity(model, source)
    if target is not None:
        report.target_ppl_before = perplexity(model, target)

    teacher = ilm_snapshot(model)
    ilm_tensors = [(n, model.params[n]) for n in model.params.group_names("ilm")]
    opt = Sgd(ilm_tensors, cfg.lr)
    for step, table in enumerate(tables):
        loss = ilma_loss(model, teacher, table, cfg.rho)
        nm.check_finite(loss, f"step {step + 1}")
        model.params.zero_grads()
        loss.backward()
        opt.step()
        report.loss_curve.append(float(loss.data))

    if source is not None:
        report.source_ppl_after = perplexity(model, source)
    if target is not None:
        report.target_ppl_after = perplexity(model, target)
    return report
