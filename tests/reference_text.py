"""The per-step text loops that one context-table pass per call replaced.

Kept verbatim as test oracles: `extlm.train_lm`, which built each batch's
context table from its sentences at every step and the final perplexity's
from the whole corpus again, and `adapt.run_ilma`, which drew each step's
picks inside the loop, built its table there, and built each held-out
table twice, for the perplexities before and after.  The per-call tables
must give byte-identical parameters, loss curves and perplexities.  Also
kept: `model.context_codes` as it was, with every label's place in its
sentence from a start offset repeated per label.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from mhat import numerics as nm
from mhat.adapt import AdaptReport, IlmaConfig, ilm_snapshot, ilma_loss
from mhat.extlm import ExternalLm, LmTrainConfig, lm_loss, lm_perplexity
from mhat.losses import perplexity
from mhat.model import ConfigError, MhatModel
from mhat.training import Adam, Sgd


def context_codes(lengths: np.ndarray, toks: np.ndarray, sos_id: int) -> np.ndarray:
    pos = np.arange(toks.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # its place in its sentence
    padded = np.concatenate([[sos_id, sos_id], toks])  # label i follows padded[i] and padded[i + 1]
    prev1 = np.where(pos >= 1, padded[1:-1], sos_id)
    prev2 = np.where(pos >= 2, padded[:-2], sos_id)
    return prev2 * (sos_id + 1) + prev1


def train_lm(corpus, cfg: LmTrainConfig = LmTrainConfig()) -> tuple[ExternalLm, float]:
    transcripts = [it.tokens for it in corpus.items if len(it.tokens) > 0]
    if not transcripts:
        raise ConfigError("LM training corpus is empty")
    lm = ExternalLm(corpus.vocab, embed_dim=cfg.embed_dim, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(list(lm.params.entries.items()), cfg.lr)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(transcripts))
        for start in range(0, len(transcripts), cfg.batch_size):
            chunk = [transcripts[i] for i in order[start : start + cfg.batch_size]]
            loss = lm_loss(lm, chunk)
            nm.check_finite(loss, f"epoch {epoch + 1}, batch {start // cfg.batch_size + 1}")
            lm.params.zero_grads()
            loss.backward()
            opt.step()
    return lm, lm_perplexity(lm, transcripts)


def run_ilma(
    model: MhatModel,
    corpus,
    cfg: IlmaConfig,
    heldout_source: Sequence[Sequence[int]] | None = None,
    heldout_target: Sequence[Sequence[int]] | None = None,
) -> AdaptReport:
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

    report = AdaptReport(rho=cfg.rho, steps=cfg.steps)
    if heldout_source:
        report.source_ppl_before = perplexity(model, heldout_source)
    if heldout_target:
        report.target_ppl_before = perplexity(model, heldout_target)

    teacher = ilm_snapshot(model)
    ilm_tensors = [(n, model.params[n]) for n in model.params.group_names("ilm")]
    opt = Sgd(ilm_tensors, cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    for step in range(cfg.steps):
        picks = rng.choice(len(transcripts), size=min(cfg.batch_size, len(transcripts)), replace=False)
        batch = [transcripts[i] for i in picks]
        loss = ilma_loss(model, teacher, batch, cfg.rho)
        nm.check_finite(loss, f"step {step + 1}")
        model.params.zero_grads()
        loss.backward()
        opt.step()
        report.loss_curve.append(float(loss.data))

    if heldout_source:
        report.source_ppl_after = perplexity(model, heldout_source)
    if heldout_target:
        report.target_ppl_after = perplexity(model, heldout_target)
    return report
