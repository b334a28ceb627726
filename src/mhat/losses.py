"""Internal-LM loss, the combined MHAT objective, and perplexity.

Every text-side quantity (internal-LM and external-LM losses, the ILMA
terms, both perplexities) sees only the last two labels, so a batch
reduces to one context-count table: each distinct context is scored once
and weighted by integer event counts, which makes every such sum
bit-exact under batch permutation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import numerics as nm
from .lattice import hat_loss
from .model import ConfigError, ContextTable, HatModel, MhatModel, context_counts
from .numerics import Tensor


def check_alpha(alpha: float) -> None:
    """Raise ConfigError unless the internal-LM loss weight is finite and >= 0."""
    if not math.isfinite(alpha) or alpha < 0:
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")


def batch_table(model_or_lm, batch, eos: bool = False) -> ContextTable:
    """`batch` itself when it is a ContextTable, else the `context_counts`
    of its sentences over the model's vocabulary, with EOS events when `eos`."""
    return batch if isinstance(batch, ContextTable) else context_counts(batch, model_or_lm.vocab.size, eos)


def text_nll(model_or_lm, table: ContextTable) -> Tensor:
    """Summed next-event NLL of a batch's context table, scored once per
    distinct context; a table with no events sums to a plain 0."""
    ctx, counts = table
    if not len(ctx):
        return Tensor(0.0)
    return nm.log_softmax_nll(model_or_lm.context_logits(ctx), counts)


def text_perplexity(model_or_lm, table: ContextTable, where: str) -> float:
    """exp(mean per-event NLL) over a batch's context table; no graph.  A
    NaN mean, which a non-finite parameter gives, raises EvaluationError
    naming `where`, the calling function."""
    ctx, counts = table
    events = int(counts.sum())
    if events == 0:
        raise ConfigError("perplexity requires at least one scored event")
    with nm.no_grad():
        nll = float(nm.log_softmax_nll(model_or_lm.context_logits(ctx), counts).data)
    if math.isnan(nll):
        raise nm.EvaluationError(f"{where}: the mean NLL is NaN")
    with np.errstate(over="ignore"):  # an untrained model may overflow to inf
        return float(np.exp(nll / events))


def ilm_loss(model: MhatModel, transcripts: Sequence[Sequence[int]]) -> Tensor:
    """Summed next-token cross-entropy of the internal LM on transcripts.

    Takes no acoustic input and touches only group-"ilm" parameters.
    There is no end-of-sentence event: the transducer's blank head owns
    termination.  The sum runs over the batch's context-count table, so
    it is bit-exact under batch permutation.  `transcripts` may also be
    that `ContextTable`.
    """
    if not isinstance(transcripts, ContextTable) and any(len(y) == 0 for y in transcripts):
        raise ConfigError("ilm_loss requires non-empty transcripts")
    return text_nll(model, batch_table(model, transcripts))


def mhat_loss(
    model: MhatModel | HatModel,
    batch: Sequence[tuple[np.ndarray, Sequence[int]]],
    alpha: float = 0.1,
) -> Tensor:
    """Transducer loss plus alpha times the internal-LM loss on the transcripts.

    With alpha = 0 this returns the transducer loss itself (bit-exact),
    which is also the whole HAT objective: a HatModel takes alpha = 0.
    Empty transcripts contribute nothing to the internal-LM term.  Raises
    ConfigError when alpha is not finite or is negative.
    """
    check_alpha(alpha)
    base = hat_loss(model, batch)
    if alpha == 0.0:
        return base
    return nm.add(base, nm.mul(alpha, ilm_loss(model, [y for _, y in batch if len(y) > 0])))


def perplexity(model_or_lm, transcripts: Sequence[Sequence[int]]) -> float:
    """exp(mean per-token negative log-probability); SOS never counted.

    For an MHAT model this scores the internal LM; for an external LM it
    scores token events under the full token+EOS distribution without
    counting EOS events, keeping the two comparable.  Empty transcripts
    hold no events and count for nothing.  `transcripts` may also be their
    `ContextTable` (without EOS).
    """
    return text_perplexity(model_or_lm, batch_table(model_or_lm, transcripts), "perplexity")
