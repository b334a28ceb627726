"""Standalone external neural LM for fusion and perplexity reference.

Same bigram-context embedding-decoder architecture as the MHAT label
decoder, with one extra output column for the end-of-sentence event, so
the LM defines a proper distribution over finite sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .losses import batch_table, text_nll, text_perplexity
from .model import (
    ConfigError,
    ContextTable,
    EmbeddingDecoder,
    EventCodes,
    Vocabulary,
    bigram_contexts,
    check_rows_finite,
)
from .numerics import ParameterSet, Tensor
from .training import Adam, check_schedule


class ExternalLm:
    """Embedding-decoder LM over the ASR vocabulary plus EOS."""

    kind = "lm"

    def __init__(self, vocab: Vocabulary, embed_dim: int = 64, seed: int = 0):
        if embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {embed_dim}")
        rng = np.random.default_rng(seed)
        self.vocab, self.embed_dim = vocab, embed_dim
        self.eos_id = vocab.size  # output index; contexts use sos_id = vocab.size
        p = ParameterSet()
        self.params = p
        self.decoder = EmbeddingDecoder(p, "decoder", vocab, embed_dim, "ilm", rng, tied_tables=False)
        self.out_w = p.add(
            "out_proj.weight",
            rng.standard_normal((vocab.size + 1, embed_dim)) / np.sqrt(embed_dim),
            "ilm",
        )
        self.out_b = p.add("out_proj.bias", np.zeros(vocab.size + 1), "ilm")

    def context_logits(self, ctx: np.ndarray) -> Tensor:
        """Logits over tokens+EOS for (n, 2) decoder contexts: (n, |V|+1)."""
        return nm.affine(self.decoder.outputs(ctx), self.out_w, self.out_b)

    def context_log_prob_rows(self, ctx: np.ndarray) -> Tensor:
        """Log-prob rows over tokens+EOS for (n, 2) decoder contexts: (n, |V|+1)."""
        return nm.log_softmax(self.context_logits(ctx))

    def next_log_prob_rows(self, tokens: Sequence[int]) -> Tensor:
        """Log-prob rows over tokens+EOS for every step, incl. the EOS step: (U+1, |V|+1)."""
        self.vocab.check_ids(tokens)
        return self.context_log_prob_rows(bigram_contexts(tokens, self.vocab.sos_id))

    def sentence_log_prob(self, tokens: Sequence[int]) -> float:
        """Full sentence log-prob including the terminating EOS event.
        NaN or +inf raises EvaluationError; -inf from underflow is legal."""
        with nm.no_grad():
            rows = self.next_log_prob_rows(tokens).data
        targets = np.append(np.asarray(tokens, dtype=np.int64), self.eos_id)
        return nm.check_log_prob(float(rows[np.arange(len(targets)), targets].sum()), "sentence_log_prob")

    def scorer(self) -> "LmScorer":
        return LmScorer(self)

    def config_items(self) -> dict[str, str]:
        # the LM is untied; the manifest keeps its `tied_tables` key, which `from_config` checks
        return {"embed_dim": str(self.embed_dim), "tied_tables": "0"}

    @staticmethod
    def from_config(vocab: Vocabulary, cfg: dict[str, str]) -> "ExternalLm":
        if cfg["tied_tables"] != "0":
            raise ValueError(f"config.tied_tables must be 0, got {cfg['tied_tables']!r}")
        return ExternalLm(vocab, embed_dim=int(cfg["embed_dim"]))


class LmScorer:
    """Next-event log-prob rows (tokens + EOS) per context, for beam search.

    One scorer serves every utterance of a search.  Row c of
    `log_prob_rows` belongs to context code c (`context_codes`) and is
    computed the first time a search reaches it, when `filled[c]` turns on.
    """

    def __init__(self, lm: ExternalLm):
        self.lm = lm
        self.width = lm.vocab.sos_id + 1
        self.filled = np.zeros(self.width * self.width, dtype=bool)
        self.log_prob_rows = np.empty((self.filled.size, lm.vocab.size + 1))

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The rows of an array of context codes, which are the codes
        themselves, filling codes not yet reached through `next_log_probs`,
        so that instrumentation on that lookup sees every fill."""
        if not all(self.filled[keys].tolist()):  # Python's all: ndarray.all costs more on a beam's few keys
            for key in keys[~self.filled[keys]].tolist():
                if not self.filled[key]:
                    self.next_log_probs(divmod(key, self.width))
        return keys

    def next_log_probs(self, ctx: tuple[int, int]) -> np.ndarray:
        """Distribution over the next event after the (prev2, prev1) context."""
        c = ctx[0] * self.width + ctx[1]
        if not self.filled[c]:
            z = self.lm.out_w.data @ self.lm.decoder.output_np(ctx) + self.lm.out_b.data
            self.log_prob_rows[c] = z - nm.log_sum_exp(z)
            self.filled[c] = True
        return self.log_prob_rows[c]

    def check_finite(self) -> None:
        check_rows_finite(self, log_prob_rows=self.log_prob_rows[self.filled])


@dataclass
class LmTrainConfig:
    embed_dim: int = 64
    epochs: int = 20
    batch_size: int = 64
    lr: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        check_schedule(self.batch_size, self.lr, ("epochs", self.epochs))


def lm_loss(lm: ExternalLm, transcripts: Sequence[Sequence[int]] | ContextTable) -> Tensor:
    """Summed sentence NLL with EOS appended, over the batch's context table
    (`transcripts` may be that table)."""
    return text_nll(lm, batch_table(lm, transcripts, eos=True))


def lm_perplexity(lm: ExternalLm, transcripts: Sequence[Sequence[int]] | ContextTable) -> float:
    """exp(mean NLL per event), the EOS event included (`transcripts` may be
    their context table)."""
    return text_perplexity(lm, batch_table(lm, transcripts, eos=True), "lm_perplexity")


def train_lm(corpus, cfg: LmTrainConfig = LmTrainConfig()) -> tuple[ExternalLm, float]:
    """Train an untied external LM with Adam; returns (lm, final perplexity).

    Every sentence's context codes are encoded once, before the first step,
    so a token id outside the vocabulary raises VocabError before any
    parameter moves; each epoch's batch tables come from one sort of them.
    A NaN or infinite batch loss raises EvaluationError naming the epoch
    and batch.
    """
    transcripts = [it.tokens for it in corpus.items if len(it.tokens) > 0]
    if not transcripts:
        raise ConfigError("LM training corpus is empty")
    lm = ExternalLm(corpus.vocab, embed_dim=cfg.embed_dim, seed=cfg.seed)
    codes = EventCodes(transcripts, lm.vocab.size, eos=True)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(list(lm.params.entries.items()), cfg.lr)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(transcripts))
        batches = [order[start : start + cfg.batch_size] for start in range(0, len(transcripts), cfg.batch_size)]
        for batch, table in enumerate(codes.tables(batches)):
            loss = lm_loss(lm, table)
            nm.check_finite(loss, f"epoch {epoch + 1}, batch {batch + 1}")
            lm.params.zero_grads()
            loss.backward()
            opt.step()
    return lm, lm_perplexity(lm, next(codes.tables([np.arange(len(transcripts))])))
