"""The corpus generator that the table-driven one replaced.

Kept verbatim as a test oracle: `_sample_tokens` drew each token with
`rng.choice` over its bigram row, `_emit_features` stacked one block of
frames per token, and `gen_corpus` seeded one generator per utterance.
`data.gen_corpus` must produce these corpora byte for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from mhat.data import _SPLIT_CODE, MAX_SENTENCE_LEN, Corpus, DomainSpec, Utterance
from mhat.model import ConfigError


def _sample_tokens(spec: DomainSpec, rng: np.random.Generator) -> tuple[int, ...]:
    v = spec.vocab.size
    for _ in range(1000):
        out: list[int] = []
        ctx = v  # start row
        while len(out) < MAX_SENTENCE_LEN:
            nxt = int(rng.choice(v + 1, p=spec.bigram[ctx]))
            if nxt == v:  # EOS column
                break
            out.append(nxt)
            ctx = nxt
        if out:
            return tuple(out)
    raise ConfigError("bigram table produced 1000 empty sentences in a row")


def _emit_features(spec: DomainSpec, tokens: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    frames = []
    for tok in tokens:
        k = int(rng.integers(1, 4))  # 1 to 3 frames
        noise = rng.standard_normal((k, spec.d_x))
        frames.append(spec.prototypes[tok] + spec.noise_sigma * noise)
    return np.vstack(frames)


def gen_corpus(
    spec: DomainSpec,
    seed: int,
    n_utts: int,
    split: str = "train",
    text_only: bool = False,
) -> Corpus:
    """Sample a corpus; each utterance is deterministic in (seed, split, index).

    Empty bigram draws are redrawn, so every sequence is non-empty.
    """
    if split not in _SPLIT_CODE:
        raise ConfigError(f"split must be one of {sorted(_SPLIT_CODE)}, got {split!r}")
    items = []
    for i in range(n_utts):
        rng = np.random.default_rng((seed, _SPLIT_CODE[split], int(text_only), i))
        tokens = _sample_tokens(spec, rng)
        feats = None if text_only else _emit_features(spec, tokens, rng)
        items.append(Utterance(uid=f"{split}-{i:05d}", features=feats, tokens=tokens))
    return Corpus(split=split, seed=seed, vocab=spec.vocab, items=tuple(items))
