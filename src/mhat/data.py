"""Synthetic domain-shift corpora and all file I/O, including checkpoints.

A domain is a bigram chain over the vocabulary (plus EOS, with a start
row) and a bank of per-token prototype feature vectors.  The standard
shifted pair shares prototypes and noise so the shift is purely
linguistic: confusable token pairs whose within-pair preference differs
between domains, which only a better label prior can fix.
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .extlm import ExternalLm
from .model import ConfigError, HatModel, MhatModel, VocabError, Vocabulary

MAX_SENTENCE_LEN = 40
_SPLIT_CODE = {"train": 0, "dev": 1, "test": 2}


class CheckpointError(RuntimeError):
    """A checkpoint failed validation on save or load."""


@dataclass(frozen=True)
class DomainSpec:
    """Generator for one domain: bigram chain plus acoustic prototypes.

    `bigram` is (|V|+1) x (|V|+1): rows are contexts (tokens, then the
    start row), columns are next events (tokens, then EOS).  Each token
    lasts 1 to 3 frames.
    """

    vocab: Vocabulary
    bigram: np.ndarray
    prototypes: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        v = self.vocab.size
        if self.bigram.shape != (v + 1, v + 1):
            raise ConfigError(f"bigram table must be ({v + 1}, {v + 1}), got {self.bigram.shape}")
        if not np.isfinite(self.bigram).all():
            raise ConfigError("bigram table must be finite")
        sums = self.bigram.sum(axis=1)
        if np.any(self.bigram < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
            raise ConfigError("bigram rows must be non-negative and sum to 1 within 1e-9")
        if self.prototypes.shape[0] != v:
            raise ConfigError("one prototype row per token required")
        if not np.isfinite(self.prototypes).all():
            raise ConfigError("prototypes must be finite")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        for i in range(v):
            for j in range(i + 1, v):
                if np.array_equal(self.prototypes[i], self.prototypes[j]):
                    raise ConfigError(f"prototypes {i} and {j} are identical")

    @property
    def d_x(self) -> int:
        return self.prototypes.shape[1]


@dataclass(frozen=True)
class Utterance:
    uid: str
    features: np.ndarray | None
    tokens: tuple[int, ...]


@dataclass(frozen=True)
class Corpus:
    split: str
    seed: int
    vocab: Vocabulary
    items: tuple[Utterance, ...]

    def transcripts(self) -> list[tuple[int, ...]]:
        return [it.tokens for it in self.items]

    def paired(self) -> list[tuple[np.ndarray, tuple[int, ...]]]:
        return [(it.features, it.tokens) for it in self.items if it.features is not None]


def _sample_tokens(cdf: list[list[float]], rng: np.random.Generator) -> tuple[int, ...]:
    # the draw of `rng.choice(v + 1, p=row)`: one rng.random(), searched from the
    # right in the row's cumulative sum over its last entry, which `cdf` holds
    eos = len(cdf) - 1  # the EOS column and the start row share this index
    for _ in range(1000):
        out: list[int] = []
        row = cdf[eos]
        while len(out) < MAX_SENTENCE_LEN:
            nxt = bisect_right(row, rng.random())
            if nxt == eos:
                break
            out.append(nxt)
            row = cdf[nxt]
        if out:
            return tuple(out)
    raise ConfigError("bigram table produced 1000 empty sentences in a row")


def _emit_features(spec: DomainSpec, tokens: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    # the draws of `k = rng.integers(1, 4)` frames, then `rng.standard_normal((k,
    # d_x))`, per token.  numpy makes k = 1 + (3x >> 32) from a 32-bit half x of
    # a PCG64 word, rejecting only x = 0, and keeps the high half for the next
    # 32-bit draw; normals read whole words and leave that half alone.  So
    # tokens 2j and 2j+1 take the low and the high half of one word, and their
    # noise is one run of the stream.  Each utterance starts with no half kept
    # (`gen_corpus` sets the state, `_sample_tokens` reads whole words).  On a
    # zero half the word is given back and numpy draws the rest per token.
    n, d_x = len(tokens), spec.d_x
    bg = rng.bit_generator
    counts, noise = [], []
    for i in range(0, n, 2):
        word = bg.random_raw()
        lo, hi = word & _M32, word >> 32
        if not lo or not hi and i + 1 < n:
            bg.advance(-1)
            for _ in range(i, n):
                k = int(rng.integers(1, 4))
                counts.append(k)
                noise.append(rng.standard_normal((k, d_x)))
            break
        pair = (1 + (3 * lo >> 32), 1 + (3 * hi >> 32))[: n - i]
        counts += pair
        noise.append(rng.standard_normal((sum(pair), d_x)))
    return spec.prototypes[np.array(tokens).repeat(counts)] + spec.noise_sigma * np.concatenate(noise)


# numpy's SeedSequence (pool size 4) and PCG64 seeding constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_states(key: tuple[int, ...], n: int) -> Iterator[tuple[int, int]]:
    """(state, inc) of `np.random.default_rng((*key, i)).bit_generator` for i < n.

    Replays `SeedSequence` and `PCG64` seeding for all n at once: every
    entry becomes its little-endian uint32 words (zero is one word), and
    uint32 arithmetic runs on uint64 arrays masked to 32 bits.  Only the
    last word, i, varies, so the hash constants are plain ints.  `key`
    gives at least three words, so the pool of four needs no padding.
    The 128-bit states are made as Python ints one i at a time.
    """
    words = []
    for k in map(operator.index, key):  # numpy integers too, as `SeedSequence` takes them
        words.append(k & _M32)
        while k := k >> 32:
            words.append(k & _M32)
    entropy = np.empty((len(words) + 1, n), dtype=np.uint64)
    entropy[:-1] = np.array(words, dtype=np.uint64)[:, None]
    entropy[-1] = np.arange(n)
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        return v ^ (v >> 16)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[j]) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    # generate_state(4, np.uint64): 8 words from the cycled pool, paired little-endian
    h = _INIT_B
    out = []
    for j in range(8):
        v = pool[j % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        out.append(v ^ (v >> 16))
    seeds = [map(int, out[2 * j] | out[2 * j + 1] << 32) for j in range(4)]
    for s0, s1, q0, q1 in zip(*seeds):
        inc = ((q0 << 64 | q1) << 1 | 1) & _M128
        yield ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128, inc


def gen_corpus(
    spec: DomainSpec,
    seed: int,
    n_utts: int,
    split: str = "train",
    text_only: bool = False,
) -> Corpus:
    """Sample a corpus; each utterance is deterministic in (seed, split, index).

    Utterance i draws from `np.random.default_rng((seed, split code,
    text_only, i))`: one generator is set to each of those states in turn.
    Empty bigram draws are redrawn, so every sequence is non-empty.
    """
    if split not in _SPLIT_CODE:
        raise ConfigError(f"split must be one of {sorted(_SPLIT_CODE)}, got {split!r}")
    if n_utts < 0:
        raise ConfigError(f"n_utts must be >= 0, got {n_utts}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    cdf = np.cumsum(spec.bigram, axis=1, dtype=np.float64)  # per call: `spec.bigram` is mutable
    cdf = (cdf / cdf[:, -1:]).tolist()
    bg = np.random.PCG64(0)
    rng = np.random.Generator(bg)
    items = []
    for i, (state, inc) in enumerate(_pcg64_states((seed, _SPLIT_CODE[split], int(text_only)), n_utts)):
        bg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        tokens = _sample_tokens(cdf, rng)
        feats = None if text_only else _emit_features(spec, tokens, rng)
        items.append(Utterance(uid=f"{split}-{i:05d}", features=feats, tokens=tokens))
    return Corpus(split=split, seed=seed, vocab=spec.vocab, items=tuple(items))


def chain_entropy_rate(spec: DomainSpec) -> float:
    """Expected per-event negative log-probability of the chain, EOS included.

    Ignores the sentence-length cap; keep the expected length well under
    the cap when using this as an oracle.
    """
    v = spec.vocab.size
    p = spec.bigram
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0, np.log(p), 0.0)
    row_h = -(p * logs).sum(axis=1)  # entropy of each context row
    q = p[:v, :v]  # token-context to token-context transitions
    start = p[v, :v]
    visits = np.linalg.solve(np.eye(v) - q.T, start)  # expected visits per token context
    total_h = row_h[v] + float(visits @ row_h[:v])
    total_events = 1.0 + float(visits.sum())
    return total_h / total_events


def corpus_log_loss(spec: DomainSpec, corpus: Corpus) -> float:
    """Mean per-event NLL of the true table on generated text.

    Sentences at the length cap contribute no EOS event (they were
    truncated, not terminated).
    """
    v = spec.vocab.size
    nll = 0.0
    events = 0
    for it in corpus.items:
        ctx = v
        for tok in it.tokens:
            nll -= float(np.log(spec.bigram[ctx, tok]))
            ctx = tok
            events += 1
        if len(it.tokens) < MAX_SENTENCE_LEN:
            nll -= float(np.log(spec.bigram[ctx, v]))
            events += 1
    return nll / events


def confusable_pair_domains(
    vocab: Vocabulary, d_x: int, seed: int, noise_sigma: float = 0.3
) -> tuple[DomainSpec, DomainSpec]:
    """Source/target DomainSpecs sharing prototypes and noise.

    The lab's one fixed recipe.  Tokens come in confusable pairs whose
    prototypes lie 0.65 apart; cluster-level transition structure is shared
    (Dirichlet(0.1) rows, EOS 0.12 after every token), and only the
    within-pair member preference differs between the domains, so the
    shift lives entirely in the label prior.  The source takes the second
    member of a pair with a balanced 0.5 (no prior signal within a pair),
    the target with a biased 0.92: adapting the prior toward the target
    then helps target decisions first-order while costing the balanced
    source only second-order.
    """
    v = vocab.size
    if v % 2 != 0:
        raise ConfigError("confusable-pair construction needs an even vocabulary size")
    n_pairs = v // 2
    rng = np.random.default_rng(seed)

    centers = rng.standard_normal((n_pairs, d_x))
    offsets = rng.standard_normal((n_pairs, d_x))
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    prototypes = np.empty((v, d_x))
    prototypes[0::2] = centers - 0.5 * 0.65 * offsets
    prototypes[1::2] = centers + 0.5 * 0.65 * offsets

    # shared cluster-level chain: rows = clusters + start, cols = clusters + EOS
    cluster = np.zeros((n_pairs + 1, n_pairs + 1))
    for row in range(n_pairs + 1):
        w = rng.dirichlet(np.full(n_pairs, 0.1))
        if row == n_pairs:  # start row: never empty sentences
            cluster[row, :n_pairs] = w
        else:
            cluster[row, :n_pairs] = (1.0 - 0.12) * w
            cluster[row, n_pairs] = 0.12

    def expand(bias_second: float) -> np.ndarray:
        table = np.zeros((v + 1, v + 1))
        for row in range(v + 1):
            crow = cluster[row // 2] if row < v else cluster[n_pairs]
            for d in range(n_pairs):
                table[row, 2 * d] = crow[d] * (1.0 - bias_second)
                table[row, 2 * d + 1] = crow[d] * bias_second
            table[row, v] = crow[n_pairs]
        table /= table.sum(axis=1, keepdims=True)
        return table

    source = DomainSpec(vocab, expand(0.5), prototypes, noise_sigma)
    target = DomainSpec(vocab, expand(0.92), prototypes, noise_sigma)
    return source, target


# -- text and paired corpus files -----------------------------------------


def write_vocab(vocab: Vocabulary, path: str) -> None:
    with open(path, "w") as f:
        for name in vocab.names:
            f.write(name + "\n")


def read_vocab(path: str) -> Vocabulary:
    with open(path) as f:
        names = [line.strip() for line in f if line.strip()]
    try:
        return Vocabulary(tuple(names))
    except VocabError as e:
        raise VocabError(f"{path}: {e}") from None


def write_text_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w") as f:
        for it in corpus.items:
            f.write(corpus.vocab.text(it.tokens) + "\n")


def read_text_corpus(path: str, vocab: Vocabulary) -> Corpus:
    items = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            names = line.split()
            if not names:
                continue
            try:
                tokens = tuple(vocab.id_of(n) for n in names)
            except VocabError as e:
                raise VocabError(f"{path}:{lineno}: {e}") from None
            items.append(Utterance(uid=f"train-{lineno:05d}", features=None, tokens=tokens))
    return Corpus(split="train", seed=0, vocab=vocab, items=tuple(items))


def write_corpus(corpus: Corpus, path: str) -> None:
    """Paired corpora: text manifest at `path` plus binary features at `path.feats`.

    An utterance without features, or with a feature that is NaN or
    infinite in float32, raises ConfigError naming it before any file is
    created; an empty corpus writes a manifest of `count 0`.
    """
    bare = [it.uid for it in corpus.items if it.features is None]
    if bare:
        raise ConfigError(f"{path}: utterance {bare[0]} has no features")
    with np.errstate(over="ignore"):  # a value beyond float32's range turns inf, refused below
        blobs = [np.ascontiguousarray(it.features, dtype="<f4") for it in corpus.items]
    for it, feats in zip(corpus.items, blobs):
        if not np.isfinite(feats).all():
            raise ConfigError(f"{path}: utterance {it.uid} holds a non-finite feature")
    with open(path, "w") as mf, open(path + ".feats", "wb") as bf:
        mf.write("format mhat-corpus-v1\n")
        mf.write(f"split {corpus.split}\n")
        mf.write(f"seed {corpus.seed}\n")
        mf.write(f"vocab.hash {corpus.vocab.digest()}\n")
        mf.write(f"count {len(corpus.items)}\n")
        for it, feats in zip(corpus.items, blobs):
            mf.write(f"utt {it.uid} {feats.shape[0]} {corpus.vocab.text(it.tokens)}\n")
            header = np.array(feats.shape, dtype="<u4")
            bf.write(header.tobytes())
            bf.write(feats.tobytes())


def read_corpus(path: str, vocab: Vocabulary) -> Corpus:
    """Read a paired corpus written by `write_corpus`.

    A malformed manifest or feature file raises ConfigError, as do a
    `count` line that differs from the number of `utt` lines, a feature
    file with bytes after the last record, a NaN or infinite feature,
    which `write_corpus` refuses too, and an utterance whose feature width
    differs from the first's; an unknown token raises VocabError naming
    its line.
    """
    try:
        with open(path, encoding="utf-8") as mf:
            lines = mf.read().splitlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a corpus manifest (not UTF-8 text)") from None
    if not lines or lines[0] != "format mhat-corpus-v1":
        raise ConfigError(f"{path}: not a corpus manifest")
    header: dict[str, str] = {}
    utt_lines: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("utt "):
            utt_lines.append((lineno, line))
        elif line:
            k, _, rest = line.partition(" ")
            header[k] = rest
    if header.get("vocab.hash") != vocab.digest():
        raise ConfigError(f"{path}: vocabulary hash mismatch")
    try:
        seed = int(header.get("seed", "0"))
    except ValueError:
        raise ConfigError(f"{path}: bad seed {header['seed']!r}") from None
    if "count" not in header:
        raise ConfigError(f"{path}: no 'count' line")
    if header["count"] != str(len(utt_lines)):
        raise ConfigError(f"{path}: count {header['count']!r} but {len(utt_lines)} 'utt' lines")
    items = []
    with open(path + ".feats", "rb") as bf:
        remaining = os.fstat(bf.fileno()).st_size
        for lineno, line in utt_lines:
            parts = line.split()
            try:
                uid, t_len = parts[1], int(parts[2])
            except (IndexError, ValueError):
                raise ConfigError(f"{path}:{lineno}: expected 'utt <id> <frames> <tokens>', got {line!r}") from None
            try:
                tokens = tuple(vocab.id_of(n) for n in parts[3:])
            except VocabError as e:
                raise VocabError(f"{path}:{lineno}: {e}") from None
            head = bf.read(8)
            shape = np.frombuffer(head, dtype="<u4") if len(head) == 8 else None
            if shape is None or int(shape[0]) != t_len:
                raise ConfigError(f"{path}: feature record for {uid} does not match manifest")
            if items and int(shape[1]) != items[0].features.shape[1]:
                raise ConfigError(f"{path}: utterance {uid} has feature width {int(shape[1])}, "
                                  f"utterance {items[0].uid} has {items[0].features.shape[1]}")
            size = 4 * t_len * int(shape[1])
            remaining -= 8 + size
            if remaining < 0:
                raise ConfigError(f"{path}: feature file truncated at {uid}")
            feats = np.frombuffer(bf.read(size), dtype="<f4").astype(np.float64).reshape(t_len, int(shape[1]))
            if not np.isfinite(feats).all():
                raise ConfigError(f"{path}: utterance {uid} holds a non-finite feature")
            items.append(Utterance(uid=uid, features=feats, tokens=tokens))
    if remaining:
        raise ConfigError(f"{path}: feature file has {remaining} bytes after the last record")
    return Corpus(
        split=header.get("split", "train"),
        seed=seed,
        vocab=vocab,
        items=tuple(items),
    )


# -- checkpoints -----------------------------------------------------------

_CKPT_FORMAT = "mhat-checkpoint-v1"
_KINDS = {"mhat": MhatModel, "hat": HatModel, "lm": ExternalLm}


def save_checkpoint(model_or_lm, path: str) -> None:
    """Text manifest at `path` plus little-endian float32 blob at `path.bin`.

    A parameter with a NaN or an infinity in float32 raises CheckpointError
    naming the tensor, before any file is created.
    """
    m = model_or_lm
    names = sorted(m.params.entries)
    blobs = [np.ascontiguousarray(m.params[name].data, dtype="<f4") for name in names]
    for name, blob in zip(names, blobs):
        if not np.isfinite(blob).all():
            raise CheckpointError(f"cannot save {path}: tensor {name!r} holds a non-finite value")
    with open(path, "w") as f:
        f.write(f"format {_CKPT_FORMAT}\n")
        f.write(f"kind {m.kind}\n")
        f.write("dtype float32\n")
        f.write(f"vocab.size {m.vocab.size}\n")
        f.write(f"vocab.hash {m.vocab.digest()}\n")
        for i, name in enumerate(m.vocab.names):
            f.write(f"token.{i} {name}\n")
        for key, value in sorted(m.config_items().items()):
            f.write(f"config.{key} {value}\n")
        for i, name in enumerate(names):
            t = m.params[name]
            shape = ",".join(str(d) for d in t.data.shape)
            f.write(f"tensor.{i} {name} {m.params.group[name]} {shape}\n")
    with open(path + ".bin", "wb") as bf:
        for blob in blobs:
            bf.write(blob.tobytes())


def _parse_manifest(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint manifest {path}: {e}") from None
    except UnicodeDecodeError:
        lines = []
    if not lines or lines[0] != f"format {_CKPT_FORMAT}":
        raise CheckpointError(f"{path}: not a {_CKPT_FORMAT} manifest")
    kind = None
    tokens: dict[int, str] = {}
    config: dict[str, str] = {}
    tensors: list[tuple[str, str, tuple[int, ...]]] = []
    header: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        key, _, rest = line.partition(" ")
        try:
            if key == "kind":
                kind = rest
            elif key.startswith("token."):
                tokens[int(key[6:])] = rest
            elif key.startswith("config."):
                config[key[7:]] = rest
            elif key.startswith("tensor."):
                name, group, shape_s = rest.split(" ")
                shape = tuple(int(d) for d in shape_s.split(",") if d != "")
                tensors.append((name, group, shape))
            else:
                header[key] = rest
        except ValueError:
            raise CheckpointError(f"{path}: malformed manifest line {line!r}") from None
    if kind not in _KINDS:
        raise CheckpointError(f"{path}: unknown checkpoint kind {kind!r}")
    if sorted(tokens) != list(range(len(tokens))):
        raise CheckpointError(f"{path}: token ids are not 0..{len(tokens) - 1}")
    try:
        vocab = Vocabulary(tuple(tokens[i] for i in range(len(tokens))))
    except VocabError as e:
        raise CheckpointError(f"{path}: {e}") from None
    if header.get("vocab.hash") != vocab.digest() or header.get("vocab.size") != str(vocab.size):
        raise CheckpointError(f"{path}: vocabulary hash mismatch")
    if header.get("dtype") != "float32":  # the blob is read as little-endian float32
        raise CheckpointError(f"{path}: unsupported dtype {header.get('dtype')!r}, expected 'float32'")
    return kind, vocab, config, tensors


def load_checkpoint(path: str, expect: str | None = None):
    """Rebuild a model or LM from a checkpoint; validates kind, shapes, hash
    and values (a NaN or an infinity raises CheckpointError).

    `expect` may be a kind ("mhat", "hat", "lm") or the family "asr".
    """
    kind, vocab, config, tensors = _parse_manifest(path)
    if expect is not None:
        ok = kind == expect or (expect == "asr" and kind in ("mhat", "hat"))
        if not ok:
            raise CheckpointError(f"{path}: kind mismatch: checkpoint is {kind!r}, expected {expect!r}")
    try:
        blob = np.fromfile(path + ".bin", dtype="<f4")
        n_bytes = os.path.getsize(path + ".bin")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint blob {path}.bin: {e}") from None
    try:
        m = _KINDS[kind].from_config(vocab, config)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{path}: bad model config: {e}") from None
    offset = 0
    for name, group, shape in tensors:
        size = int(np.prod(shape)) if shape else 1
        if name not in m.params:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        t = m.params[name]
        if t.data.shape != shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: manifest {shape}, model {t.data.shape}"
            )
        if m.params.group[name] != group:
            raise CheckpointError(f"{path}: group mismatch for {name!r}")
        if offset + size > blob.size:
            raise CheckpointError(f"{path}: blob truncated at tensor {name!r}")
        values = blob[offset : offset + size]
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        t.data = values.astype(np.float64).reshape(shape)
        offset += size
    if offset != blob.size:
        raise CheckpointError(f"{path}: blob has {blob.size - offset} trailing values")
    if n_bytes != 4 * blob.size:  # fromfile drops a ragged tail
        raise CheckpointError(f"{path}: blob of {n_bytes} bytes is not a whole number of float32 values")
    if len(tensors) != len(m.params.entries):
        missing = sorted(set(m.params.entries) - {n for n, _, _ in tensors})
        raise CheckpointError(f"{path}: missing tensor {missing[0]!r}")
    return m
