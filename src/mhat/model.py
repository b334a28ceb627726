"""HAT and MHAT network components.

Both models share a windowed tanh encoder and bigram-context embedding
decoders.  The MHAT variant keeps label and blank prediction structurally
separate: the encoder projects to acoustic label scores, the label decoder
projects to internal-LM label scores, and the two meet only at the output
softmax; the blank head reads the encoder and a separate (tiny) blank
decoder.  The baseline HAT runs one decoder into a shared joint network.

Parameter groups:
  encoder       encoder stack + acoustic projection
  blank_branch  blank decoder + joint combiner (HAT: joint only)
  ilm           label decoder + internal-LM projection (HAT: decoder + label head)
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import numerics as nm
from .numerics import ParameterSet, Tensor


class VocabError(ValueError):
    """A token id or name outside the vocabulary."""


class ConfigError(ValueError):
    """Inconsistent model or run configuration."""


class StructureError(ValueError):
    """No alignment exists for an utterance: it has no frames."""


@dataclass(frozen=True)
class Vocabulary:
    """Fixed label inventory; blank is not an entry (it has its own head).

    The start-of-sentence id equals `size` and is used only as decoder
    context padding, never emitted or scored.  Names are distinct,
    non-empty and free of whitespace, so that text files round-trip;
    anything else, or no names at all, raises VocabError.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise VocabError("the vocabulary has no tokens")
        for i, name in enumerate(self.names):
            if name.split() != [name]:
                raise VocabError(f"token name {name!r} is empty or contains whitespace")
            if name in self.names[:i]:
                raise VocabError(f"duplicate token name {name!r}")

    @staticmethod
    def default(size: int) -> "Vocabulary":
        if size < 1:
            raise ConfigError("vocabulary size must be >= 1")
        width = len(str(size - 1))
        return Vocabulary(tuple(f"w{i:0{width}d}" for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def sos_id(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise VocabError(f"unknown token name: {name!r}") from None

    def text(self, ids: Sequence[int]) -> str:
        self.check_ids(ids)
        return " ".join(self.names[i] for i in ids)

    def check_ids(self, ids: Sequence[int]) -> None:
        for i in ids:
            if not 0 <= int(i) < self.size:
                raise VocabError(f"token id {i} out of range for |V|={self.size}")

    def digest(self) -> str:
        h = hashlib.sha1()
        for n in self.names:
            h.update(n.encode())
            h.update(b"\0")
        return h.hexdigest()


@dataclass(frozen=True)
class EncoderConfig:
    d_x: int
    context: int = 1
    layers: int = 2
    d_f: int = 64
    # activation is fixed to tanh


def context_codes(lengths: np.ndarray, toks: np.ndarray, sos_id: int) -> np.ndarray:
    """The context code of every label of `toks`, sentences of `lengths`
    labels each laid end to end: its SOS-padded last two labels before it,
    (prev2, prev1), as prev2 * (sos_id + 1) + prev1.  The codes are read
    across sentence ends, then mended at each sentence's first label and
    the label after it."""
    w = sos_id + 1
    padded = np.concatenate([[sos_id, sos_id], toks])  # label i follows padded[i] and padded[i + 1]
    code = padded[:-2] * w
    code += padded[1:-1]
    first = (np.cumsum(lengths) - lengths)[lengths > 0]
    second = first[first + 1 < toks.size] + 1  # a second label, or the next sentence's first
    code[second] = sos_id * w + toks[second - 1]
    code[first] = sos_id * w + sos_id  # also where `second` was a first label
    return code


def context_pairs(codes: np.ndarray, sos_id: int) -> np.ndarray:
    """The (prev2, prev1) pair of each context code: (n, 2)."""
    return np.stack(np.divmod(codes, sos_id + 1), axis=1)


@functools.cache
def next_context_codes(sos_id: int) -> np.ndarray:
    """Row c, column k: the code of context c extended by label k, (prev1, k).  Read only."""
    w = sos_id + 1
    return (np.arange(w * w) % w * w)[:, None] + np.arange(sos_id)


def bigram_contexts(tokens: Sequence[int], sos_id: int) -> np.ndarray:
    """Decoder context pairs for every step of a label sequence.

    Row j holds the last two labels after j emissions, with missing
    history filled by the start-of-sentence id; row 0 is (sos, sos).
    """
    toks = np.append(np.asarray(tokens, dtype=np.int64), sos_id)  # a stand-in label for the step after the last
    return context_pairs(context_codes(np.array([toks.size]), toks, sos_id), sos_id)


def _token_array(transcripts: Sequence[Sequence[int]], sos_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Sentence lengths and all tokens concatenated; ids must lie in [0, sos_id)."""
    lengths = np.fromiter(map(len, transcripts), dtype=np.int64, count=len(transcripts))
    toks = np.fromiter(itertools.chain.from_iterable(transcripts), dtype=np.int64, count=int(lengths.sum()))
    bad = (toks < 0) | (toks >= sos_id)
    if bad.any():
        raise VocabError(f"token id {toks[bad][0]} out of range for |V|={sos_id}")
    return lengths, toks


class ContextTable(NamedTuple):
    """One batch's next-event counts, one row per distinct decoder context.

    `contexts` holds the distinct (prev2, prev1) pairs in ascending order,
    (k, 2); `counts[i, y]` is how often event y follows context i, (k, n_out).
    """

    contexts: np.ndarray
    counts: np.ndarray


class EventCodes:
    """Every sentence's (context, event) codes, encoded once per call.

    Token ids lie in [0, size), and SOS and EOS are both `size`.  A
    sentence's events are its labels in order, plus one EOS event after its
    last label when `eos`; each follows the SOS-padded last two labels
    before it, (prev2, prev1), and its code is c * n_out + event, with
    context code c = prev2 * (size + 1) + prev1 and n_out = size + eos.
    Every token id of `transcripts` is checked here.
    """

    def __init__(self, transcripts: Sequence[Sequence[int]], size: int, eos: bool = False):
        lengths, toks = _token_array(transcripts, size)
        if eos:  # one end event after each sentence's last label
            toks = np.insert(toks, np.cumsum(lengths), size)
            lengths = lengths + 1
        self.starts = np.cumsum(lengths) - lengths
        self.width, self.n_out, self.lengths = size + 1, size + eos, lengths
        self.code = context_codes(lengths, toks, size) * self.n_out + toks

    def tables(self, batches: Sequence[np.ndarray]) -> Iterator[ContextTable]:
        """The `ContextTable` of each batch in turn, from one sort.

        `batches[b]` holds the indices of batch b's sentences, and a sentence
        may sit in many batches.  The codes of all batches are sorted in one
        pass keyed by (batch, code); each table is then sliced out and counted,
        and depends only on its batch's multiset of sentences.
        """
        span = self.width * self.width * self.n_out
        if len(batches) * span > 2**63:
            raise ConfigError(f"{len(batches)} batches at |V|={self.width - 1} overflow the int64 sort keys")
        # every batch's events, batch by batch: slot j holds sentence sent[j]
        sent = np.concatenate([np.zeros(0, dtype=np.int64), *batches])
        slot_events = self.lengths[sent]
        slot_end = np.concatenate([[0], np.cumsum(slot_events)])
        event_off = slot_end[np.concatenate([[0], np.cumsum([len(b) for b in batches], dtype=np.int64)])]
        batch = np.repeat(np.arange(len(batches)), np.diff(event_off))
        key = self.code[np.repeat(self.starts[sent] - slot_end[:-1], slot_events) + np.arange(slot_end[-1])]
        key += batch * span
        # sorting ranks each batch's contexts in ascending order, and batch
        # b's events keep their place [event_off[b], event_off[b + 1])
        key.sort()
        row_key, event = np.divmod(key, self.n_out)
        new_row = np.ones(row_key.size, dtype=bool)
        new_row[1:] = row_key[1:] != row_key[:-1]
        rows = np.cumsum(new_row)
        row_off = np.concatenate([[0], rows])[event_off]
        contexts = context_pairs(row_key[new_row] % (self.width * self.width), self.width - 1)
        cell = (rows - 1 - row_off[batch]) * self.n_out + event  # each event's cell in its batch's table
        for b in range(len(batches)):
            k = row_off[b + 1] - row_off[b]
            counts = np.bincount(cell[event_off[b] : event_off[b + 1]], minlength=k * self.n_out)
            yield ContextTable(contexts[row_off[b] : row_off[b + 1]], counts.reshape(k, self.n_out))


def context_counts(transcripts: Sequence[Sequence[int]], size: int, eos: bool = False) -> ContextTable:
    """The `ContextTable` of one batch: `EventCodes.tables` of that one batch."""
    return next(EventCodes(transcripts, size, eos).tables([np.arange(len(transcripts))]))


@dataclass(frozen=True)
class LatticeCells:
    """The valid lattice cells of a batch, packed, label-arc cells first.

    Cell c is frame t[c] (0-based) of utterance b[c] after u[c] emissions,
    for t < T_b and u <= U_b.  The first `n_label` cells are those with
    u < U_b, in (b, t, u) order; each carries a label arc emitting
    `labels[c]`.  The u = U_b cells follow, also in (b, t, u) order.
    `frame[c]` indexes the batch's stacked encoder frames and `ctx[c]` the
    rows of `contexts`, the batch's distinct (prev2, prev1) decoder
    contexts in ascending order.
    """

    t_lens: np.ndarray  # (B,)
    u_lens: np.ndarray  # (B,)
    b: np.ndarray  # (N,)
    t: np.ndarray  # (N,)
    u: np.ndarray  # (N,)
    frame: np.ndarray  # (N,)
    ctx: np.ndarray  # (N,)
    contexts: np.ndarray  # (K, 2)
    labels: np.ndarray  # (n_label,)

    @property
    def n_label(self) -> int:
        return self.labels.size


def lattice_cells(t_lens: Sequence[int], transcripts: Sequence[Sequence[int]], sos_id: int) -> LatticeCells:
    """Pack the (T_b, U_b + 1) lattice grids of a batch into one cell list."""
    t_lens = np.asarray(t_lens, dtype=np.int64)
    u_lens, toks = _token_array(transcripts, sos_id)
    tok0 = np.cumsum(u_lens) - u_lens  # each utterance's first token in `toks`
    # label cells (u < U_b), then last cells (u = U_b), each in (b, t, u) order
    sizes = t_lens * u_lens
    b = np.repeat(np.arange(t_lens.size), sizes)
    t, u = np.divmod(np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes), u_lens[b])
    b_last = np.repeat(np.arange(t_lens.size), t_lens)
    b = np.concatenate([b, b_last])
    t = np.concatenate([t, np.arange(t_lens.sum()) - np.repeat(np.cumsum(t_lens) - t_lens, t_lens)])
    u = np.concatenate([u, u_lens[b_last]])
    # the context after u emissions, for every (b, u) of an utterance with
    # frames: that of label u once a stand-in label ends each sentence
    codes = context_codes(u_lens + 1, np.insert(toks, tok0 + u_lens, sos_id), sos_id)
    keys, ctx = np.unique(codes[np.repeat(t_lens > 0, u_lens + 1)], return_inverse=True)
    steps = (u_lens + 1) * (t_lens > 0)
    first = np.cumsum(steps) - steps
    n_label = sizes.sum()
    return LatticeCells(
        t_lens=t_lens,
        u_lens=u_lens,
        b=b,
        t=t,
        u=u,
        frame=(np.cumsum(t_lens) - t_lens)[b] + t,
        ctx=ctx.reshape(-1)[first[b] + u],
        contexts=context_pairs(keys, sos_id),
        labels=toks[tok0[b[:n_label]] + u[:n_label]],
    )


def context_of(prefix: Sequence[int], sos_id: int) -> tuple[int, int]:
    """The (second-last, last) label pair for a prefix, SOS-padded."""
    p1 = int(prefix[-1]) if len(prefix) >= 1 else sos_id
    p2 = int(prefix[-2]) if len(prefix) >= 2 else sos_id
    return (p2, p1)


class EmbeddingDecoder:
    """Bigram-context embedding decoder.

    Looks up the last two labels in per-position tables (shared when
    tied), concatenates, and projects back down to the embedding dim with
    a plain affine map.
    """

    def __init__(
        self,
        params: ParameterSet,
        name: str,
        vocab: Vocabulary,
        embed_dim: int,
        group: str,
        rng: np.random.Generator,
        *,
        tied_tables: bool,
    ):
        d = embed_dim
        rows = vocab.size + 1  # +1 row for SOS context
        if tied_tables:
            self.table0 = params.add(f"{name}.table", 0.5 * rng.standard_normal((rows, d)), group)
            self.table1 = self.table0
        else:
            self.table0 = params.add(f"{name}.table0", 0.5 * rng.standard_normal((rows, d)), group)
            self.table1 = params.add(f"{name}.table1", 0.5 * rng.standard_normal((rows, d)), group)
        self.proj_w = params.add(
            f"{name}.proj.weight", rng.standard_normal((d, 2 * d)) / np.sqrt(2 * d), group
        )
        self.proj_b = params.add(f"{name}.proj.bias", np.zeros(d), group)

    def outputs(self, ctx: np.ndarray) -> Tensor:
        """Decoder outputs for a batch of (prev2, prev1) context rows."""
        return nm.embed_affine(self.table0, self.table1, ctx, self.proj_w, self.proj_b)

    def output_np(self, ctx: tuple[int, int]) -> np.ndarray:
        e = np.concatenate([self.table0.data[ctx[0]], self.table1.data[ctx[1]]])
        return self.proj_w.data @ e + self.proj_b.data


class Encoder:
    """Stack of affine+tanh layers over a (2c+1)-frame zero-padded window."""

    def __init__(self, params: ParameterSet, cfg: EncoderConfig, rng: np.random.Generator):
        if cfg.d_f < 1 or cfg.layers < 1 or cfg.context < 0:
            raise ConfigError(f"bad encoder config: {cfg}")
        self.cfg = cfg
        self.weights: list[tuple[Tensor, Tensor]] = []
        d_in = (2 * cfg.context + 1) * cfg.d_x
        for i in range(cfg.layers):
            w = params.add(
                f"encoder.layer{i}.weight",
                rng.standard_normal((cfg.d_f, d_in)) / np.sqrt(d_in),
                "encoder",
            )
            b = params.add(f"encoder.layer{i}.bias", np.zeros(cfg.d_f), "encoder")
            self.weights.append((w, b))
            d_in = cfg.d_f

    def frames(self, xs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The frames of a sequence of (T, d_x) utterances, stacked, and their
        lengths: the one check that utterances can be scored.  Per utterance,
        in turn: not 2-D raises ConfigError, a wrong width ConfigError, no
        frames StructureError (no alignment exists); the first and the last
        name its position in `xs`.  Then a non-finite feature raises
        ConfigError naming its frame."""
        xs = [np.asarray(x, dtype=np.float64) for x in xs]
        for u, x in enumerate(xs):
            if x.ndim != 2:
                raise ConfigError(f"utterance {u} has shape {x.shape}: each utterance is a (T, d_x) array")
            if x.shape[1] != self.cfg.d_x:
                raise ConfigError(f"feature dim mismatch: got {x.shape}, encoder expects (T, {self.cfg.d_x})")
            if not len(x):
                raise StructureError(f"no alignment exists for utterance {u}: it has no frames (T=0)")
        X = np.concatenate(xs)
        t_lens = np.array([len(x) for x in xs])
        if not np.isfinite(X).all():
            i, d = np.argwhere(~np.isfinite(X))[0]
            t = i - (np.cumsum(t_lens) - t_lens)[np.repeat(np.arange(len(xs)), t_lens)[i]]
            raise ConfigError(f"non-finite feature {float(X[i, d])!r} at frame {t}")
        return X, t_lens

    def windows(self, xs: list[np.ndarray]) -> np.ndarray:
        """The zero-padded (2c+1)-frame windows of every frame of a list of
        (T, d_x) utterances, stacked, from one gather."""
        X, t_lens = self.frames(xs)
        b = np.repeat(np.arange(len(xs)), t_lens)
        # utterance b's frames sit between c zero rows of their own on each side
        c = self.cfg.context
        rows = np.arange(len(X)) + c * (2 * b + 1)
        padded = np.zeros((len(X) + 2 * c * len(xs), self.cfg.d_x))
        padded[rows] = X
        return padded[rows[:, None] + np.arange(-c, c + 1)].reshape(len(X), (2 * c + 1) * self.cfg.d_x)

    def forward(self, X: np.ndarray | list[np.ndarray]) -> Tensor:
        """Outputs for one (T, d_x) utterance, or the stacked frames of a list of them."""
        h: Tensor = Tensor(self.windows(X if isinstance(X, list) else [X]))
        for w, b in self.weights:
            h = nm.tanh(nm.affine(h, w, b))
        return h


class _JointCombiner:
    """tanh(W1 f + W2 g + b) followed by a scalar blank logit head."""

    def __init__(self, params: ParameterSet, d_f: int, d_g: int, d_h: int, rng):
        self.w1 = params.add("joint.w1", rng.standard_normal((d_h, d_f)) / np.sqrt(d_f), "blank_branch")
        self.w2 = params.add("joint.w2", rng.standard_normal((d_h, d_g)) / np.sqrt(d_g), "blank_branch")
        self.hidden_bias = params.add("joint.hidden_bias", np.zeros(d_h), "blank_branch")
        self.v = params.add("joint.v", rng.standard_normal(d_h) / np.sqrt(d_h), "blank_branch")
        self.v_bias = params.add("joint.v_bias", np.zeros(()), "blank_branch")

    def hidden(self, f: Tensor | np.ndarray, g: Tensor | np.ndarray) -> Tensor:
        return nm.tanh(nm.add(nm.affine(f, self.w1, self.hidden_bias), nm.affine(g, self.w2)))

    def hidden_cells(self, F: Tensor, G: Tensor, cells: LatticeCells) -> Tensor:
        """Hidden rows at every lattice cell, from frame rows F and context rows G.

        One fused op squashes the gathered sums in place, so the graph keeps
        the hidden rows and not their pre-activations as well: 3.9 MB less
        at the largest seed-0 training batch of the standard config.
        """
        zf, zg = nm.affine(F, self.w1, self.hidden_bias), nm.affine(G, self.w2)
        return nm.tanh_gather_sum(zf, cells.frame, zg, cells.ctx)

    def blank_logit(self, h: Tensor) -> Tensor:
        return nm.dot(h, self.v, self.v_bias)


def label_posterior(a: Tensor | np.ndarray, l: Tensor | np.ndarray) -> Tensor:
    """Combined label log-posterior: softmax over summed AM and LM log scores."""
    return nm.log_softmax(nm.add(a, l))


_ENCODER_KEYS = ("d_x", "context", "layers", "d_f")


class _AsrModel:
    """The encoder and checkpoint bookkeeping shared by MhatModel and HatModel.

    A subclass names its integer size arguments in `dim_keys` and passes
    them here, which checks each and keeps it as an attribute of its name.
    """

    def __init__(self, vocab: Vocabulary, encoder: EncoderConfig, rng: np.random.Generator, **dims: int):
        for name, dim in dims.items():  # a zero width builds, then fails in the first backward pass
            if dim < 1:
                raise ConfigError(f"{name} must be >= 1, got {dim}")
            setattr(self, name, dim)
        self.vocab = vocab
        self.enc_cfg = encoder
        self.trained_alpha: float | None = None
        self.params = ParameterSet()
        self.encoder = Encoder(self.params, encoder, rng)

    def context_log_prob_rows(self, ctx: np.ndarray) -> Tensor:
        """Internal-LM log-prob rows for (n, 2) decoder contexts: (n, |V|)."""
        return nm.log_softmax(self.context_logits(ctx))

    def param_counts(self) -> dict[str, int]:
        counts = self.params.group_sizes()
        counts["total"] = self.params.size()
        return counts

    def config_items(self) -> dict[str, str]:
        items = {f"encoder.{k}": str(getattr(self.enc_cfg, k)) for k in _ENCODER_KEYS}
        items.update({k: str(getattr(self, k)) for k in self.dim_keys})
        items["trained_alpha"] = "" if self.trained_alpha is None else repr(self.trained_alpha)
        return items

    @classmethod
    def from_config(cls, vocab: Vocabulary, cfg: dict[str, str]):
        enc = EncoderConfig(**{k: int(cfg[f"encoder.{k}"]) for k in _ENCODER_KEYS})
        m = cls(vocab, enc, **{k: int(cfg[k]) for k in cls.dim_keys})
        if cfg.get("trained_alpha"):
            m.trained_alpha = float(cfg["trained_alpha"])
        return m


class MhatModel(_AsrModel):
    """Modular HAT: separate blank/label decoders, additive label scores."""

    kind = "mhat"
    dim_keys = ("label_dim", "blank_dim", "joint_dim")

    def __init__(
        self,
        vocab: Vocabulary,
        encoder: EncoderConfig,
        label_dim: int = 64,
        blank_dim: int = 16,
        joint_dim: int = 32,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(vocab, encoder, rng, label_dim=label_dim, blank_dim=blank_dim, joint_dim=joint_dim)
        p = self.params
        self.am_w = p.add(
            "am_proj.weight", rng.standard_normal((vocab.size, encoder.d_f)) / np.sqrt(encoder.d_f), "encoder"
        )
        self.am_b = p.add("am_proj.bias", np.zeros(vocab.size), "encoder")
        self.blank_decoder = EmbeddingDecoder(p, "blank_decoder", vocab, blank_dim, "blank_branch", rng, tied_tables=True)
        self.joint = _JointCombiner(p, encoder.d_f, blank_dim, joint_dim, rng)
        self.label_decoder = EmbeddingDecoder(p, "label_decoder", vocab, label_dim, "ilm", rng, tied_tables=False)
        self.ilm_w = p.add(
            "ilm_proj.weight", rng.standard_normal((vocab.size, label_dim)) / np.sqrt(label_dim), "ilm"
        )
        self.ilm_b = p.add("ilm_proj.bias", np.zeros(vocab.size), "ilm")

    # -- single-step heads ------------------------------------------------
    def encode(self, X: np.ndarray) -> Tensor:
        return self.encoder.forward(X)

    def decode_blank(self, prefix: Sequence[int]) -> Tensor:
        self.vocab.check_ids(prefix)
        return self.blank_decoder.outputs(np.array(context_of(prefix, self.vocab.sos_id)))

    def decode_label(self, prefix: Sequence[int]) -> Tensor:
        self.vocab.check_ids(prefix)
        return self.label_decoder.outputs(np.array(context_of(prefix, self.vocab.sos_id)))

    def blank_logit(self, f_t: Tensor | np.ndarray, g_b: Tensor | np.ndarray) -> Tensor:
        return self.joint.blank_logit(self.joint.hidden(f_t, g_b))

    def blank_posterior(self, f_t: Tensor | np.ndarray, g_b: Tensor | np.ndarray) -> float:
        return nm.sigmoid(self.blank_logit(f_t, g_b).item())

    def am_log_probs(self, f_t: Tensor | np.ndarray) -> Tensor:
        return nm.log_softmax(nm.affine(f_t, self.am_w, self.am_b))

    def ilm_log_probs(self, g_l: Tensor | np.ndarray) -> Tensor:
        return nm.log_softmax(nm.affine(g_l, self.ilm_w, self.ilm_b))

    # -- sequence-level helpers --------------------------------------------
    def context_logits(self, ctx: np.ndarray) -> Tensor:
        """Internal-LM logits for (n, 2) decoder contexts: (n, |V|)."""
        return nm.affine(self.label_decoder.outputs(ctx), self.ilm_w, self.ilm_b)

    def context_log_prob_np(self, ctx: np.ndarray) -> np.ndarray:
        """`context_log_prob_rows(ctx)` from the same float operations on plain arrays, with no graph."""
        d = self.label_decoder
        e = np.concatenate([d.table0.data[ctx[:, 0]], d.table1.data[ctx[:, 1]]], axis=-1)
        h = _PlainOps.affine(e, d.proj_w, d.proj_b)  # `embed_affine`'s rows
        return nm.log_softmax_rows(_PlainOps.affine(h, self.ilm_w, self.ilm_b))

    def ilm_log_prob_rows(self, tokens: Sequence[int]) -> Tensor:
        """Internal-LM log-prob vectors for every step of a transcript: (U+1, |V|)."""
        self.vocab.check_ids(tokens)
        return self.context_log_prob_rows(bigram_contexts(tokens, self.vocab.sos_id))

    def arc_log_scores(self, batch: Sequence[tuple[np.ndarray, Sequence[int]]]) -> tuple[Tensor, Tensor, LatticeCells]:
        """Blank and label arc log-scores at the packed lattice cells of a batch.

        Returns (log_blank, log_label, cells): log_blank[c] is the log blank
        probability at cell c; log_label[c], for the first `cells.n_label`
        cells, the log of (1 - blank) times the posterior of `labels[c]`.
        """
        cells = lattice_cells([len(x) for x, _ in batch], [y for _, y in batch], self.vocab.sos_id)
        F = self.encode([x for x, _ in batch])
        s = self.joint.blank_logit(self.joint.hidden_cells(F, self.blank_decoder.outputs(cells.contexts), cells))
        log_blank = nm.log_sigmoid(s)
        log_keep = nm.log_sigmoid(nm.neg(s))
        n = cells.n_label
        A, L = self.am_log_probs(F), self.context_log_prob_rows(cells.contexts)
        picked = nm.log_softmax_at(nm.gather_sum(A, cells.frame[:n], L, cells.ctx[:n]), cells.labels)
        return log_blank, nm.add(log_keep[:n], picked), cells

    def scorer(self, X: np.ndarray | Sequence[np.ndarray]) -> "MhatScorer":
        """Decoding tables of one (T, d_x) utterance or of a sequence of them."""
        return MhatScorer(self, X)


class _PlainOps:
    """The engine ops `_zero_acoustics_logits` takes, on plain arrays: each
    gives the value the engine op stores, from the same float operations,
    with no Tensor or graph around it."""

    add, tanh = staticmethod(np.add), staticmethod(np.tanh)

    @staticmethod
    def affine(x: np.ndarray, W: Tensor, b: Tensor | None = None) -> np.ndarray:
        out = nm._matmul_rows(x, W.data.T)
        return out if b is None else out + b.data


def _zero_acoustics_logits(ops, model: "HatModel", g_u):
    """The logits of HAT's internal-LM estimate, written once over the ops
    that compute them: the engine's (`numerics`), for a graph, or
    `_PlainOps`, for the decoding tables.  The joint sees a zero acoustic
    embedding."""
    j = model.joint
    f0 = np.zeros(model.enc_cfg.d_f)
    h = ops.tanh(ops.add(ops.affine(f0, j.w1, j.hidden_bias), ops.affine(g_u, j.w2)))
    return ops.affine(h, model.label_w, model.label_b)


class HatModel(_AsrModel):
    """Baseline HAT: one decoder feeding a shared joint network."""

    kind = "hat"
    dim_keys = ("decoder_dim", "joint_dim")

    def __init__(
        self,
        vocab: Vocabulary,
        encoder: EncoderConfig,
        decoder_dim: int = 64,
        joint_dim: int = 32,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(vocab, encoder, rng, decoder_dim=decoder_dim, joint_dim=joint_dim)
        p = self.params
        self.decoder = EmbeddingDecoder(p, "decoder", vocab, decoder_dim, "ilm", rng, tied_tables=False)
        self.joint = _JointCombiner(p, encoder.d_f, decoder_dim, joint_dim, rng)
        self.label_w = p.add(
            "label_head.weight", rng.standard_normal((vocab.size, joint_dim)) / np.sqrt(joint_dim), "ilm"
        )
        self.label_b = p.add("label_head.bias", np.zeros(vocab.size), "ilm")

    def encode(self, X: np.ndarray) -> Tensor:
        return self.encoder.forward(X)

    def decode_state(self, prefix: Sequence[int]) -> Tensor:
        self.vocab.check_ids(prefix)
        return self.decoder.outputs(np.array(context_of(prefix, self.vocab.sos_id)))

    def hat_joint(self, f_t: Tensor | np.ndarray, g_u: Tensor | np.ndarray) -> tuple[float, Tensor]:
        """Blank posterior and label log-posteriors at one (frame, step) pair."""
        h = self.joint.hidden(f_t, g_u)
        b = nm.sigmoid(self.joint.blank_logit(h).item())
        labels = nm.log_softmax(nm.affine(h, self.label_w, self.label_b))
        return b, labels

    def hat_ilm_log_probs(self, g_u: Tensor | np.ndarray) -> Tensor:
        """Internal-LM estimate: the label head with the acoustic embedding zeroed."""
        return nm.log_softmax(_zero_acoustics_logits(nm, self, g_u))

    def context_logits(self, ctx: np.ndarray) -> Tensor:
        """Internal-LM estimate logits for (n, 2) decoder contexts: (n, |V|)."""
        return _zero_acoustics_logits(nm, self, self.decoder.outputs(ctx))

    def arc_log_scores(self, batch: Sequence[tuple[np.ndarray, Sequence[int]]]) -> tuple[Tensor, Tensor, LatticeCells]:
        """As `MhatModel.arc_log_scores`, with labels from the shared joint."""
        cells = lattice_cells([len(x) for x, _ in batch], [y for _, y in batch], self.vocab.sos_id)
        F = self.encode([x for x, _ in batch])
        H = self.joint.hidden_cells(F, self.decoder.outputs(cells.contexts), cells)
        s = self.joint.blank_logit(H)
        log_blank = nm.log_sigmoid(s)
        log_keep = nm.log_sigmoid(nm.neg(s))
        n = cells.n_label
        picked = nm.log_softmax_at(nm.affine(H[:n], self.label_w, self.label_b), cells.labels)
        return log_blank, nm.add(log_keep[:n], picked), cells

    def scorer(self, X: np.ndarray | Sequence[np.ndarray]) -> "HatScorer":
        """Decoding tables of one (T, d_x) utterance or of a sequence of them."""
        return HatScorer(self, X)


def check_rows_finite(owner, **tables: np.ndarray) -> None:
    """Raise EvaluationError if a filled row holds a NaN or +inf; a -inf
    log-probability from underflow is legal.  One pass over the tables:
    checking each fill as it lands cost 2.5 % of a decode."""
    for name, rows in tables.items():
        if rows.size and not rows.max() < np.inf:  # NaN or +inf; NaN makes the max NaN
            raise nm.EvaluationError(f"non-finite {name} entry in a {type(owner).__name__} table")


class _UtteranceRows:
    """Decoding tables of one utterance or of a corpus (no gradient graphs).

    What depends only on the model and the context is computed once for
    every utterance, when a search first reaches the context: w2 g, and
    `ilm_rows[c]`, the internal-LM row of context code c (`context_codes`).
    Key u * (|V|+1)^2 + c names context c of utterance u, which owns one
    `frame_rows` row per frame: log b, log(1 - b), then the columns
    `label_rows` reads.  `slot[key]` is its first frame row, or -1 until
    the key is reached; `frame_rows` doubles in length when full, so it
    holds only the rows of the keys reached.  `context` returns a prefix's
    first frame row, filling it when new, and the point lookups take it.
    """

    _SIGNS = np.array([-1.0, 1.0])  # read only

    def __init__(self, model, X: np.ndarray | Sequence[np.ndarray], label_cols: int):
        j = model.joint
        with nm.no_grad():
            self.Fs = [model.encode(x).data for x in ([X] if isinstance(X, np.ndarray) else X)]
        self.model = model
        self._w1f = [F @ j.w1.data.T + j.hidden_bias.data for F in self.Fs]  # (T_u, d_h) each
        self._v, self._v_bias = j.v.data, float(j.v_bias.data)
        self.t_lens = [F.shape[0] for F in self.Fs]
        self.t_len = max(self.t_lens)
        v = model.vocab.size
        self.width = v + 1
        n_ctx = self.width * self.width
        self._shared = np.zeros(n_ctx, dtype=bool)
        self._w2g, self.ilm_rows = np.empty((n_ctx, j.w2.data.shape[0])), np.empty((n_ctx, v))
        self._ctx_of: dict[int, int] = {}  # first frame row -> context code
        self.slot = np.full(len(self.Fs) * n_ctx, -1, dtype=np.int64)
        self.size = 0  # frame rows in use
        self.frame_rows = np.zeros((4 * self.t_len, 2 + label_cols))

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """First frame rows of an array of keys, filling keys not yet
        reached through `context`, so that instrumentation on that lookup
        sees every fill."""
        r = self.slot[keys]
        if r.size and min(r.tolist()) < 0:  # a Python min: ndarray.min costs more on a beam's few keys
            for key in keys[r < 0].tolist():
                if self.slot[key] < 0:
                    utt, c = divmod(key, self.width * self.width)
                    self.context(divmod(c, self.width), utt)
            r = self.slot[keys]
        return r

    def check_finite(self) -> None:
        check_rows_finite(self, frame_rows=self.frame_rows[: self.size], ilm_rows=self.ilm_rows[self._shared])

    # a subclass defines _context_rows(ctx) -> (w2 g, internal-LM row), and
    # _label_cols(h, ilm, utt, frame), which writes the label columns of a
    # context's frame rows from the joint hidden rows h

    def label_rows(self, t: int, frame: np.ndarray, ilm: np.ndarray, utt=0) -> np.ndarray:
        """Label log-posteriors at frame t, (n, |V|), of n hypotheses of
        utterances `utt` (an array, or one index for all) whose frame t
        rows and internal-LM rows are `frame` and `ilm`."""
        raise NotImplementedError

    # point lookups of one frame and table row; perfbench/tracer.py wraps
    # them by each scorer class's own __dict__, hence the aliases below
    def context(self, prefix: Sequence[int], utt: int = 0) -> int:
        """The first frame row of the context of `prefix` in utterance
        `utt`, filled when first reached: the lookup every fill takes."""
        p2, p1 = context_of(prefix, self.width - 1)
        c = p2 * self.width + p1
        key = utt * self.width * self.width + c
        row = int(self.slot[key])
        if row >= 0:
            return row
        row, end = self.size, self.size + self.t_lens[utt]
        if end > len(self.frame_rows):
            grown = np.zeros((2 * end, self.frame_rows.shape[1]))
            grown[:row] = self.frame_rows[:row]  # the rest stays untouched (not resident) until rows fill
            self.frame_rows = grown
        if not self._shared[c]:
            self._w2g[c], self.ilm_rows[c] = self._context_rows((p2, p1))
            self._shared[c] = True
        self._ctx_of[row] = c
        frame = self.frame_rows[row:end]
        h = np.tanh(self._w1f[utt] + self._w2g[c])  # (T, d_h)
        ss = np.multiply.outer(h @ self._v + self._v_bias, self._SIGNS)  # (-s, s) of the blank logit s
        tail = np.log1p(np.exp(-np.abs(ss[:, 1])))  # log b, log(1 - b) = -softplus(-s), -softplus(s)
        np.negative(np.add(np.maximum(ss, 0.0, out=ss), tail[:, None], out=ss), out=frame[:, :2])
        self._label_cols(h, self.ilm_rows[c], utt, frame)
        self.slot[key], self.size = row, end
        return row

    def log_blank(self, t: int, row: int) -> float:
        return float(self.frame_rows[row + t, 0])

    def log_keep(self, t: int, row: int) -> float:
        return float(self.frame_rows[row + t, 1])

    def label_log_posteriors(self, t: int, row: int, utt: int = 0) -> np.ndarray:
        return self.label_rows(t, self.frame_rows[[row + t]], self.ilm_rows[[self._ctx_of[row]]], utt)[0]

    def ilm_log_probs(self, row: int) -> np.ndarray:
        return self.ilm_rows[self._ctx_of[row]]


class MhatScorer(_UtteranceRows):
    """Decoding tables of an utterance or a corpus under an MHAT model.

    The label log-posterior is A[t] + ilm - norm[t]: a context's rows keep
    only the normaliser norm (column 2, one log-sum-exp per frame, taken
    once per context), and `label_rows` adds the rest per search round.
    """

    def __init__(self, model: MhatModel, X: np.ndarray | Sequence[np.ndarray]):
        super().__init__(model, X, 1)
        with nm.no_grad():
            As = [model.am_log_probs(F).data for F in self.Fs]  # (T_u, |V|) each
        self.A = np.zeros((len(As), self.t_len, model.vocab.size))  # zero past each utterance's end
        for u, a in enumerate(As):
            self.A[u, : len(a)] = a

    def _context_rows(self, ctx: tuple[int, int]):
        m = self.model
        z = m.ilm_w.data @ m.label_decoder.output_np(ctx) + m.ilm_b.data
        return m.joint.w2.data @ m.blank_decoder.output_np(ctx), z - nm.log_sum_exp(z)

    def _label_cols(self, h: np.ndarray, ilm: np.ndarray, utt: int, frame: np.ndarray) -> None:
        frame[:, 2] = nm.log_sum_exp(self.A[utt, : len(frame)] + ilm, axis=1)

    def label_rows(self, t: int, frame: np.ndarray, ilm: np.ndarray, utt=0) -> np.ndarray:
        return self.A[utt, t] + ilm - frame[:, 2:]

    context = _UtteranceRows.context
    log_blank = _UtteranceRows.log_blank
    log_keep = _UtteranceRows.log_keep
    label_log_posteriors = _UtteranceRows.label_log_posteriors
    ilm_log_probs = _UtteranceRows.ilm_log_probs


class HatScorer(_UtteranceRows):
    """Decoding tables of an utterance or a corpus under the baseline HAT;
    columns 2: of a context's frame rows are its label log-posteriors."""

    def __init__(self, model: HatModel, X: np.ndarray | Sequence[np.ndarray]):
        super().__init__(model, X, model.vocab.size)

    def _context_rows(self, ctx: tuple[int, int]):
        m = self.model
        g = m.decoder.output_np(ctx)
        return m.joint.w2.data @ g, nm.log_softmax_rows(_zero_acoustics_logits(_PlainOps, m, g))

    def _label_cols(self, h: np.ndarray, ilm: np.ndarray, utt: int, frame: np.ndarray) -> None:
        z = h @ self.model.label_w.data.T + self.model.label_b.data
        frame[:, 2:] = z - nm.log_sum_exp(z, axis=1)[:, None]

    def label_rows(self, t: int, frame: np.ndarray, ilm: np.ndarray, utt=0) -> np.ndarray:
        return frame[:, 2:]

    context = _UtteranceRows.context
    log_blank = _UtteranceRows.log_blank
    log_keep = _UtteranceRows.log_keep
    label_log_posteriors = _UtteranceRows.label_log_posteriors
    ilm_log_probs = _UtteranceRows.ilm_log_probs
