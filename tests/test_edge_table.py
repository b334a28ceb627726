"""One table of bad inputs against every entry point that reads utterances.

Each cell names the one exception type and text that an entry point raises
for one bad utterance.  The features are checked in one place,
`Encoder.frames`, so a cell's text is the same for the lattice, the beam
search and the trainers; a token id is checked by the vocabulary.  A
position in a message is the caller's: a batch or a corpus holds the bad
utterance third, and `train_asr` gets it in its last batch.  `mhat decode`
names the utterance's uid instead, the CLI's corpus reader names the file
and the uid of a non-finite feature, and the CLI exits 2.  The trainers move
no parameter and write no checkpoint.
"""

import re

import numpy as np
import pytest

from conftest import small_hat, small_mhat
from mhat import data as dat
from mhat.decode import FusionConfig, beam_search, score_sequence
from mhat.evalcli import evaluate_pairs, main
from mhat.extlm import ExternalLm, lm_perplexity
from mhat.lattice import brute_force_log_prob, build_lattice, forward_log_prob, hat_loss
from mhat.losses import perplexity
from mhat.model import ConfigError, StructureError, VocabError, Vocabulary
from mhat.numerics import EvaluationError
from mhat.training import TrainConfig, train_asr

D_X, V = 3, 4  # the conftest models' feature width and vocabulary size
MODELS = {"mhat": small_mhat, "hat": small_hat}


def utterance(seed: int, t_len: int = 4) -> tuple[np.ndarray, list[int]]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((t_len, D_X)), [int(i) for i in rng.integers(0, V, size=2)]


def with_nan(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x[2, 1] = np.nan
    return x


X, Y = utterance(99)
# edge: (features, tokens, exception, text with {u} for the caller's position)
EDGES = {
    "T=0": (np.zeros((0, D_X)), Y, StructureError, "no alignment exists for utterance {u}: it has no frames (T=0)"),
    "1-D": (np.zeros(D_X), Y, ConfigError, f"utterance {{u}} has shape ({D_X},): each utterance is a (T, d_x) array"),
    "width": (np.zeros((4, 5)), Y, ConfigError, f"feature dim mismatch: got (4, 5), encoder expects (T, {D_X})"),
    "NaN": (with_nan(X), Y, ConfigError, "non-finite feature nan at frame 2"),
    "token": (X, [1, V], VocabError, f"token id {V} out of range for |V|={V}"),
}


def batch_with(x, y, at: int = 2, n: int = 3) -> list[tuple[np.ndarray, list[int]]]:
    items = [utterance(i) for i in range(n)]
    items[at] = (x, y)
    return items


# entry point: (position of the bad utterance, whether it takes tokens, call)
ENTRIES = {
    "forward_log_prob": (0, True, lambda m, x, y: forward_log_prob(m, x, y)),
    "hat_loss": (2, True, lambda m, x, y: hat_loss(m, batch_with(x, y))),
    "build_lattice": (0, True, lambda m, x, y: build_lattice(m, x, y)),
    "brute_force_log_prob": (0, True, lambda m, x, y: brute_force_log_prob(m, x, y)),
    "score_sequence": (0, True, lambda m, x, y: score_sequence(m, x, y)),
    "beam_search": (0, False, lambda m, x, y: beam_search(m, x, 2)),
    "beam_search_corpus": (2, False, lambda m, x, y: beam_search(m, [x for x, _ in batch_with(x, y)], 2)),
    "Encoder.windows": (2, False, lambda m, x, y: m.encoder.windows([x for x, _ in batch_with(x, y)])),
}


def raises_exactly(error, text: str):
    return pytest.raises(error, match=f"^{re.escape(text)}$")


@pytest.mark.parametrize("kind", MODELS)
@pytest.mark.parametrize(
    "entry, edge",
    [(entry, edge) for entry, (_, takes_tokens, _) in ENTRIES.items() for edge in EDGES
     if takes_tokens or edge != "token"],
)
def test_entry_point(kind, entry, edge):
    position, _, call = ENTRIES[entry]
    x, y, error, text = EDGES[edge]
    with raises_exactly(error, text.format(u=position)):
        call(MODELS[kind](), x, y)


@pytest.mark.parametrize("kind", MODELS)
@pytest.mark.parametrize("edge", EDGES)
def test_train_asr_moves_nothing(kind, edge):
    # the bad utterance lands in the last batch of the first epoch, after
    # one batch that could step
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-2, alpha=0.1 if kind == "mhat" else 0.0, seed=0)
    at = int(np.random.default_rng(cfg.seed).permutation(8)[-1])
    x, y, error, text = EDGES[edge]
    model = MODELS[kind]()
    before = model.params.checksum()
    with raises_exactly(error, text.format(u=at)):
        train_asr(model, batch_with(x, y, at=at, n=8), cfg)
    assert model.params.checksum() == before


# The CLI reads features from files, which hold only 2-D arrays, and tokens
# by name, so its token edge is a name outside the vocabulary.
CLI_EDGES = ("T=0", "width", "NaN", "token")
UIDS = [f"test-{i:05d}" for i in range(1, 4)]


def write_inputs(tmp_path, edge: str) -> tuple[str, str]:
    """A three-utterance corpus with the edge in its third utterance, and its vocabulary file.

    `write_corpus` refuses a NaN feature, so that edge is written as a
    finite corpus whose feature file then gets the NaN.
    """
    vocab = Vocabulary.default(V)
    x, y, _, _ = EDGES[edge]
    items = batch_with(X if edge == "NaN" else x, Y if edge == "token" else y)
    corpus = dat.Corpus("test", 0, vocab, tuple(dat.Utterance(uid, f, tuple(t)) for uid, (f, t) in zip(UIDS, items)))
    data, vocab_path = str(tmp_path / "test"), str(tmp_path / "vocab.txt")
    dat.write_corpus(corpus, data)
    dat.write_vocab(vocab, vocab_path)
    if edge == "NaN":  # each record is a (T, d_x) header of two values, then the features; `with_nan` sets [2, 1]
        values = np.fromfile(data + ".feats", dtype="<f4")
        values[sum(2 + f.size for f, _ in items[:2]) + 2 + 2 * D_X + 1] = np.nan
        values.tofile(data + ".feats")
    if edge == "token":
        with open(data) as f:
            lines = f.read().splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " zzz"
        with open(data, "w") as f:
            f.write("\n".join(lines) + "\n")
    return data, vocab_path


def cli_text(edge: str, data: str) -> str:
    if edge == "token":  # the manifest's header takes five lines, so the third utterance is line 8
        return f"{data}:8: unknown token name: 'zzz'"
    if edge == "NaN":  # `read_corpus` refuses it, naming the file and the uid
        return f"{data}: utterance {UIDS[2]} holds a non-finite feature"
    if edge == "width":  # as is a width that differs from the first utterance's
        return f"{data}: utterance {UIDS[2]} has feature width 5, utterance {UIDS[0]} has {D_X}"
    return EDGES[edge][3].format(u=2)


def assert_cli_error(rc: int, err: str, text: str) -> None:
    assert rc == 2
    assert f"error: {text}" in err.splitlines()


@pytest.mark.parametrize("edge", CLI_EDGES)
def test_cli_train(tmp_path, capsys, edge):
    data, vocab_path = write_inputs(tmp_path, edge)
    capsys.readouterr()
    rc = main(["train", "--data", data, "--vocab", vocab_path, "--out-dir", str(tmp_path / "out")])
    assert_cli_error(rc, capsys.readouterr().err, cli_text(edge, data))
    assert not (tmp_path / "out" / "mhat.ckpt").exists()
    assert not (tmp_path / "out" / "train_log.txt").exists()


@pytest.mark.parametrize("edge", CLI_EDGES)
def test_cli_decode(tmp_path, capsys, edge):
    data, _ = write_inputs(tmp_path, edge)
    dat.save_checkpoint(small_mhat(), str(tmp_path / "mhat.ckpt"))
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(tmp_path / "mhat.ckpt"), "--data", data, "--out-dir", str(tmp_path / "dec")])
    text = cli_text(edge, data)
    if edge == "T=0":  # `mhat decode` names the uid
        text = f"utterance {UIDS[2]} has no frames: no alignment exists for T=0"
    assert_cli_error(rc, capsys.readouterr().err, text)
    assert not (tmp_path / "dec" / "decodes.tsv").exists()


def test_cli_decode_corpus_of_another_width(tmp_path, capsys):
    # every utterance is 5 wide, so `read_corpus` accepts the corpus and `mhat decode` refuses it
    data = str(tmp_path / "test")
    items = tuple(dat.Utterance(uid, np.zeros((4, 5)), tuple(Y)) for uid in UIDS)
    dat.write_corpus(dat.Corpus("test", 0, Vocabulary.default(V), items), data)
    dat.save_checkpoint(small_mhat(), str(tmp_path / "mhat.ckpt"))
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(tmp_path / "mhat.ckpt"), "--data", data, "--out-dir", str(tmp_path / "dec")])
    assert_cli_error(rc, capsys.readouterr().err, f"{data}: feature width 5, but the checkpoint's encoder expects {D_X}")
    assert not (tmp_path / "dec" / "decodes.tsv").exists()


# The edges that are not a bad utterance: an utterance with no labels
# (U=0), a reached label cap, and an LM or a corpus under another
# vocabulary than the model's.  `mhat eval`'s bad hypothesis files are
# tests/test_evalcli.py's `test_eval_rejects_a_bad_hypothesis_file`.
OTHER_VOCAB = Vocabulary(tuple(f"x{i}" for i in range(V)))  # as many names as the models', other ones


@pytest.mark.parametrize("kind", MODELS)
def test_no_labels_scores_as_the_enumeration(kind):
    model = MODELS[kind]()
    want = brute_force_log_prob(model, X, [])
    got = [float(forward_log_prob(model, X, []).data), -float(hat_loss(model, [(X, [])]).data),
           build_lattice(model, X, []).log_prob, score_sequence(model, X, []).model_lp]
    assert np.isfinite(want) and np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", MODELS)
def test_reached_label_cap(kind):
    model = MODELS[kind]()
    assert [r.tokens for r in beam_search(model, X, 4, max_labels_per_frame=0)] == [()]
    # one frame at a cap of one label per frame: two labels score finite, but no beam finds them
    one_frame = X[:1]
    assert np.isfinite(score_sequence(model, one_frame, [1, 2]).model_lp)
    for beam in (1, 4, 16):
        assert all(len(r.tokens) <= 1 for r in beam_search(model, one_frame, beam, max_labels_per_frame=1))
    assert any(len(r.tokens) == 2 for r in beam_search(model, one_frame, 16, max_labels_per_frame=2))


@pytest.mark.parametrize("kind", MODELS)
@pytest.mark.parametrize(
    "call",
    [lambda m, f: beam_search(m, X, 2, f), lambda m, f: score_sequence(m, X, Y, f)],
    ids=["beam_search", "score_sequence"],
)
def test_lm_of_another_vocabulary(kind, call):
    fusion = FusionConfig(mode="shallow", lam_ext=0.3, lm=ExternalLm(OTHER_VOCAB, embed_dim=4))
    with raises_exactly(ConfigError, "external LM vocabulary differs from the model's"):
        call(MODELS[kind](), fusion)


@pytest.mark.parametrize("foreign", ["lm", "corpus"])
def test_cli_decode_under_another_vocabulary(tmp_path, capsys, foreign):
    data = str(tmp_path / "test")
    corpus_vocab = OTHER_VOCAB if foreign == "corpus" else Vocabulary.default(V)
    items = tuple(dat.Utterance(uid, x, tuple(y)) for uid, (x, y) in zip(UIDS, batch_with(X, Y)))
    dat.write_corpus(dat.Corpus("test", 0, corpus_vocab, items), data)
    dat.save_checkpoint(small_mhat(), str(tmp_path / "mhat.ckpt"))
    lm_vocab = OTHER_VOCAB if foreign == "lm" else Vocabulary.default(V)
    dat.save_checkpoint(ExternalLm(lm_vocab, embed_dim=4), str(tmp_path / "lm.ckpt"))
    capsys.readouterr()
    rc = main(["decode", "--ckpt", str(tmp_path / "mhat.ckpt"), "--data", data, "--fusion", "shallow",
               "--lam-ext", "0.3", "--lm", str(tmp_path / "lm.ckpt"), "--out-dir", str(tmp_path / "dec")])
    text = "external LM vocabulary differs from the model's" if foreign == "lm" else f"{data}: vocabulary hash mismatch"
    assert_cli_error(rc, capsys.readouterr().err, text)
    assert not (tmp_path / "dec" / "decodes.tsv").exists()


# Empty inputs, as they stand: a sum over nothing is 0, a search over
# nothing finds nothing, and a mean over nothing is an error.
def test_empty_loss_and_search():
    model = small_mhat()
    assert float(hat_loss(model, []).data) == 0.0
    assert beam_search(model, []) == []


@pytest.mark.parametrize(
    "call, text",
    [(lambda: train_asr(small_mhat(), [], TrainConfig(epochs=1)), "training corpus is empty"),
     (lambda: perplexity(small_mhat(), []), "perplexity requires at least one scored event"),
     (lambda: lm_perplexity(ExternalLm(Vocabulary.default(V), embed_dim=4), []),
      "perplexity requires at least one scored event"),
     (lambda: evaluate_pairs([]).wer, "WER requires at least one reference token")],
    ids=["train_asr", "perplexity", "lm_perplexity", "evaluate_pairs"],
)
def test_empty_mean_is_an_error(call, text):
    with raises_exactly(ConfigError, text):
        call()


# Item 14's text column: a NaN or infinite parameter makes the mean NLL
# NaN, which the perplexities refuse, naming themselves.  An NLL that only
# overflows exp() gives a perplexity of inf, which stays legal.
TEXT = [[0, 1, 2], [3, 3], [1]]
PERPLEXITIES = {
    "perplexity-mhat": (small_mhat, "ilm_proj.bias", perplexity),
    "perplexity-hat": (small_hat, "label_head.bias", perplexity),
    "perplexity-lm": (lambda: ExternalLm(Vocabulary.default(V), embed_dim=4), "out_proj.bias", perplexity),
    "lm_perplexity": (lambda: ExternalLm(Vocabulary.default(V), embed_dim=4), "out_proj.bias", lm_perplexity),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf in the shift
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", PERPLEXITIES)
def test_perplexity_of_a_non_finite_parameter(cell, value):
    build, name, call = PERPLEXITIES[cell]
    model = build()
    model.params[name].data[...] = value
    with raises_exactly(EvaluationError, f"{call.__name__}: the mean NLL is NaN"):
        call(model, TEXT)


@pytest.mark.parametrize("cell", PERPLEXITIES)
def test_perplexity_that_overflows_is_inf(cell):
    build, name, call = PERPLEXITIES[cell]
    model = build()
    model.params[name].data[1] = -1e6  # token 1 is an event of TEXT
    assert call(model, TEXT) == np.inf


# Item 14's lattice column: a NaN parameter makes log P NaN, which the
# lattice's single-utterance entry points refuse, naming themselves;
# `score_sequence` reaches `forward_log_prob`'s error.  `hat_loss` and
# `batch_log_probs` stay unchecked: the trainers name the epoch and batch.
NAN_PARAMETERS = {"mhat": ("encoder.layer0.weight", "label_decoder.table0"),
                  "hat": ("encoder.layer0.weight", "decoder.table0")}
LOG_PROB_ENTRIES = {
    "forward_log_prob": ("forward_log_prob", lambda m: forward_log_prob(m, X, Y)),
    "build_lattice": ("build_lattice", lambda m: build_lattice(m, X, Y)),
    "score_sequence": ("forward_log_prob", lambda m: score_sequence(m, X, Y)),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # NaN in logaddexp
@pytest.mark.parametrize("entry", LOG_PROB_ENTRIES)
@pytest.mark.parametrize("kind, name", [(k, n) for k, names in NAN_PARAMETERS.items() for n in names])
def test_log_prob_of_a_non_finite_parameter(kind, name, entry):
    where, call = LOG_PROB_ENTRIES[entry]
    model = MODELS[kind]()
    model.params[name].data[...] = np.nan
    with raises_exactly(EvaluationError, f"{where}: log P is nan"):
        call(model)
