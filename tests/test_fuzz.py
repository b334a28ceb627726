"""Property-based fuzzing of the file and record parsers.

Each parser must either accept its input or raise its documented error;
an IndexError, KeyError or UnicodeDecodeError escaping one is a bug.  The
command line's `--config` step must either parse or exit 1.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_mhat
from mhat.data import CheckpointError, load_checkpoint, read_corpus, save_checkpoint
from mhat.decode import parse_record
from mhat.evalcli import parse_args, read_kv_config
from mhat.model import ConfigError, VocabError, Vocabulary

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

VOCAB = Vocabulary.default(4)
WORDS = st.sampled_from(["utt", "w0", "w3", "w9", "0", "1", "-1", "7", "x", "", "format", "seed", "count"])
JUNK = st.binary(max_size=200)


def lines_of(*words):
    return st.lists(st.lists(st.one_of(*words), max_size=5).map(" ".join), max_size=6)


def write(directory, name, content):
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        f.write(content if isinstance(content, bytes) else content.encode())
    return path


# -- read_corpus --------------------------------------------------------------

header = st.sampled_from([
    "format mhat-corpus-v1",
    f"vocab.hash {VOCAB.digest()}",
    "split train",
    "seed 3",
    "seed x",
    "count 2",
])


def feature_record(t_len, d_x):
    return np.array([t_len, d_x], dtype="<u4").tobytes() + np.zeros(max(0, t_len * d_x), dtype="<f4").tobytes()


feats = st.one_of(
    JUNK,
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=3).map(
        lambda recs: b"".join(feature_record(t, d) for t, d in recs)
    ),
)


@FUZZ
@given(
    first=st.sampled_from(["format mhat-corpus-v1", "format other", ""]),
    head=st.lists(header, max_size=4),
    utts=lines_of(WORDS, st.integers(-2, 5).map(str)),
    feat_bytes=feats,
    junk=st.one_of(st.none(), JUNK),
)
def test_read_corpus_raises_only_documented_errors(first, head, utts, feat_bytes, junk):
    manifest = junk if junk is not None else "\n".join([first, *head, *("utt " + u for u in utts)]) + "\n"
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "corpus", manifest)
        write(d, "corpus.feats", feat_bytes)
        try:
            corpus = read_corpus(path, VOCAB)
        except (ConfigError, VocabError):
            return
    for it in corpus.items:
        assert it.features.ndim == 2 and len(it.features) >= 0
        VOCAB.check_ids(it.tokens)


# -- load_checkpoint ----------------------------------------------------------


def _checkpoint_files():
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        save_checkpoint(small_mhat(vocab_size=4), path)
        with open(path) as f:
            manifest = f.read().splitlines()
        with open(path + ".bin", "rb") as f:
            blob = f.read()
    return manifest, blob


MANIFEST, BLOB = _checkpoint_files()

# numbers stay at two digits: a config edit builds a model of those dims
edit = st.tuples(
    st.integers(0, len(MANIFEST) - 1),
    st.sampled_from(["drop", "dup", "key", "value", "text"]),
    st.one_of(
        st.sampled_from(["", "-1", "0", "7", "99", "3,4", "1.5", "a b", "token.9", "tensor.0"]),
        st.text(alphabet="abcxyz.,- ", max_size=10),
    ),
)


def apply_edit(lines, e):
    i, kind, text = e
    key, _, rest = lines[i].partition(" ")
    if kind == "drop":
        return lines[:i] + lines[i + 1 :]
    if kind == "dup":
        return lines[: i + 1] + lines[i:]
    if kind == "key":
        return lines[:i] + [f"{text} {rest}"] + lines[i + 1 :]
    if kind == "value":
        return lines[:i] + [f"{key} {text}"] + lines[i + 1 :]
    return lines[:i] + [text] + lines[i + 1 :]


@FUZZ
@given(
    edits=st.lists(edit, max_size=3),
    cut=st.integers(0, len(BLOB)),
    junk=st.one_of(st.none(), JUNK),
    expect=st.sampled_from([None, "mhat", "asr", "lm"]),
)
def test_load_checkpoint_raises_only_checkpoint_error(edits, cut, junk, expect):
    lines = list(MANIFEST)
    for e in edits:
        if lines:
            lines = apply_edit(lines, (e[0] % len(lines), e[1], e[2]))
    manifest = junk if junk is not None else "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "m.ckpt", manifest)
        write(d, "m.ckpt.bin", BLOB[:cut])
        try:
            model = load_checkpoint(path, expect=expect)
        except CheckpointError:
            return
    assert model.params.size() == len(BLOB) // 4


# -- read_kv_config and parse_record -------------------------------------------


@FUZZ
@given(st.one_of(JUNK, lines_of(st.text(max_size=8), st.just("="), st.just("#")).map("\n".join)))
def test_read_kv_config_raises_only_config_error(content):
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "cfg", content)
        try:
            out = read_kv_config(path)
        except ConfigError:
            return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in out.items())


ID_FIELD = st.lists(st.sampled_from(["0", "12", "-1", "+2", "\u0663", "x", "1.0", ""]), max_size=4).map(" ".join)


@FUZZ
@given(st.one_of(
    st.text(max_size=40),
    st.lists(st.text(max_size=6), max_size=7).map("\t".join),
    ID_FIELD.map(lambda ids: "\t".join(["u1", ids, "w0", "0.0", "0.0", "0.0"])),
))
def test_parse_record_raises_only_value_error(line):
    try:
        uid, ids = parse_record(line)
    except ValueError as e:
        assert not isinstance(e, UnicodeDecodeError)
        return
    assert isinstance(uid, str) and all(isinstance(i, int) and i >= 0 for i in ids)


# -- the --config override step -----------------------------------------------

COMMANDS = {
    "train": ["train", "--data", "d", "--vocab", "v"],
    "decode": ["decode", "--ckpt", "c", "--data", "d"],
}
VALUE = st.one_of(
    st.sampled_from(["", "3", "-1", "0.5", "1e-3", "nan", "mhat", "hat", "shallow", "adam", "-h", "--lr"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@FUZZ
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    values=st.dictionaries(st.sampled_from(["epochs", "lr", "beam", "model", "fusion", "optimizer", "seed"]), VALUE,
                           max_size=4),
)
def test_config_override_parses_or_exits_1(command, values):
    with tempfile.TemporaryDirectory() as d:
        path = write(d, "cfg", "".join(f"{key}={value}\n" for key, value in values.items()))
        try:
            args = parse_args([*COMMANDS[command], "--config", path])
        except SystemExit as e:
            assert e.code == 1
            return
    assert args.command == command and args.config == path
    for key, kind in (("epochs", int), ("lr", float), ("beam", int), ("seed", int)):
        assert isinstance(getattr(args, key, kind()), kind)
    assert getattr(args, "model", "hat") in ("mhat", "hat")
    assert getattr(args, "fusion", "none") in ("none", "shallow", "ilme_subtract")
