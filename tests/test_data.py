import dataclasses
import errno
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import mhat.data
import reference_data
from conftest import small_hat, small_mhat
from mhat.data import (
    MAX_SENTENCE_LEN,
    _PCG64_MULT,
    _emit_features,
    _pcg64_states,
    CheckpointError,
    Corpus,
    DomainSpec,
    Utterance,
    chain_entropy_rate,
    confusable_pair_domains,
    corpus_log_loss,
    gen_corpus,
    load_checkpoint,
    read_corpus,
    read_text_corpus,
    read_vocab,
    save_checkpoint,
    write_corpus,
    write_text_corpus,
    write_vocab,
)
from mhat.evalcli import ExperimentConfig, make_experiment_data
from mhat.extlm import ExternalLm
from mhat.model import ConfigError, VocabError, Vocabulary


def point_mass_spec():
    # start -> A, A -> B, B -> EOS
    vocab = Vocabulary.default(2)
    bigram = np.zeros((3, 3))
    bigram[2, 0] = 1.0  # start row emits token 0
    bigram[0, 1] = 1.0
    bigram[1, 2] = 1.0  # EOS
    protos = np.array([[0.0, 1.0], [1.0, 0.0]])
    return DomainSpec(vocab, bigram, protos, noise_sigma=0.5)


class TestDomainSpec:
    def test_point_mass_chain(self):
        corpus = gen_corpus(point_mass_spec(), seed=1, n_utts=20)
        for it in corpus.items:
            assert it.tokens == (0, 1)

    def test_zero_sigma_frames_equal_prototypes(self):
        spec = point_mass_spec()
        spec = DomainSpec(spec.vocab, spec.bigram, spec.prototypes, noise_sigma=0.0)
        corpus = gen_corpus(spec, seed=2, n_utts=5)
        for it in corpus.items:
            for t, row in enumerate(it.features):
                assert np.array_equal(row, spec.prototypes[it.tokens[0]]) or np.array_equal(
                    row, spec.prototypes[it.tokens[1]]
                )

    def test_same_seed_byte_identical(self):
        spec = point_mass_spec()
        a = gen_corpus(spec, seed=3, n_utts=10)
        b = gen_corpus(spec, seed=3, n_utts=10)
        for x, y in zip(a.items, b.items):
            assert x.tokens == y.tokens
            assert x.features.tobytes() == y.features.tobytes()

    def test_row_sum_validation(self):
        vocab = Vocabulary.default(2)
        bad = np.full((3, 3), 0.4)
        with pytest.raises(ConfigError, match="sum to 1"):
            DomainSpec(vocab, bad, np.eye(2), noise_sigma=0.1)

    def test_nan_bigram_entry_rejected(self):
        spec = point_mass_spec()
        bigram = spec.bigram.copy()
        bigram[0, 0] = np.nan
        with pytest.raises(ConfigError, match="bigram table must be finite"):
            dataclasses.replace(spec, bigram=bigram)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prototype_rejected(self, bad):
        spec = point_mass_spec()
        protos = spec.prototypes.copy()
        protos[1, 0] = bad
        with pytest.raises(ConfigError, match="prototypes must be finite"):
            dataclasses.replace(spec, prototypes=protos)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_bad_noise_sigma_rejected(self, bad):
        with pytest.raises(ConfigError, match="noise sigma"):
            dataclasses.replace(point_mass_spec(), noise_sigma=bad)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="n_utts must be >= 0, got -5"):
            gen_corpus(point_mass_spec(), seed=1, n_utts=-5)

    def test_identical_prototypes_rejected(self):
        vocab = Vocabulary.default(2)
        bigram = np.full((3, 3), 1.0 / 3)
        with pytest.raises(ConfigError, match="prototypes"):
            DomainSpec(vocab, bigram, np.ones((2, 2)), noise_sigma=0.1)

    def test_shift_pair_shares_acoustics(self):
        vocab = Vocabulary.default(8)
        src, tgt = confusable_pair_domains(vocab, d_x=4, seed=0)
        assert np.array_equal(src.prototypes, tgt.prototypes)
        assert src.noise_sigma == tgt.noise_sigma
        assert not np.array_equal(src.bigram, tgt.bigram)
        np.testing.assert_allclose(src.bigram.sum(axis=1), 1.0, atol=1e-12)
        # cluster-level structure is shared: pair-mass equal in both tables
        for row in range(9):
            for pair in range(4):
                s = src.bigram[row, 2 * pair] + src.bigram[row, 2 * pair + 1]
                t = tgt.bigram[row, 2 * pair] + tgt.bigram[row, 2 * pair + 1]
                assert s == pytest.approx(t, abs=1e-12)

    def test_the_fixed_recipe(self):
        vocab = Vocabulary.default(16)
        src, tgt = confusable_pair_domains(vocab, d_x=8, seed=0)
        for spec, bias in ((src, 0.5), (tgt, 0.92)):
            first, second = spec.bigram[:, 0:16:2], spec.bigram[:, 1:16:2]
            np.testing.assert_allclose(second, bias * (first + second), rtol=0, atol=1e-12)
            np.testing.assert_allclose(spec.bigram[:16, 16], 0.12, rtol=0, atol=1e-12)
        gaps = np.linalg.norm(src.prototypes[1::2] - src.prototypes[0::2], axis=1)
        np.testing.assert_allclose(gaps, 0.65, rtol=0, atol=1e-12)
        corpus = gen_corpus(src, seed=1, n_utts=300)
        for it in corpus.items:
            assert len(it.tokens) <= len(it.features) <= 3 * len(it.tokens)
        # each token lasts 1, 2 or 3 frames, and each length occurs
        assert {len(it.features) for it in corpus.items if len(it.tokens) == 1} == {1, 2, 3}

    def test_odd_vocab_rejected(self):
        with pytest.raises(ConfigError):
            confusable_pair_domains(Vocabulary.default(5), d_x=4, seed=0)

    def test_entropy_rate_matches_measured_log_loss(self):
        vocab = Vocabulary.default(6)
        rng = np.random.default_rng(9)
        bigram = rng.dirichlet(np.ones(7) * 2.0, size=7)
        bigram[6, 6] = 0.0  # start row never emits EOS directly
        bigram[6] /= bigram[6].sum()
        spec = DomainSpec(vocab, bigram, rng.standard_normal((6, 3)), noise_sigma=0.2)
        corpus = gen_corpus(spec, seed=4, n_utts=4000, text_only=True)
        n_tokens = sum(len(it.tokens) for it in corpus.items)
        assert n_tokens >= 10_000
        measured = corpus_log_loss(spec, corpus)
        expected = chain_entropy_rate(spec)
        assert abs(measured - expected) <= 0.03 * expected


def assert_same_corpus(got, want):
    assert (got.split, got.seed, got.vocab) == (want.split, want.seed, want.vocab)
    assert [it.uid for it in got.items] == [it.uid for it in want.items]
    for g, w in zip(got.items, want.items):
        assert g.tokens == w.tokens
        if w.features is None:
            assert g.features is None
        else:
            assert (g.features.dtype, g.features.shape) == (w.features.dtype, w.features.shape)
            assert g.features.tobytes() == w.features.tobytes()


def crafted_spec(v, rows, noise_sigma=0.3, seed=0):
    """A DomainSpec over `v` tokens with random prototypes and the given bigram rows."""
    protos = np.random.default_rng(seed).standard_normal((v, 3))
    return DomainSpec(Vocabulary.default(v), np.asarray(rows, dtype=float), protos, noise_sigma)


def spread_rows(v, eos, start_eos, seed=0):
    """Dirichlet bigram rows with EOS probability `eos` after a token and `start_eos` at the start."""
    rows = np.random.default_rng(seed).dirichlet(np.ones(v), size=v + 1)
    eos_col = np.full((v + 1, 1), eos)
    eos_col[v] = start_eos
    return np.hstack([rows * (1.0 - eos_col), eos_col])


class TestGeneratorOracle:
    """`gen_corpus` against the verbatim `rng.choice` generator in `reference_data`."""

    @pytest.mark.parametrize("seed", range(4))
    def test_confusable_pair_domains(self, seed):
        for spec in confusable_pair_domains(Vocabulary.default(16), d_x=8, seed=seed):
            for split in ("train", "dev", "test"):
                for text_only in (False, True):
                    assert_same_corpus(gen_corpus(spec, seed + 7, 40, split, text_only),
                                       reference_data.gen_corpus(spec, seed + 7, 40, split, text_only))

    def test_sentences_at_the_length_cap(self):
        spec = crafted_spec(4, spread_rows(4, eos=0.0, start_eos=0.0))
        corpus = gen_corpus(spec, 1, 30)
        assert {len(it.tokens) for it in corpus.items} == {MAX_SENTENCE_LEN}
        assert_same_corpus(corpus, reference_data.gen_corpus(spec, 1, 30))

    def test_empty_sentences_redrawn(self):
        # the start row ends 9 draws in 10 at once, so nearly every utterance redraws
        spec = crafted_spec(4, spread_rows(4, eos=0.3, start_eos=0.9))
        for text_only in (False, True):
            assert_same_corpus(gen_corpus(spec, 2, 60, "dev", text_only),
                               reference_data.gen_corpus(spec, 2, 60, "dev", text_only))

    def test_zero_probability_column(self):
        rows = spread_rows(5, eos=0.2, start_eos=0.0)
        rows[:, 0] = rows[:, 4] = 0.0  # the first token and the last never occur
        rows /= rows.sum(axis=1, keepdims=True)
        spec = crafted_spec(5, rows)
        corpus = gen_corpus(spec, 3, 60)
        assert not {0, 4} & {tok for it in corpus.items for tok in it.tokens}
        assert_same_corpus(corpus, reference_data.gen_corpus(spec, 3, 60))

    def test_draws_on_cdf_boundaries(self, monkeypatch):
        # eighths are exact, so every draw below lands on a cumulative sum or
        # between two; only a right-side search agrees with rng.choice on both
        class OnEighths(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return int(super().random() * 8) / 8

        monkeypatch.setattr(np.random, "default_rng", lambda key: OnEighths(np.random.PCG64(key)))  # the oracle's
        monkeypatch.setattr(np.random, "Generator", OnEighths)  # the one generator of `gen_corpus`
        rows = np.array([[0, 3, 3, 2], [0, 1, 5, 2], [0, 4, 2, 2], [0, 4, 2, 2]]) / 8  # token 0 never occurs
        spec = crafted_spec(3, rows)
        for text_only in (False, True):
            corpus = gen_corpus(spec, 7, 60, "train", text_only)
            assert_same_corpus(corpus, reference_data.gen_corpus(spec, 7, 60, "train", text_only))
        assert 0 not in {tok for it in corpus.items for tok in it.tokens}

    def test_zero_noise(self):
        spec = crafted_spec(4, spread_rows(4, eos=0.25, start_eos=0.0), noise_sigma=0.0)
        assert_same_corpus(gen_corpus(spec, 4, 40, "test"), reference_data.gen_corpus(spec, 4, 40, "test"))

    def test_two_token_vocabulary(self):
        spec = crafted_spec(2, spread_rows(2, eos=0.3, start_eos=0.1))
        for split in ("train", "dev", "test"):
            assert_same_corpus(gen_corpus(spec, 5, 60, split), reference_data.gen_corpus(spec, 5, 60, split))

    def test_always_empty_start_row_still_raises(self):
        spec = crafted_spec(3, spread_rows(3, eos=0.3, start_eos=1.0))
        for generate in (gen_corpus, reference_data.gen_corpus):
            with pytest.raises(ConfigError, match="1000 empty sentences"):
                generate(spec, 6, 1)


_M64, _M128 = (1 << 64) - 1, (1 << 128) - 1


def state_giving(word, inc):
    """A PCG64 generator with increment `inc` whose next 64-bit output is `word`.

    PCG64 steps its 128-bit LCG state, then outputs rotr64(high ^ low, high >> 58)
    of the new state.  Pick the high half, solve for the low one, then step the
    LCG back with the multiplier's inverse mod 2**128.
    """
    high = 0x9E3779B97F4A7C15
    rot = high >> 58
    low = ((word << rot | word >> (64 - rot)) & _M64) ^ high
    state = ((high << 64 | low) - inc) * pow(_PCG64_MULT, -1, 1 << 128) & _M128
    bg = np.random.PCG64()
    bg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bg)


def place_word(word, pairs, d_x):
    """A generator that draws `word` for the frame counts of tokens 2 * pairs and up.

    Steps back from `state_giving(word, inc)` until numpy's own per-token draws
    for the first 2 * pairs tokens end right before the word; the normals take
    a varying number of words, so some increments have no such step.
    """
    for inc in range(1, 1000, 2):
        target = state_giving(word, inc).bit_generator.state["state"]
        for back in range(40 * pairs + 1):
            rng = state_giving(word, inc)
            rng.bit_generator.advance(-back)
            start = rng.bit_generator.state
            for _ in range(2 * pairs):
                rng.standard_normal((int(rng.integers(1, 4)), d_x))
            now = rng.bit_generator.state
            if (now["state"], now["has_uint32"]) == (target, 0):
                rng.bit_generator.state = start
                return rng
    raise AssertionError("no state found")


def assert_same_frames(spec, tokens, make_rng):
    got = _emit_features(spec, tokens, make_rng())
    want = reference_data._emit_features(spec, tokens, make_rng())
    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


ZERO_LOW, ZERO_HIGH = 0xDEADBEEF00000000, 0x00000000CAFEF00D


class TestFrameDraws:
    """Frame counts from the two halves of one PCG64 word per token pair, against `rng.integers`."""

    spec = crafted_spec(4, spread_rows(4, eos=0.3, start_eos=0.0))

    def test_numpy_rejects_zero_halves(self):
        # the facts the pair rule's fallback rests on
        rng = state_giving(ZERO_LOW, 1)
        assert int(rng.integers(1, 4)) == 3  # the high half, after the low one is rejected
        assert rng.bit_generator.state["has_uint32"] == 0
        rng = state_giving(ZERO_HIGH, 1)
        after = state_giving(ZERO_HIGH, 1)
        after.bit_generator.random_raw(2)
        assert int(rng.integers(1, 4)) == 3  # the low half
        rng.integers(1, 4)  # rejects the kept zero half and starts a fresh word
        assert rng.bit_generator.state["state"] == after.bit_generator.state["state"]

    def test_pair_rule_equals_integers(self):
        # numpy's Lemire draw for [1, 4): 1 + (3x >> 32) from the low half x, then
        # the high half; a numpy release that changes either fails here
        states = np.random.default_rng(11)
        for _ in range(2000):
            seed = int(states.integers(1 << 62))
            word = np.random.PCG64(seed).random_raw()
            rng = np.random.Generator(np.random.PCG64(seed))
            pair = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
            assert pair == [1 + (3 * (word & 0xFFFFFFFF) >> 32), 1 + (3 * (word >> 32) >> 32)]
            assert rng.bit_generator.state["has_uint32"] == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, MAX_SENTENCE_LEN - 1, MAX_SENTENCE_LEN])
    def test_token_counts(self, n):
        tokens = tuple(np.random.default_rng(n).integers(0, 4, size=n).tolist())
        for seed in range(5):
            assert_same_frames(self.spec, tokens, lambda: np.random.default_rng(seed))

    @pytest.mark.parametrize("word", [ZERO_LOW, ZERO_HIGH, 0, 1 << 32, 1])
    @pytest.mark.parametrize("n, pairs", [(2, 0), (5, 1), (6, 1), (3, 1), (4, 1), (1, 0), (9, 3)])
    def test_zero_halves(self, word, n, pairs):
        # the word serves tokens 2 * pairs and 2 * pairs + 1: in the middle of
        # the utterance, on its lone last token (n odd) or its last pair
        tokens = tuple(range(4)) * 3
        assert_same_frames(self.spec, tokens[:n], lambda: place_word(word, pairs, self.spec.d_x))

    def test_one_token_utterances(self):
        spec = crafted_spec(4, spread_rows(4, eos=1.0, start_eos=0.0))
        corpus = gen_corpus(spec, 8, 40)
        assert {len(it.tokens) for it in corpus.items} == {1}
        assert_same_corpus(corpus, reference_data.gen_corpus(spec, 8, 40))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**63 + 5])
    def test_odd_and_even_lengths_every_split(self, seed):
        spec = confusable_pair_domains(Vocabulary.default(16), d_x=8, seed=1)[0]
        for split in ("train", "dev", "test"):
            for text_only in (False, True):
                corpus = gen_corpus(spec, seed, 30, split, text_only)
                assert {len(it.tokens) % 2 for it in corpus.items} == {0, 1}
                assert_same_corpus(corpus, reference_data.gen_corpus(spec, seed, 30, split, text_only))


class TestSeeding:
    """The per-utterance states against `np.random.default_rng((seed, split, text_only, i))`."""

    @pytest.mark.parametrize("seed", [0, 2**31, 2**32, 2**63 + 5, 2**80])
    def test_states_equal_default_rng(self, seed):
        # a seed of 2**32 or more takes two or more entropy words
        for split in (0, 2):
            for text_only in (0, 1):
                states = _pcg64_states((seed, split, text_only), 2001)
                for i, (state, inc) in enumerate(states):
                    want = np.random.default_rng((seed, split, text_only, i)).bit_generator.state["state"]
                    assert (state, inc) == (want["state"], want["inc"]), (split, text_only, i)

    @pytest.mark.parametrize("seed", [np.int32(5), np.int64(7), np.uint64(2**40 + 3), True])
    def test_numpy_integer_seeds(self, seed):
        want = np.random.default_rng((seed, 1, 0, 4)).bit_generator.state["state"]
        assert list(_pcg64_states((seed, 1, 0), 5))[4] == (want["state"], want["inc"])

    def test_no_utterances(self):
        assert list(_pcg64_states((3, 1, 0), 0)) == []

    def test_large_seed_corpus(self):
        spec = confusable_pair_domains(Vocabulary.default(16), d_x=8, seed=0)[1]
        for text_only in (False, True):
            assert_same_corpus(gen_corpus(spec, 2**40, 30, "test", text_only),
                               reference_data.gen_corpus(spec, 2**40, 30, "test", text_only))

    def test_negative_seed_rejected(self):
        spec = confusable_pair_domains(Vocabulary.default(4), d_x=2, seed=0)[0]
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            gen_corpus(spec, -1, 3)


def test_experiment_data_digest():
    """The seed-0 experiment corpora, pinned by the digest the `rng.choice` generator gave.

    The oracle above calls numpy too, so only this catches a numpy release that
    changes how `Generator` draws.
    """
    exp = make_experiment_data(ExperimentConfig())
    h = hashlib.sha256()
    for corpus in (exp.src_train, exp.src_dev, exp.src_test, exp.tgt_text, exp.tgt_dev, exp.tgt_test):
        for it in corpus.items:
            h.update(it.uid.encode())
            h.update(repr(it.tokens).encode())
            if it.features is not None:
                h.update(repr(it.features.shape).encode())
                h.update(it.features.tobytes())
    assert h.hexdigest() == "105cf56f580351743542e2cea1165fc43444cd0279cd27f5fca84c48dd09e43d"


class TestTextCorpusIO:
    def test_roundtrip(self, tmp_path):
        spec = point_mass_spec()
        corpus = gen_corpus(spec, seed=5, n_utts=8, text_only=True)
        path = tmp_path / "text.txt"
        write_text_corpus(corpus, str(path))
        back = read_text_corpus(str(path), spec.vocab)
        assert [it.tokens for it in back.items] == [it.tokens for it in corpus.items]

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        corpus = read_text_corpus(str(path), Vocabulary.default(4))
        assert corpus.items == ()

    def test_unknown_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("w0 w1\nw0 nope\n")
        with pytest.raises(VocabError, match=r":2"):
            read_text_corpus(str(path), Vocabulary.default(2))

    def test_vocab_file_roundtrip(self, tmp_path):
        vocab = Vocabulary.default(5)
        write_vocab(vocab, str(tmp_path / "v.txt"))
        assert read_vocab(str(tmp_path / "v.txt")) == vocab

    @pytest.mark.parametrize("text, what", [("a b\nc\n", "whitespace"), ("", "no tokens"), ("\n \n", "no tokens"),
                                            ("a\nb\na\n", "duplicate")])
    def test_bad_vocab_file_rejected(self, tmp_path, text, what):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(VocabError, match=f"v.txt: .*{what}"):
            read_vocab(str(path))

    @pytest.mark.parametrize("read, what", [(read_vocab, "vocabulary file"),
                                            (lambda path: read_text_corpus(path, Vocabulary.default(2)), "text corpus")])
    def test_bytes_that_are_not_utf8_rejected_naming_the_file(self, tmp_path, read, what):
        # used to raise UnicodeDecodeError, naming no file
        path = tmp_path / "latin1.txt"
        path.write_bytes("w0\n\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=f"^{path}: not a {what} \\(not UTF-8 text\\)$"):
            read(str(path))


UTF8_ROUND_TRIP = """
import sys
import numpy as np
from mhat import data as dat
from mhat.extlm import ExternalLm
from mhat.model import Vocabulary

d = sys.argv[1]
vocab = Vocabulary(("\\u00e9", "b"))
dat.write_vocab(vocab, d + "/vocab.txt")
assert dat.read_vocab(d + "/vocab.txt") == vocab
items = tuple(dat.Utterance(f"train-{i:05d}", np.zeros((2, 3)), y) for i, y in enumerate([(0, 1), (1, 0), (0,)], 1))
corpus = dat.Corpus("train", 0, vocab, items)
dat.write_text_corpus(corpus, d + "/text.txt")
assert dat.read_text_corpus(d + "/text.txt", vocab).transcripts() == corpus.transcripts()
dat.write_corpus(corpus, d + "/paired")
assert dat.read_corpus(d + "/paired", vocab).transcripts() == corpus.transcripts()
dat.save_checkpoint(ExternalLm(vocab, embed_dim=2), d + "/lm.ckpt")
assert dat.load_checkpoint(d + "/lm.ckpt").vocab == vocab
"""


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    # under the C locale each writer used to raise UnicodeEncodeError, and
    # write_corpus to leave a partial manifest behind
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", UTF8_ROUND_TRIP, str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    for name in ("vocab.txt", "text.txt", "paired", "lm.ckpt"):
        assert "\u00e9" in (tmp_path / name).read_text(encoding="utf-8"), name


class TestPairedCorpusIO:
    def test_roundtrip_and_stable_bytes(self, tmp_path):
        spec = point_mass_spec()
        corpus = gen_corpus(spec, seed=6, n_utts=6)
        p1 = tmp_path / "c1"
        write_corpus(corpus, str(p1))
        back = read_corpus(str(p1), spec.vocab)
        assert [it.tokens for it in back.items] == [it.tokens for it in corpus.items]
        assert [it.uid for it in back.items] == [it.uid for it in corpus.items]
        p2 = tmp_path / "c2"
        write_corpus(back, str(p2))
        assert (tmp_path / "c1.feats").read_bytes() == (tmp_path / "c2.feats").read_bytes()

    def test_vocab_hash_checked(self, tmp_path):
        spec = point_mass_spec()
        corpus = gen_corpus(spec, seed=6, n_utts=2)
        write_corpus(corpus, str(tmp_path / "c"))
        with pytest.raises(ConfigError, match="hash"):
            read_corpus(str(tmp_path / "c"), Vocabulary.default(3))

    def test_partly_featureless_corpus_rejected_before_writing(self, tmp_path):
        corpus = gen_corpus(point_mass_spec(), seed=6, n_utts=3)
        items = list(corpus.items)
        items[1] = dataclasses.replace(items[1], features=None)
        with pytest.raises(ConfigError, match=f"{items[1].uid} has no features"):
            write_corpus(dataclasses.replace(corpus, items=tuple(items)), str(tmp_path / "c"))
        assert list(tmp_path.iterdir()) == []

    def test_featureless_corpus_rejected_before_writing(self, tmp_path):
        # used to be written as a text corpus that `read_corpus` then refused
        corpus = gen_corpus(point_mass_spec(), seed=6, n_utts=3, text_only=True)
        with pytest.raises(ConfigError, match=f"{corpus.items[0].uid} has no features"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])  # 1e39 is infinite in float32
    def test_non_finite_feature_not_written(self, tmp_path, bad):
        # used to be written, and only the decoder refused it, naming no file
        corpus = gen_corpus(point_mass_spec(), seed=6, n_utts=3)
        items = list(corpus.items)
        features = items[2].features.copy()
        features[0, 1] = bad
        items[2] = dataclasses.replace(items[2], features=features)
        path = str(tmp_path / "c")
        with pytest.raises(ConfigError, match=f"^{path}: utterance {items[2].uid} holds a non-finite feature$"):
            write_corpus(dataclasses.replace(corpus, items=tuple(items)), path)
        assert list(tmp_path.iterdir()) == []

    def test_empty_corpus_roundtrip(self, tmp_path):
        corpus = gen_corpus(point_mass_spec(), seed=6, n_utts=0)
        path = str(tmp_path / "c")
        write_corpus(corpus, path)
        assert "count 0" in (tmp_path / "c").read_text().splitlines()
        back = read_corpus(path, corpus.vocab)
        assert (back.split, back.seed, back.items) == (corpus.split, corpus.seed, ())


    def three_utterances(self, tmp_path):
        spec = point_mass_spec()
        path = tmp_path / "c"
        write_corpus(gen_corpus(spec, seed=6, n_utts=3), str(path))
        assert len(read_corpus(str(path), spec.vocab).items) == 3
        return path, spec.vocab

    def test_missing_count_rejected(self, tmp_path):
        path, vocab = self.three_utterances(tmp_path)
        path.write_text("".join(l for l in path.read_text().splitlines(True) if not l.startswith("count ")))
        with pytest.raises(ConfigError, match="count"):
            read_corpus(str(path), vocab)

    def test_cut_utterance_line_rejected(self, tmp_path):
        path, vocab = self.three_utterances(tmp_path)
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        with pytest.raises(ConfigError, match="count '3' but 2"):
            read_corpus(str(path), vocab)

    def test_bytes_after_the_last_record_rejected(self, tmp_path):
        path, vocab = self.three_utterances(tmp_path)
        feats = tmp_path / "c.feats"
        feats.write_bytes(feats.read_bytes() + b"junk")
        with pytest.raises(ConfigError, match="4 bytes after the last record"):
            read_corpus(str(path), vocab)


class TestCheckpoints:
    @pytest.mark.parametrize("kind", ["mhat", "hat", "lm"])
    def test_save_load_save_identical_bytes(self, tmp_path, kind):
        if kind == "mhat":
            obj = small_mhat(seed=3)
        elif kind == "hat":
            obj = small_hat(seed=3)
        else:
            obj = ExternalLm(Vocabulary.default(4), embed_dim=8, seed=3)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(obj, str(p1))
        again = load_checkpoint(str(p1))
        save_checkpoint(again, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.ckpt.bin").read_bytes() == (tmp_path / "b.ckpt.bin").read_bytes()
        assert again.kind == obj.kind
        assert again.vocab == obj.vocab

    def test_trained_alpha_survives(self, tmp_path):
        m = small_mhat()
        m.trained_alpha = 0.1
        save_checkpoint(m, str(tmp_path / "m.ckpt"))
        assert load_checkpoint(str(tmp_path / "m.ckpt")).trained_alpha == 0.1

    def test_truncated_blob(self, tmp_path):
        m = small_mhat()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, str(path))
        blob = (tmp_path / "m.ckpt.bin").read_bytes()
        (tmp_path / "m.ckpt.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated at tensor"):
            load_checkpoint(str(path))

    def test_ragged_blob(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_mhat(), str(path))
        blob = tmp_path / "m.ckpt.bin"
        blob.write_bytes(blob.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="whole number"):
            load_checkpoint(str(path))

    def test_kind_mismatch(self, tmp_path):
        lm = ExternalLm(Vocabulary.default(4), embed_dim=8)
        save_checkpoint(lm, str(tmp_path / "lm.ckpt"))
        with pytest.raises(CheckpointError, match="kind mismatch"):
            load_checkpoint(str(tmp_path / "lm.ckpt"), expect="asr")
        assert load_checkpoint(str(tmp_path / "lm.ckpt"), expect="lm").kind == "lm"

    @pytest.mark.parametrize("value", ["1", "00"])
    def test_lm_tied_tables_other_than_0_rejected(self, tmp_path, value):
        # the external LM is always untied, and writes `config.tied_tables 0`
        path = tmp_path / "lm.ckpt"
        save_checkpoint(ExternalLm(Vocabulary.default(4), embed_dim=8), str(path))
        text = path.read_text()
        assert "config.tied_tables 0\n" in text
        path.write_text(text.replace("config.tied_tables 0\n", f"config.tied_tables {value}\n"))
        with pytest.raises(CheckpointError, match=f"bad model config: config.tied_tables must be 0, got '{value}'"):
            load_checkpoint(str(path))

    def test_shape_mismatch_names_tensor(self, tmp_path):
        m = small_mhat()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, str(path))
        text = path.read_text().replace("am_proj.weight encoder 4,8", "am_proj.weight encoder 4,9")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="am_proj.weight"):
            load_checkpoint(str(path))

    def test_tampered_vocab_hash(self, tmp_path):
        m = small_mhat()
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, str(path))
        text = path.read_text().replace("token.0 w0", "token.0 q0")
        path.write_text(text)
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("line", ["dtype float64\n", ""])
    def test_dtype_other_than_float32_rejected(self, tmp_path, line):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_mhat(), str(path))
        path.write_text(path.read_text().replace("dtype float32\n", line))
        with pytest.raises(CheckpointError, match="float64" if line else "dtype None"):
            load_checkpoint(str(path))

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("hello\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])  # 1e39 is infinite in float32
    def test_non_finite_parameter_not_saved(self, tmp_path, bad):
        m = small_mhat()
        m.params["am_proj.weight"].data[1, 2] = bad
        with np.errstate(over="ignore"), pytest.raises(CheckpointError, match="'am_proj.weight'.*non-finite"):
            save_checkpoint(m, str(tmp_path / "m.ckpt"))
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_blob_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_mhat(), str(path))
        blob = tmp_path / "m.ckpt.bin"
        values = np.fromfile(blob, dtype="<f4")
        values[-1] = np.nan
        values.tofile(blob)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind, line, why", [
        ("lm", "config.embed_dim 8", "embed_dim must be >= 1, got 0"),
        ("mhat", "config.encoder.d_x 3", "bad encoder config: EncoderConfig\\(d_x=0,"),
    ])
    def test_zero_size_in_the_manifest_rejected(self, tmp_path, kind, line, why):
        # a zero size used to build, save and load; the LM then failed in numpy's reshape
        path = tmp_path / "m.ckpt"
        save_checkpoint(ExternalLm(Vocabulary.default(4), embed_dim=8) if kind == "lm" else small_mhat(), str(path))
        text = path.read_text()
        assert line + "\n" in text
        path.write_text(text.replace(line + "\n", line[:-1] + "0\n"))
        with pytest.raises(CheckpointError, match=f"^{path}: bad model config: {why}"):
            load_checkpoint(str(path))

    def test_bad_manifest_vocabulary_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_mhat(), str(path))
        path.write_text(path.read_text().replace("token.1 w1", "token.1 w0"))
        with pytest.raises(CheckpointError, match="duplicate token name 'w0'"):
            load_checkpoint(str(path))


class _SecondWriteFails:
    """A binary file whose second write raises, as on a full disk; the
    first write reaches the disk."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.f.write(data)
        self.f.flush()


def _fill_the_disk(monkeypatch):
    """From here on, every binary write of `mhat.data` fails at its second write."""
    def fake_open(file, mode="r", **kw):
        f = open(file, mode, **kw)
        return _SecondWriteFails(f) if mode == "wb" else f

    monkeypatch.setattr(mhat.data, "open", fake_open, raising=False)


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestWholeWrites:
    """A write that fails part-way leaves its files as they were and no
    other file behind; each of these used to leave a partial file."""

    def test_write_lines(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")

        def lines():
            yield "x" * 100_000  # more than one buffer, so it reaches the disk
            assert sorted(p.stat().st_size for p in tmp_path.iterdir()) == [4, 100_001]
            raise RuntimeError("the lines stopped part-way")

        with pytest.raises(RuntimeError, match="part-way"):
            mhat.data.write_lines(str(path), lines())
        assert _files(tmp_path) == {"out.txt": b"old\n"}

    def test_text_corpus_with_a_bad_token_id(self, tmp_path):
        vocab = Vocabulary.default(2)
        path = tmp_path / "text.txt"
        write_text_corpus(Corpus("train", 0, vocab, (Utterance("a", None, (0, 1)),)), str(path))
        before = _files(tmp_path)
        items = (Utterance("a", None, (1,) * 50_000), Utterance("b", None, (2,)))
        with pytest.raises(VocabError, match="token id 2 out of range"):
            write_text_corpus(Corpus("train", 0, vocab, items), str(path))
        assert _files(tmp_path) == before

    def test_paired_corpus_features(self, tmp_path, monkeypatch):
        spec = point_mass_spec()
        path = tmp_path / "corpus"
        write_corpus(gen_corpus(spec, seed=1, n_utts=3), str(path))
        before = _files(tmp_path)
        _fill_the_disk(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            write_corpus(gen_corpus(spec, seed=2, n_utts=4), str(path))
        assert _files(tmp_path) == before

    def test_checkpoint_blob(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_mhat(seed=1), str(path))
        before = _files(tmp_path)
        _fill_the_disk(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(small_mhat(seed=2), str(path))
        assert _files(tmp_path) == before
