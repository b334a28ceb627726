import math

import numpy as np
import pytest

from mhat.data import Corpus, Utterance, save_checkpoint
from mhat.extlm import ExternalLm, LmTrainConfig, lm_loss, lm_perplexity, train_lm
from mhat.model import ConfigError, EncoderConfig, MhatModel, VocabError, Vocabulary, context_of
from mhat.numerics import EvaluationError, log_sum_exp
from mhat.training import Adam


def text_corpus(vocab, seqs):
    items = tuple(Utterance(uid=f"u{i}", features=None, tokens=tuple(s)) for i, s in enumerate(seqs))
    return Corpus(split="train", seed=0, vocab=vocab, items=items)


def next_log_probs(lm, prefix):
    """The LM's next-event row (tokens + EOS) after a prefix, from its scorer."""
    return lm.scorer().next_log_probs(context_of(prefix, lm.vocab.sos_id))


def random_sentences(rng, n, vocab_size, max_len=8):
    return [[int(i) for i in rng.integers(0, vocab_size, size=rng.integers(1, max_len))] for _ in range(n)]


class TestScoring:
    def test_zeroed_params_uniform_over_tokens_and_eos(self):
        vocab = Vocabulary.default(5)
        lm = ExternalLm(vocab, embed_dim=8)
        for name in lm.params.entries:
            lm.params[name].data[...] = 0.0
        for next_id in range(6):
            assert next_log_probs(lm, [1, 2])[next_id] == pytest.approx(-math.log(6), abs=1e-12)

    def test_distribution_sums_to_one(self, rng):
        lm = ExternalLm(Vocabulary.default(4), embed_dim=8, seed=3)
        for _ in range(20):
            prefix = [int(i) for i in rng.integers(0, 4, size=rng.integers(0, 4))]
            assert abs(np.exp(next_log_probs(lm, prefix)).sum() - 1.0) <= 1e-12

    def test_sentence_log_prob_includes_eos(self):
        lm = ExternalLm(Vocabulary.default(3), embed_dim=4, seed=0)
        y = [0, 2]
        manual = (
            next_log_probs(lm, [])[0] + next_log_probs(lm, [0])[2] + next_log_probs(lm, [0, 2])[lm.eos_id]
        )
        assert lm.sentence_log_prob(y) == pytest.approx(manual, abs=1e-12)


class TestSharedCodePath:
    def test_matches_internal_lm_with_copied_weights(self):
        vocab = Vocabulary.default(6)
        lm = ExternalLm(vocab, embed_dim=8, seed=5)
        m = MhatModel(vocab, EncoderConfig(d_x=2, d_f=4), label_dim=8, blank_dim=4, joint_dim=4)
        m.params["label_decoder.table0"].data = lm.params["decoder.table0"].data.copy()
        m.params["label_decoder.table1"].data = lm.params["decoder.table1"].data.copy()
        m.params["label_decoder.proj.weight"].data = lm.params["decoder.proj.weight"].data.copy()
        m.params["label_decoder.proj.bias"].data = lm.params["decoder.proj.bias"].data.copy()
        m.params["ilm_proj.weight"].data = lm.params["out_proj.weight"].data[: vocab.size].copy()
        m.params["ilm_proj.bias"].data = lm.params["out_proj.bias"].data[: vocab.size].copy()
        for prefix in ([], [2], [3, 1], [0, 5, 4]):
            g = lm.decoder.output_np(
                (vocab.sos_id, vocab.sos_id)
                if not prefix
                else ((vocab.sos_id, prefix[-1]) if len(prefix) == 1 else (prefix[-2], prefix[-1]))
            )
            z = lm.params["out_proj.weight"].data @ g + lm.params["out_proj.bias"].data
            token_part = z[: vocab.size]
            expected = token_part - log_sum_exp(token_part)
            got = m.ilm_log_probs(m.decode_label(prefix)).data
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestTraining:
    def test_deterministic_bigram_rule(self):
        # token 1 always follows token 0 in the corpus
        vocab = Vocabulary.default(5)
        rng = np.random.default_rng(0)
        seqs = []
        for _ in range(100):
            s = []
            while len(s) < int(rng.integers(4, 9)):
                t = int(rng.integers(0, 5))
                s.append(t)
                if t == 0:
                    s.append(1)
            seqs.append(s)
        lm, _ = train_lm(text_corpus(vocab, seqs), LmTrainConfig(embed_dim=16, epochs=60, lr=5e-3, seed=0))
        for prev2 in range(5):
            p = math.exp(next_log_probs(lm, [prev2, 0])[1])
            assert p > 0.9

    def test_repeated_sentence_memorization(self):
        vocab = Vocabulary.default(8)
        seqs = [list(range(8))] * 50
        lm, ppl = train_lm(text_corpus(vocab, seqs), LmTrainConfig(embed_dim=16, epochs=80, lr=5e-3, seed=0))
        assert ppl < 1.1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            train_lm(text_corpus(Vocabulary.default(4), []), LmTrainConfig(epochs=1))

    def test_bad_token_rejected_before_any_step(self, rng, monkeypatch):
        # the bad sentence sits in a later batch of the first epoch
        steps = []
        monkeypatch.setattr(Adam, "step", lambda opt: steps.append(opt.t))
        seqs = random_sentences(rng, 40, 4)
        seqs[-1] = [0, 4, 1]
        with pytest.raises(VocabError, match=r"^token id 4 out of range for \|V\|=4$"):
            train_lm(text_corpus(Vocabulary.default(4), seqs), LmTrainConfig(embed_dim=4, epochs=2, batch_size=4))
        assert steps == []

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 0), ("epochs", -3), ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
         ("embed_dim", 0)],
    )
    def test_bad_config_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must"):
            LmTrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_bad_embed_dim_rejected_by_the_lm_itself(self, value):
        # a zero width used to build, save and load, then fail in numpy's reshape
        with pytest.raises(ConfigError, match=f"^embed_dim must be >= 1, got {value}$"):
            ExternalLm(Vocabulary.default(4), embed_dim=value)

    def test_non_finite_loss_names_epoch_and_batch(self, rng):
        # an Adam step of size 1e300 leaves overflowing weights, so the second
        # batch's loss is NaN (an infinite lr is rejected by the config)
        corpus = text_corpus(Vocabulary.default(4), random_sentences(rng, 8, 4))
        cfg = LmTrainConfig(embed_dim=4, epochs=2, batch_size=4, lr=1e300)
        with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="epoch 1, batch 2"):
            train_lm(corpus, cfg)

    def test_fixed_seed_bit_identical_checkpoints(self, tmp_path):
        vocab = Vocabulary.default(4)
        rng = np.random.default_rng(1)
        seqs = [[int(i) for i in rng.integers(0, 4, size=6)] for _ in range(30)]
        cfg = LmTrainConfig(embed_dim=8, epochs=5, seed=7)
        lm1, p1 = train_lm(text_corpus(vocab, seqs), cfg)
        lm2, p2 = train_lm(text_corpus(vocab, seqs), cfg)
        assert p1 == p2
        save_checkpoint(lm1, str(tmp_path / "a.ckpt"))
        save_checkpoint(lm2, str(tmp_path / "b.ckpt"))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.ckpt.bin").read_bytes() == (tmp_path / "b.ckpt.bin").read_bytes()


class TestPerplexity:
    def test_matches_mean_event_nll(self):
        vocab = Vocabulary.default(4)
        lm = ExternalLm(vocab, embed_dim=8, seed=2)
        seqs = [[0, 1], [3]]
        events = 0
        nll = 0.0
        for y in seqs:
            nll -= lm.sentence_log_prob(y)
            events += len(y) + 1
        assert lm_perplexity(lm, seqs) == pytest.approx(math.exp(nll / events), rel=1e-12)

    def test_shuffle_bit_exact(self, rng):
        lm = ExternalLm(Vocabulary.default(6), embed_dim=8, seed=4)
        seqs = random_sentences(rng, 200, 6)
        a = lm_perplexity(lm, seqs)
        for _ in range(5):
            order = rng.permutation(len(seqs))
            assert lm_perplexity(lm, [seqs[i] for i in order]) == a

    def test_empty_sentence_is_one_eos_event(self):
        lm = ExternalLm(Vocabulary.default(3), embed_dim=4, seed=0)
        assert lm_perplexity(lm, [[]]) == pytest.approx(math.exp(-lm.sentence_log_prob([])), rel=1e-12)
        with pytest.raises(ConfigError):
            lm_perplexity(lm, [])

    def test_uniform_lm_value(self):
        vocab = Vocabulary.default(7)
        lm = ExternalLm(vocab, embed_dim=4)
        for name in lm.params.entries:
            lm.params[name].data[...] = 0.0
        assert lm_perplexity(lm, [[0, 1, 2]]) == pytest.approx(8.0, rel=1e-12)


class TestLmLoss:
    def test_sum_of_sentence_nlls(self, rng):
        lm = ExternalLm(Vocabulary.default(5), embed_dim=8, seed=2)
        seqs = random_sentences(rng, 20, 5) + [[]]
        expected = -sum(lm.sentence_log_prob(y) for y in seqs)
        assert float(lm_loss(lm, seqs).data) == pytest.approx(expected, rel=1e-12)

    def test_shuffle_bit_exact(self, rng):
        lm = ExternalLm(Vocabulary.default(6), embed_dim=8, seed=4)
        seqs = random_sentences(rng, 200, 6)
        a = float(lm_loss(lm, seqs).data)
        for _ in range(5):
            order = rng.permutation(len(seqs))
            assert float(lm_loss(lm, [seqs[i] for i in order]).data) == a

    def test_empty_batch_and_out_of_vocab(self):
        lm = ExternalLm(Vocabulary.default(4), embed_dim=4)
        assert float(lm_loss(lm, []).data) == 0.0
        with pytest.raises(VocabError):
            lm_loss(lm, [[0, 4]])
