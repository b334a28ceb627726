import inspect
import math

import numpy as np
import pytest

from conftest import random_utterance, small_mhat
from mhat.lattice import hat_loss
from mhat.losses import ilm_loss, mhat_loss, perplexity
from mhat.extlm import ExternalLm
from mhat.model import ConfigError, VocabError, Vocabulary


class TestIlmLoss:
    def test_uniform_closed_form(self, mhat_small):
        mhat_small.params["ilm_proj.weight"].data[...] = 0.0
        mhat_small.params["ilm_proj.bias"].data[...] = 0.0
        loss = float(ilm_loss(mhat_small, [[0, 1, 2]]).data)
        assert loss == pytest.approx(3 * math.log(4), abs=1e-12)

    def test_matches_per_sentence_sum(self, mhat_small, rng):
        seqs = [[int(i) for i in rng.integers(0, 4, size=rng.integers(1, 7))] for _ in range(30)]
        expected = 0.0
        for y in seqs:
            rows = mhat_small.ilm_log_prob_rows(y).data
            expected -= rows[np.arange(len(y)), y].sum()
        assert float(ilm_loss(mhat_small, seqs).data) == pytest.approx(expected, rel=1e-12)

    def test_empty_batch(self, mhat_small):
        assert float(ilm_loss(mhat_small, []).data) == 0.0

    def test_empty_sequence_rejected(self, mhat_small):
        with pytest.raises(ConfigError):
            ilm_loss(mhat_small, [[]])

    def test_out_of_vocab(self, mhat_small):
        with pytest.raises(VocabError):
            ilm_loss(mhat_small, [[0, 11]])

    def test_gradient_touches_only_ilm_group(self, mhat_small):
        loss = ilm_loss(mhat_small, [[1, 2], [3]])
        mhat_small.params.zero_grads()
        loss.backward()
        for name, t in mhat_small.params.entries.items():
            if mhat_small.params.group[name] == "ilm":
                continue
            assert t.grad is None or not np.any(t.grad)

    def test_shuffle_bit_exact(self, mhat_small, rng):
        seqs = [[1, 2, 0], [3], [2, 2], [0, 1]]
        a = float(ilm_loss(mhat_small, seqs).data)
        order = rng.permutation(len(seqs))
        b = float(ilm_loss(mhat_small, [seqs[i] for i in order]).data)
        assert a == b


class TestMhatLoss:
    def test_alpha_zero_is_hat_loss_bit_exact(self, mhat_small, rng):
        batch = [random_utterance(rng, t_len=3), random_utterance(rng, t_len=2)]
        a = float(mhat_loss(mhat_small, batch, 0.0).data)
        b = float(hat_loss(mhat_small, batch).data)
        assert a == b

    def test_alpha_combination(self, mhat_small, rng):
        batch = [random_utterance(rng, t_len=3)]
        expected = float(hat_loss(mhat_small, batch).data) + 0.1 * float(
            ilm_loss(mhat_small, [batch[0][1]]).data
        )
        assert float(mhat_loss(mhat_small, batch, 0.1).data) == pytest.approx(expected, abs=1e-12)

    def test_all_empty_transcripts_give_the_transducer_loss_bit_exact(self, mhat_small, rng):
        batch = [random_utterance(rng, t_len=3, u_len=0), random_utterance(rng, t_len=2, u_len=0)]
        runs = []
        for loss in (hat_loss, lambda model, b: mhat_loss(model, b, 0.1)):
            mhat_small.params.zero_grads()
            out = loss(mhat_small, batch)
            out.backward()
            runs.append([out.data.tobytes()] + [t.grad if t.grad is None else t.grad.tobytes()
                                                for t in mhat_small.params.entries.values()])
        assert runs[0] == runs[1]

    def test_default_alpha(self, mhat_small, rng):
        batch = [random_utterance(rng, t_len=3), random_utterance(rng, t_len=2)]
        assert inspect.signature(mhat_loss).parameters["alpha"].default == 0.1
        assert float(mhat_loss(mhat_small, batch).data) == float(mhat_loss(mhat_small, batch, 0.1).data)

    def test_alpha_validation(self, mhat_small, rng):
        batch = [random_utterance(rng, t_len=3)]
        for alpha in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
                mhat_loss(mhat_small, batch, alpha)

    def test_encoder_grads_unchanged_by_ilm_term(self, mhat_small, rng):
        batch = [random_utterance(rng, t_len=3)]
        mhat_small.params.zero_grads()
        hat_loss(mhat_small, batch).backward()
        hat_grads = {
            n: mhat_small.params[n].grad.copy()
            for n in mhat_small.params.group_names("encoder")
        }
        mhat_small.params.zero_grads()
        mhat_loss(mhat_small, batch, 0.1).backward()
        for n, g in hat_grads.items():
            np.testing.assert_array_equal(mhat_small.params[n].grad, g)


class TestPerplexity:
    def test_uniform_ilm(self, mhat_small):
        mhat_small.params["ilm_proj.weight"].data[...] = 0.0
        mhat_small.params["ilm_proj.bias"].data[...] = 0.0
        assert perplexity(mhat_small, [[0, 1, 2], [3]]) == pytest.approx(4.0, rel=1e-12)

    def test_half_probability_tokens(self):
        m = small_mhat(vocab_size=2)
        m.params["ilm_proj.weight"].data[...] = 0.0
        m.params["ilm_proj.bias"].data[...] = 0.0
        assert perplexity(m, [[0, 1, 0, 1]]) == pytest.approx(2.0, rel=1e-12)

    def test_greater_than_one(self, mhat_small, rng):
        seqs = [[int(i) for i in rng.integers(0, 4, size=5)] for _ in range(10)]
        assert perplexity(mhat_small, seqs) > 1.0

    def test_shuffle_invariant(self, mhat_small, rng):
        seqs = [[1, 2], [3, 0, 1], [2]]
        a = perplexity(mhat_small, seqs)
        order = rng.permutation(len(seqs))
        b = perplexity(mhat_small, [seqs[i] for i in order])
        assert a == b

    def test_external_lm_scores_tokens_without_eos_events(self, rng):
        lm = ExternalLm(Vocabulary.default(4), embed_dim=8, seed=3)
        seqs = [[int(i) for i in rng.integers(0, 4, size=rng.integers(1, 6))] for _ in range(10)] + [[]]
        nll = 0.0
        for y in seqs:
            rows = lm.next_log_prob_rows(y).data
            nll -= rows[np.arange(len(y)), y].sum()
        tokens = sum(len(y) for y in seqs)
        assert perplexity(lm, seqs) == pytest.approx(math.exp(nll / tokens), rel=1e-12)

    def test_requires_tokens(self, mhat_small):
        with pytest.raises(ConfigError):
            perplexity(mhat_small, [])
        with pytest.raises(ConfigError):
            perplexity(mhat_small, [[], []])

    def test_empty_transcripts_count_for_nothing(self, mhat_small):
        assert perplexity(mhat_small, [[0, 1], [], [2]]) == perplexity(mhat_small, [[0, 1], [2]])
