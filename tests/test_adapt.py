import copy
import math
import warnings

import numpy as np
import pytest

from conftest import small_mhat
from mhat.adapt import IlmaConfig, ilm_snapshot, ilma_loss, run_ilma
from mhat.data import Corpus, Utterance, Vocabulary, confusable_pair_domains, gen_corpus
from mhat.losses import ilm_loss, perplexity
from mhat.model import ConfigError, EncoderConfig, MhatModel, VocabError
from mhat.numerics import EvaluationError


def text_corpus(vocab, seqs):
    items = tuple(Utterance(uid=f"u{i}", features=None, tokens=tuple(s)) for i, s in enumerate(seqs))
    return Corpus(split="train", seed=0, vocab=vocab, items=items)


class TestIlmaLoss:
    def test_rho_zero_is_ilm_loss_bit_exact(self, mhat_small):
        teacher = ilm_snapshot(mhat_small)
        seqs = [[1, 2], [0, 3, 1]]
        a = float(ilma_loss(mhat_small, teacher, seqs, 0.0).data)
        b = float(ilm_loss(mhat_small, seqs).data)
        assert a == b

    def test_rho_one_uniform_fixed_point_value(self):
        m = small_mhat()
        m.params["ilm_proj.weight"].data[...] = 0.0
        m.params["ilm_proj.bias"].data[...] = 0.0
        teacher = ilm_snapshot(m)
        loss = float(ilma_loss(m, teacher, [[2]], 1.0).data)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_rho_one_stationary_gradient(self, mhat_small):
        teacher = ilm_snapshot(mhat_small)
        loss = ilma_loss(mhat_small, teacher, [[1, 2, 0], [3]], 1.0)
        mhat_small.params.zero_grads()
        loss.backward()
        sq = 0.0
        for t in mhat_small.params.entries.values():
            if t.grad is not None:
                sq += float(np.sum(t.grad**2))
        assert math.sqrt(sq) <= 1e-6

    def test_shuffle_bit_exact(self, mhat_small, rng):
        teacher = ilm_snapshot(mhat_small)
        mhat_small.params["ilm_proj.bias"].data += 0.3  # student and teacher differ
        seqs = [[int(i) for i in rng.integers(0, 4, size=rng.integers(1, 8))] for _ in range(200)]
        a = float(ilma_loss(mhat_small, teacher, seqs, 0.5).data)
        for _ in range(5):
            order = rng.permutation(len(seqs))
            assert float(ilma_loss(mhat_small, teacher, [seqs[i] for i in order], 0.5).data) == a

    def test_matches_per_sentence_sum(self, mhat_small, rng):
        teacher = ilm_snapshot(mhat_small)
        mhat_small.params["ilm_proj.bias"].data += 0.3
        seqs = [[int(i) for i in rng.integers(0, 4, size=rng.integers(1, 7))] for _ in range(30)]
        rho = 0.25
        expected = 0.0
        for y in seqs:
            s_rows = mhat_small.ilm_log_prob_rows(y).data[: len(y)]
            t_rows = np.exp(teacher.ilm_log_prob_rows(y).data[: len(y)])
            expected -= (1 - rho) * s_rows[np.arange(len(y)), y].sum() + rho * (t_rows * s_rows).sum()
        got = float(ilma_loss(mhat_small, teacher, seqs, rho).data)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_transcript_rejected(self, mhat_small):
        teacher = ilm_snapshot(mhat_small)
        for rho in (0.0, 0.5, 1.0):
            with pytest.raises(ConfigError):
                ilma_loss(mhat_small, teacher, [[1], []], rho)

    def test_rho_validation(self, mhat_small):
        teacher = ilm_snapshot(mhat_small)
        with pytest.raises(ConfigError):
            ilma_loss(mhat_small, teacher, [[1]], 1.5)
        with pytest.raises(ConfigError):
            IlmaConfig(rho=-0.1)


class TestRunIlma:
    def _corpus(self, vocab):
        rng = np.random.default_rng(3)
        seqs = [[int(i) for i in rng.integers(0, vocab.size, size=rng.integers(1, 6))] for _ in range(40)]
        return text_corpus(vocab, seqs)

    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 0), ("steps", -1), ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf"))],
    )
    def test_bad_config_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must"):
            IlmaConfig(**{field: value})

    def test_batch_size_zero_is_rejected_not_a_no_op(self, mhat_small):
        # batch_size=0 used to run every step on an empty batch: a zero loss
        # curve and no parameter changed
        mhat_small.trained_alpha = 0.1
        with pytest.raises(ConfigError, match="batch_size"):
            run_ilma(mhat_small, self._corpus(mhat_small.vocab), IlmaConfig(steps=3, batch_size=0))

    def test_zero_steps_bit_exact(self, mhat_small):
        mhat_small.trained_alpha = 0.1
        before = mhat_small.params.checksum()
        run_ilma(mhat_small, self._corpus(mhat_small.vocab), IlmaConfig(steps=0))
        assert mhat_small.params.checksum() == before

    def test_only_ilm_group_changes(self, mhat_small):
        mhat_small.trained_alpha = 0.1
        enc = mhat_small.params.checksum(["encoder"])
        blank = mhat_small.params.checksum(["blank_branch"])
        ilm = mhat_small.params.checksum(["ilm"])
        run_ilma(mhat_small, self._corpus(mhat_small.vocab), IlmaConfig(steps=20, lr=1e-3))
        assert mhat_small.params.checksum(["encoder"]) == enc
        assert mhat_small.params.checksum(["blank_branch"]) == blank
        assert mhat_small.params.checksum(["ilm"]) != ilm

    def test_blank_and_am_outputs_frozen(self, mhat_small, rng):
        mhat_small.trained_alpha = 0.1
        probes = [(rng.standard_normal(8), [1, 2]), (rng.standard_normal(8), [])]
        before = [
            (
                mhat_small.blank_posterior(f, mhat_small.decode_blank(p)),
                mhat_small.am_log_probs(f).data.copy(),
            )
            for f, p in probes
        ]
        run_ilma(mhat_small, self._corpus(mhat_small.vocab), IlmaConfig(steps=25, lr=1e-3))
        for (f, p), (b0, a0) in zip(probes, before):
            assert mhat_small.blank_posterior(f, mhat_small.decode_blank(p)) == b0
            np.testing.assert_array_equal(mhat_small.am_log_probs(f).data, a0)

    def test_rho_one_step_is_below_numerical_floor(self, mhat_small):
        mhat_small.trained_alpha = 0.1
        before = {name: t.data.copy() for name, t in mhat_small.params.entries.items()}
        run_ilma(mhat_small, self._corpus(mhat_small.vocab), IlmaConfig(rho=1.0, steps=1, lr=1e-2))
        # the only motion is float round-off of sum(teacher probs) != 1
        for name, t in mhat_small.params.entries.items():
            assert np.max(np.abs(t.data - before[name])) <= 1e-12

    def test_warns_without_ilm_loss_training(self, mhat_small):
        with pytest.warns(UserWarning, match="internal-LM loss"):
            run_ilma(mhat_small, self._corpus(mhat_small.vocab), IlmaConfig(steps=1, lr=1e-4))

    def test_non_finite_loss_names_step(self, mhat_small):
        mhat_small.trained_alpha = 0.1
        mhat_small.params["ilm_proj.bias"].data[0] = np.nan
        with pytest.raises(EvaluationError, match="step 1"):
            run_ilma(mhat_small, self._corpus(mhat_small.vocab), IlmaConfig(steps=3))

    def test_empty_corpus_rejected(self, mhat_small):
        mhat_small.trained_alpha = 0.1
        with pytest.raises(ConfigError):
            run_ilma(mhat_small, text_corpus(mhat_small.vocab, []), IlmaConfig(steps=1))

    @pytest.mark.parametrize("steps", [3, 200])
    def test_bad_token_rejected_before_any_step(self, steps):
        # at 3 steps no batch picks the bad sentence; at 200 a later one does
        m = small_mhat(vocab_size=16)
        m.trained_alpha = 0.1
        seqs = [list(y) for y in self._corpus(m.vocab).transcripts()]
        seqs[7] = [3, 99, 1]
        before = m.params.checksum()
        with pytest.raises(VocabError, match=r"^token id 99 out of range for \|V\|=16$"):
            run_ilma(m, seqs, IlmaConfig(steps=steps, batch_size=2))
        assert m.params.checksum() == before

    def test_report_perplexities(self, mhat_small):
        mhat_small.trained_alpha = 0.1
        held = [[1, 2, 3], [0, 1]]
        rep = run_ilma(
            mhat_small,
            self._corpus(mhat_small.vocab),
            IlmaConfig(steps=30, lr=1e-3),
            heldout_source=held,
            heldout_target=held,
        )
        assert rep.source_ppl_before is not None and rep.source_ppl_after is not None
        assert rep.target_ppl_after == perplexity(mhat_small, held)
        kv = dict(line.split(" ", 1) for line in rep.kv_lines())
        assert kv["steps"] == "30"
        assert "target_ppl_after" in kv
        assert "source ppl" in rep.render_text()


class TestRhoTradeoffMonotonicity:
    def test_seeded_rho_grid(self):
        vocab = Vocabulary.default(8)
        src, tgt = confusable_pair_domains(vocab, d_x=4, seed=5)
        src_text = gen_corpus(src, 11, 800, "train", text_only=True)
        tgt_text = gen_corpus(tgt, 12, 400, "train", text_only=True)
        src_held = gen_corpus(src, 13, 200, "dev", text_only=True).transcripts()
        tgt_held = gen_corpus(tgt, 14, 200, "dev", text_only=True).transcripts()

        base = MhatModel(
            vocab, EncoderConfig(d_x=4, d_f=16), label_dim=32, blank_dim=8, joint_dim=16, seed=3
        )
        # the alpha warning does not apply: the internal LM is text-pretrained
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            run_ilma(base, src_text, IlmaConfig(rho=0.0, steps=1500, lr=1e-3, batch_size=64, seed=0))
        src_before = perplexity(base, src_held)

        target_ppl = []
        source_deg = []
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            m = copy.deepcopy(base)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                run_ilma(m, tgt_text, IlmaConfig(rho=rho, steps=400, lr=1e-3, seed=0))
            target_ppl.append(perplexity(m, tgt_held))
            source_deg.append(perplexity(m, src_held) - src_before)
        # lower rho fits the target text at least as well
        for a, b in zip(target_ppl, target_ppl[1:]):
            assert a <= b + 1e-9
        # higher rho protects the source at least as well
        for a, b in zip(source_deg, source_deg[1:]):
            assert a >= b - 1e-9
