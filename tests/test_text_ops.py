"""The text path against the pieces it replaced (tests/reference_engine.py).

`context_counts` must give byte-identical tables, and so must every table
of one call's pass (`EventCodes.tables`); `train_lm` and `run_ilma` built
on those tables must end byte-identical to their per-step loops
(tests/reference_text.py).  Every text loss,
now `embed_affine` into `log_softmax_nll`, must give byte-identical values
and gradients to the graph of row gathers, concat, affine map,
`log_softmax` and `table_nll` it replaced.  Whole training runs with the
replaced pieces patched back in must end in byte-identical parameters.
Both sides run in one process, so they share one BLAS thread count.
"""

import numpy as np
import pytest

import reference_engine as ref
import reference_text
from mhat import losses as losses_mod
from mhat import model as model_mod
from mhat import numerics as nm
from mhat.adapt import IlmaConfig, ilm_snapshot, ilma_loss, run_ilma
from mhat.evalcli import ExperimentConfig, build_hat, build_mhat, make_experiment_data
from mhat.extlm import ExternalLm, LmTrainConfig, lm_loss, lm_perplexity, train_lm
from mhat.lattice import canonical_order
from mhat.losses import batch_table, ilm_loss, mhat_loss, perplexity, text_nll
from mhat.data import Corpus, Utterance
from mhat.model import ContextTable, EmbeddingDecoder, EventCodes, VocabError, context_counts
from mhat.numerics import ParameterSet, Tensor
from mhat.training import TrainConfig, train_asr

CFG = ExperimentConfig(n_train=320, n_dev=0, n_test=0, n_adapt_text=1000)


@pytest.fixture(scope="module")
def real():
    """The vocabulary, the paired training items, the target text, and its
    first batches of 32 (ILMA's size) and of 64 (the LM's)."""
    exp = make_experiment_data(CFG)
    text = exp.tgt_text.transcripts()
    order = np.random.default_rng(0).permutation(len(text))
    batches32 = [[text[i] for i in order[s : s + 32]] for s in range(0, 320, 32)]
    batches64 = [[text[i] for i in order[s : s + 64]] for s in range(0, 640, 64)]
    return exp, batches32, batches64


@pytest.fixture
def old_text(monkeypatch):
    """Patch the replaced pieces back in: the text path as it was before them."""

    def install():
        monkeypatch.setattr(EmbeddingDecoder, "outputs", ref.outputs)
        monkeypatch.setattr(nm, "log_softmax_nll", ref.log_softmax_nll)
        monkeypatch.setattr(losses_mod, "context_counts", lambda seqs, v, eos: ContextTable(*ref_counts(seqs, v, eos)))
        monkeypatch.setattr(model_mod, "_token_array", ref._token_array)

    return install


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def loss_and_grads(params, loss):
    params.zero_grads()
    if loss.requires_grad:
        loss.backward()
    return loss.data.copy(), {n: None if t.grad is None else t.grad.copy() for n, t in params.entries.items()}


def assert_same_runs(new, old):
    assert len(new) == len(old)
    for (loss, grads), (loss0, grads0) in zip(new, old):
        assert same_bytes(loss, loss0)
        assert grads.keys() == grads0.keys()
        for name in grads:
            if grads0[name] is None:
                assert grads[name] is None, name
            else:
                assert same_bytes(grads[name], grads0[name]), name


def run_both(old_text, cases):
    """Each case builds its model, then returns (params, loss); both sides
    build from scratch, so they start from equal parameters."""
    new = [loss_and_grads(*case()) for case in cases]
    old_text()
    old = [loss_and_grads(*case()) for case in cases]
    assert_same_runs(new, old)


def ref_counts(seqs, v, eos=False):
    """The oracle's table for vocabulary size `v`, with EOS events when `eos`."""
    return ref.context_counts(seqs, v, v + eos, v if eos else None)


def assert_same_counts(seqs, v, eos=False):
    got = context_counts(seqs, v, eos)
    want = ref_counts(seqs, v, eos)
    for a, b in zip(got, want):
        assert same_bytes(a, b)


class TestContextCountsOracle:
    def test_real_batches(self, real):
        exp, batches32, batches64 = real
        v = exp.vocab.size
        for batch in batches32:
            assert_same_counts(batch, v)
        for batch in batches64:
            assert_same_counts(batch, v, eos=True)
        assert_same_counts(exp.tgt_text.transcripts(), v, eos=True)

    @pytest.mark.parametrize(
        "seqs",
        [
            [],
            [[]],
            [[], []],
            [[0]],
            [[0, 0, 0], [], [0]],
            [[1, 0, 1, 1], [0], [], [1, 1]],
            [[], [1], []],
        ],
    )
    @pytest.mark.parametrize("v", [1, 2])
    @pytest.mark.parametrize("eos", [False, True])
    def test_edge_cases(self, seqs, v, eos):
        seqs = [[t % v for t in y] for y in seqs]
        assert_same_counts(seqs, v, eos)

    @pytest.mark.parametrize("v", [300, 1000])
    @pytest.mark.parametrize("eos", [False, True])
    def test_large_vocab(self, v, eos):
        rng = np.random.default_rng(v)
        seqs = [rng.integers(0, v, rng.integers(0, 12)).tolist() for _ in range(64)]
        assert_same_counts(seqs, v, eos)

    @pytest.mark.parametrize("seqs", [[[0, 4]], [[-1]], [[1], [2, 7, 9]], [[], [3, 4, 0]]])
    def test_bad_ids(self, seqs):
        with pytest.raises(VocabError) as got:
            context_counts(seqs, 4, eos=True)
        with pytest.raises(VocabError) as want:
            ref_counts(seqs, 4, eos=True)
        assert str(got.value) == str(want.value)


class TestOpsOracle:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("ctx", [np.array([[4, 0], [0, 3], [4, 0], [2, 2], [1, 4]]), np.array([3, 1])])
    def test_embed_affine(self, tied, ctx):
        def graph(op):
            rng = np.random.default_rng(3)
            params = ParameterSet()
            t0 = params.add("t0", rng.standard_normal((5, 3)), "ilm")
            t1 = t0 if tied else params.add("t1", rng.standard_normal((5, 3)), "ilm")
            W = params.add("W", rng.standard_normal((4, 6)), "ilm")
            b = params.add("b", rng.standard_normal(4), "ilm")
            g = rng.standard_normal((*ctx.shape[:-1], 4))
            return params, nm.total(nm.mul(op(t0, t1, W, b), g))

        def old(t0, t1, W, b):
            e = ref.concat(ref.gather_rows(t0, ctx[..., 0]), ref.gather_rows(t1, ctx[..., 1]))
            return nm.affine(e, W, b)

        def new(t0, t1, W, b):
            return nm.embed_affine(t0, t1, ctx, W, b)

        assert_same_runs([loss_and_grads(*graph(new))], [loss_and_grads(*graph(old))])

    @pytest.mark.parametrize("cols", [5, 4])
    @pytest.mark.parametrize("scale", [1.0, 1e-320])  # tiny weights: -0.0 products upstream of the scatter
    def test_log_softmax_nll(self, cols, scale):
        def graph(op):
            rng = np.random.default_rng(4)
            params = ParameterSet()
            x = params.add("x", 3 * rng.standard_normal((6, 5)), "ilm")
            w = rng.integers(0, 3, size=(6, cols)) * scale
            w[2] = 0.0
            return params, nm.mul(1e-10, op(nm.tanh(x), w))

        new = loss_and_grads(*graph(nm.log_softmax_nll))
        old = loss_and_grads(*graph(ref.log_softmax_nll))
        assert_same_runs([new], [old])

    def test_empty_weights(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        loss = nm.log_softmax_nll(x, np.zeros((2, 3)))
        loss.backward()
        old = ref.log_softmax_nll(Tensor(np.ones((2, 3))), np.zeros((2, 3)))
        assert same_bytes(loss.data, old.data) and same_bytes(x.grad, np.zeros((2, 3)))


class TestLossesOracle:
    def test_mhat_ilm_loss(self, real, old_text):
        exp, batches32, _ = real

        def case(batch):
            def build():
                m = build_mhat(CFG, exp.vocab)
                return m.params, ilm_loss(m, batch)

            return build

        run_both(old_text, [case(b) for b in batches32[:4]])

    def test_mhat_loss_alpha(self, real, old_text):
        # the label-decoder tables get a lattice and an internal-LM contribution
        exp, _, _ = real
        items = exp.src_train.paired()
        batches = [items[s : s + 32] for s in (0, 32)]
        batches = [[b[i] for i in canonical_order(b)] for b in batches]

        def case(batch):
            def build():
                m = build_mhat(CFG, exp.vocab)
                return m.params, mhat_loss(m, batch, 0.1)

            return build

        run_both(old_text, [case(b) for b in batches])

    def test_hat_internal_lm(self, real, old_text):
        exp, batches32, _ = real

        def case(batch):
            def build():
                m = build_hat(CFG, exp.vocab)
                return m.params, text_nll(m, batch_table(m, batch))

            return build

        run_both(old_text, [case(b) for b in batches32[:3]])

    def test_lm_loss(self, real, old_text):
        exp, _, batches64 = real

        def case(batch):
            def build():
                lm = ExternalLm(exp.vocab, embed_dim=CFG.label_dim, seed=3)
                return lm.params, lm_loss(lm, batch)

            return build

        run_both(old_text, [case(b) for b in batches64[:4]])

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_ilma_loss(self, real, old_text, rho):
        exp, batches32, _ = real

        def case(batch):
            def build():
                m = build_mhat(CFG, exp.vocab)
                teacher = ilm_snapshot(m)
                m.params["ilm_proj.bias"].data += np.linspace(-0.3, 0.3, exp.vocab.size)
                return m.params, ilma_loss(m, teacher, batch, rho)

            return build

        run_both(old_text, [case(b) for b in batches32[:3]])

    def test_empty_batches(self, real, old_text):
        exp, _, _ = real

        def lm_case(batch):
            def build():
                lm = ExternalLm(exp.vocab, embed_dim=8, seed=1)
                return lm.params, lm_loss(lm, batch)

            return build

        def mhat_case():
            m = build_mhat(CFG, exp.vocab)
            return m.params, ilma_loss(m, ilm_snapshot(m), [], 0.5)

        run_both(old_text, [lm_case([]), lm_case([[]]), lm_case([[], [], [3]]), mhat_case])

    def test_minus_inf_in_an_unused_column_stays_finite(self, real, old_text):
        exp, _, _ = real
        batch = [[0, 1, 2], [2, 2], [1]]  # token 5 is never a next event

        def case(rho):
            def build():
                m = build_mhat(CFG, exp.vocab)
                m.params["ilm_proj.bias"].data[5] = -np.inf
                return m.params, ilma_loss(m, ilm_snapshot(m), batch, rho)

            return build

        cases = [case(0.0), case(0.5)]
        for build in cases:
            params, loss = build()
            value, grads = loss_and_grads(params, loss)
            assert np.isfinite(value)
            assert all(np.isfinite(g).all() for g in grads.values() if g is not None)
        run_both(old_text, cases)

    def test_no_grad_perplexities(self, real, old_text):
        exp, batches32, batches64 = real
        text = batches64[0] + batches64[1]

        def values():
            mhat, hat = build_mhat(CFG, exp.vocab), build_hat(CFG, exp.vocab)
            lm = ExternalLm(exp.vocab, embed_dim=CFG.label_dim, seed=5)
            return [perplexity(mhat, text), perplexity(hat, text), lm_perplexity(lm, text), perplexity(lm, text)]

        new = values()
        old_text()
        assert [repr(v) for v in values()] == [repr(v) for v in new]


class TestTrainingOracle:
    def test_train_lm_epoch(self, real, old_text):
        exp, _, _ = real
        cfg = LmTrainConfig(epochs=1, embed_dim=CFG.label_dim)
        lm, ppl = train_lm(exp.tgt_text, cfg)
        old_text()
        lm0, ppl0 = train_lm(exp.tgt_text, cfg)
        assert repr(ppl) == repr(ppl0)
        assert lm.params.checksum() == lm0.params.checksum()

    def test_run_ilma(self, real, old_text):
        exp, _, _ = real
        text = exp.tgt_text.transcripts()

        def adapt():
            m = build_mhat(CFG, exp.vocab)
            m.trained_alpha = 0.1
            report = run_ilma(m, exp.tgt_text, IlmaConfig(steps=25), heldout_source=text[:100],
                              heldout_target=text[100:200])
            return m.params.checksum(), report.kv_lines(), [repr(x) for x in report.loss_curve]

        new = adapt()
        old_text()
        assert adapt() == new

    def test_mhat_train_asr(self, real, old_text):
        exp, _, _ = real
        items = exp.src_train.paired()[:160]
        cfg = TrainConfig(epochs=1, alpha=0.1)
        new = build_mhat(CFG, exp.vocab)
        curve = train_asr(new, items, cfg)
        old_text()
        old = build_mhat(CFG, exp.vocab)
        assert train_asr(old, items, cfg) == curve
        assert new.params.checksum() == old.params.checksum()


class TestPerCallTablesOracle:
    """Each table of one call's pass equals its batch's own table."""

    def assert_tables(self, seqs, batches, v, eos):
        tables = list(EventCodes(seqs, v, eos).tables(batches))
        assert len(tables) == len(batches)
        for batch, table in zip(batches, tables):
            assert isinstance(table, ContextTable)
            chosen = [seqs[i] for i in batch]
            for want in (context_counts(chosen, v, eos), ref_counts(chosen, v, eos)):
                for a, b in zip(table, want):
                    assert same_bytes(a, b)

    @pytest.mark.parametrize(
        "seqs",
        [[[0]], [[1], [0], [2], [1]], [[0, 1, 2], [], [2], [], [1, 1, 0, 2]], [[], []], [[2, 2, 2, 2, 2], [0, 1]]],
    )
    @pytest.mark.parametrize("eos", [False, True])
    def test_edge_cases(self, seqs, eos):
        rng = np.random.default_rng(len(seqs))
        n = len(seqs)
        batches = [np.zeros(0, dtype=np.int64), np.array([n - 1]), rng.integers(0, n, 7), np.arange(n),
                   rng.permutation(n), np.array([0, 0, 0])]
        self.assert_tables(seqs, batches, 3, eos)

    @pytest.mark.parametrize("eos", [False, True])
    def test_real_epoch(self, real, eos):
        exp, _, _ = real
        text = exp.tgt_text.transcripts()
        order = np.random.default_rng(1).permutation(len(text))
        self.assert_tables(text, [order[s : s + 64] for s in range(0, len(text), 64)], exp.vocab.size, eos)

    def test_no_batches(self):
        assert list(EventCodes([[0, 1]], 2, eos=True).tables([])) == []

    def test_bad_id_rejected_before_any_table(self):
        with pytest.raises(VocabError, match="token id 5 out of range"):
            EventCodes([[0, 1], [2, 5]], 4, eos=True)


def text_corpus(vocab, seqs):
    return Corpus("train", 0, vocab, tuple(Utterance(f"u{i}", None, tuple(y)) for i, y in enumerate(seqs)))


class TestTextLoopsOracle:
    """`train_lm` and `run_ilma` against their per-step loops."""

    def adapt_both(self, exp, corpus, cfg):
        text = exp.tgt_text.transcripts()
        out = []
        for adapt in (run_ilma, reference_text.run_ilma):
            m = build_mhat(CFG, exp.vocab)
            m.trained_alpha = 0.1
            report = adapt(m, corpus, cfg, heldout_source=text[:50], heldout_target=text[50:120])
            out.append((m.params.checksum(), report.kv_lines(), [repr(x) for x in report.loss_curve]))
        assert out[0] == out[1]
        return out[0]

    def train_both(self, corpus, cfg):
        (lm, ppl), (lm0, ppl0) = train_lm(corpus, cfg), reference_text.train_lm(corpus, cfg)
        assert repr(ppl) == repr(ppl0)
        assert lm.params.checksum() == lm0.params.checksum()

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_run_ilma_rho(self, real, rho):
        exp, _, _ = real
        _, _, curve = self.adapt_both(exp, exp.tgt_text, IlmaConfig(rho=rho, steps=12))
        assert len(curve) == 12

    def test_run_ilma_zero_steps(self, real):
        exp, _, _ = real
        assert self.adapt_both(exp, exp.tgt_text, IlmaConfig(steps=0))[2] == []

    def test_run_ilma_batch_larger_than_corpus(self, real):
        exp, _, _ = real
        self.adapt_both(exp, exp.tgt_text.transcripts()[:20], IlmaConfig(steps=5, batch_size=32))

    def test_run_ilma_length_one_sentences(self, real):
        exp, _, _ = real
        rng = np.random.default_rng(2)
        seqs = [[int(t)] for t in rng.integers(0, exp.vocab.size, 60)] + [[]]
        self.adapt_both(exp, seqs, IlmaConfig(steps=8, batch_size=16))

    @pytest.mark.parametrize("epochs, batch_size", [(2, 64), (0, 64), (1, 5000)])
    def test_train_lm(self, real, epochs, batch_size):
        # 300 sentences: batches of 64 leave a short last one of 44
        exp, _, _ = real
        corpus = Corpus("train", 0, exp.vocab, exp.tgt_text.items[:300])
        self.train_both(corpus, LmTrainConfig(epochs=epochs, batch_size=batch_size, embed_dim=CFG.label_dim))

    def test_train_lm_length_one_sentences(self, real):
        exp, _, _ = real
        rng = np.random.default_rng(3)
        seqs = [[int(t)] for t in rng.integers(0, exp.vocab.size, 50)] + [[]]
        self.train_both(text_corpus(exp.vocab, seqs), LmTrainConfig(epochs=2, batch_size=16, embed_dim=8))
