import math
import re

import numpy as np
import pytest

from conftest import small_hat, small_mhat
from mhat import numerics as nm
from mhat.model import (
    ConfigError,
    EncoderConfig,
    MhatModel,
    VocabError,
    Vocabulary,
    bigram_contexts,
    context_codes,
    context_counts,
    context_of,
    context_pairs,
    label_posterior,
    lattice_cells,
    next_context_codes,
)


def zero_all(model, names):
    for n in names:
        model.params[n].data[...] = 0.0


class TestVocabulary:
    def test_sos_is_reserved_extra_index(self):
        v = Vocabulary.default(5)
        assert v.size == 5 and v.sos_id == 5
        assert v.names == ("w0", "w1", "w2", "w3", "w4")

    @pytest.mark.parametrize("names, what", [((), "no tokens"), (("a", "a", "b"), "duplicate"), (("a", ""), "empty"),
                                             (("a b", "c"), "whitespace"), (("a\tb",), "whitespace")])
    def test_bad_inventory_rejected(self, names, what):
        with pytest.raises(VocabError, match=what):
            Vocabulary(names)

    def test_name_that_utf8_cannot_encode_rejected(self):
        # a lone surrogate used to build, and the file writers then failed part-way
        with pytest.raises(VocabError, match=re.escape(repr("\udce9")) + ".*UTF-8"):
            Vocabulary(("b", "\udce9"))

    def test_id_roundtrip_and_errors(self):
        v = Vocabulary.default(3)
        assert v.id_of("w1") == 1
        with pytest.raises(VocabError):
            v.id_of("nope")
        with pytest.raises(VocabError):
            v.check_ids([3])


class TestContexts:
    def test_sos_padding(self):
        ctx = bigram_contexts([7, 2, 4], sos_id=9)
        np.testing.assert_array_equal(
            ctx, [[9, 9], [9, 7], [7, 2], [2, 4]]
        )

    def test_first_step_all_sos(self):
        assert context_of([], 9) == (9, 9)
        assert context_of([3], 9) == (9, 3)

    @pytest.mark.parametrize("sos", [1, 4, 9])
    def test_context_codes_name_the_context_of_every_prefix(self, rng, sos):
        seqs = [[int(i) for i in rng.integers(0, sos, size=rng.integers(0, 8))] for _ in range(40)]
        seqs = [[], [0], *seqs, [sos - 1], [], [0, 0], []]  # empty sentences and ones of length 1 at both ends
        lengths = np.array([len(y) for y in seqs])
        toks = np.array([k for y in seqs for k in y], dtype=np.int64)
        codes = context_codes(lengths, toks, sos)
        assert codes.shape == toks.shape and codes.min(initial=0) >= 0 and codes.max() < (sos + 1) ** 2
        got = [tuple(p) for p in context_pairs(codes, sos).tolist()]
        assert got == [context_of(y[:i], sos) for y in seqs for i in range(len(y))]

    @pytest.mark.parametrize("sos", [1, 4, 9])
    def test_next_context_codes_extend_every_context_by_every_label(self, sos):
        def code_after(prefix):  # the code of the context after `prefix`: that of a stand-in label ending it
            return int(context_codes(np.array([len(prefix) + 1]), np.array([*prefix, 0]), sos)[-1])

        table = next_context_codes(sos)
        assert table.shape == ((sos + 1) ** 2, sos)
        for code, (p2, p1) in enumerate(context_pairs(np.arange((sos + 1) ** 2), sos).tolist()):
            assert code_after([p2, p1]) == code
            for k in range(sos):
                assert context_of([p2, p1, k], sos) == (p1, k)
                assert table[code, k] == code_after([p2, p1, k])

    def test_context_counts_hand_case(self):
        # events: (s,s)->0, (s,0)->1, (0,1)->eos and (s,s)->1, (s,1)->eos
        ctx, counts = context_counts([[0, 1], [1]], 2, eos=True)
        np.testing.assert_array_equal(ctx, [[0, 1], [2, 0], [2, 1], [2, 2]])
        np.testing.assert_array_equal(counts, [[0, 0, 1], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
        ctx, counts = context_counts([[0, 1], [1]], 2)
        np.testing.assert_array_equal(ctx, [[2, 0], [2, 2]])
        np.testing.assert_array_equal(counts, [[0, 1], [1, 1]])

    def test_context_counts_match_bigram_contexts(self, rng):
        seqs = [[int(i) for i in rng.integers(0, 5, size=rng.integers(0, 9))] for _ in range(30)]
        ctx, counts = context_counts(seqs, 5, eos=True)
        dense = np.zeros((36, 6), dtype=np.int64)
        for y in seqs:
            for (p2, p1), nxt in zip(bigram_contexts(y, 5), [*y, 5]):
                dense[6 * p2 + p1, nxt] += 1
        seen = np.flatnonzero(dense.sum(axis=1))
        np.testing.assert_array_equal(ctx, np.stack([seen // 6, seen % 6], axis=1))
        np.testing.assert_array_equal(counts, dense[seen])

    def test_context_counts_empty_batch_and_range(self):
        ctx, counts = context_counts([], 4)
        assert ctx.shape == (0, 2) and counts.shape == (0, 4)
        with pytest.raises(VocabError):
            context_counts([[0, 4]], 4)
        with pytest.raises(VocabError):
            context_counts([[-1]], 4)

    def test_lattice_cells_cover_every_node_once(self):
        t_lens, seqs = [3, 1, 2], [[2, 0], [], [1, 1, 3]]
        cells = lattice_cells(t_lens, seqs, sos_id=4)
        got = sorted(zip(cells.b.tolist(), cells.t.tolist(), cells.u.tolist()))
        want = [(b, t, u) for b, (tl, y) in enumerate(zip(t_lens, seqs)) for t in range(tl) for u in range(len(y) + 1)]
        assert got == want
        n = cells.n_label
        assert n == 3 * 2 + 0 + 2 * 3
        assert np.all(cells.u[:n] < cells.u_lens[cells.b[:n]])
        assert np.all(cells.u[n:] == cells.u_lens[cells.b[n:]])
        np.testing.assert_array_equal(cells.frame, np.array([0, 3, 4])[cells.b] + cells.t)
        for c in range(cells.b.size):
            y = seqs[cells.b[c]]
            assert tuple(cells.contexts[cells.ctx[c]]) == context_of(y[: cells.u[c]], 4)
            if c < n:
                assert cells.labels[c] == y[cells.u[c]]
        with pytest.raises(VocabError):
            lattice_cells([2], [[4]], sos_id=4)


class TestModelSizes:
    """A zero width used to build and then fail in the first backward pass,
    with numpy's "cannot reshape array of size 0"."""

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["label_dim", "blank_dim", "joint_dim"])
    def test_mhat_bad_width_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be >= 1, got {value}$"):
            small_mhat(**{name: value})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["decoder_dim", "joint_dim"])
    def test_hat_bad_width_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be >= 1, got {value}$"):
            small_hat(**{name: value})

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("build", [small_mhat, small_hat])
    def test_bad_feature_width_rejected(self, build, value):
        with pytest.raises(ConfigError, match=f"^bad encoder config: EncoderConfig\\(d_x={value},"):
            build(d_x=value)

    def test_smallest_widths_train(self):
        for model in (small_mhat(label_dim=1, blank_dim=1, joint_dim=1), small_hat(decoder_dim=1, joint_dim=1)):
            loss = nm.total(model.arc_log_scores([(np.zeros((3, 3)), [1, 2])])[0])
            model.params.zero_grads()
            loss.backward()


class TestEncoder:
    def test_zero_weights_give_bias_stack(self):
        m = small_mhat()
        for i in range(m.enc_cfg.layers):
            m.params[f"encoder.layer{i}.weight"].data[...] = 0.0
        m.params["encoder.layer0.bias"].data[...] = 0.3
        m.params["encoder.layer1.bias"].data[...] = -0.7
        F = m.encode(np.random.default_rng(0).standard_normal((4, 3))).data
        expected = np.tanh(-0.7 * np.ones(m.enc_cfg.d_f))
        for row in F:
            np.testing.assert_allclose(row, expected)

    def test_single_layer_formula(self):
        vocab = Vocabulary.default(4)
        m = MhatModel(vocab, EncoderConfig(d_x=3, context=0, layers=1, d_f=3), seed=0)
        X = np.array([[0.2, -0.4, 1.0]])
        W = m.params["encoder.layer0.weight"].data
        b = m.params["encoder.layer0.bias"].data
        np.testing.assert_allclose(m.encode(X).data[0], np.tanh(W @ X[0] + b), atol=1e-15)

    def test_receptive_field(self):
        m = small_mhat()
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        F = m.encode(X).data
        X2 = X.copy()
        X2[4] += 1.0  # frame t+c+1 for t=2, c=1
        F2 = m.encode(X2).data
        np.testing.assert_array_equal(F[2], F2[2])
        assert not np.array_equal(F[3], F2[3])

    def test_dx_mismatch(self):
        m = small_mhat()
        with pytest.raises(ConfigError, match="feature dim"):
            m.encode(np.zeros((3, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.zeros((4, 3))
        X[2, 1] = bad
        with pytest.raises(ConfigError, match="non-finite feature .* at frame 2"):
            small_mhat().encode(X)


class TestDecoders:
    def test_blank_first_step_uses_sos_context(self, mhat_small):
        sos = mhat_small.vocab.sos_id
        direct = mhat_small.blank_decoder.outputs(np.array([sos, sos])).data
        np.testing.assert_array_equal(mhat_small.decode_blank([]).data, direct)

    def test_zeroed_tables_give_projection_bias(self, mhat_small):
        zero_all(mhat_small, ["blank_decoder.table"])
        mhat_small.params["blank_decoder.proj.bias"].data[...] = 0.25
        out = mhat_small.decode_blank([1, 2]).data
        np.testing.assert_allclose(out, 0.25 * np.ones(out.shape))

    def test_tied_tables_order_sensitivity(self, mhat_small):
        # (a, b) vs (b, a): tables shared but projection halves differ
        a = mhat_small.decode_blank([0, 1]).data
        b = mhat_small.decode_blank([1, 0]).data
        assert not np.allclose(a, b)

    def test_label_swap_changes_output(self, mhat_small):
        a = mhat_small.decode_label([0, 1]).data
        b = mhat_small.decode_label([1, 0]).data
        assert not np.allclose(a, b)

    def test_bigram_invariance_to_older_history(self, mhat_small):
        for fn in (mhat_small.decode_label, mhat_small.decode_blank):
            a = fn([0, 3, 1, 2]).data
            b = fn([2, 0, 1, 2]).data
            np.testing.assert_array_equal(a, b)

    def test_out_of_range_token(self, mhat_small):
        with pytest.raises(VocabError):
            mhat_small.decode_label([0, 9])


class TestHeads:
    def test_blank_posterior_half_when_v_zero(self, mhat_small, rng):
        zero_all(mhat_small, ["joint.v"])
        f = rng.standard_normal(8)
        g = mhat_small.decode_blank([1])
        assert mhat_small.blank_posterior(f, g) == 0.5

    def test_blank_posterior_saturates(self, mhat_small, rng):
        mhat_small.params["joint.v_bias"].data = np.asarray(50.0)
        b = mhat_small.blank_posterior(rng.standard_normal(8), mhat_small.decode_blank([]))
        assert b > 1 - 1e-9

    def test_blank_posterior_hand_case(self):
        vocab = Vocabulary.default(2)
        m = MhatModel(vocab, EncoderConfig(d_x=1, d_f=1, layers=1), label_dim=1, blank_dim=1, joint_dim=1)
        m.params["joint.w1"].data = np.array([[1.0]])
        m.params["joint.w2"].data = np.array([[1.0]])
        m.params["joint.v"].data = np.array([1.0])
        m.params["joint.hidden_bias"].data[...] = 0.0
        m.params["joint.v_bias"].data = np.asarray(0.0)
        assert m.blank_posterior(np.array([0.3]), np.array([-0.3])) == 0.5

    def test_am_uniform_when_zeroed(self, mhat_small):
        zero_all(mhat_small, ["am_proj.weight", "am_proj.bias"])
        out = mhat_small.am_log_probs(np.ones(8)).data
        np.testing.assert_allclose(out, -math.log(4) * np.ones(4), atol=1e-15)

    def test_am_closed_form(self):
        vocab = Vocabulary.default(2)
        m = MhatModel(vocab, EncoderConfig(d_x=1, d_f=1, layers=1), joint_dim=2)
        m.params["am_proj.weight"].data = np.array([[math.log(4)], [0.0]])
        m.params["am_proj.bias"].data[...] = 0.0
        out = m.am_log_probs(np.array([1.0])).data
        np.testing.assert_allclose(out, [math.log(0.8), math.log(0.2)], atol=1e-12)

    def test_am_normalized(self, mhat_small, rng):
        out = mhat_small.am_log_probs(rng.standard_normal(8)).data
        assert abs(np.exp(out).sum() - 1.0) <= 1e-12

    def test_ilm_uniform_when_zeroed(self, mhat_small):
        zero_all(mhat_small, ["ilm_proj.weight", "ilm_proj.bias"])
        out = mhat_small.ilm_log_probs(mhat_small.decode_label([2])).data
        np.testing.assert_allclose(out, -math.log(4) * np.ones(4), atol=1e-15)

    def test_label_posterior_shift_cases(self, rng):
        a = nm.log_softmax(rng.standard_normal(4)).data
        uniform = -math.log(4) * np.ones(4)
        np.testing.assert_allclose(label_posterior(a, uniform).data, a, atol=1e-12)
        np.testing.assert_allclose(label_posterior(uniform, a).data, a, atol=1e-12)

    def test_label_posterior_two_token_case(self):
        a = np.log([0.8, 0.2])
        l = np.log([0.5, 0.5])
        np.testing.assert_allclose(label_posterior(a, l).data, np.log([0.8, 0.2]), atol=1e-12)


class TestHatHeads:
    def test_zeroed_heads(self, hat_small, rng):
        zero_all(hat_small, ["joint.v", "joint.v_bias", "label_head.weight", "label_head.bias"])
        b, labels = hat_small.hat_joint(rng.standard_normal(8), hat_small.decode_state([1]))
        assert b == 0.5
        np.testing.assert_allclose(labels.data, -math.log(4) * np.ones(4), atol=1e-15)

    def test_label_head_normalized_independent_of_blank(self, hat_small, rng):
        hat_small.params["joint.v_bias"].data = np.asarray(30.0)
        b, labels = hat_small.hat_joint(rng.standard_normal(8), hat_small.decode_state([0, 1]))
        assert b > 0.999
        assert abs(np.exp(labels.data).sum() - 1.0) <= 1e-12

    def test_ilm_equals_joint_at_zero_acoustics(self, hat_small, rng):
        g = hat_small.decode_state([2, 1])
        _, labels = hat_small.hat_joint(np.zeros(8), g)
        ilm = hat_small.hat_ilm_log_probs(g)
        np.testing.assert_array_equal(labels.data, ilm.data)

    def test_ilm_independent_of_acoustics(self, hat_small, rng):
        g = hat_small.decode_state([2])
        before = hat_small.hat_ilm_log_probs(g).data.copy()
        hat_small.params["joint.w1"].data[...] = rng.standard_normal((6, 8))
        np.testing.assert_array_equal(hat_small.hat_ilm_log_probs(g).data, before)

    def test_context_rows_match_prefix_by_prefix(self, hat_small, rng):
        tokens = [int(i) for i in rng.integers(0, 4, size=7)]
        rows = hat_small.context_log_prob_rows(bigram_contexts(tokens, hat_small.vocab.sos_id)).data
        assert rows.shape == (8, 4)
        for u in range(len(tokens) + 1):
            ref = hat_small.hat_ilm_log_probs(hat_small.decode_state(tokens[:u])).data
            np.testing.assert_allclose(rows[u], ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.exp(rows).sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestStructuralInvariances:
    def test_heads_normalized_many_draws(self):
        for seed in range(1000):
            m = small_mhat(vocab_size=3, d_x=2, d_f=3, label_dim=3, blank_dim=2, joint_dim=2, seed=seed)
            rng = np.random.default_rng(seed)
            f = rng.standard_normal(3)
            am = np.exp(m.am_log_probs(f).data).sum()
            ilm = np.exp(m.ilm_log_probs(m.decode_label([0]).data).data).sum()
            assert abs(am - 1.0) <= 1e-10 and abs(ilm - 1.0) <= 1e-10

    def test_blank_and_am_ignore_ilm_group(self, mhat_small, rng):
        f = rng.standard_normal(8)
        g = mhat_small.decode_blank([1, 2])
        b0 = mhat_small.blank_posterior(f, g)
        a0 = mhat_small.am_log_probs(f).data.copy()
        for name in mhat_small.params.group_names("ilm"):
            mhat_small.params[name].data[...] = rng.standard_normal(
                mhat_small.params[name].data.shape
            )
        assert mhat_small.blank_posterior(f, mhat_small.decode_blank([1, 2])) == b0
        np.testing.assert_array_equal(mhat_small.am_log_probs(f).data, a0)

    def test_ilm_ignores_encoder_and_blank_groups(self, mhat_small, rng):
        rows0 = mhat_small.ilm_log_prob_rows([1, 2, 0]).data.copy()
        for name in mhat_small.params.group_names("encoder") + mhat_small.params.group_names(
            "blank_branch"
        ):
            mhat_small.params[name].data[...] = rng.standard_normal(
                mhat_small.params[name].data.shape
            )
        np.testing.assert_array_equal(mhat_small.ilm_log_prob_rows([1, 2, 0]).data, rows0)

    def test_zero_bias_golden_formulas(self, rng):
        m = small_mhat(seed=7)
        for name in m.params.entries:
            if name.endswith("bias"):
                m.params[name].data[...] = 0.0
        f = rng.standard_normal(8)
        prefix = [2, 1]
        gb = m.decode_blank(prefix).data
        gl = m.decode_label(prefix).data
        w1 = m.params["joint.w1"].data
        w2 = m.params["joint.w2"].data
        v = m.params["joint.v"].data
        w3 = m.params["am_proj.weight"].data
        w4 = m.params["ilm_proj.weight"].data

        def lsm(z):
            return z - (np.max(z) + np.log(np.exp(z - np.max(z)).sum()))

        b_ref = 1.0 / (1.0 + np.exp(-(v @ np.tanh(w1 @ f + w2 @ gb))))
        assert m.blank_posterior(f, gb) == pytest.approx(b_ref, abs=1e-15)
        np.testing.assert_allclose(m.am_log_probs(f).data, lsm(w3 @ f), atol=1e-13)
        np.testing.assert_allclose(m.ilm_log_probs(gl).data, lsm(w4 @ gl), atol=1e-13)
        np.testing.assert_allclose(
            label_posterior(m.am_log_probs(f), m.ilm_log_probs(gl)).data,
            lsm(lsm(w3 @ f) + lsm(w4 @ gl)),
            atol=1e-13,
        )

        h = small_hat(seed=7)
        for name in h.params.entries:
            if name.endswith("bias"):
                h.params[name].data[...] = 0.0
        g = h.decode_state(prefix).data
        hw1 = h.params["joint.w1"].data
        hw2 = h.params["joint.w2"].data
        hv = h.params["joint.v"].data
        hw = h.params["label_head.weight"].data
        hidden = np.tanh(hw1 @ f + hw2 @ g)
        b, labels = h.hat_joint(f, g)
        assert b == pytest.approx(1.0 / (1.0 + np.exp(-hv @ hidden)), abs=1e-15)
        np.testing.assert_allclose(labels.data, lsm(hw @ hidden), atol=1e-13)
        np.testing.assert_allclose(
            h.hat_ilm_log_probs(g).data, lsm(hw @ np.tanh(hw2 @ g)), atol=1e-13
        )

    def test_param_report_blank_decoder_small(self):
        m = small_mhat(vocab_size=16, d_x=8, d_f=64, label_dim=64, blank_dim=16, joint_dim=32)
        counts = m.param_counts()
        assert counts["total"] == sum(counts[g] for g in ("encoder", "blank_branch", "ilm"))
        blank_dec = sum(
            m.params[n].size for n in m.params.entries if n.startswith("blank_decoder")
        )
        label_dec = sum(
            m.params[n].size
            for n in m.params.entries
            if n.startswith(("label_decoder", "ilm_proj"))
        )
        assert blank_dec < 0.15 * label_dec

    def test_ilm_group_contents(self, mhat_small):
        ilm = set(mhat_small.params.group_names("ilm"))
        assert ilm == {
            "label_decoder.table0",
            "label_decoder.table1",
            "label_decoder.proj.weight",
            "label_decoder.proj.bias",
            "ilm_proj.weight",
            "ilm_proj.bias",
        }


class TestScorerAgreesWithHeads:
    # the search reads the tables: frame_rows columns 0 and 1 (one row per frame), label_rows,
    # ilm_rows (one row per context id)
    def test_mhat_scorer_matches_graph_path(self, mhat_small, rng):
        X = rng.standard_normal((4, 3))
        sc = mhat_small.scorer(X)
        F = mhat_small.encode(X).data
        prefix = [1, 3]
        row, c = sc.context(prefix), 1 * sc.width + 3  # first frame row; context id
        ilm = mhat_small.ilm_log_probs(mhat_small.decode_label(prefix))
        for t in range(4):
            g = mhat_small.decode_blank(prefix)
            b = mhat_small.blank_posterior(F[t], g)
            assert sc.frame_rows[row + t, 0] == pytest.approx(math.log(b), abs=1e-12)
            assert sc.frame_rows[row + t, 1] == pytest.approx(math.log1p(-b), abs=1e-12)
            lab = label_posterior(mhat_small.am_log_probs(F[t]), ilm).data
            np.testing.assert_allclose(sc.label_rows(t, sc.frame_rows[[row + t]], sc.ilm_rows[[c]])[0], lab, atol=1e-12)
        np.testing.assert_allclose(sc.ilm_rows[c], ilm.data, atol=1e-12)

    def test_hat_scorer_matches_graph_path(self, hat_small, rng):
        X = rng.standard_normal((3, 3))
        sc = hat_small.scorer(X)
        F = hat_small.encode(X).data
        prefix = [0]
        row, c = sc.context(prefix), hat_small.vocab.sos_id * sc.width + 0  # first frame row; context id
        for t in range(3):
            b, labels = hat_small.hat_joint(F[t], hat_small.decode_state(prefix))
            assert sc.frame_rows[row + t, 0] == pytest.approx(math.log(b), abs=1e-12)
            np.testing.assert_allclose(sc.label_rows(t, sc.frame_rows[[row + t]], sc.ilm_rows[[c]])[0], labels.data, atol=1e-12)
        np.testing.assert_allclose(
            sc.ilm_rows[c],
            hat_small.hat_ilm_log_probs(hat_small.decode_state(prefix)).data,
            atol=1e-12,
        )
