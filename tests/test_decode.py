import copy
import itertools
import math

import numpy as np
import pytest

import reference_beam
import reference_tables
from conftest import small_hat, small_mhat
from mhat.decode import (
    DecodeResult,
    FusionConfig,
    NO_FUSION,
    beam_search,
    format_record,
    greedy_decode,
    parse_record,
    score_sequence,
)
from mhat.evalcli import ExperimentConfig, build_hat, build_mhat, make_experiment_data
from mhat.extlm import ExternalLm
from mhat.lattice import forward_log_prob
from mhat.model import ConfigError, StructureError, Vocabulary
from mhat.numerics import EvaluationError


def exhaustive_best(model, X, fusion, max_u=4):
    """Argmax over all label sequences up to max_u, same tie-break as the beam."""
    v = model.vocab.size
    best = None
    for u in range(max_u + 1):
        for y in itertools.product(range(v), repeat=u):
            res = score_sequence(model, X, y, fusion)
            key = (-res.combined, len(y), y)
            if best is None or key < best[0]:
                best = (key, res)
    return best[1]


def fusion_cases(lm):
    return [
        NO_FUSION,
        FusionConfig(mode="shallow", lam_ext=0.3, lm=lm),
        FusionConfig(mode="ilme_subtract", lam_ext=0.3, lam_ilm=0.2, lm=lm),
    ]


class TestFusionConfig:
    def test_mode_none_rejects_weights_and_lm(self):
        with pytest.raises(ConfigError):
            FusionConfig(mode="none", lam_ext=0.1)
        with pytest.raises(ConfigError):
            FusionConfig(mode="none", lm=ExternalLm(Vocabulary.default(4)))

    def test_fusion_requires_lm(self):
        with pytest.raises(ConfigError):
            FusionConfig(mode="shallow", lam_ext=0.3)

    def test_negative_weights_rejected(self):
        lm = ExternalLm(Vocabulary.default(4))
        with pytest.raises(ConfigError):
            FusionConfig(mode="shallow", lam_ext=-0.1, lm=lm)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            FusionConfig(mode="deep")

    def test_vocab_mismatch_rejected(self, mhat_small, rng):
        lm = ExternalLm(Vocabulary.default(6), embed_dim=8)
        fusion = FusionConfig(mode="shallow", lam_ext=0.3, lm=lm)
        with pytest.raises(ConfigError, match="vocabulary"):
            beam_search(mhat_small, rng.standard_normal((2, 3)), fusion=fusion)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        lm = ExternalLm(Vocabulary.default(4))
        for mode in ("shallow", "ilme_subtract"):
            with pytest.raises(ConfigError, match="finite"):
                FusionConfig(mode=mode, lam_ext=bad, lm=lm)
            with pytest.raises(ConfigError, match="finite"):
                FusionConfig(mode=mode, lam_ext=0.3, lam_ilm=bad, lm=lm)

    def test_shallow_ignores_lam_ilm(self):
        lm = ExternalLm(Vocabulary.default(4))
        f = FusionConfig(mode="shallow", lam_ext=0.3, lam_ilm=0.7, lm=lm)
        assert f.effective_lam_ilm == 0.0


class TestDegenerateFusion:
    def test_zero_weight_shallow_equals_none(self, mhat_small, rng):
        lm = ExternalLm(mhat_small.vocab, embed_dim=8, seed=2)
        X = rng.standard_normal((3, 3))
        base = beam_search(mhat_small, X, beam_width=8)
        fused = beam_search(
            mhat_small, X, beam_width=8, fusion=FusionConfig(mode="shallow", lam_ext=0.0, lm=lm)
        )
        assert [r.tokens for r in base] == [r.tokens for r in fused]
        for a, b in zip(base, fused):
            assert a.model_lp == pytest.approx(b.model_lp, abs=1e-12)
            assert a.combined == pytest.approx(b.combined, abs=1e-12)

    def test_zero_weight_ilme_equals_none(self, mhat_small, rng):
        lm = ExternalLm(mhat_small.vocab, embed_dim=8, seed=2)
        X = rng.standard_normal((3, 3))
        base = beam_search(mhat_small, X, beam_width=8)
        fused = beam_search(
            mhat_small,
            X,
            beam_width=8,
            fusion=FusionConfig(mode="ilme_subtract", lam_ext=0.0, lam_ilm=0.0, lm=lm),
        )
        assert [r.tokens for r in base] == [r.tokens for r in fused]
        assert base[0].combined == pytest.approx(fused[0].combined, abs=1e-12)


class TestExhaustiveOracle:
    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_saturating_beam_finds_argmax(self, kind):
        rng = np.random.default_rng(11)
        make = small_mhat if kind == "mhat" else small_hat
        for trial in range(20):
            model = make(vocab_size=3, seed=int(rng.integers(10000)))
            lm = ExternalLm(model.vocab, embed_dim=6, seed=int(rng.integers(10000)))
            t_len = int(rng.integers(1, 4))
            X = rng.standard_normal((t_len, 3))
            fusion = fusion_cases(lm)[trial % 3]
            best = exhaustive_best(model, X, fusion)
            top = beam_search(model, X, beam_width=96, fusion=fusion)[0]
            assert top.tokens == best.tokens

    def test_winner_breakdown_matches_score_sequence(self, mhat_small, rng):
        lm = ExternalLm(mhat_small.vocab, embed_dim=8, seed=4)
        fusion = FusionConfig(mode="ilme_subtract", lam_ext=0.4, lam_ilm=0.2, lm=lm)
        X = rng.standard_normal((3, 3))
        top = beam_search(mhat_small, X, beam_width=128, fusion=fusion)[0]
        ref = score_sequence(mhat_small, X, top.tokens, fusion)
        assert top.model_lp == pytest.approx(ref.model_lp, abs=1e-6)
        assert top.ext_lp == pytest.approx(ref.ext_lp, abs=1e-6)
        assert top.ilm_lp == pytest.approx(ref.ilm_lp, abs=1e-6)
        assert top.combined == pytest.approx(ref.combined, abs=1e-6)


class TestGreedy:
    def test_equals_beam_width_one(self, mhat_small, rng):
        X = rng.standard_normal((4, 3))
        assert greedy_decode(mhat_small, X) == beam_search(mhat_small, X, beam_width=1)[0].tokens

    def test_saturated_blank_gives_empty(self, mhat_small, rng):
        mhat_small.params["joint.v_bias"].data = np.asarray(50.0)
        assert greedy_decode(mhat_small, rng.standard_normal((5, 3))) == ()

    def test_deterministic(self, mhat_small, rng):
        X = rng.standard_normal((4, 3))
        assert greedy_decode(mhat_small, X) == greedy_decode(mhat_small, X)


class TestBeamProperties:
    def test_monotone_in_beam_width(self, rng):
        for trial in range(10):
            model = small_mhat(vocab_size=3, seed=trial)
            X = np.random.default_rng(trial).standard_normal((4, 3))
            scores = [
                beam_search(model, X, beam_width=b)[0].combined for b in (1, 2, 4, 8, 16)
            ]
            for a, b in zip(scores, scores[1:]):
                assert b >= a - 1e-12

    def test_identical_runs_identical_results(self, hat_small, rng):
        X = rng.standard_normal((4, 3))
        lm = ExternalLm(hat_small.vocab, embed_dim=8, seed=0)
        fusion = FusionConfig(mode="shallow", lam_ext=0.3, lm=lm)
        a = beam_search(hat_small, X, beam_width=4, fusion=fusion)
        b = beam_search(hat_small, X, beam_width=4, fusion=fusion)
        assert a == b

    def test_beam_width_validation(self, mhat_small, rng):
        with pytest.raises(ConfigError):
            beam_search(mhat_small, rng.standard_normal((2, 3)), beam_width=0)

    def test_negative_label_cap_rejected(self, mhat_small, rng):
        # no round would run, leaving no hypothesis to return
        with pytest.raises(ConfigError, match="max_labels_per_frame"):
            beam_search(mhat_small, rng.standard_normal((2, 3)), max_labels_per_frame=-1)

    def test_no_frames_is_a_structure_error(self, mhat_small, hat_small):
        # the lattice has no alignment for T=0, so neither has the beam
        for model in (mhat_small, hat_small):
            with pytest.raises(StructureError):
                beam_search(model, np.zeros((0, 3)))
            with pytest.raises(StructureError):
                forward_log_prob(model, np.zeros((0, 3)), [])

    def test_non_finite_features_rejected(self, mhat_small, rng):
        X = rng.standard_normal((3, 3))
        X[1, 0] = np.nan
        with pytest.raises(ConfigError, match="non-finite feature"):
            beam_search(mhat_small, X)

    def test_label_cap_bounds_output_length(self, mhat_small, rng):
        # force label-greedy behavior: blank never attractive
        mhat_small.params["joint.v_bias"].data = np.asarray(-50.0)
        X = rng.standard_normal((2, 3))
        top = beam_search(mhat_small, X, beam_width=2, max_labels_per_frame=3)[0]
        assert len(top.tokens) <= 2 * 3


class TestScoreSequence:
    def test_no_fusion_total_is_lattice_marginal(self, mhat_small, rng):
        from mhat.lattice import forward_log_prob

        X = rng.standard_normal((3, 3))
        y = [1, 0]
        res = score_sequence(mhat_small, X, y)
        assert res.combined == res.model_lp
        assert res.model_lp == pytest.approx(float(forward_log_prob(mhat_small, X, y).data), abs=1e-12)

    def test_affine_in_weights(self, mhat_small, rng):
        lm = ExternalLm(mhat_small.vocab, embed_dim=8, seed=1)
        X = rng.standard_normal((3, 3))
        y = [2, 1]
        base = score_sequence(mhat_small, X, y, FusionConfig(mode="ilme_subtract", lam_ext=0.0, lam_ilm=0.0, lm=lm))
        for le, li in ((0.2, 0.0), (0.5, 0.3), (1.0, 1.0)):
            res = score_sequence(mhat_small, X, y, FusionConfig(mode="ilme_subtract", lam_ext=le, lam_ilm=li, lm=lm))
            assert res.combined == pytest.approx(
                base.model_lp + le * base.ext_lp - li * base.ilm_lp, abs=1e-12
            )

    def test_hat_ilm_component_uses_zero_acoustics_estimate(self, hat_small, rng):
        from mhat.decode import ilm_sequence_log_prob

        y = [1, 2]
        manual = 0.0
        for u in range(len(y)):
            row = hat_small.hat_ilm_log_probs(hat_small.decode_state(y[:u])).data
            manual += row[y[u]]
        assert ilm_sequence_log_prob(hat_small, y) == pytest.approx(manual, abs=1e-12)


class TestRecords:
    def test_roundtrip(self, mhat_small):
        res = DecodeResult(tokens=(1, 3), model_lp=-2.5, ext_lp=-1.25, ilm_lp=-0.5, combined=-2.5)
        line = format_record("dev-00001", res, mhat_small.vocab)
        cols = line.split("\t")
        assert len(cols) == 6
        assert cols[2] == "w1 w3"
        uid, ids = parse_record(line)
        assert uid == "dev-00001" and ids == (1, 3)

    def test_empty_hypothesis(self, mhat_small):
        res = DecodeResult(tokens=(), model_lp=-1.0, ext_lp=0.0, ilm_lp=0.0, combined=-1.0)
        uid, ids = parse_record(format_record("u", res, mhat_small.vocab))
        assert ids == ()


def ranked(results):
    return [(r.tokens, r.model_lp, r.ext_lp, r.ilm_lp, r.combined) for r in results]


@pytest.fixture(scope="module")
def real_setup():
    """Models at the real experiment dims, an LM and target-domain utterances."""
    cfg = ExperimentConfig(n_train=0, n_dev=0, n_test=6, n_adapt_text=0)
    exp = make_experiment_data(cfg)
    lm = ExternalLm(exp.vocab, embed_dim=cfg.label_dim, seed=7)
    models = {"mhat": build_mhat(cfg, exp.vocab), "hat": build_hat(cfg, exp.vocab)}
    return models, lm, [it.features for it in exp.tgt_test.items]


class TestDictOracle:
    """The array search against the dict-based search it replaced (tests/reference_beam.py)."""

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    @pytest.mark.parametrize("cap", [10, 1, 0])
    def test_bit_identical_ranked_results(self, real_setup, kind, cap):
        models, lm, utts = real_setup
        model = models[kind]
        for fusion in fusion_cases(lm):
            for beam in (1, 2, 4, 8):
                for X in utts:
                    want = reference_beam.beam_search(model, X, beam, fusion, max_labels_per_frame=cap)
                    got = beam_search(model, X, beam, fusion, max_labels_per_frame=cap)
                    assert ranked(got) == ranked(want)

    @pytest.mark.parametrize("search", [beam_search, reference_beam.beam_search], ids=["array", "oracle"])
    def test_width_below_one_rejected_alike(self, search, rng):
        with pytest.raises(ConfigError, match="^beam width must be >= 1$"):
            search(small_mhat(), rng.standard_normal((2, 3)), 0)

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_exact_ties_break_like_the_stable_sort(self, real_setup, kind):
        # zeroed label heads and a zeroed LM make every label extension of a
        # hypothesis score the same, so the ranking rests on the tie-breaks
        models, _, utts = real_setup
        model = copy.deepcopy(models[kind])
        heads = ("am_proj", "ilm_proj") if kind == "mhat" else ("label_head",)
        for name in heads:
            for part in ("weight", "bias"):
                model.params[f"{name}.{part}"].data[...] = 0.0
        lm = ExternalLm(model.vocab, embed_dim=8, seed=1)
        lm.params["out_proj.weight"].data[...] = 0.0
        for fusion in fusion_cases(lm):
            for beam in (1, 3, 8):
                for X in utts[:3]:
                    want = reference_beam.beam_search(model, X, beam, fusion)
                    got = beam_search(model, X, beam, fusion)
                    assert ranked(got) == ranked(want)
        configs = mixed_configs(lm)  # and each group of a lockstep search
        for beam in (1, 3, 8):
            for X in utts[:3]:
                got = beam_search(model, X, beam, configs)
                assert [ranked(g) for g in got] == [ranked(reference_beam.beam_search(model, X, beam, f)) for f in configs]
        sc = model.scorer(utts[0])
        assert len(set(sc.label_log_posteriors(0, sc.context([])).tolist())) == 1


class TestScorerReuse:
    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_tables_grow_one_slot_per_context(self, kind, rng):
        # every context filled, in reverse id order, through several doublings
        model = small_mhat(vocab_size=5) if kind == "mhat" else small_hat(vocab_size=5)
        X = rng.standard_normal((4, 3))
        sc = model.scorer(X)
        old = getattr(reference_beam, type(sc).__name__)(model, X)
        width = model.vocab.size + 1
        ids = np.arange(width * width)[::-1]
        rows = sc.rows(ids)  # one block of T frame rows per context
        assert sc.size == ids.size * len(X) and sorted(rows.tolist()) == list(range(0, sc.size, len(X)))
        for prefix in ([], [2], [1, 3], [0, 4, 3], [4, 4]):
            row, ctx = sc.context(prefix), old.context(prefix)
            assert row == rows[ids.tolist().index(ctx[0] * width + ctx[1])]
            for t in range(len(X)):
                assert sc.log_blank(t, row) == old.log_blank(t, ctx)
                assert sc.log_keep(t, row) == old.log_keep(t, ctx)
                assert sc.label_log_posteriors(t, row).tolist() == old.label_log_posteriors(t, ctx).tolist()
            assert sc.ilm_log_probs(row).tolist() == old.ilm_log_probs(ctx).tolist()
        assert sc.size == ids.size * len(X)


class TestNothingOutlivesACall:
    """Training and ILMA change parameters in place, so no table may be kept
    from one search to the next: after such a change a search equals one on
    a copy made after it."""

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_in_place_parameter_change(self, real_setup, kind):
        models, lm, utts = real_setup
        model, lm = copy.deepcopy(models[kind]), copy.deepcopy(lm)
        fusion = FusionConfig("ilme_subtract", 0.4, 0.2, lm)
        before = [ranked(beam_search(model, X, 4, fusion)) for X in utts[:3]]
        rng = np.random.default_rng(3)
        for name in model.params.group_names("ilm"):  # as run_ilma's SGD step: the same tensors, new values
            tensor = model.params[name]
            tensor.data = tensor.data - 0.5 * rng.standard_normal(tensor.data.shape)
        lm.out_w.data *= 1.5  # and in place in the array
        copied = FusionConfig("ilme_subtract", 0.4, 0.2, copy.deepcopy(lm))
        model_copy = copy.deepcopy(model)
        after = [ranked(beam_search(model, X, 4, fusion)) for X in utts[:3]]
        assert after == [ranked(beam_search(model_copy, X, 4, copied)) for X in utts[:3]]
        assert after != before


class TestTablesEqualTheFrozenFills:
    """Every context's rows against the fills they replaced
    (tests/reference_tables.py), byte for byte, at the real dims:
    `TestScorerAgreesWithHeads` checks the heads only to 1e-12."""

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    @pytest.mark.parametrize("n_utts", [1, 3])
    def test_scorer_tables(self, real_setup, kind, n_utts):
        models, _, utts = real_setup
        model = models[kind]
        xs = utts[:n_utts]
        sc = model.scorer(xs[0] if n_utts == 1 else xs)
        want = (reference_tables.MhatTables if kind == "mhat" else reference_tables.HatTables)(model, xs).fill_all()
        keys = np.arange(n_utts * want.n_ctx)[::-1]  # every context of every utterance, in reverse
        for key, row in zip(keys.tolist(), sc.rows(keys).tolist()):
            u, c = divmod(key, want.n_ctx)
            first, t_len = want.first_row(u, c), sc.t_lens[u]
            assert sc.frame_rows[row : row + t_len].tobytes() == want.frame_rows[first : first + t_len].tobytes()
        assert sc.ilm_rows.tobytes() == want.ilm_rows.tobytes()
        assert sc._w2g.tobytes() == want._w2g.tobytes()

    def test_lm_tables(self, real_setup):
        _, lm, _ = real_setup
        sc, want = lm.scorer(), reference_tables.LmTables(lm)
        rows = sc.rows(np.arange(len(want.log_prob_rows))[::-1])[::-1]  # filled in reverse, read in id order
        assert sc.log_prob_rows[rows].tobytes() == want.log_prob_rows.tobytes()


class TestResultValues:
    def test_components_are_plain_floats(self, real_setup):
        # records print the components with repr(); a numpy scalar would print as np.float64(...)
        models, lm, utts = real_setup
        for fusion in fusion_cases(lm):
            for res in beam_search(models["mhat"], utts[0], 4, fusion):
                assert all(type(x) is float for x in (res.model_lp, res.ext_lp, res.ilm_lp, res.combined))
                cols = format_record("u", res, models["mhat"].vocab).split("\t")
                assert [float(c) for c in cols[3:]] == [res.model_lp, res.ext_lp, res.ilm_lp]



def mixed_configs(lm):
    """Every fusion mode, with a duplicated config, in one lockstep search."""
    fused = FusionConfig(mode="ilme_subtract", lam_ext=0.4, lam_ilm=0.2, lm=lm)
    return [NO_FUSION, FusionConfig(mode="shallow", lam_ext=0.3, lm=lm), fused,
            FusionConfig(mode="ilme_subtract", lam_ext=0.8, lam_ilm=0.4, lm=lm), fused]


class _TieScorer:
    """Stub tables over two frames under which an advanced and a fresh
    hypothesis with the same tokens, (0,), tie exactly at frame 1."""

    def __init__(self, model):
        v = model.vocab.size
        self.model, self.t_len, self.t_lens = model, 2, [2]
        self.frame_rows = np.zeros((2, 2 + v))  # one block of frame rows serves every context
        self.frame_rows[:, 0] = (-0.5, -1.0)  # log b of frames 0 and 1
        self.frame_rows[:, 1] = (-1.0, -2.0)  # log(1 - b)
        self.frame_rows[:, 3:] = -10.0  # label 0 scores 0, every other label -10
        self.ilm_rows = np.zeros(((v + 1) * (v + 1), v))

    def rows(self, ids):
        return np.zeros(len(ids), dtype=np.int64)

    def label_rows(self, t, frame, ilm, utt=0):
        return frame[:, 2:]

    def check_finite(self):
        pass  # the stub tables are finite


class TestLockstep:
    """Several fusion configs in one search: each group ranks as its own search."""

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    @pytest.mark.parametrize("cap", [10, 1, 0])
    def test_each_group_matches_the_dict_oracle(self, real_setup, kind, cap):
        models, lm, utts = real_setup
        model = models[kind]
        configs = mixed_configs(lm)
        for beam in (1, 2, 4, 8):
            for X in utts:
                want = {f: reference_beam.beam_search(model, X, beam, f, max_labels_per_frame=cap)
                        for f in set(configs)}
                got = beam_search(model, X, beam, configs, max_labels_per_frame=cap)
                assert [ranked(g) for g in got] == [ranked(want[f]) for f in configs]

    def test_advanced_before_fresh_on_a_full_tie(self, mhat_small, monkeypatch):
        # at frame 1, () + blank scores -1.5 and both (0,) candidates -2.5:
        # the advanced one (label at frame 0) is kept, the fresh one dropped
        X = np.zeros((2, 3))
        monkeypatch.setattr(mhat_small, "scorer", lambda _: _TieScorer(mhat_small))
        for configs in (NO_FUSION, [NO_FUSION, NO_FUSION]):
            got = beam_search(mhat_small, X, 2, configs)
            for res in [got] if configs is NO_FUSION else got:
                assert [(r.tokens, r.model_lp) for r in res] == [((), -1.5), ((0,), -2.5)]

    def test_one_config_and_a_list_of_one_agree(self, real_setup):
        models, lm, utts = real_setup
        for f in mixed_configs(lm)[:3]:
            assert beam_search(models["mhat"], utts[0], 4, [f]) == [beam_search(models["mhat"], utts[0], 4, f)]
            assert beam_search(models["mhat"], utts[0], 4, (f,)) == [beam_search(models["mhat"], utts[0], 4, f)]

    def test_rejected_inputs(self, real_setup, mhat_small):
        models, lm, utts = real_setup
        mhat = models["mhat"]
        with pytest.raises(ConfigError, match="at least one"):
            beam_search(mhat, utts[0], 4, [])
        other = ExternalLm(lm.vocab, embed_dim=8)
        with pytest.raises(ConfigError, match="one external LM"):
            beam_search(mhat, utts[0], 4, [FusionConfig("shallow", 0.3, lm=lm), FusionConfig("shallow", 0.3, lm=other)])
        with pytest.raises(ConfigError, match="vocabulary"):
            beam_search(mhat, utts[0], 4, [NO_FUSION, FusionConfig("shallow", 0.3, lm=ExternalLm(Vocabulary.default(6)))])
        for model in (mhat, models["hat"]):
            with pytest.raises(StructureError):
                beam_search(model, np.zeros((0, utts[0].shape[1])), 4, mixed_configs(lm))


class TestNonFiniteValues:
    """A NaN or +inf scorer row, or a search with no finite hypothesis, raises
    EvaluationError: never an empty ranked list or a -inf "best" result."""

    @pytest.mark.parametrize("kind, name", [("mhat", "am_proj.weight"), ("hat", "label_head.weight")])
    def test_nan_parameter_raises(self, real_setup, kind, name):
        models, _, utts = real_setup
        model = copy.deepcopy(models[kind])
        model.params[name].data[0, 0] = np.nan
        with pytest.raises(EvaluationError, match="non-finite frame_rows"):
            beam_search(model, utts[0], 4)

    def test_infinite_lm_row_raises(self, real_setup):
        models, lm, utts = real_setup
        lm = copy.deepcopy(lm)
        lm.out_b.data[2] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError, match="non-finite log_prob_rows"):
            beam_search(models["mhat"], utts[0], 4, FusionConfig("shallow", 0.3, lm=lm))

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_no_finite_hypothesis_raises(self, real_setup, kind):
        models, lm, utts = real_setup
        model = copy.deepcopy(models[kind])
        model.params["joint.v_bias"].data = np.asarray(-np.inf)  # log b = -inf: no alignment consumes a frame
        with pytest.raises(EvaluationError, match="no hypothesis with a finite score"):
            beam_search(model, utts[0], 4, mixed_configs(lm))

    def test_minus_inf_from_underflow_is_legal(self, real_setup):
        models, lm, utts = real_setup
        lm = copy.deepcopy(lm)
        lm.out_b.data[3] = -np.inf  # the LM rules token 3 out
        ranked = beam_search(models["mhat"], utts[0], 4, FusionConfig("shallow", 0.3, lm=lm))
        assert ranked and math.isfinite(ranked[0].combined)
        assert all(3 not in r.tokens for r in ranked if math.isfinite(r.combined))


@pytest.fixture(scope="module")
def corpus_setup(real_setup):
    """Mixed lengths: T=1 and the longest utterance both first and last."""
    models, lm, utts = real_setup
    longest = max(utts, key=len)
    one = utts[0][:1]
    return models, lm, [longest, one, *utts[1:4], utts[4][:2], one, longest]


class TestCorpus:
    """One search over every (utterance, config) group of a corpus: each
    utterance ranks as its own search (tests/reference_beam.py, one utterance
    and one config per oracle call)."""

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    @pytest.mark.parametrize("cap", [10, 1])
    def test_each_group_matches_the_dict_oracle(self, corpus_setup, kind, cap):
        models, lm, utts = corpus_setup
        model = models[kind]
        configs = mixed_configs(lm)
        want = {}
        for beam in (1, 4):
            got = beam_search(model, utts, beam, configs, max_labels_per_frame=cap)
            assert len(got) == len(utts)
            for u, X in enumerate(utts):
                key = (u if u < len(utts) - 1 else 0, beam)  # the last utterance repeats the first
                if key not in want:
                    want[key] = {f: ranked(reference_beam.beam_search(model, X, beam, f, max_labels_per_frame=cap))
                                 for f in set(configs)}
                assert [ranked(g) for g in got[u]] == [want[key][f] for f in configs]

    def test_one_config_per_utterance(self, corpus_setup):
        models, lm, utts = corpus_setup
        fusion = FusionConfig(mode="ilme_subtract", lam_ext=0.4, lam_ilm=0.2, lm=lm)
        got = beam_search(models["mhat"], utts, 4, fusion)
        assert [ranked(r) for r in got] == [ranked(reference_beam.beam_search(models["mhat"], X, 4, fusion))
                                           for X in utts]

    def test_an_utterance_that_is_not_2d_is_named(self, real_setup):
        # a list of frames would otherwise read as a corpus of 1-D utterances
        models, _, utts = real_setup
        d_x = utts[0].shape[1]
        with pytest.raises(ConfigError, match=rf"utterance 0 has shape \({d_x},\)"):
            beam_search(models["mhat"], utts[0].tolist(), 4)
        with pytest.raises(ConfigError, match=rf"utterance 2 has shape \({d_x},\)"):
            beam_search(models["hat"], [utts[0], utts[1], utts[2][0]], 4)
        with pytest.raises(ConfigError, match=r"utterance 0 has shape \(1, 2, 3\)"):
            beam_search(models["hat"], [np.zeros((1, 2, 3))], 4)

    def test_empty_corpus(self, real_setup):
        models, lm, _ = real_setup
        assert beam_search(models["mhat"], [], 4, mixed_configs(lm)) == []
        assert beam_search(models["hat"], (), 4) == []

    def test_one_utterance_corpus_equals_beam_search(self, real_setup):
        models, lm, utts = real_setup
        for model in models.values():
            for fusion in (NO_FUSION, mixed_configs(lm)):
                assert beam_search(model, [utts[2]], 4, fusion) == [beam_search(model, utts[2], 4, fusion)]

    def test_reversed_corpus_reverses_the_results(self, corpus_setup):
        # batch permutation is a bit-exact no-op
        models, lm, utts = corpus_setup
        for model in models.values():
            forward = beam_search(model, utts, 4, mixed_configs(lm))
            assert beam_search(model, utts[::-1], 4, mixed_configs(lm)) == forward[::-1]

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_exact_ties_in_a_shared_call(self, real_setup, kind):
        # the zeroed heads of TestDictOracle's tie test, every utterance in one call
        models, _, utts = real_setup
        model = copy.deepcopy(models[kind])
        heads = ("am_proj", "ilm_proj") if kind == "mhat" else ("label_head",)
        for name in heads:
            for part in ("weight", "bias"):
                model.params[f"{name}.{part}"].data[...] = 0.0
        lm = ExternalLm(model.vocab, embed_dim=8, seed=1)
        lm.params["out_proj.weight"].data[...] = 0.0
        configs = mixed_configs(lm)
        for beam in (1, 3, 8):
            got = beam_search(model, utts[:3], beam, configs)
            for X, lists in zip(utts[:3], got):
                assert [ranked(g) for g in lists] == [ranked(reference_beam.beam_search(model, X, beam, f))
                                                      for f in configs]

    def test_advanced_before_fresh_in_a_shared_call(self, mhat_small, monkeypatch):
        # TestLockstep's stub tables, served to three utterances at once
        def corpus_stub(xs):
            stub = _TieScorer(mhat_small)
            stub.t_lens = [2] * len(xs)
            return stub

        monkeypatch.setattr(mhat_small, "scorer", corpus_stub)
        for configs in (NO_FUSION, [NO_FUSION, NO_FUSION]):
            got = beam_search(mhat_small, [np.zeros((2, 3))] * 3, 2, configs)
            for lists in got:
                for res in [lists] if configs is NO_FUSION else lists:
                    assert [(r.tokens, r.model_lp) for r in res] == [((), -1.5), ((0,), -2.5)]

    def test_one_table_per_model_and_lm_serves_every_utterance(self, corpus_setup, monkeypatch):
        # each (decoder or LM, context) row is computed once per call, not once per utterance
        models, lm, utts = corpus_setup
        built, evals = [], []
        scorer = lm.scorer
        monkeypatch.setattr(lm, "scorer", lambda: built.append(scorer()) or built[-1])
        output_np = type(lm.decoder).output_np
        monkeypatch.setattr(type(lm.decoder), "output_np", lambda dec, ctx: evals.append((id(dec), ctx))
                            or output_np(dec, ctx))
        for model in models.values():
            built.clear(), evals.clear()
            beam_search(model, utts, 4, mixed_configs(lm))
            assert len(built) == 1
            assert evals and len(evals) == len(set(evals))
            assert np.count_nonzero(built[0].filled) == len({ctx for dec, ctx in evals if dec == id(lm.decoder)})

    def test_no_frames_is_a_structure_error_before_decoding(self, real_setup, monkeypatch):
        models, lm, utts = real_setup
        empty = np.zeros((0, utts[0].shape[1]))
        for model in models.values():
            monkeypatch.setattr(model, "scorer", lambda *a: pytest.fail("decoding started"))
            with pytest.raises(StructureError, match="utterance 2"):
                beam_search(model, [utts[0], utts[1], empty], 4, mixed_configs(lm))

    def test_no_finite_hypothesis_names_the_utterance(self, corpus_setup):
        models, lm, utts = corpus_setup
        model = copy.deepcopy(models["mhat"])
        model.params["joint.v_bias"].data = np.asarray(-np.inf)
        with pytest.raises(EvaluationError, match="fusion config 0 of utterance 0"):
            beam_search(model, utts, 4, mixed_configs(lm))
