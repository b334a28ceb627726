import dataclasses
import inspect
import re

import numpy as np
import pytest

import reference_wer
from mhat import data as dat
from mhat import evalcli
from mhat.decode import NO_FUSION, FusionConfig, beam_search, format_record
from mhat.evalcli import (
    CONFIG_FLAGS,
    EvalReport,
    ExperimentConfig,
    METHODS,
    adapt_ilma_model,
    build_mhat,
    build_parser,
    decode_corpus,
    evaluate_decodes,
    evaluate_pairs,
    grid_search_lambdas,
    lambda_grid_wers,
    main,
    make_experiment_data,
    read_kv_config,
    run_experiment,
    train_asr_model,
    wer_counts,
)
from mhat.extlm import ExternalLm, LmTrainConfig, train_lm
from mhat.model import ConfigError, MhatModel, Vocabulary
from mhat.training import TrainConfig


class TestWer:
    def test_identical(self):
        assert wer_counts([1, 2, 3], [1, 2, 3]) == (0, 0, 0)

    def test_single_substitution(self):
        rep = evaluate_pairs([([0, 1, 2], [0, 9, 2])])
        assert (rep.subs, rep.ins, rep.dels) == (1, 0, 0)
        assert rep.wer == pytest.approx(100.0 / 3)

    def test_empty_hypothesis(self):
        rep = evaluate_pairs([([0, 1, 2], [])])
        assert (rep.subs, rep.ins, rep.dels) == (0, 0, 3)
        assert rep.wer == pytest.approx(100.0)

    def test_empty_reference(self):
        assert wer_counts([], [4, 5]) == (0, 2, 0)

    @pytest.mark.parametrize("pairs", [[], [((), (1,))], [((), ())]])
    def test_nothing_scored_is_an_error(self, pairs):
        # an insertion-only result used to read as WER 0.0, a perfect score
        rep = evaluate_pairs(pairs)
        assert rep.ref_tokens == 0
        with pytest.raises(ConfigError, match="at least one reference token"):
            rep.wer

    def test_substitution_preferred_over_ins_del(self):
        s, i, d = wer_counts([1], [2])
        assert (s, i, d) == (1, 0, 0)

    def test_relabeling_symmetry(self, rng):
        for _ in range(20):
            ref = [int(x) for x in rng.integers(0, 5, size=rng.integers(1, 10))]
            hyp = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 10))]
            perm = rng.permutation(5)
            assert wer_counts(ref, hyp) == wer_counts(
                [int(perm[x]) for x in ref], [int(perm[x]) for x in hyp]
            )

    def test_add_takes_only_the_pair(self):
        assert list(inspect.signature(EvalReport.add).parameters) == ["self", "ref", "hyp"]

    def test_matches_the_move_matrix_oracle(self, rng):
        # 1-4 symbols make many tied alignments; both sides empty is drawn too
        assert wer_counts([], []) == reference_wer.wer_counts([], []) == (0, 0, 0)
        for _ in range(20_000):
            k = int(rng.integers(1, 5))
            ref = rng.integers(0, k, size=rng.integers(0, 10)).tolist()
            hyp = rng.integers(0, k, size=rng.integers(0, 10)).tolist()
            assert wer_counts(ref, hyp) == reference_wer.wer_counts(ref, hyp), (ref, hyp)

    def test_long_pairs_match_the_move_matrix_oracle(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 5))
            ref = rng.integers(0, k, size=rng.integers(0, 61)).tolist()
            hyp = rng.integers(0, k, size=rng.integers(0, 61)).tolist()
            assert wer_counts(ref, hyp) == reference_wer.wer_counts(ref, hyp), (ref, hyp)

    def test_corpus_pooling_not_mean_of_rates(self):
        rep = evaluate_pairs([([0], [1]), ([0] * 9, [0] * 9)])
        # pooled: 1 edit over 10 ref tokens, not mean(100%, 0%)
        assert rep.wer == pytest.approx(10.0)
        assert rep.n_utts == 2 and rep.ref_tokens == 10


def test_library_defaults_match_experiment_config():
    # a library caller that leans on a default gets the experiment's value
    cfg = ExperimentConfig()
    assert TrainConfig().epochs == cfg.epochs
    assert LmTrainConfig().epochs == cfg.lm_epochs
    assert inspect.signature(decode_corpus).parameters["beam"].default == cfg.beam


@pytest.mark.parametrize(
    "field, value, why",
    [
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("epochs", -1, "epochs must be >= 0, got -1"),
        ("lr", 0.0, "lr must be finite and > 0, got 0.0"),
        ("lm_batch", 0, "batch_size must be >= 1, got 0"),
        ("lm_epochs", -3, "epochs must be >= 0, got -3"),
        ("lm_lr", float("inf"), "lr must be finite and > 0, got inf"),
        ("ilma_batch", -1, "batch_size must be >= 1, got -1"),
        ("ilma_steps", -2, "steps must be >= 0, got -2"),
        ("ilma_lr", float("nan"), "lr must be finite and > 0, got nan"),
    ],
)
def test_experiment_config_rejects_bad_schedules(field, value, why):
    # before any stage runs: a bad LM or ILMA schedule used to fail only after
    # data generation and both ASR trainings, naming the stage's own config
    with pytest.raises(ConfigError, match=re.escape(f"{why} (ExperimentConfig.{field})") + "$"):
        ExperimentConfig(**{field: value})
    with pytest.raises(ConfigError, match=re.escape(f"ExperimentConfig.{field}")):
        dataclasses.replace(tiny_config(), **{field: value})


@pytest.mark.parametrize(
    "field, value, why",
    [
        ("beam", 0, "beam must be >= 1, got 0"),
        ("rho", 1.5, "rho must lie in [0, 1], got 1.5"),
        ("rho", float("nan"), "rho must lie in [0, 1], got nan"),
        ("alpha", -0.5, "alpha must be finite and >= 0, got -0.5"),
        ("alpha", float("inf"), "alpha must be finite and >= 0, got inf"),
        ("lam_ext_grid", (), "lam_ext_grid must be non-empty, finite and >= 0, got ()"),
        ("lam_ext_grid", (0.0, float("nan")), "lam_ext_grid must be non-empty, finite and >= 0, got (0.0, nan)"),
        ("lam_ilm_grid", (), "lam_ilm_grid must be non-empty, finite and >= 0, got ()"),
        ("lam_ilm_grid", (-0.2,), "lam_ilm_grid must be non-empty, finite and >= 0, got (-0.2,)"),
        ("lam_ilm_grid", (0.0, float("inf")), "lam_ilm_grid must be non-empty, finite and >= 0, got (0.0, inf)"),
    ],
)
def test_experiment_config_rejects_bad_search_settings(field, value, why):
    # each failed only in a late stage: beam and the grids in grid-search,
    # after both ASR trainings; rho in ilma; alpha in train-mhat
    with pytest.raises(ConfigError, match=re.escape(f"{why} (ExperimentConfig.{field})") + "$"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, why",
    [
        *((name, 0, f"{name} must be >= 1, got 0")
          for name in ("d_x", "d_f", "enc_layers", "joint_dim", "label_dim", "blank_dim", "hat_decoder_dim")),
        *((name, -1, f"{name} must be >= 0, got -1")
          for name in ("enc_context", "n_train", "n_dev", "n_test", "n_adapt_text", "seed")),
        ("vocab_size", 5, "vocab_size must be even and >= 2, got 5"),
        ("vocab_size", 1, "vocab_size must be even and >= 2, got 1"),
        ("vocab_size", 0, "vocab_size must be even and >= 2, got 0"),
        ("sigma", -0.1, "sigma must be finite and >= 0, got -0.1"),
        ("sigma", float("inf"), "sigma must be finite and >= 0, got inf"),
        ("sigma", float("nan"), "sigma must be finite and >= 0, got nan"),
    ],
)
def test_experiment_config_rejects_bad_sizes_and_data_settings(field, value, why):
    # each failed only inside a stage: the data fields in gen-data (d_x = 0 as
    # "prototypes 0 and 1 are identical", a negative seed with numpy's
    # "expected non-negative integer"), a zero model width in the first
    # backward pass of training, with numpy's "cannot reshape array of size 0"
    with pytest.raises(ConfigError, match=re.escape(f"{why} (ExperimentConfig.{field})") + "$"):
        ExperimentConfig(**{field: value})


def test_cli_bad_width_and_seed_fail_before_any_work(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "4", "--n-dev", "0", "--n-test", "0",
                 "--n-adapt-text", "0"]) == 0
    assert main(["train", "--data", str(data_dir / "source.train"), "--vocab", str(data_dir / "vocab.txt"),
                 "--joint-dim", "0", "--out-dir", str(tmp_path / "train")]) == 2
    assert main(["gen-data", "--seed", "-1", "--out-dir", str(tmp_path / "neg")]) == 2
    err = capsys.readouterr().err
    assert "joint_dim must be >= 1, got 0 (ExperimentConfig.joint_dim)" in err
    assert "seed must be >= 0, got -1 (ExperimentConfig.seed)" in err
    assert not (tmp_path / "train" / "mhat.ckpt").exists()
    assert sorted(p.name for p in (tmp_path / "neg").iterdir()) == ["resolved-config.txt"]


def test_experiment_config_rejects_a_grid_with_no_pair():
    # lam_ext = 0 with lam_ilm > 0 is skipped, so ilme_subtract would search no config
    with pytest.raises(ConfigError, match=r"lam_ilm_grid must hold 0\.0 .*\(ExperimentConfig\.lam_ilm_grid\)$"):
        ExperimentConfig(lam_ext_grid=(0.0,), lam_ilm_grid=(0.2,))
    assert ExperimentConfig(lam_ext_grid=(0.0,), lam_ilm_grid=(0.0, 0.2)).lam_ext_grid == (0.0,)
    assert ExperimentConfig(lam_ext_grid=(0.0, 0.3), lam_ilm_grid=(0.2,)).lam_ilm_grid == (0.2,)


@pytest.mark.parametrize("field", ["n_train", "n_dev", "n_test", "n_adapt_text"])
def test_run_experiment_needs_every_corpus(field, tmp_path):
    # n_dev = 0 failed in the last stage, n_adapt_text = 0 in train-lm, and
    # n_test = 0 reported a WER of 0.0 for every method
    cfg = dataclasses.replace(tiny_config(), **{field: 0})  # legal for make_experiment_data alone
    with pytest.raises(ConfigError, match=re.escape(f"run_experiment needs {field} >= 1, got 0 (ExperimentConfig.{field})")):
        run_experiment(cfg, out_dir=str(tmp_path), log=lambda m: None)
    assert list(tmp_path.iterdir()) == []


def test_cli_bad_beam_fails_before_any_stage(tmp_path, capsys):
    assert main(["experiment", "--out-dir", str(tmp_path), "--beam", "0"]) == 2
    assert "beam must be >= 1, got 0 (ExperimentConfig.beam)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["resolved-config.txt"]


def test_experiment_config_zero_passes_are_legal():
    cfg = ExperimentConfig(epochs=0, lm_epochs=0, ilma_steps=0)
    assert (cfg.epochs, cfg.lm_epochs, cfg.ilma_steps) == (0, 0, 0)


def tiny_config(seed=0):
    return ExperimentConfig(
        n_train=24,
        n_dev=8,
        n_test=8,
        n_adapt_text=60,
        epochs=1,
        lm_epochs=2,
        ilma_steps=10,
        beam=2,
        lam_ext_grid=(0.0, 0.3),
        lam_ilm_grid=(0.0, 0.2),
        seed=seed,
    )


class TestExperiment:
    def test_matrix_rows_and_determinism(self, tmp_path):
        res1 = run_experiment(tiny_config(), out_dir=str(tmp_path / "run1"), log=lambda m: None)
        assert list(res1.durations) == ["gen-data", "train-hat", "train-mhat", "train-lm", "ilma", "grid-search",
                                        "decode-matrix"]
        assert set(res1.wer.keys()) == set(METHODS)
        for method in METHODS:
            assert set(res1.wer[method].keys()) == {"source", "target"}
        res2 = run_experiment(tiny_config(), out_dir=None, log=lambda m: None)
        assert res1.matrix_lines() == res2.matrix_lines()

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_config(), out_dir=str(out), log=lambda m: None)
        assert (out / "data" / "vocab.txt").exists()
        assert (out / "models" / "mhat.ckpt").exists()
        assert (out / "models" / "mhat_ilma.ckpt.bin").exists()
        assert (out / "reports" / "wer_matrix.tsv").exists()
        assert (out / "reports" / "ilma_report.kv").exists()
        lines = (out / "reports" / "wer_matrix.tsv").read_text().splitlines()
        assert lines[0] == "method\tsource_wer\ttarget_wer"
        assert [l.split("\t")[0] for l in lines[1:]] == list(METHODS)

    def test_stage_failure_names_the_stage_and_keeps_earlier_files(self, tmp_path, monkeypatch):
        def no_lm(*args, **kwargs):
            raise ConfigError("LM training corpus is empty")

        monkeypatch.setattr(evalcli, "train_lm_model", no_lm)
        cfg = tiny_config()
        with pytest.raises(RuntimeError, match="experiment stage 'train-lm' failed"):
            run_experiment(cfg, out_dir=str(tmp_path), log=lambda m: None)
        assert (tmp_path / "models" / "hat.ckpt").exists()
        assert (tmp_path / "models" / "mhat.ckpt").exists()

    def test_decodes_match_standalone_decoding(self, tmp_path):
        # one nonzero weight pair: every fused method decodes with its LM, and
        # only the ilme_subtract rows take lam_ilm from the grid
        cfg = dataclasses.replace(tiny_config(), lam_ext_grid=(2.0,), lam_ilm_grid=(3.0,))
        res = run_experiment(cfg, out_dir=str(tmp_path), log=lambda m: None)
        exp, models = res.data, res.models
        rows = [("hat", "HAT", "HAT+LM", "ilme_subtract"), ("mhat", "MHAT", "MHAT+LM", "ilme_subtract"),
                ("mhat_ilma", "MHAT+ILMA", "MHAT+ILMA+LM", "shallow")]
        assert res.best_lambdas == {fused: (2.0, 3.0 if mode == "ilme_subtract" else 0.0) for _, _, fused, mode in rows}
        for key, plain, fused, mode in rows:
            fusion = FusionConfig(mode=mode, lam_ext=2.0, lam_ilm=res.best_lambdas[fused][1], lm=models["lm"])
            for domain, corpus in (("source", exp.src_test), ("target", exp.tgt_test)):
                for method, f in ((plain, NO_FUSION), (fused, fusion)):
                    expected = "".join(format_record(uid, r, exp.vocab) + "\n"
                                       for uid, r in decode_corpus(models[key], corpus, cfg.beam, f))
                    tsv = tmp_path / "decodes" / (method.replace("+", "_") + f"__{domain}.tsv")
                    assert tsv.read_text() == expected, (method, domain)


class TestParallelDecode:
    def test_shared_lm_scorer_matches_per_utterance_search(self):
        cfg = tiny_config()
        exp = make_experiment_data(cfg)
        model = build_mhat(cfg, exp.vocab)
        lm = ExternalLm(exp.vocab, embed_dim=8, seed=1)
        fusion = FusionConfig(mode="ilme_subtract", lam_ext=0.3, lam_ilm=0.2, lm=lm)
        decoded = decode_corpus(model, exp.tgt_test, beam=3, fusion=fusion)
        assert [best for _, best in decoded] == [
            beam_search(model, it.features, 3, fusion)[0] for it in exp.tgt_test.items
        ]


@pytest.fixture(scope="module")
def grid_setup():
    """A briefly trained MHAT and LM, so that the fusion weights move the dev WER."""
    cfg = dataclasses.replace(tiny_config(), n_train=300, n_dev=10, n_adapt_text=300, d_f=16, label_dim=16,
                              blank_dim=4, joint_dim=8, epochs=6, lr=1e-2)
    exp = make_experiment_data(cfg)
    model, _ = train_asr_model("mhat", cfg, exp.vocab, exp.src_train.paired(), log=lambda msg: None)
    lm, _ = train_lm(exp.tgt_text, LmTrainConfig(epochs=3, embed_dim=16, seed=0))
    return cfg, model, lm, exp.tgt_dev


class TestLambdaGrid:
    @pytest.mark.parametrize("mode", ["shallow", "ilme_subtract"])
    def test_matches_a_lambda_outer_loop(self, grid_setup, mode):
        cfg, model, lm, dev = grid_setup
        cfg = dataclasses.replace(cfg, lam_ext_grid=(0.0, 0.4, 1.5), lam_ilm_grid=(0.0, 0.3, 1.0))
        ref = {}
        for le in cfg.lam_ext_grid:
            for li in cfg.lam_ilm_grid if mode == "ilme_subtract" else (0.0,):
                if le == 0.0 and li > 0.0:
                    continue
                fusion = NO_FUSION if le == li == 0.0 else FusionConfig(mode=mode, lam_ext=le, lam_ilm=li, lm=lm)
                hyps = {uid: res.tokens for uid, res in decode_corpus(model, dev, cfg.beam, fusion)}
                ref[(le, li)] = evaluate_decodes(dev, hyps)
        got = lambda_grid_wers(model, lm, dev, mode, cfg)
        assert list(got) == list(ref)
        assert got == ref
        best = min((rep.wer, le, li) for (le, li), rep in ref.items())
        assert grid_search_lambdas(model, lm, dev, mode, cfg, log=lambda msg: None) == best[1:]
        assert len({rep.wer for rep in ref.values()}) > 1  # the weights matter on this model

    def test_every_grid_pair_matches_the_move_matrix_oracle(self, grid_setup, monkeypatch):
        cfg, model, lm, dev = grid_setup
        seen = []

        def recorded(ref, hyp):
            seen.append((ref, hyp, wer_counts(ref, hyp)))
            return seen[-1][2]

        monkeypatch.setattr(evalcli, "wer_counts", recorded)
        wers = lambda_grid_wers(model, lm, dev, "ilme_subtract", cfg)
        assert len(seen) == len(wers) * len(dev.items)
        assert len({(ref, hyp) for ref, hyp, _ in seen}) > len(dev.items)  # the weights change some hypotheses
        for ref, hyp, counts in seen:
            assert counts == reference_wer.wer_counts(ref, hyp), (ref, hyp)

    def test_ties_go_to_smaller_weights(self, grid_setup):
        cfg, _, lm, dev = grid_setup
        silent = build_mhat(cfg, lm.vocab)
        silent.params["joint.v_bias"].data = np.asarray(50.0)  # blank always wins: every pair decodes ()
        wers = lambda_grid_wers(silent, lm, dev, "ilme_subtract", cfg)
        assert {rep.wer for rep in wers.values()} == {100.0}
        assert grid_search_lambdas(silent, lm, dev, "ilme_subtract", cfg, log=lambda msg: None) == (0.0, 0.0)


# every hyperparameter flag, by dest, and the ExperimentConfig field it sets
FLAG_FIELDS = {
    "gen-data": {"vocab_size": "vocab_size", "d_x": "d_x", "sigma": "sigma", "n_train": "n_train",
                 "n_dev": "n_dev", "n_test": "n_test", "n_adapt_text": "n_adapt_text"},
    "train": {"alpha": "alpha", "epochs": "epochs", "batch_size": "batch_size", "lr": "lr", "d_f": "d_f",
              "enc_context": "enc_context", "enc_layers": "enc_layers", "joint_dim": "joint_dim",
              "label_dim": "label_dim", "blank_dim": "blank_dim", "decoder_dim": "hat_decoder_dim"},
    "train-lm": {"epochs": "lm_epochs", "batch_size": "lm_batch", "lr": "lm_lr", "embed_dim": "label_dim"},
    "adapt": {"rho": "rho", "steps": "ilma_steps", "lr": "ilma_lr", "batch_size": "ilma_batch"},
    "decode": {"beam": "beam"},
    "eval": {},
    "experiment": {"alpha": "alpha", "rho": "rho", "epochs": "epochs", "beam": "beam"},
}


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["train"]) == 1  # missing required args
        assert main(["no-such-command"]) == 1
        assert main(["train", "--config"]) == 1

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        rc = main(
            ["train", "--data", "/nonexistent", "--vocab", "/nonexistent",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_end_to_end_pipeline(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        rc = main(
            ["gen-data", "--out-dir", str(data_dir), "--n-train", "16", "--n-dev", "4",
             "--n-test", "6", "--n-adapt-text", "30", "--seed", "1"]
        )
        assert rc == 0
        assert (data_dir / "resolved-config.txt").exists()

        train_dir = tmp_path / "mhat"
        rc = main(
            ["train", "--data", str(data_dir / "source.train"), "--vocab",
             str(data_dir / "vocab.txt"), "--model", "mhat", "--epochs", "1",
             "--out-dir", str(train_dir), "--seed", "1"]
        )
        assert rc == 0
        ckpt = train_dir / "mhat.ckpt"
        assert ckpt.exists() and (train_dir / "train_log.txt").exists()

        lm_dir = tmp_path / "lm"
        rc = main(
            ["train-lm", "--text", str(data_dir / "target.train.txt"), "--vocab",
             str(data_dir / "vocab.txt"), "--epochs", "2", "--out-dir", str(lm_dir)]
        )
        assert rc == 0

        adapt_dir = tmp_path / "adapt"
        rc = main(
            ["adapt", "--ckpt", str(ckpt), "--text", str(data_dir / "target.train.txt"),
             "--steps", "5",
             "--heldout-target", str(data_dir / "target.dev.txt"),
             "--out-dir", str(adapt_dir)]
        )
        assert rc == 0
        assert (adapt_dir / "mhat_ilma.ckpt").exists()
        assert (adapt_dir / "ilma_report.kv").exists()

        dec_dir = tmp_path / "dec"
        rc = main(
            ["decode", "--ckpt", str(adapt_dir / "mhat_ilma.ckpt"), "--data",
             str(data_dir / "target.test"),
             "--beam", "2", "--fusion", "shallow", "--lm", str(lm_dir / "extlm.ckpt"),
             "--lam-ext", "0.3", "--out-dir", str(dec_dir)]
        )
        assert rc == 0
        decodes = dec_dir / "decodes.tsv"
        assert decodes.exists()
        assert len(decodes.read_text().splitlines()) == 6

        eval_dir = tmp_path / "eval"
        rc = main(
            ["eval", "--ref", str(data_dir / "target.test"), "--vocab",
             str(data_dir / "vocab.txt"), "--hyp", str(decodes), "--out-dir", str(eval_dir)]
        )
        assert rc == 0
        kv = dict(
            line.split(" ", 1) for line in (eval_dir / "eval.kv").read_text().splitlines()
        )
        assert float(kv["wer"]) >= 0.0
        err = capsys.readouterr().err
        assert "WER" in err

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_train_writes_the_experiment_stage_checkpoint(self, tmp_path, kind):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "12", "--n-dev", "2",
                     "--n-test", "2", "--n-adapt-text", "4", "--seed", "3"]) == 0
        rc = main(["train", "--data", str(data_dir / "source.train"), "--vocab", str(data_dir / "vocab.txt"),
                   "--model", kind, "--epochs", "2", "--d-f", "16", "--joint-dim", "8", "--label-dim", "8",
                   "--blank-dim", "4", "--decoder-dim", "8", "--seed", "3", "--out-dir", str(tmp_path / "cli")])
        assert rc == 0
        vocab = dat.read_vocab(str(data_dir / "vocab.txt"))
        corpus = dat.read_corpus(str(data_dir / "source.train"), vocab)
        cfg = ExperimentConfig(d_x=corpus.items[0].features.shape[1], d_f=16, joint_dim=8, label_dim=8,
                               blank_dim=4, hat_decoder_dim=8, epochs=2, seed=3)
        path = tmp_path / f"{kind}.ckpt"
        train_asr_model(kind, cfg, vocab, corpus.paired(), str(path), log=lambda msg: None)
        for suffix in ("", ".bin"):
            cli = (tmp_path / "cli" / f"{kind}.ckpt{suffix}").read_bytes()
            assert cli == (tmp_path / f"{kind}.ckpt{suffix}").read_bytes()

    def test_adapt_writes_the_experiment_stage_files(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "2", "--n-dev", "6",
                     "--n-test", "2", "--n-adapt-text", "40", "--seed", "3"]) == 0
        vocab = dat.read_vocab(str(data_dir / "vocab.txt"))
        model = build_mhat(ExperimentConfig(d_f=16, label_dim=8, blank_dim=4, joint_dim=8, seed=3), vocab)
        model.trained_alpha = 0.1
        dat.save_checkpoint(model, str(tmp_path / "mhat.ckpt"))
        rc = main(["adapt", "--ckpt", str(tmp_path / "mhat.ckpt"), "--text", str(data_dir / "target.train.txt"),
                   "--rho", "0.3", "--steps", "4", "--lr", "0.05",
                   "--batch-size", "8", "--heldout-source", str(data_dir / "source.dev.txt"),
                   "--heldout-target", str(data_dir / "target.dev.txt"), "--seed", "3",
                   "--out-dir", str(tmp_path / "cli")])
        assert rc == 0
        text = lambda name: dat.read_text_corpus(str(data_dir / name), vocab)
        stage = tmp_path / "stage"
        stage.mkdir()
        cfg = ExperimentConfig(rho=0.3, ilma_steps=4, ilma_lr=0.05, ilma_batch=8, seed=3)
        adapt_ilma_model(dat.load_checkpoint(str(tmp_path / "mhat.ckpt")), cfg, text("target.train.txt"),
                         text("source.dev.txt").transcripts(), text("target.dev.txt").transcripts(),
                         str(stage / "mhat_ilma.ckpt"), str(stage), log=lambda msg: None)
        for name in ("mhat_ilma.ckpt", "mhat_ilma.ckpt.bin", "ilma_report.txt", "ilma_report.kv"):
            assert (tmp_path / "cli" / name).read_bytes() == (stage / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--lam-ext", "--lam-ilm"])
    def test_decode_rejects_non_finite_weights(self, tmp_path, capsys, flag):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "2", "--n-dev", "2",
                     "--n-test", "2", "--n-adapt-text", "4"]) == 0
        vocab = dat.read_vocab(str(data_dir / "vocab.txt"))
        dat.save_checkpoint(build_mhat(ExperimentConfig(d_f=8, label_dim=8, blank_dim=4, joint_dim=4), vocab),
                            str(tmp_path / "mhat.ckpt"))
        dat.save_checkpoint(ExternalLm(vocab, embed_dim=8), str(tmp_path / "lm.ckpt"))
        rc = main(["decode", "--ckpt", str(tmp_path / "mhat.ckpt"), "--data", str(data_dir / "target.test"),
                   "--fusion", "ilme_subtract",
                   "--lm", str(tmp_path / "lm.ckpt"), "--lam-ext", "0.3", flag, "nan",
                   "--out-dir", str(tmp_path / "dec")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "dec" / "decodes.tsv").exists()

    def test_decode_names_an_utterance_with_no_frames(self, tmp_path, capsys, monkeypatch):
        # the corpus search raises StructureError before decoding anything,
        # and the message names the utterance, not the search's empty prefix
        vocab = Vocabulary.default(4)
        rng = np.random.default_rng(0)
        items = tuple(dat.Utterance(f"test-{i:05d}", rng.standard_normal((n, 8)), (1,))
                      for i, n in enumerate((3, 0, 2), start=1))
        dat.write_corpus(dat.Corpus("test", 0, vocab, items), str(tmp_path / "test"))
        dat.save_checkpoint(build_mhat(ExperimentConfig(vocab_size=4, d_f=8, label_dim=8, blank_dim=4, joint_dim=4),
                                       vocab), str(tmp_path / "mhat.ckpt"))
        monkeypatch.setattr(MhatModel, "scorer", lambda *a: pytest.fail("decoding started"))
        capsys.readouterr()
        rc = main(["decode", "--ckpt", str(tmp_path / "mhat.ckpt"), "--data", str(tmp_path / "test"),
                   "--out-dir", str(tmp_path / "dec")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "test-00002" in err and "T=0" in err and "U=0" not in err
        assert not (tmp_path / "dec" / "decodes.tsv").exists()

    @pytest.mark.parametrize("command", ["decode", "adapt"])
    def test_input_under_a_foreign_vocabulary_rejected(self, tmp_path, command):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "2", "--n-dev", "2",
                     "--n-test", "2", "--n-adapt-text", "4"]) == 0
        foreign = Vocabulary(tuple(f"x{i:02d}" for i in range(16)))  # as many names as the data's
        dat.save_checkpoint(build_mhat(ExperimentConfig(d_f=8, label_dim=8, blank_dim=4, joint_dim=4), foreign),
                            str(tmp_path / "mhat.ckpt"))
        data = ["--data", str(data_dir / "target.test")] if command == "decode" else \
            ["--text", str(data_dir / "target.train.txt")]
        out = tmp_path / "out"
        assert main([command, "--ckpt", str(tmp_path / "mhat.ckpt"), *data, "--out-dir", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["resolved-config.txt"]

    def test_eval_reference_must_be_a_corpus_manifest(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "2", "--n-dev", "2",
                     "--n-test", "2", "--n-adapt-text", "4"]) == 0
        hyp = tmp_path / "decodes.tsv"
        hyp.write_text("")
        out = tmp_path / "eval"
        rc = main(["eval", "--ref", str(data_dir / "target.dev.txt"), "--vocab", str(data_dir / "vocab.txt"),
                   "--hyp", str(hyp), "--out-dir", str(out)])
        assert rc == 2
        assert "not a corpus manifest" in capsys.readouterr().err
        assert not (out / "eval.kv").exists()

    def test_decode_fusion_requires_lm(self, tmp_path):
        rc = main(
            ["decode", "--ckpt", "x", "--data", "y",
             "--fusion", "shallow", "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize("given", ["lam_ext", "lm"])
    def test_decode_without_fusion_rejects_fusion_inputs(self, tmp_path, capsys, given):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "2", "--n-dev", "2",
                     "--n-test", "2", "--n-adapt-text", "4"]) == 0
        vocab = dat.read_vocab(str(data_dir / "vocab.txt"))
        dat.save_checkpoint(build_mhat(ExperimentConfig(d_f=8, label_dim=8, blank_dim=4, joint_dim=4), vocab),
                            str(tmp_path / "mhat.ckpt"))
        dat.save_checkpoint(ExternalLm(vocab, embed_dim=8), str(tmp_path / "lm.ckpt"))
        extra = ["--lam-ext", "0.3"] if given == "lam_ext" else ["--lm", str(tmp_path / "lm.ckpt")]
        rc = main(["decode", "--ckpt", str(tmp_path / "mhat.ckpt"), "--data", str(data_dir / "target.test"),
                   "--fusion", "none", *extra,
                   "--out-dir", str(tmp_path / "dec")])
        assert rc == 2
        assert "mode='none'" in capsys.readouterr().err
        assert not (tmp_path / "dec" / "decodes.tsv").exists()

    @pytest.mark.parametrize("flag,value", [("--sigma", "nan"), ("--sigma", "inf"), ("--n-train", "-5")])
    def test_gen_data_rejects_bad_values(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        rc = main(["gen-data", "--out-dir", str(out), "--n-train", "2", "--n-dev", "2", "--n-test", "2",
                   "--n-adapt-text", "2", flag, value])
        assert rc == 2
        assert value in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["resolved-config.txt"]

    @pytest.mark.parametrize(
        "flag, value, why",
        [
            ("--batch-size", "0", "batch_size must be >= 1, got 0"),  # was range()'s own error
            ("--epochs", "-3", "epochs must be >= 0, got -3"),  # was an untrained checkpoint
            ("--lr", "-1", "lr must be finite and > 0, got -1.0"),  # was a model of perplexity inf
        ],
    )
    def test_train_lm_rejects_bad_schedules(self, tmp_path, capsys, flag, value, why):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "2", "--n-dev", "2",
                     "--n-test", "2", "--n-adapt-text", "8"]) == 0
        capsys.readouterr()
        out = tmp_path / "lm"
        rc = main(["train-lm", "--text", str(data_dir / "target.train.txt"), "--vocab", str(data_dir / "vocab.txt"),
                   "--embed-dim", "4", flag, value, "--out-dir", str(out)])
        assert rc == 2
        assert f"error: {why}" in capsys.readouterr().err
        assert not (out / "extlm.ckpt").exists()

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# comment\nn_train=10\nn_dev=3\nn_test=3\nn_adapt_text=12\n")
        out = tmp_path / "out"
        rc = main(["gen-data", "--out-dir", str(out), "--config", str(cfg)])
        assert rc == 0
        resolved = (out / "resolved-config.txt").read_text()
        assert "n_train 10" in resolved
        manifest = (out / "source.train").read_text()
        assert manifest.count("\nutt ") == 10

    def test_each_flag_defaults_to_its_experiment_field(self):
        _, registry = build_parser()
        defaults = ExperimentConfig()
        drift = [
            (command, dest, registry[command].get_default(dest), getattr(defaults, field))
            for command, fields in FLAG_FIELDS.items()
            for dest, field in {"seed": "seed", **fields}.items()
            if registry[command].get_default(dest) != getattr(defaults, field)
        ]
        assert drift == []
        table = {command: {flag[2:].replace("-", "_"): field for flag, field in flags.items()}
                 for command, flags in CONFIG_FLAGS.items()}
        assert table == FLAG_FIELDS

    def test_readme_flow_with_default_hyperparameters(self, tmp_path):
        data, vocab = str(tmp_path / "data"), str(tmp_path / "data" / "vocab.txt")
        steps = [
            ["gen-data", "--out-dir", data, "--n-train", "64", "--n-dev", "8", "--n-test", "8",
             "--n-adapt-text", "200", "--seed", "0"],
            ["train", "--data", f"{data}/source.train", "--vocab", vocab, "--model", "mhat", "--alpha", "0.1",
             "--d-f", "16", "--joint-dim", "8", "--label-dim", "16", "--blank-dim", "4",
             "--out-dir", str(tmp_path / "mhat")],
            ["train-lm", "--text", f"{data}/target.train.txt", "--vocab", vocab, "--embed-dim", "16",
             "--out-dir", str(tmp_path / "lm")],
            # every optimisation setting of ILMA at its default
            ["adapt", "--ckpt", str(tmp_path / "mhat" / "mhat.ckpt"), "--text", f"{data}/target.train.txt",
             "--rho", "0.5", "--out-dir", str(tmp_path / "adapt")],
            ["decode", "--ckpt", str(tmp_path / "adapt" / "mhat_ilma.ckpt"), "--data", f"{data}/target.test",
             "--fusion", "shallow", "--lm", str(tmp_path / "lm" / "extlm.ckpt"),
             "--lam-ext", "0.3", "--out-dir", str(tmp_path / "dec")],
            ["eval", "--ref", f"{data}/target.test", "--vocab", vocab, "--hyp", str(tmp_path / "dec" / "decodes.tsv"),
             "--out-dir", str(tmp_path / "dec")],
        ]
        for argv in steps:
            assert (argv[0], main(argv)) == (argv[0], 0)
        assert (tmp_path / "dec" / "eval.kv").exists()

    @pytest.mark.parametrize("line", ["epochs=abc", "model=mhta"])
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, line):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out-dir", str(data_dir), "--n-train", "4", "--n-dev", "2",
                     "--n-test", "2", "--n-adapt-text", "4"]) == 0
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        rc = main(["train", "--data", str(data_dir / "source.train"), "--vocab", str(data_dir / "vocab.txt"),
                   "--epochs", "1", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 1
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    def test_command_line_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_train=10\nn_dev=3\nn_test=3\nn_adapt_text=12\nbeam=3\nno_such_key=1\n")
        out = tmp_path / "out"
        assert main(["gen-data", "--n-train", "5", "--config", str(cfg), "--out-dir", str(out)]) == 0
        resolved = (out / "resolved-config.txt").read_text().splitlines()
        assert "n_train 5" in resolved and "n_dev 3" in resolved
        assert not any(line.startswith(("beam ", "no_such_key ")) for line in resolved)

    @pytest.mark.parametrize("last, why", [("train-00002\t2\tw2", "second record for utterance train-00002"),
                                           ("train-00009\t2\tw2", "utterance train-00009 is not in"),
                                           ("train-00003\t4\t?", "token id 4 out of range")])
    def test_eval_rejects_a_bad_hypothesis_file(self, tmp_path, capsys, last, why):
        vocab = Vocabulary.default(4)
        dat.write_vocab(vocab, str(tmp_path / "vocab.txt"))
        items = tuple(dat.Utterance(f"train-0000{i}", np.zeros((2, 3)), y) for i, y in [(1, (0, 1)), (2, (2,)), (3, (3,))])
        dat.write_corpus(dat.Corpus("train", 0, vocab, items), str(tmp_path / "ref"))
        hyp, out = tmp_path / "hyp.tsv", tmp_path / "out"
        args = ["eval", "--ref", str(tmp_path / "ref"), "--vocab", str(tmp_path / "vocab.txt"), "--hyp", str(hyp),
                "--out-dir", str(out)]

        def run(record):
            lines = ["train-00001\t0 1\tw0 w1", "train-00002\t2\tw2", record]
            hyp.write_text("".join(line + "\t0.0\t0.0\t0.0\n" for line in lines))
            return main(args)

        assert run("train-00003\t3\tw3") == 0
        (out / "eval.kv").unlink()
        capsys.readouterr()
        assert run(last) == 2
        assert why in capsys.readouterr().err
        assert not (out / "eval.kv").exists()

    @pytest.mark.parametrize("record, why", [("train-00002\t1 x\tw1 ?\t0.0\t0.0\t0.0", "token ids '1 x'"),
                                             ("train-00002\t2\tw2\t0.0\t0.0", "'train-00002\\t2")],
                             ids=["bad token id", "five columns"])
    def test_eval_names_the_line_of_a_malformed_record(self, tmp_path, capsys, record, why):
        # the message used to name neither the file nor the line
        vocab = Vocabulary.default(4)
        dat.write_vocab(vocab, str(tmp_path / "vocab.txt"))
        items = tuple(dat.Utterance(f"train-0000{i}", np.zeros((2, 3)), (i,)) for i in (1, 2))
        dat.write_corpus(dat.Corpus("train", 0, vocab, items), str(tmp_path / "ref"))
        hyp, out = tmp_path / "hyp.tsv", tmp_path / "out"
        hyp.write_text("train-00001\t1\tw1\t0.0\t0.0\t0.0\n" + record + "\n")
        assert main(["eval", "--ref", str(tmp_path / "ref"), "--vocab", str(tmp_path / "vocab.txt"),
                     "--hyp", str(hyp), "--out-dir", str(out)]) == 2
        assert f"error: {hyp}:2: malformed decode record: {why}" in capsys.readouterr().err
        assert not (out / "eval.kv").exists()

    def test_eval_rejects_a_hypothesis_file_that_is_not_utf8(self, tmp_path, capsys):
        # used to fail with UnicodeDecodeError, naming no file
        vocab = Vocabulary.default(4)
        dat.write_vocab(vocab, str(tmp_path / "vocab.txt"))
        items = (dat.Utterance("train-00001", np.zeros((2, 3)), (0, 1)),)
        dat.write_corpus(dat.Corpus("train", 0, vocab, items), str(tmp_path / "ref"))
        hyp, out = tmp_path / "hyp.tsv", tmp_path / "out"
        hyp.write_bytes("train-00001\t0 1\tw0 w1\u00e9\t0.0\t0.0\t0.0\n".encode("latin-1"))
        assert main(["eval", "--ref", str(tmp_path / "ref"), "--vocab", str(tmp_path / "vocab.txt"),
                     "--hyp", str(hyp), "--out-dir", str(out)]) == 2
        assert f"error: {hyp}: not a decodes file (not UTF-8 text)" in capsys.readouterr().err
        assert not (out / "eval.kv").exists()

    def test_eval_with_no_reference_token_writes_no_report(self, tmp_path, capsys):
        vocab = Vocabulary.default(4)
        dat.write_vocab(vocab, str(tmp_path / "vocab.txt"))
        items = tuple(dat.Utterance(f"train-0000{i}", np.zeros((2, 3)), ()) for i in (1, 2))
        dat.write_corpus(dat.Corpus("train", 0, vocab, items), str(tmp_path / "ref"))
        hyp, out = tmp_path / "hyp.tsv", tmp_path / "out"
        hyp.write_text("train-00001\t\t\t0.0\t0.0\t0.0\ntrain-00002\t1\tw1\t0.0\t0.0\t0.0\n")
        assert main(["eval", "--ref", str(tmp_path / "ref"), "--vocab", str(tmp_path / "vocab.txt"),
                     "--hyp", str(hyp), "--out-dir", str(out)]) == 2
        assert "at least one reference token" in capsys.readouterr().err
        assert not (out / "eval.kv").exists()

    def test_jobs_is_not_an_option(self, tmp_path):
        assert main(["decode", "--ckpt", "x", "--data", "y", "--jobs", "2",
                     "--out-dir", str(tmp_path)]) == 1
        assert main(["experiment", "--jobs", "2", "--out-dir", str(tmp_path)]) == 1

    def test_read_kv_config_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("just words\n")
        with pytest.raises(Exception):
            read_kv_config(str(p))
