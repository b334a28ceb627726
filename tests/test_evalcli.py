import pytest

from mhat import data as dat
from mhat.evalcli import (
    EvalReport,
    ExperimentConfig,
    METHODS,
    evaluate_pairs,
    main,
    read_kv_config,
    run_experiment,
    train_asr_model,
    wer_counts,
)


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

    def test_corpus_pooling_not_mean_of_rates(self):
        rep = evaluate_pairs([([0], [1]), ([0] * 9, [0] * 9)])
        # pooled: 1 edit over 10 ref tokens, not mean(100%, 0%)
        assert rep.wer == pytest.approx(10.0)
        assert rep.n_utts == 2 and rep.ref_tokens == 10


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


class TestParallelDecode:
    def test_jobs_match_sequential(self):
        from mhat.decode import FusionConfig
        from mhat.evalcli import build_mhat, decode_corpus, make_experiment_data
        from mhat.extlm import ExternalLm

        cfg = tiny_config()
        exp = make_experiment_data(cfg)
        model = build_mhat(cfg, exp.vocab)
        lm = ExternalLm(exp.vocab, embed_dim=8, seed=1)
        fusion = FusionConfig(mode="shallow", lam_ext=0.3, lm=lm)
        seq = decode_corpus(model, exp.src_test, beam=2, fusion=fusion, jobs=1)
        par = decode_corpus(model, exp.src_test, beam=2, fusion=fusion, jobs=2)
        assert seq == par


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["train"]) == 1  # missing required args
        assert main(["no-such-command"]) == 1

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
             "--vocab", str(data_dir / "vocab.txt"), "--steps", "5",
             "--heldout-target", str(data_dir / "target.dev.txt"),
             "--out-dir", str(adapt_dir)]
        )
        assert rc == 0
        assert (adapt_dir / "mhat_ilma.ckpt").exists()
        assert (adapt_dir / "ilma_report.kv").exists()

        dec_dir = tmp_path / "dec"
        rc = main(
            ["decode", "--ckpt", str(adapt_dir / "mhat_ilma.ckpt"), "--data",
             str(data_dir / "target.test"), "--vocab", str(data_dir / "vocab.txt"),
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

    def test_decode_fusion_requires_lm(self, tmp_path):
        rc = main(
            ["decode", "--ckpt", "x", "--data", "y", "--vocab", "z",
             "--fusion", "shallow", "--out-dir", str(tmp_path)]
        )
        assert rc == 2

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

    def test_read_kv_config_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("just words\n")
        with pytest.raises(Exception):
            read_kv_config(str(p))
