"""Acceptance suite: one pass/fail line per criterion.

Heavy end-to-end checks (criteria 6-9) share one session-scoped pipeline
run at the standard acceptance configuration; run with `-s` to watch the
stage logs and the per-criterion lines stream.
"""

import copy
import itertools
import json
import os
import sys
import time

import numpy as np
import pytest

from conftest import small_hat, small_mhat
from digests import blas_key, pipeline_digests
from mhat.adapt import IlmaConfig, ilma_loss, run_ilma
from mhat.data import Corpus, Utterance
from mhat.decode import FusionConfig, NO_FUSION, beam_search, score_sequence
from mhat.evalcli import (
    ExperimentConfig,
    MATRIX_ROWS,
    METHODS,
    build_mhat,
    decode_corpus,
    evaluate_decodes,
    run_experiment,
)
from mhat.extlm import ExternalLm, LmTrainConfig, lm_perplexity, train_lm
from mhat.lattice import brute_force_log_prob, forward_log_prob, hat_loss
from mhat.losses import ilm_loss, mhat_loss, perplexity
from mhat.model import Vocabulary
from mhat.numerics import gradient_check
from mhat.training import TrainConfig, train_asr


def criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


def text_corpus(vocab, seqs):
    items = tuple(
        Utterance(uid=f"u{i}", features=None, tokens=tuple(s)) for i, s in enumerate(seqs)
    )
    return Corpus(split="train", seed=0, vocab=vocab, items=items)


# -- 1: lattice oracle equivalence ------------------------------------------


def test_criterion_1_lattice_oracle():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        v = int(rng.choice([2, 3, 5]))
        make = small_mhat if trial % 2 == 0 else small_hat
        model = make(vocab_size=v, seed=int(rng.integers(100000)))
        t_len = int(rng.integers(1, 5))
        u_len = int(rng.integers(0, 4))
        X = rng.standard_normal((t_len, 3))
        y = [int(i) for i in rng.integers(0, v, size=u_len)]
        fwd = float(forward_log_prob(model, X, y).data)
        ora = brute_force_log_prob(model, X, y)
        worst = max(worst, abs(fwd - ora) / max(1.0, abs(ora)))
    elapsed = time.monotonic() - start
    criterion(
        1,
        "forward matches enumeration on 200 instances within 1e-10 relative, <10s",
        worst <= 1e-10 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- 2: gradient certification ----------------------------------------------


def test_criterion_2_gradient_certification():
    rng = np.random.default_rng(2002)
    start = time.monotonic()
    results = {}

    model = small_mhat(vocab_size=4, seed=3)
    hat = small_hat(vocab_size=4, seed=3)
    batch = [
        (rng.standard_normal((3, 3)), [1, 2]),
        (rng.standard_normal((2, 3)), [0]),
    ]
    transcripts = [[1, 2, 0], [3, 1]]
    teacher = small_mhat(vocab_size=4, seed=11)  # generic (non-stationary) point

    results["hat_loss"] = gradient_check(
        lambda p: hat_loss(hat, batch), hat.params, h=1e-4, num_coords=200, rng=rng
    )
    results["mhat_loss(a=0.1)"] = gradient_check(
        lambda p: mhat_loss(model, batch, 0.1),
        model.params, h=1e-4, num_coords=200, rng=rng,
    )
    results["ilm_loss"] = gradient_check(
        lambda p: ilm_loss(model, transcripts), model.params, h=1e-4, num_coords=200, rng=rng
    )
    for rho in (0.0, 0.5, 1.0):
        results[f"ilma_loss(rho={rho})"] = gradient_check(
            lambda p, r=rho: ilma_loss(model, teacher, transcripts, r),
            model.params, h=1e-4, num_coords=200, rng=rng,
        )
    elapsed = time.monotonic() - start
    worst = max(results.values())
    criterion(
        2,
        "all losses pass finite-difference check at 1e-4 (>=200 coords each), <60s",
        worst <= 1e-4 and elapsed < 60.0,
        ", ".join(f"{k} {v:.1e}" for k, v in results.items()) + f"; {elapsed:.1f}s",
    )


# -- 3: structural freeze under adaptation -----------------------------------


def test_criterion_3_structural_freeze():
    rng = np.random.default_rng(3003)
    cfg = ExperimentConfig(n_train=60, n_dev=10, n_test=10, n_adapt_text=80, epochs=2)
    from mhat.evalcli import make_experiment_data

    exp = make_experiment_data(cfg)
    model = build_mhat(cfg, exp.vocab)
    train_asr(model, exp.src_train.paired(), TrainConfig(epochs=2, lr=cfg.lr, alpha=0.1, seed=0))

    probes = [(rng.standard_normal(cfg.d_f), [int(i) for i in rng.integers(0, 16, size=k)]) for k in (0, 1, 2, 3)]
    before = [
        (
            model.blank_posterior(f, model.decode_blank(p)),
            model.am_log_probs(f).data.copy(),
        )
        for f, p in probes
    ]
    enc_sum = model.params.checksum(["encoder"])
    blank_sum = model.params.checksum(["blank_branch"])

    run_ilma(model, exp.tgt_text, IlmaConfig(steps=80, lr=1e-3, seed=0))

    bit_identical = all(
        model.blank_posterior(f, model.decode_blank(p)) == b0
        and np.array_equal(model.am_log_probs(f).data, a0)
        for (f, p), (b0, a0) in zip(probes, before)
    )
    checksums_ok = (
        model.params.checksum(["encoder"]) == enc_sum
        and model.params.checksum(["blank_branch"]) == blank_sum
    )
    criterion(
        3,
        "blank and acoustic outputs bit-identical after adaptation; frozen-group checksums unchanged",
        bit_identical and checksums_ok,
    )


# -- 4: degenerate equivalences ----------------------------------------------


def test_criterion_4_degenerate_equivalences():
    rng = np.random.default_rng(4004)
    model = small_mhat(vocab_size=4, seed=5)
    batch = [(rng.standard_normal((3, 3)), [1, 0]), (rng.standard_normal((2, 3)), [2])]
    transcripts = [y for _, y in batch]

    a = float(mhat_loss(model, batch, 0.0).data)
    b = float(hat_loss(model, batch).data)
    alpha_ok = a == b

    teacher = copy.deepcopy(model)
    r0 = float(ilma_loss(model, teacher, transcripts, 0.0).data)
    r0_ref = float(ilm_loss(model, transcripts).data)
    rho_zero_ok = r0 == r0_ref

    lm = ExternalLm(model.vocab, embed_dim=8, seed=6)
    X = rng.standard_normal((3, 3))
    plain = beam_search(model, X, beam_width=8)
    fused = beam_search(
        model, X, beam_width=8,
        fusion=FusionConfig(mode="ilme_subtract", lam_ext=0.0, lam_ilm=0.0, lm=lm),
    )
    fusion_ok = [r.tokens for r in plain] == [r.tokens for r in fused] and abs(
        plain[0].combined - fused[0].combined
    ) <= 1e-12

    loss = ilma_loss(model, teacher, transcripts, 1.0)
    model.params.zero_grads()
    loss.backward()
    gnorm = float(
        np.sqrt(
            sum(
                float(np.sum(t.grad**2))
                for t in model.params.entries.values()
                if t.grad is not None
            )
        )
    )
    stationary_ok = gnorm <= 1e-6

    criterion(
        4,
        "alpha=0 loss, rho=0 loss, and zero-weight fusion collapse to their bases; rho=1 is stationary",
        alpha_ok and rho_zero_ok and fusion_ok and stationary_ok,
        f"rho=1 grad norm {gnorm:.1e}",
    )


# -- 5: beam vs exhaustive -----------------------------------------------------


def test_criterion_5_beam_vs_exhaustive():
    rng = np.random.default_rng(5005)
    mismatches = 0
    for trial in range(100):
        make = small_mhat if trial % 2 == 0 else small_hat
        model = make(vocab_size=3, seed=int(rng.integers(100000)))
        lm = ExternalLm(model.vocab, embed_dim=6, seed=int(rng.integers(100000)))
        t_len = int(rng.integers(1, 4))
        X = rng.standard_normal((t_len, 3))

        probe = FusionConfig(mode="ilme_subtract", lam_ext=0.0, lam_ilm=0.0, lm=lm)
        breakdowns = {}
        for u in range(5):
            for y in itertools.product(range(3), repeat=u):
                breakdowns[y] = score_sequence(model, X, y, probe)

        fusions = {
            "none": NO_FUSION,
            "shallow": FusionConfig(mode="shallow", lam_ext=0.3, lm=lm),
            "ilme_subtract": FusionConfig(mode="ilme_subtract", lam_ext=0.3, lam_ilm=0.2, lm=lm),
        }
        for fusion in fusions.values():
            best = min(
                (
                    (-(r.model_lp + fusion.lam_ext * r.ext_lp
                       - fusion.effective_lam_ilm * r.ilm_lp), len(y), y)
                    for y, r in breakdowns.items()
                ),
            )[2]
            top = beam_search(model, X, beam_width=128, fusion=fusion)[0].tokens
            if top != best:
                mismatches += 1
    criterion(
        5,
        "saturating beam equals exhaustive argmax on 100 tiny instances under all three fusion modes",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


# -- 6..9: the seeded end-to-end experiment -----------------------------------


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_run")


@pytest.fixture(scope="session")
def pipeline(pipeline_dir):
    cfg = ExperimentConfig()  # the standard acceptance configuration
    result = run_experiment(cfg, out_dir=str(pipeline_dir), log=lambda m: print("  " + m, file=sys.stderr))
    return cfg, result


def test_pipeline_outputs_unchanged(pipeline, pipeline_dir):
    """Every file of the standard run against `pipeline_digests.json`, recorded from an earlier commit's run:
    the kernel-independent parts on every machine, all bytes only under the recorded BLAS key."""
    with open(os.path.join(os.path.dirname(__file__), "pipeline_digests.json")) as f:
        want = json.load(f)
    got = pipeline_digests(str(pipeline_dir))
    assert changed_paths(got["every_machine"], want["every_machine"]) == []
    key = blas_key()
    if key not in want["full"]:
        pytest.skip(f"kernel-independent outputs match; full bytes not compared: no digests recorded for {key}")
    assert changed_paths(got["full"], want["full"][key]) == []


def changed_paths(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The paths whose digest differs, is missing or is extra, sorted."""
    return sorted(path for path in got.keys() | want.keys() if got.get(path) != want.get(path))


def test_report_ilm_perplexities_are_the_unadapted_ones(pipeline):
    # the report takes them from ILMA's measurement of its unadapted copy
    _, result = pipeline
    exp = result.data
    assert result.ilm_source_ppl == perplexity(result.models["mhat"], exp.src_dev.transcripts())
    assert result.ilm_target_ppl == perplexity(result.models["mhat"], exp.tgt_dev.transcripts())


# Bound from the measured spread: over all 2,400 best hypotheses of the
# seed-0 pipeline, ext_lp and ilm_lp within 7.0e-16 relative and model_lp
# above the marginal by 3.9e-14 relative at most; 5.4e-16 and 2.2e-15 on
# the 40 utterances below.
BEAM_RTOL = 1e-12


def test_beam_invariants_on_the_pipeline_decodes(pipeline):
    """Each method's best hypothesis on the first target-test utterances,
    rescored by `score_sequence`: the beam's LM components are the exact
    ones, and its model_lp, a sum over the alignments it kept, does not
    exceed the lattice marginal."""
    cfg, result = pipeline
    items = result.data.tgt_test.items[:40]
    for key, _, fused, mode in MATRIX_ROWS:
        model = result.models[key]
        fusions = [NO_FUSION, FusionConfig(mode, *result.best_lambdas[fused], result.models["lm"])]
        decoded = beam_search(model, [it.features for it in items], cfg.beam, fusions)
        for it, per_fusion in zip(items, decoded):
            for fusion, ranked in zip(fusions, per_fusion):
                got, want = ranked[0], score_sequence(model, it.features, ranked[0].tokens, fusion)
                np.testing.assert_allclose([got.ext_lp, got.ilm_lp], [want.ext_lp, want.ilm_lp],
                                           rtol=BEAM_RTOL, atol=0)
                assert got.model_lp <= want.model_lp + BEAM_RTOL * abs(want.model_lp), (key, it.uid, fusion.mode)


@pytest.fixture(scope="session")
def alpha_zero_twin(pipeline):
    cfg, result = pipeline
    exp = result.data
    start = time.monotonic()
    twin = build_mhat(cfg, exp.vocab)
    train_asr(
        twin, exp.src_train.paired(),
        TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, alpha=0.0, seed=cfg.seed),
    )
    decoded = decode_corpus(twin, exp.src_test, cfg.beam)
    wer0 = evaluate_decodes(exp.src_test, {u: r.tokens for u, r in decoded}).wer
    ppl0 = perplexity(twin, exp.src_dev.transcripts())
    elapsed = time.monotonic() - start
    return {"wer": wer0, "ppl": ppl0, "elapsed": elapsed}


def test_criterion_6_ilm_loss_effect(pipeline, alpha_zero_twin):
    cfg, result = pipeline
    ppl1 = result.ilm_source_ppl
    ppl0 = alpha_zero_twin["ppl"]
    wer1 = result.wer["MHAT"]["source"]
    wer0 = alpha_zero_twin["wer"]
    rel_wer_gap = abs(wer1 - wer0) / wer0
    # runtime: both trainings plus the twin's decode and scoring
    runtime = result.durations["train-mhat"] + alpha_zero_twin["elapsed"]
    criterion(
        6,
        "alpha=0.1 cuts held-out source internal-LM perplexity >=25% vs alpha=0 "
        "with source WER within 10% relative, <15min",
        ppl1 <= 0.75 * ppl0 and rel_wer_gap <= 0.10 and runtime < 900,
        f"ppl {ppl0:.2f}->{ppl1:.2f} ({(1 - ppl1 / ppl0) * 100:.1f}% lower), "
        f"WER {wer0:.2f} vs {wer1:.2f} ({rel_wer_gap * 100:.1f}% rel), {runtime:.0f}s",
    )


@pytest.fixture(scope="session")
def extra_seed_reports(pipeline):
    cfg_base, _ = pipeline
    rows = []
    for seed in (cfg_base.seed + 1, cfg_base.seed + 2):
        cfg = ExperimentConfig(seed=seed)
        from mhat.evalcli import make_experiment_data

        exp = make_experiment_data(cfg)
        model = build_mhat(cfg, exp.vocab)
        train_asr(
            model, exp.src_train.paired(),
            TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
                        alpha=cfg.alpha, seed=seed),
        )
        before_tgt = evaluate_decodes(
            exp.tgt_test, {u: r.tokens for u, r in decode_corpus(model, exp.tgt_test, cfg.beam)}
        ).wer
        before_src = evaluate_decodes(
            exp.src_test, {u: r.tokens for u, r in decode_corpus(model, exp.src_test, cfg.beam)}
        ).wer
        adapted = copy.deepcopy(model)
        rep = run_ilma(
            adapted, exp.tgt_text,
            IlmaConfig(rho=cfg.rho, steps=cfg.ilma_steps, lr=cfg.ilma_lr,
                       batch_size=cfg.ilma_batch, seed=seed),
            heldout_source=exp.src_dev.transcripts(),
            heldout_target=exp.tgt_dev.transcripts(),
        )
        after_tgt = evaluate_decodes(
            exp.tgt_test, {u: r.tokens for u, r in decode_corpus(adapted, exp.tgt_test, cfg.beam)}
        ).wer
        after_src = evaluate_decodes(
            exp.src_test, {u: r.tokens for u, r in decode_corpus(adapted, exp.src_test, cfg.beam)}
        ).wer
        rows.append(
            {
                "seed": seed,
                "tgt_wer": (before_tgt, after_tgt),
                "src_wer": (before_src, after_src),
                "tgt_ppl": (rep.target_ppl_before, rep.target_ppl_after),
            }
        )
    return rows


def test_criterion_7_ilma_gains(pipeline, extra_seed_reports):
    cfg, result = pipeline
    tgt_before = result.wer["MHAT"]["target"]
    tgt_after = result.wer["MHAT+ILMA"]["target"]
    src_before = result.wer["MHAT"]["source"]
    src_after = result.wer["MHAT+ILMA"]["source"]
    rep = result.ilma_report
    wer_gain = (tgt_before - tgt_after) / tgt_before
    ppl_gain = (rep.target_ppl_before - rep.target_ppl_after) / rep.target_ppl_before
    src_deg = (src_after - src_before) / src_before

    print("criterion 7 report across seeds (seeded run asserted, others reported):")
    seed_rows = [
        {
            "seed": cfg.seed,
            "tgt_wer": (tgt_before, tgt_after),
            "src_wer": (src_before, src_after),
            "tgt_ppl": (rep.target_ppl_before, rep.target_ppl_after),
        }
    ] + extra_seed_reports
    for row in seed_rows:
        tb, ta = row["tgt_wer"]
        sb, sa = row["src_wer"]
        pb, pa = row["tgt_ppl"]
        print(
            f"  seed {row['seed']}: target WER {tb:.2f}->{ta:.2f} ({(tb - ta) / tb * 100:.1f}%), "
            f"source WER {sb:.2f}->{sa:.2f} ({(sa - sb) / sb * 100:+.1f}%), "
            f"target PPL {pb:.2f}->{pa:.2f} ({(pb - pa) / pb * 100:.1f}%)"
        )
    criterion(
        7,
        "ILMA(rho=0.5): target WER down >=10% rel, target ILM PPL down >=20% rel, "
        "source WER degraded <=5% rel",
        wer_gain >= 0.10 and ppl_gain >= 0.20 and src_deg <= 0.05,
        f"target WER -{wer_gain * 100:.1f}%, target PPL -{ppl_gain * 100:.1f}%, "
        f"source WER {src_deg * 100:+.1f}%",
    )


def test_criterion_8_fusion_complementarity(pipeline):
    _, result = pipeline
    ilma_lm = result.wer["MHAT+ILMA+LM"]["target"]
    ilma = result.wer["MHAT+ILMA"]["target"]
    ilme = result.wer["MHAT+LM"]["target"]
    criterion(
        8,
        "adapted-LM shallow fusion beats (or ties) both plain ILMA and "
        "ILME-subtracted fusion on target at the dev-tuned grid point",
        ilma_lm <= ilma and ilma_lm <= ilme,
        f"MHAT+ILMA+LM {ilma_lm:.2f} vs MHAT+ILMA {ilma:.2f} vs MHAT+LM {ilme:.2f}",
    )


def test_criterion_9_method_matrix_ordering(pipeline):
    _, result = pipeline
    t = {m: result.wer[m]["target"] for m in METHODS}
    print("criterion 9 matrix (HAT rows reported alongside):")
    for line in result.matrix_lines():
        print("  " + line)
    ordering_ok = (
        t["MHAT+ILMA+LM"] <= t["MHAT+ILMA"] <= t["MHAT"]
        and t["MHAT+ILMA+LM"] <= t["MHAT+LM"]
    )
    criterion(
        9,
        "target WER ordering MHAT+ILMA+LM <= MHAT+ILMA <= MHAT and MHAT+ILMA+LM <= MHAT+LM",
        ordering_ok,
        ", ".join(f"{m} {t[m]:.2f}" for m in METHODS),
    )


# -- 10: external LM sanity ----------------------------------------------------


def test_criterion_10_external_lm_sanity():
    vocab8 = Vocabulary.default(8)
    deterministic = text_corpus(vocab8, [list(range(8))] * 60)
    _, det_ppl = train_lm(deterministic, LmTrainConfig(embed_dim=16, epochs=80, lr=5e-3, seed=0))

    rng = np.random.default_rng(1010)
    uniform = text_corpus(
        vocab8, [[int(i) for i in rng.integers(0, 8, size=100)] for _ in range(200)]
    )
    lm, uni_ppl = train_lm(uniform, LmTrainConfig(embed_dim=16, epochs=40, lr=5e-3, seed=0))
    held = text_corpus(
        vocab8, [[int(i) for i in rng.integers(0, 8, size=100)] for _ in range(50)]
    )
    uni_held = lm_perplexity(lm, held.transcripts())
    criterion(
        10,
        "LM reaches PPL<1.1 on a deterministic-bigram corpus and within 5% of 8 on uniform text",
        det_ppl < 1.1 and abs(uni_held - 8.0) <= 0.4,
        f"deterministic {det_ppl:.3f}, uniform held-out {uni_held:.3f}",
    )
