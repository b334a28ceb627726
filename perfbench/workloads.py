"""The three benchmark workloads: `train`, `decode` and `adapt`.

Each workload has a set-up (input generation, and for `decode` loading the
models built once per checkout), a unit of timed work made of two phases,
and output checks.  A unit is identical every time it runs on one seed, so
repeating it to fill the run length changes neither the input mix nor the
outputs.  Everything runs in this one process with `jobs=1`.

A unit is split into pieces, the pieces of its two phases alternate in
time, and each piece is timed by `timing.PieceClock`.  A piece's work is
its item count, except in `train` and `decode`, where it is the frames
trained or decoded: the corpora of one seed differ in length from those of
another, and lattice and beam-search time grow with frames.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from mhat import adapt as ad
from mhat import data as dat
from mhat import decode as dec
from mhat import evalcli as ev
from mhat import extlm as xl
from mhat import lattice as lat
from mhat import training as tr
from timing import PieceClock
from tracer import merge_trace

# -- sizes -------------------------------------------------------------------
TRAIN_BATCH = 32
TRAIN_SLICES = 20  # 2000 utterances in slices of 100, one train_asr call each
BRUTE_FORCE_UTTS = 8  # short utterances (T+U <= 12) checked against enumeration
BRUTE_FORCE_TOL = 1e-10
LOSS_RTOL = 1e-9  # recorded losses and perplexities

DECODE_TEST_UTTS = 200  # x 5 configs = 1000 latency samples in the matrix phase
DECODE_DEV_UTTS = 60  # x 10 lambda pairs in the grid phase
DECODE_ROUNDS = 10  # each: 20 test utterances x 5 configs, then a grid over 6 dev utterances
MATRIX_PIECE_UTTS = 4  # a matrix piece is 4 utterances x 5 configs
DECODE_TOL = 1e-9
OPERATING_POINT_WER = 50.0  # a 1-epoch model sits near 85 % target WER

ADAPT_ROUNDS = 10  # each: run_ilma from a fresh model, then a train_lm epoch on half the text
ILMA_STEPS = 25
LM_BATCH = 64

# the decode models: trained once per checkout from fixed seeds on the
# seed-0 experiment data, then loaded in every decode set-up
BUILD_SEED = 0
BUILD_ASR_EPOCHS = 2
BUILD_LM_EPOCHS = 3
DECODE_DATA_SEED = 1000  # offset so test/dev draws never repeat the training draws


@dataclass
class Checks:
    items: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.items if not c[1]]


@dataclass
class Phase:
    """Timed pieces of one phase of one unit."""

    pieces: list[tuple[float, float, int, int]] = field(default_factory=list)  # wall s, reference s, items, work
    ops: int = 0  # training steps, decodes, ILMA or LM steps
    latencies_ms: list[float] = field(default_factory=list)
    trace: tuple[dict, dict] | None = None  # (stats, counts) from the tracer

    def add(self, wall: float, ref: float, items: int, ops: int, tracer, work: int | None = None) -> None:
        self.pieces.append((wall, ref, items, items if work is None else work))
        self.ops += ops
        if tracer is not None:
            self.trace = merge_trace(self.trace, tracer.take())

    @property
    def items(self) -> int:
        return sum(p[2] for p in self.pieces)

def _quantiles(values) -> dict[str, float]:
    a = np.asarray(values, dtype=np.float64)
    q = np.quantile(a, [0.0, 0.5, 0.9, 0.99, 1.0])
    return {"n": int(a.size), "mean": float(a.mean()), "min": float(q[0]), "p50": float(q[1]),
            "p90": float(q[2]), "p99": float(q[3]), "max": float(q[4])}


def _steps(n_items: int, batch: int) -> int:
    return -(-n_items // batch)


def _chunks(items, n: int):
    size = -(-len(items) // n)
    return [items[i : i + size] for i in range(0, len(items), size)]


# -- train -------------------------------------------------------------------


class Train:
    """train_asr over the 2000-utterance source-train corpus, MHAT and HAT.

    Each slice of 100 utterances is one train_asr epoch (Adam, batch 32) of
    MHAT (alpha=0.1) and then of HAT, continuing the same two models.
    """

    name = "train"
    phases = ("mhat", "hat")
    names = ("train_mhat_utt_per_s", "train_hat_utt_per_s")

    def setup(self, seed: int):
        cfg = ev.ExperimentConfig(seed=seed, n_dev=0, n_test=0, n_adapt_text=0)
        exp = ev.make_experiment_data(cfg)
        return cfg, exp.vocab, exp.src_train.paired()

    def traffic(self, state) -> dict:
        _, _, pairs = state
        return {"utterances": len(pairs), "T": _quantiles([len(x) for x, _ in pairs]),
                "U": _quantiles([len(y) for _, y in pairs])}

    def unit(self, state, tracer):
        cfg, vocab, pairs = state
        runs = (("mhat", ev.build_mhat(cfg, vocab), cfg.alpha), ("hat", ev.build_hat(cfg, vocab), 0.0))
        phases = [Phase(), Phase()]
        losses: dict[str, list[float]] = {name: [] for name, _, _ in runs}
        clock = PieceClock()
        for piece in _chunks(pairs, TRAIN_SLICES):
            for phase, (name, model, alpha) in zip(phases, runs):
                tcfg = tr.TrainConfig(epochs=1, batch_size=TRAIN_BATCH, lr=cfg.lr, alpha=alpha, seed=cfg.seed)
                curve, wall, ref = clock.time(tr.train_asr, model, piece, tcfg)
                phase.add(wall, ref, len(piece), _steps(len(piece), TRAIN_BATCH), tracer,
                          work=sum(len(x) for x, _ in piece))
                losses[name].extend(curve)
        return phases, {"losses": losses, "models": {name: model for name, model, _ in runs}}

    def check(self, state, outputs, expected, checks: Checks) -> dict:
        _, _, pairs = state
        first = outputs[0]
        observed = {f"{name}_losses": first["losses"][name] for name in self.phases}
        for name in self.phases:
            curve = first["losses"][name]
            # a non-finite step loss makes that epoch's mean non-finite
            for k, out in enumerate(outputs):
                checks.add(f"{name}.losses_finite[{k}]", all(math.isfinite(v) for v in out["losses"][name]))
                if k:
                    checks.add(f"{name}.repeat_identical[{k}]", out["losses"][name] == curve)
            rec = expected.get(f"{name}_losses")
            if rec is not None:
                ok = len(rec) == len(curve) and all(abs(a - b) <= LOSS_RTOL * max(1.0, abs(b)) for a, b in zip(curve, rec))
                checks.add(f"{name}.losses_recorded", ok, f"final {curve[-1]!r} vs {rec[-1]!r}")
        short = [(x, y) for x, y in pairs if len(x) + len(y) <= lat.BRUTE_FORCE_LIMIT][:BRUTE_FORCE_UTTS]
        for name in self.phases:
            model = first["models"][name]
            for i, (x, y) in enumerate(short):
                with lat.nm.no_grad():
                    fwd = float(lat.forward_log_prob(model, x, y).data)
                brute = lat.brute_force_log_prob(model, x, y)
                checks.add(f"{name}.lattice_vs_enumeration[{i}]", abs(fwd - brute) <= BRUTE_FORCE_TOL,
                           f"T={len(x)} U={len(y)} diff={abs(fwd - brute):.3e}")
        return observed


# -- decode ------------------------------------------------------------------


def build_decode_models() -> dict:
    """Train MHAT, HAT and the external LM to a real operating point."""
    cfg = ev.ExperimentConfig(seed=BUILD_SEED, n_dev=0, n_test=0)
    exp = ev.make_experiment_data(cfg)
    pairs = exp.src_train.paired()
    mhat = ev.build_mhat(cfg, exp.vocab)
    tr.train_asr(mhat, pairs, tr.TrainConfig(epochs=BUILD_ASR_EPOCHS, batch_size=cfg.batch_size, lr=cfg.lr,
                                             alpha=cfg.alpha, seed=cfg.seed))
    hat = ev.build_hat(cfg, exp.vocab)
    tr.train_asr(hat, pairs, tr.TrainConfig(epochs=BUILD_ASR_EPOCHS, batch_size=cfg.batch_size, lr=cfg.lr,
                                            seed=cfg.seed))
    lm, _ = xl.train_lm(exp.tgt_text, xl.LmTrainConfig(epochs=BUILD_LM_EPOCHS, lr=cfg.lm_lr, batch_size=cfg.lm_batch,
                                                       embed_dim=cfg.label_dim, seed=cfg.seed))
    return {"mhat": mhat, "hat": hat, "lm": lm}


def _matrix_configs(models, cfg):
    lm = models["lm"]
    le, li = cfg.lam_ext_grid[2], cfg.lam_ilm_grid[1]  # 0.4, 0.2
    return (
        ("mhat_none", models["mhat"], dec.NO_FUSION),
        ("mhat_shallow", models["mhat"], dec.FusionConfig("shallow", le, 0.0, lm)),
        ("mhat_ilme", models["mhat"], dec.FusionConfig("ilme_subtract", le, li, lm)),
        ("hat_none", models["hat"], dec.NO_FUSION),
        ("hat_ilme", models["hat"], dec.FusionConfig("ilme_subtract", le, li, lm)),
    )


def _grid_pairs(cfg) -> int:
    # grid_search_lambdas skips lam_ext = 0 with lam_ilm > 0
    return 1 + sum(1 for le in cfg.lam_ext_grid if le > 0) * len(cfg.lam_ilm_grid)


class Decode:
    """Beam-4 fusion decoding: a five-config matrix and a lambda grid."""

    name = "decode"
    phases = ("matrix", "grid")
    names = ("decode_utt_per_s", "grid_utt_per_s")

    def __init__(self, load_models):
        self.load_models = load_models

    def setup(self, seed: int):
        cfg = ev.ExperimentConfig(seed=BUILD_SEED, n_train=0, n_dev=0, n_test=0, n_adapt_text=0)
        target = ev.make_experiment_data(cfg).target
        test = dat.gen_corpus(target, DECODE_DATA_SEED + seed, DECODE_TEST_UTTS, "test")
        dev = dat.gen_corpus(target, DECODE_DATA_SEED + seed, DECODE_DEV_UTTS, "dev")
        return cfg, self.load_models(), test, dev

    def traffic(self, state) -> dict:
        _, _, test, dev = state
        return {name: {"utterances": len(corpus.items), "T": _quantiles([len(it.features) for it in corpus.items]),
                       "U": _quantiles([len(it.tokens) for it in corpus.items])}
                for name, corpus in (("test", test), ("dev", dev))}

    def unit(self, state, tracer):
        cfg, models, test, dev = state
        configs = _matrix_configs(models, cfg)
        matrix, grid = Phase(), Phase()
        hyps: dict[str, list] = {name: [] for name, _, _ in configs}
        best = []
        pairs = _grid_pairs(cfg)

        def decode_piece(items):
            for it in items:
                for name, model, fusion in configs:
                    start = time.perf_counter()
                    hyps[name].append(dec.beam_search(model, it.features, cfg.beam, fusion)[0])
                    matrix.latencies_ms.append(1e3 * (time.perf_counter() - start))

        clock = PieceClock()
        for block, dev_items in zip(_chunks(test.items, DECODE_ROUNDS), _chunks(dev.items, DECODE_ROUNDS)):
            for piece in _chunks(block, len(block) // MATRIX_PIECE_UTTS):
                _, wall, ref = clock.time(decode_piece, piece)
                n = len(piece) * len(configs)
                matrix.add(wall, ref, n, n, tracer, work=len(configs) * sum(len(it.features) for it in piece))
            sub = dat.Corpus(dev.split, dev.seed, dev.vocab, tuple(dev_items))
            lams, wall, ref = clock.time(ev.grid_search_lambdas, models["mhat"], models["lm"], sub, "ilme_subtract",
                                         cfg, log=lambda msg: None)
            best.append(list(lams))
            n = pairs * len(dev_items)
            grid.add(wall, ref, n, n, tracer, work=pairs * sum(len(it.features) for it in dev_items))
        return [matrix, grid], {"matrix": hyps, "grid_best": best}

    def check(self, state, outputs, expected, checks: Checks) -> dict:
        cfg, models, test, _ = state
        first = outputs[0]
        observed = {"wer": {}, "grid_best": first["grid_best"]}
        for name, model, fusion in _matrix_configs(models, cfg):
            report = ev.EvalReport()
            for it, hyp in zip(test.items, first["matrix"][name]):
                report.add(it.tokens, hyp.tokens)
                ext = fusion.lm.sentence_log_prob(hyp.tokens) if fusion.lm is not None else 0.0
                ilm = dec.ilm_sequence_log_prob(model, hyp.tokens)
                combined = hyp.model_lp + fusion.lam_ext * hyp.ext_lp - fusion.effective_lam_ilm * hyp.ilm_lp
                checks.add(f"{name}.score_components[{it.uid}]",
                           abs(hyp.ext_lp - ext) <= DECODE_TOL and abs(hyp.ilm_lp - ilm) <= DECODE_TOL
                           and abs(hyp.combined - combined) <= DECODE_TOL)
            counts = [report.subs, report.ins, report.dels, report.ref_tokens]
            observed["wer"][name] = counts
            rec = expected.get("wer", {}).get(name)
            if rec is not None:
                checks.add(f"{name}.wer_recorded", counts == rec, f"{counts} vs {rec}")
            for k, out in enumerate(outputs[1:], 1):
                checks.add(f"{name}.repeat_identical[{k}]", out["matrix"][name] == first["matrix"][name])
            if name == "mhat_none":
                checks.add("operating_point", report.wer < OPERATING_POINT_WER, f"target WER {report.wer:.2f}")
        rec = expected.get("grid_best")
        if rec is not None:
            checks.add("grid.best_recorded", first["grid_best"] == rec, f"{first['grid_best']} vs {rec}")
        for k, out in enumerate(outputs[1:], 1):
            checks.add(f"grid.repeat_identical[{k}]", out["grid_best"] == first["grid_best"])
        return observed


# -- adapt -------------------------------------------------------------------

FROZEN_GROUPS = ("encoder", "blank_branch")


class Adapt:
    """Text-only paths: run_ilma from a fresh MHAT, then a train_lm epoch.

    The LM epochs alternate between the two halves of the 5000-sentence
    target text, so one unit trains five epochs' worth in ten pieces.
    """

    name = "adapt"
    phases = ("ilma", "lm")
    names = ("ilma_steps_per_s", "lm_train_sent_per_s")

    def setup(self, seed: int):
        cfg = ev.ExperimentConfig(seed=seed, n_train=0, n_test=0)
        return cfg, ev.make_experiment_data(cfg)

    def traffic(self, state) -> dict:
        _, exp = state
        text = exp.tgt_text.transcripts()
        return {"sentences": len(text), "U": _quantiles([len(y) for y in text]),
                "heldout_sentences": len(exp.src_dev.items) + len(exp.tgt_dev.items)}

    def unit(self, state, tracer):
        cfg, exp = state
        icfg = ad.IlmaConfig(rho=cfg.rho, steps=ILMA_STEPS, lr=cfg.ilma_lr, batch_size=cfg.ilma_batch, seed=cfg.seed)
        lcfg = xl.LmTrainConfig(epochs=1, lr=cfg.lm_lr, batch_size=LM_BATCH, embed_dim=cfg.label_dim, seed=cfg.seed)
        text = exp.tgt_text
        halves = [dat.Corpus(text.split, text.seed, text.vocab, part) for part in _chunks(text.items, 2)]
        ilma, lm = Phase(), Phase()
        rounds = []
        clock = PieceClock()
        for k in range(ADAPT_ROUNDS):
            model = ev.build_mhat(cfg, exp.vocab)
            frozen_before = [model.params.checksum([g]) for g in FROZEN_GROUPS]
            with warnings.catch_warnings():
                # a fresh model has no internal-LM training; per-step cost does not depend on it
                warnings.filterwarnings("ignore", message="adapting a model trained without")
                report, wall, ref = clock.time(ad.run_ilma, model, text, icfg,
                                               heldout_source=exp.src_dev.transcripts(),
                                               heldout_target=exp.tgt_dev.transcripts())
            ilma.add(wall, ref, ILMA_STEPS, ILMA_STEPS, tracer)
            frozen_after = [model.params.checksum([g]) for g in FROZEN_GROUPS]
            half = halves[k % 2]
            (_, lm_ppl), wall, ref = clock.time(xl.train_lm, half, lcfg)
            lm.add(wall, ref, len(half.items), _steps(len(half.items), LM_BATCH), tracer)
            rounds.append({"report": report, "frozen": (frozen_before, frozen_after), "lm_ppl": lm_ppl})
        return [ilma, lm], rounds

    def check(self, state, outputs, expected, checks: Checks) -> dict:
        rounds = [r for out in outputs for r in out]
        rep = rounds[0]["report"]
        observed = {"ilma_target_ppl_before": rep.target_ppl_before, "ilma_target_ppl_after": rep.target_ppl_after,
                    "ilma_source_ppl_after": rep.source_ppl_after, "lm_ppl": rounds[0]["lm_ppl"],
                    "lm_ppl_second_half": rounds[1]["lm_ppl"]}
        for k, r in enumerate(rounds):
            before, after = r["frozen"]
            for g, b, a in zip(FROZEN_GROUPS, before, after):
                checks.add(f"ilma.{g}_unchanged[{k}]", a == b)
            if k:
                same = (r["report"].loss_curve, r["report"].target_ppl_after, r["report"].source_ppl_after)
                checks.add(f"ilma.repeat_identical[{k}]", same == (rep.loss_curve, rep.target_ppl_after,
                                                                  rep.source_ppl_after))
                checks.add(f"lm.repeat_identical[{k}]", r["lm_ppl"] == rounds[k % 2]["lm_ppl"])
        checks.add("ilma.target_ppl_falls", rep.target_ppl_after < rep.target_ppl_before,
                   f"{rep.target_ppl_before:.3f} -> {rep.target_ppl_after:.3f}")
        checks.add("ilma.losses_finite", all(math.isfinite(v) for v in rep.loss_curve))
        checks.add("lm.ppl_finite", all(math.isfinite(r["lm_ppl"]) for r in rounds), f"{rounds[0]['lm_ppl']!r}")
        for key, val in observed.items():
            rec = expected.get(key)
            if rec is not None:
                checks.add(f"{key}_recorded", abs(val - rec) <= LOSS_RTOL * max(1.0, abs(rec)), f"{val!r} vs {rec!r}")
        return observed
