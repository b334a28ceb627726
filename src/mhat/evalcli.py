"""WER metrics, the experiment pipeline, and the command-line surface.

Progress lines go to stderr; machine-readable outputs go to files, so
stdout stays clean for piping.  Exit codes: 0 success, 1 usage error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Sequence

from . import data as dat
from .adapt import AdaptReport, IlmaConfig, run_ilma
from .decode import (
    DecodeResult,
    FusionConfig,
    NO_FUSION,
    beam_search,
    format_record,
    parse_record,
)
from .extlm import LmTrainConfig, train_lm
from .model import ConfigError, EncoderConfig, HatModel, MhatModel, StructureError, VocabError, Vocabulary
from .training import TrainConfig, check_schedule, train_asr


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- word error rate -------------------------------------------------------


def wer_counts(ref: Sequence[int], hyp: Sequence[int]) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) of a minimum-edit alignment.

    One forward pass over the edit-distance table, a row at a time: each
    cell keeps (cost, subs, ins, dels) of the first move that reaches its
    minimum cost, in the order diagonal, deletion, insertion.  So ties
    prefer substitutions over insert+delete pairs, then deletions over
    insertions.
    """
    row = [(j, 0, j, 0) for j in range(len(hyp) + 1)]  # no reference yet: j insertions
    for i, r in enumerate(ref, start=1):
        up, row = row, [(i, 0, 0, i)]  # no hypothesis yet: i deletions
        for j, h in enumerate(hyp, start=1):
            cost, subs, ins, dels = up[j - 1]
            if r != h:
                cost, subs = cost + 1, subs + 1
            cost_del, cost_ins = up[j][0] + 1, row[j - 1][0] + 1
            if cost <= cost_del and cost <= cost_ins:
                row.append((cost, subs, ins, dels))
            elif cost_del <= cost_ins:
                _, subs, ins, dels = up[j]
                row.append((cost_del, subs, ins, dels + 1))
            else:
                _, subs, ins, dels = row[j - 1]
                row.append((cost_ins, subs, ins + 1, dels))
    return row[-1][1:]


@dataclass
class EvalReport:
    subs: int = 0
    ins: int = 0
    dels: int = 0
    n_utts: int = 0
    ref_tokens: int = 0

    def add(self, ref: Sequence[int], hyp: Sequence[int]) -> None:
        s, i, d = wer_counts(ref, hyp)
        self.subs += s
        self.ins += i
        self.dels += d
        self.n_utts += 1
        self.ref_tokens += len(ref)

    @property
    def wer(self) -> float:
        if self.ref_tokens == 0:
            raise ConfigError("WER requires at least one reference token")
        return 100.0 * (self.subs + self.ins + self.dels) / self.ref_tokens

    def kv_lines(self) -> list[str]:
        return [
            f"wer {self.wer!r}",
            f"substitutions {self.subs}",
            f"insertions {self.ins}",
            f"deletions {self.dels}",
            f"utterances {self.n_utts}",
            f"ref_tokens {self.ref_tokens}",
        ]


def evaluate_pairs(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> EvalReport:
    report = EvalReport()
    for ref, hyp in pairs:
        report.add(ref, hyp)
    return report


# -- corpus decoding ---------------------------------------------------------


def _decode_fusions(model, corpus: dat.Corpus, beam: int, fusions):
    """(uid, best result under each fusion config) per utterance, in corpus order.

    One lockstep search over every (utterance, config) pair of the corpus.
    The configs must share one external LM or use none.
    """
    if any(it.features is None for it in corpus.items):
        raise ConfigError("decoding requires a paired corpus with features")
    for it in corpus.items:
        if len(it.features) == 0:
            raise StructureError(f"utterance {it.uid} has no frames: no alignment exists for T=0")
    ranked = beam_search(model, [it.features for it in corpus.items], beam, fusions)
    return [(it.uid, [r[0] for r in lists]) for it, lists in zip(corpus.items, ranked)]


def decode_corpus(
    model, corpus: dat.Corpus, beam: int = 4, fusion: FusionConfig = NO_FUSION
) -> list[tuple[str, DecodeResult]]:
    """(uid, best result) of every utterance, in corpus order."""
    return [(uid, best[0]) for uid, best in _decode_fusions(model, corpus, beam, [fusion])]


def evaluate_decodes(corpus: dat.Corpus, hyps: dict[str, Sequence[int]]) -> EvalReport:
    for it in corpus.items:
        if it.uid not in hyps:
            raise ConfigError(f"no hypothesis for utterance {it.uid}")
    return evaluate_pairs([(it.tokens, hyps[it.uid]) for it in corpus.items])


# -- the experiment pipeline -------------------------------------------------

METHODS = ("HAT", "MHAT", "HAT+LM", "MHAT+LM", "MHAT+ILMA", "MHAT+ILMA+LM")


@dataclass
class ExperimentConfig:
    # data
    vocab_size: int = 16
    d_x: int = 8
    sigma: float = 0.3
    n_train: int = 2000
    n_dev: int = 200
    n_test: int = 200
    n_adapt_text: int = 5000
    # model dims
    d_f: int = 64
    enc_context: int = 1
    enc_layers: int = 2
    joint_dim: int = 32
    label_dim: int = 64
    blank_dim: int = 16
    hat_decoder_dim: int = 64
    # acoustic training
    epochs: int = 8
    batch_size: int = 32
    lr: float = 3e-3
    alpha: float = 0.1
    # external LM
    lm_epochs: int = 20
    lm_lr: float = 5e-3
    lm_batch: int = 64
    # adaptation
    rho: float = 0.5
    ilma_steps: int = 600
    ilma_lr: float = 1e-3
    ilma_batch: int = 32
    # decoding
    beam: int = 4
    lam_ext_grid: tuple[float, ...] = (0.0, 0.2, 0.4, 0.8)
    lam_ilm_grid: tuple[float, ...] = (0.0, 0.2, 0.4)
    seed: int = 0

    def __post_init__(self):
        # every training schedule, before any stage runs
        check_schedule(self.batch_size, self.lr, ("epochs", self.epochs), ("batch_size", "epochs", "lr"))
        check_schedule(self.lm_batch, self.lm_lr, ("epochs", self.lm_epochs), ("lm_batch", "lm_epochs", "lm_lr"))
        check_schedule(self.ilma_batch, self.ilma_lr, ("steps", self.ilma_steps),
                       ("ilma_batch", "ilma_steps", "ilma_lr"))
        # and the sizes, data settings, weights and search that only later stages would reject
        for name in ("d_x", "d_f", "enc_layers", "joint_dim", "label_dim", "blank_dim", "hat_decoder_dim"):
            if getattr(self, name) < 1:
                _bad_field(name, f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("enc_context", "n_train", "n_dev", "n_test", "n_adapt_text", "seed"):
            if getattr(self, name) < 0:
                _bad_field(name, f"{name} must be >= 0, got {getattr(self, name)}")
        if self.vocab_size < 2 or self.vocab_size % 2:  # the confusable pairs need an even vocabulary
            _bad_field("vocab_size", f"vocab_size must be even and >= 2, got {self.vocab_size}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            _bad_field("sigma", f"sigma must be finite and >= 0, got {self.sigma}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            _bad_field("alpha", f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 <= self.rho <= 1.0:
            _bad_field("rho", f"rho must lie in [0, 1], got {self.rho}")
        if self.beam < 1:
            _bad_field("beam", f"beam must be >= 1, got {self.beam}")
        for name in ("lam_ext_grid", "lam_ilm_grid"):
            grid = getattr(self, name)
            if not grid or not all(math.isfinite(lam) and lam >= 0 for lam in grid):
                _bad_field(name, f"{name} must be non-empty, finite and >= 0, got {grid!r}")
        if 0.0 not in self.lam_ilm_grid and not any(self.lam_ext_grid):
            # `lambda_grid_wers` skips lam_ext = 0 with lam_ilm > 0: no pair is left
            _bad_field("lam_ilm_grid", "lam_ilm_grid must hold 0.0 when lam_ext_grid holds only zeros")


def _bad_field(name: str, msg: str):
    raise ConfigError(f"{msg} (ExperimentConfig.{name})")


@dataclass
class ExperimentData:
    vocab: Vocabulary
    source: dat.DomainSpec
    target: dat.DomainSpec
    src_train: dat.Corpus
    src_dev: dat.Corpus
    src_test: dat.Corpus
    tgt_text: dat.Corpus
    tgt_dev: dat.Corpus
    tgt_test: dat.Corpus


@dataclass
class ExperimentResult:
    wer: dict[str, dict[str, float]]
    reports: dict[str, dict[str, EvalReport]]
    best_lambdas: dict[str, tuple[float, float]]
    ilma_report: AdaptReport
    lm_train_ppl: float
    ilm_source_ppl: float
    ilm_target_ppl: float
    models: dict[str, object] = field(default_factory=dict)
    data: ExperimentData | None = None
    durations: dict[str, float] = field(default_factory=dict)

    def matrix_lines(self) -> list[str]:
        lines = ["method\tsource_wer\ttarget_wer"]
        for method in METHODS:
            row = self.wer[method]
            lines.append(f"{method}\t{row['source']:.3f}\t{row['target']:.3f}")
        return lines


def make_experiment_data(cfg: ExperimentConfig) -> ExperimentData:
    vocab = Vocabulary.default(cfg.vocab_size)
    source, target = dat.confusable_pair_domains(vocab, cfg.d_x, seed=cfg.seed, noise_sigma=cfg.sigma)
    s = cfg.seed
    return ExperimentData(
        vocab=vocab,
        source=source,
        target=target,
        src_train=dat.gen_corpus(source, s + 1, cfg.n_train, "train"),
        src_dev=dat.gen_corpus(source, s + 2, cfg.n_dev, "dev"),
        src_test=dat.gen_corpus(source, s + 3, cfg.n_test, "test"),
        tgt_text=dat.gen_corpus(target, s + 20, cfg.n_adapt_text, "train", text_only=True),
        tgt_dev=dat.gen_corpus(target, s + 21, cfg.n_dev, "dev"),
        tgt_test=dat.gen_corpus(target, s + 22, cfg.n_test, "test"),
    )


def write_experiment_data(exp: ExperimentData, out: str) -> None:
    """The dataset files, for both `mhat gen-data` and the experiment's gen-data stage."""
    dat.write_vocab(exp.vocab, os.path.join(out, "vocab.txt"))
    paired = {"source.train": exp.src_train, "source.dev": exp.src_dev, "source.test": exp.src_test,
              "target.dev": exp.tgt_dev, "target.test": exp.tgt_test}
    for name, corpus in paired.items():
        dat.write_corpus(corpus, os.path.join(out, name))
    text = {"target.train.txt": exp.tgt_text, "source.dev.txt": exp.src_dev, "target.dev.txt": exp.tgt_dev}
    for name, corpus in text.items():
        dat.write_text_corpus(corpus, os.path.join(out, name))


def build_mhat(cfg: ExperimentConfig, vocab: Vocabulary) -> MhatModel:
    enc = EncoderConfig(d_x=cfg.d_x, context=cfg.enc_context, layers=cfg.enc_layers, d_f=cfg.d_f)
    return MhatModel(
        vocab, enc, label_dim=cfg.label_dim, blank_dim=cfg.blank_dim,
        joint_dim=cfg.joint_dim, seed=cfg.seed,
    )


def build_hat(cfg: ExperimentConfig, vocab: Vocabulary) -> HatModel:
    enc = EncoderConfig(d_x=cfg.d_x, context=cfg.enc_context, layers=cfg.enc_layers, d_f=cfg.d_f)
    return HatModel(vocab, enc, decoder_dim=cfg.hat_decoder_dim, joint_dim=cfg.joint_dim, seed=cfg.seed)


def train_asr_model(
    kind: str, cfg: ExperimentConfig, vocab: Vocabulary, pairs, path: str | None = None, log=_log,
    optimizer: str = "adam",
):
    """Build a "mhat" or "hat" model from `cfg`, train it on `pairs`, and
    save it to `path` when given; returns (model, loss curve).

    The one training path of both `mhat train` and `run_experiment`.
    """
    model = build_mhat(cfg, vocab) if kind == "mhat" else build_hat(cfg, vocab)
    curve = train_asr(model, pairs, TrainConfig(
        epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, optimizer=optimizer,
        alpha=cfg.alpha if kind == "mhat" else 0.0, seed=cfg.seed), log)
    if path:
        dat.save_checkpoint(model, path)
    return model, curve


def adapt_ilma_model(
    model: MhatModel, cfg: ExperimentConfig, text: dat.Corpus, heldout_source=None, heldout_target=None,
    path: str | None = None, report_dir: str | None = None, log=_log,
) -> AdaptReport:
    """Run ILMA on `model` in place with the `cfg` settings, log the report,
    save the model to `path` and write `ilma_report.txt` and `ilma_report.kv`
    under `report_dir` when given.

    The one adaptation path of both `mhat adapt` and `run_experiment`.
    """
    report = run_ilma(model, text, IlmaConfig(
        rho=cfg.rho, steps=cfg.ilma_steps, lr=cfg.ilma_lr, batch_size=cfg.ilma_batch, seed=cfg.seed),
        heldout_source=heldout_source, heldout_target=heldout_target)
    log(report.render_text())
    if path:
        dat.save_checkpoint(model, path)
    if report_dir:
        dat.write_lines(os.path.join(report_dir, "ilma_report.txt"), [report.render_text()])
        dat.write_lines(os.path.join(report_dir, "ilma_report.kv"), report.kv_lines())
    return report


def train_lm_model(cfg: ExperimentConfig, text: dat.Corpus, path: str | None = None, log=_log):
    """Train the external LM on `text` with the `cfg` settings, log its
    train-set perplexity and save it to `path` when given; returns (lm,
    perplexity).

    The one LM training path of both `mhat train-lm` and `run_experiment`.
    """
    lm, ppl = train_lm(text, LmTrainConfig(
        epochs=cfg.lm_epochs, lr=cfg.lm_lr, batch_size=cfg.lm_batch, embed_dim=cfg.label_dim, seed=cfg.seed))
    log(f"external LM train-set perplexity: {ppl:.3f}")
    if path:
        dat.save_checkpoint(lm, path)
    return lm, ppl


def _fusion(mode: str, lam_ext: float, lam_ilm: float, lm) -> FusionConfig:
    """The fusion config of one weight pair; (0, 0) decodes without fusion."""
    if lam_ext == 0.0 and lam_ilm == 0.0:
        return NO_FUSION
    return FusionConfig(mode=mode, lam_ext=lam_ext, lam_ilm=lam_ilm, lm=lm)


def lambda_grid_wers(
    model, lm, dev: dat.Corpus, mode: str, cfg: ExperimentConfig
) -> dict[tuple[float, float], EvalReport]:
    """Dev WER report of every (lam_ext, lam_ilm) pair of the grid.

    lam_ilm varies only in `ilme_subtract` mode, and pairs with lam_ext = 0
    and lam_ilm > 0 are skipped; (0, 0) decodes without fusion.  Each
    utterance is decoded under every pair in one lockstep search.
    """
    ilm_grid = cfg.lam_ilm_grid if mode == "ilme_subtract" else (0.0,)
    pairs = [(le, li) for le in cfg.lam_ext_grid for li in ilm_grid if not (le == 0.0 and li > 0.0)]
    decoded = _decode_fusions(model, dev, cfg.beam, [_fusion(mode, le, li, lm) for le, li in pairs])
    return {pair: evaluate_pairs([(it.tokens, best[k].tokens) for it, (_, best) in zip(dev.items, decoded)])
            for k, pair in enumerate(pairs)}


def grid_search_lambdas(
    model,
    lm,
    dev: dat.Corpus,
    mode: str,
    cfg: ExperimentConfig,
    log=_log,
) -> tuple[float, float]:
    """Pick (lam_ext, lam_ilm) minimizing dev WER; ties go to smaller weights."""
    best = min((rep.wer, le, li) for (le, li), rep in lambda_grid_wers(model, lm, dev, mode, cfg).items())
    log(f"grid[{mode}]: best dev WER {best[0]:.3f} at lam_ext={best[1]}, lam_ilm={best[2]}")
    return best[1], best[2]


# (model, method without fusion, method with the external LM, fusion mode):
# the adapted internal LM is kept in the score, the others are subtracted
MATRIX_ROWS = (
    ("hat", "HAT", "HAT+LM", "ilme_subtract"),
    ("mhat", "MHAT", "MHAT+LM", "ilme_subtract"),
    ("mhat_ilma", "MHAT+ILMA", "MHAT+ILMA+LM", "shallow"),
)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None, log=_log) -> ExperimentResult:
    """gen-data -> train HAT/MHAT -> train LM -> ILMA -> decode the method matrix.

    Any stage failure aborts with the stage name; artifacts written by
    completed stages stay on disk.
    """
    for name in ("n_train", "n_dev", "n_test", "n_adapt_text"):  # every corpus, before any stage runs
        if getattr(cfg, name) < 1:
            _bad_field(name, f"run_experiment needs {name} >= 1, got {getattr(cfg, name)}")
    durations: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(name: str):
        log(f"stage: {name}")
        start = time.monotonic()
        try:
            yield
        except Exception as e:
            raise RuntimeError(f"experiment stage {name!r} failed: {e}") from e
        durations[name] = time.monotonic() - start

    def ensure(sub: str) -> str | None:
        if not out_dir:
            return None
        path = os.path.join(out_dir, sub)
        os.makedirs(path, exist_ok=True)
        return path

    def ckpt(name: str) -> str | None:
        return os.path.join(ensure("models"), f"{name}.ckpt") if out_dir else None

    with stage("gen-data"):
        exp = make_experiment_data(cfg)
        if out_dir:
            write_experiment_data(exp, ensure("data"))
    models = {}
    for kind in ("hat", "mhat"):
        with stage(f"train-{kind}"):
            models[kind], _ = train_asr_model(kind, cfg, exp.vocab, exp.src_train.paired(), ckpt(kind), log)
    with stage("train-lm"):
        lm, lm_ppl = train_lm_model(cfg, exp.tgt_text, ckpt("extlm"), log)
    with stage("ilma"):
        models["mhat_ilma"] = copy.deepcopy(models["mhat"])
        ilma_report = adapt_ilma_model(models["mhat_ilma"], cfg, exp.tgt_text, exp.src_dev.transcripts(),
                                       exp.tgt_dev.transcripts(), ckpt("mhat_ilma"), ensure("reports"), log)
    with stage("grid-search"):
        lams = {fused: grid_search_lambdas(models[key], lm, exp.tgt_dev, mode, cfg, log)
                for key, _, fused, mode in MATRIX_ROWS}
    with stage("decode-matrix"):
        wer: dict[str, dict[str, float]] = {method: {} for method in METHODS}
        reports: dict[str, dict[str, EvalReport]] = {method: {} for method in METHODS}
        for key, plain, fused, mode in MATRIX_ROWS:
            fusions = [NO_FUSION, _fusion(mode, *lams[fused], lm)]
            for domain, corpus in (("source", exp.src_test), ("target", exp.tgt_test)):
                decoded = _decode_fusions(models[key], corpus, cfg.beam, fusions)
                for k, method in enumerate((plain, fused)):
                    if out_dir:
                        fname = method.replace("+", "_") + f"__{domain}.tsv"
                        dat.write_lines(os.path.join(ensure("decodes"), fname),
                                        (format_record(uid, best[k], exp.vocab) for uid, best in decoded))
                    rep = evaluate_pairs([(it.tokens, best[k].tokens) for it, (_, best) in zip(corpus.items, decoded)])
                    wer[method][domain] = rep.wer
                    reports[method][domain] = rep
                    log(f"{method} [{domain}]: WER {rep.wer:.3f}")
    with stage("report"):
        result = ExperimentResult(
            wer=wer,
            reports=reports,
            best_lambdas=lams,
            ilma_report=ilma_report,
            lm_train_ppl=lm_ppl,
            ilm_source_ppl=ilma_report.source_ppl_before,  # ILMA measured its unadapted copy
            ilm_target_ppl=ilma_report.target_ppl_before,
            models={**models, "lm": lm},
            data=exp,
            durations=dict(durations),
        )
        if out_dir:
            dat.write_lines(os.path.join(ensure("reports"), "wer_matrix.tsv"), result.matrix_lines())
    return result


# -- CLI ---------------------------------------------------------------------

# The hyperparameter flags of each subcommand (besides `--seed`, which every
# subcommand has) and the ExperimentConfig field each one sets; a flag's
# default is its field's value in ExperimentConfig().
CONFIG_FLAGS: dict[str, dict[str, str]] = {
    "gen-data": {"--vocab-size": "vocab_size", "--d-x": "d_x", "--sigma": "sigma", "--n-train": "n_train",
                 "--n-dev": "n_dev", "--n-test": "n_test", "--n-adapt-text": "n_adapt_text"},
    "train": {"--alpha": "alpha", "--epochs": "epochs", "--batch-size": "batch_size", "--lr": "lr",
              "--d-f": "d_f", "--enc-context": "enc_context", "--enc-layers": "enc_layers",
              "--joint-dim": "joint_dim", "--label-dim": "label_dim", "--blank-dim": "blank_dim",
              "--decoder-dim": "hat_decoder_dim"},
    "train-lm": {"--epochs": "lm_epochs", "--batch-size": "lm_batch", "--lr": "lm_lr", "--embed-dim": "label_dim"},
    "adapt": {"--rho": "rho", "--steps": "ilma_steps", "--lr": "ilma_lr", "--batch-size": "ilma_batch"},
    "decode": {"--beam": "beam"},
    "eval": {},
    "experiment": {"--alpha": "alpha", "--rho": "rho", "--epochs": "epochs", "--beam": "beam"},
}


def _config_flags(command: str) -> dict[str, str]:
    return {"--seed": "seed", **CONFIG_FLAGS[command]}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors, and keeps the flag of each one-value option
    under its dest in `flags`: a `--config` key names a dest."""

    def __init__(self, **kw):
        self.flags: dict[str, str] = {}
        super().__init__(**kw)

    def add_argument(self, *names, **kw):
        action = super().add_argument(*names, **kw)
        if action.option_strings and action.nargs is None:
            self.flags[action.dest] = action.option_strings[-1]
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def read_kv_config(path: str) -> dict[str, str]:
    """`key=value` lines; `#` starts a comment.  Anything else raises ConfigError."""
    out: dict[str, str] = {}
    for line in dat.read_text_lines(path, "config file"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="mhat", description="desk-scale modular transducer toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, _Parser] = {}
    defaults = ExperimentConfig()

    def sub(name: str, **kw) -> _Parser:
        p = subs.add_parser(name, **kw)
        p.add_argument("--config", help="key=value file of option values; the command line's flags win")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        for flag, field_name in _config_flags(name).items():
            value = getattr(defaults, field_name)
            p.add_argument(flag, type=type(value), default=value, help=f"ExperimentConfig.{field_name} (default %(default)s)")
        registry[name] = p
        return p

    p = sub("gen-data", help="generate the synthetic domain-shift dataset")
    p.set_defaults(func=cmd_gen_data)

    p = sub("train", help="train a HAT or MHAT on a paired corpus")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--model", choices=("mhat", "hat"), default="mhat")
    p.add_argument("--optimizer", choices=("sgd", "momentum", "adam"), default="adam")
    p.set_defaults(func=cmd_train)

    p = sub("train-lm", help="train the external LM on text")
    p.add_argument("--text", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(func=cmd_train_lm)

    p = sub("adapt", help="internal-LM adaptation on text")
    p.add_argument("--ckpt", required=True, help="trained MHAT checkpoint; its vocabulary reads the text")
    p.add_argument("--text", required=True, help="adaptation text")
    p.add_argument("--heldout-source", help="held-out source text for the report")
    p.add_argument("--heldout-target", help="held-out target text for the report")
    p.set_defaults(func=cmd_adapt)

    p = sub("decode", help="beam-search decode a paired corpus")
    p.add_argument("--ckpt", required=True, help="HAT or MHAT checkpoint; its vocabulary reads the corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--fusion", choices=("none", "shallow", "ilme_subtract"), default="none")
    p.add_argument("--lm", help="external LM checkpoint (fusion modes)")
    p.add_argument("--lam-ext", type=float, default=0.0)
    p.add_argument("--lam-ilm", type=float, default=0.0)
    p.set_defaults(func=cmd_decode)

    p = sub("eval", help="score decodes against references")
    p.add_argument("--ref", required=True, help="the decoded paired corpus (manifest)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--hyp", required=True, help="decode records (tsv)")
    p.set_defaults(func=cmd_eval)

    p = sub("experiment", help="full pipeline: data, training, ILMA, fusion matrix")
    p.set_defaults(func=cmd_experiment)

    return parser, registry


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The parsed command line.  The keys of a `--config` file that the
    subcommand has options for are parsed as those options, ahead of the
    command line's own flags, which therefore win; other keys are ignored.
    Usage errors, bad config values included, exit 1.
    """
    argv = list(argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        sub = registry[args.command]
        try:
            overrides = read_kv_config(args.config)
        except (OSError, ConfigError) as e:
            sub.error(str(e))
        at = argv.index(args.command) + 1
        tokens = [f"{sub.flags[key]}={value}" for key, value in overrides.items() if key in sub.flags]
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    return args


def _config(args, **fixed) -> ExperimentConfig:
    """ExperimentConfig() with the subcommand's flag values, and `fixed`, in place."""
    values = {field_name: getattr(args, flag[2:].replace("-", "_"))
              for flag, field_name in _config_flags(args.command).items()}
    return ExperimentConfig(**values, **fixed)


def _write_resolved_config(args) -> None:
    dat.write_lines(os.path.join(args.out_dir, "resolved-config.txt"),
                    [f"{k} {v}" for k, v in sorted(vars(args).items()) if k != "func" and v is not None])


def cmd_gen_data(args) -> None:
    write_experiment_data(make_experiment_data(_config(args)), args.out_dir)
    _log(f"wrote dataset under {args.out_dir}")


def cmd_train(args) -> None:
    vocab = dat.read_vocab(args.vocab)
    corpus = dat.read_corpus(args.data, vocab)
    if not corpus.items:
        raise ConfigError(f"{args.data}: training corpus is empty")
    cfg = _config(args, d_x=corpus.items[0].features.shape[1])
    out = os.path.join(args.out_dir, f"{args.model}.ckpt")
    _, curve = train_asr_model(args.model, cfg, vocab, corpus.paired(), out, optimizer=args.optimizer)
    dat.write_lines(os.path.join(args.out_dir, "train_log.txt"),
                    (f"epoch {i} loss_per_utt {loss!r}" for i, loss in enumerate(curve, start=1)))
    _log(f"saved {out}")


def cmd_train_lm(args) -> None:
    vocab = dat.read_vocab(args.vocab)
    corpus = dat.read_text_corpus(args.text, vocab)
    out = os.path.join(args.out_dir, "extlm.ckpt")
    _, ppl = train_lm_model(_config(args), corpus, out)
    dat.write_lines(os.path.join(args.out_dir, "lm_report.kv"), [f"train_ppl {ppl!r}"])
    _log(f"saved {out}")


def cmd_adapt(args) -> None:
    model = dat.load_checkpoint(args.ckpt, expect="mhat")
    corpus = dat.read_text_corpus(args.text, model.vocab)
    heldout = [dat.read_text_corpus(path, model.vocab).transcripts() if path else None
               for path in (args.heldout_source, args.heldout_target)]
    out = os.path.join(args.out_dir, "mhat_ilma.ckpt")
    adapt_ilma_model(model, _config(args), corpus, *heldout, out, args.out_dir)
    _log(f"saved {out}")


def cmd_decode(args) -> None:
    model = dat.load_checkpoint(args.ckpt, expect="asr")
    corpus = dat.read_corpus(args.data, model.vocab)
    if corpus.items and corpus.items[0].features.shape[1] != model.enc_cfg.d_x:
        raise ConfigError(f"{args.data}: feature width {corpus.items[0].features.shape[1]}, "
                          f"but the checkpoint's encoder expects {model.enc_cfg.d_x}")
    lm = dat.load_checkpoint(args.lm, expect="lm") if args.lm else None
    fusion = FusionConfig(mode=args.fusion, lam_ext=args.lam_ext, lam_ilm=args.lam_ilm, lm=lm)
    decoded = decode_corpus(model, corpus, _config(args).beam, fusion)
    out = os.path.join(args.out_dir, "decodes.tsv")
    dat.write_lines(out, (format_record(uid, res, model.vocab) for uid, res in decoded))
    _log(f"decoded {len(decoded)} utterances -> {out}")


def cmd_eval(args) -> None:
    vocab = dat.read_vocab(args.vocab)
    refs = dat.read_corpus(args.ref, vocab)
    hyps: dict[str, tuple[int, ...]] = {}
    for lineno, line in enumerate(dat.read_text_lines(args.hyp, "decodes file"), start=1):
        if line.strip():
            try:
                uid, ids = parse_record(line)
            except ValueError as e:
                raise ConfigError(f"{args.hyp}:{lineno}: {e}") from None
            if uid in hyps:
                raise ConfigError(f"{args.hyp}:{lineno}: second record for utterance {uid}")
            try:
                vocab.check_ids(ids)
            except VocabError as e:
                raise VocabError(f"{args.hyp}:{lineno}: {e}") from None
            hyps[uid] = ids
    unknown = hyps.keys() - {it.uid for it in refs.items}
    if unknown:
        raise ConfigError(f"{args.hyp}: utterance {min(unknown)} is not in {args.ref}")
    report = evaluate_decodes(refs, hyps)
    dat.write_lines(os.path.join(args.out_dir, "eval.kv"), report.kv_lines())  # raises when nothing was scored
    _log(f"WER {report.wer:.3f}% "
         f"(S={report.subs} I={report.ins} D={report.dels} over {report.ref_tokens} ref tokens)")


def cmd_experiment(args) -> None:
    result = run_experiment(_config(args), args.out_dir, _log)
    for line in result.matrix_lines():
        _log(line)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        _write_resolved_config(args)
        args.func(args)
        return 0
    except Exception as e:
        _log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
