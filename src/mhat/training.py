"""Optimizers and the paired-data training loop (artifact plumbing)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .losses import check_alpha, mhat_loss
from .model import ConfigError, HatModel, MhatModel
from .numerics import Tensor, check_finite


def check_schedule(
    batch_size: int, lr: float, passes: tuple[str, int], fields: tuple[str, str, str] | None = None
) -> None:
    """Raise ConfigError naming a training schedule's first bad setting: a
    batch size below 1, a negative count of `passes` (steps or epochs; zero
    runs no step), or a learning rate that is not finite and positive.
    `fields`, when given, are the `ExperimentConfig` fields that set the
    batch size, the pass count and the rate, and the message names the bad one."""
    name, n = passes
    if batch_size < 1:
        at, msg = 0, f"batch_size must be >= 1, got {batch_size}"
    elif n < 0:
        at, msg = 1, f"{name} must be >= 0, got {n}"
    elif not (math.isfinite(lr) and lr > 0):
        at, msg = 2, f"lr must be finite and > 0, got {lr}"
    else:
        return
    raise ConfigError(msg if fields is None else f"{msg} (ExperimentConfig.{fields[at]})")


@dataclass
class TrainConfig:
    epochs: int = 8
    batch_size: int = 32
    lr: float = 3e-3
    optimizer: str = "adam"  # sgd | momentum | adam
    alpha: float = 0.0  # internal-LM loss weight (MHAT only)
    seed: int = 0

    def __post_init__(self):
        check_schedule(self.batch_size, self.lr, ("epochs", self.epochs))
        check_alpha(self.alpha)


class Optimizer:
    """Updates a fixed list of (name, tensor) pairs from their .grad."""

    def __init__(self, tensors: Sequence[tuple[str, Tensor]], lr: float):
        self.tensors = list(tensors)
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError


class Sgd(Optimizer):
    def step(self) -> None:
        for _, t in self.tensors:
            if t.grad is not None:
                t.data = t.data - self.lr * t.grad


class Momentum(Optimizer):
    MOMENTUM = 0.9

    def __init__(self, tensors, lr):
        super().__init__(tensors, lr)
        self.vel = {n: np.zeros_like(t.data) for n, t in self.tensors}

    def step(self) -> None:
        for n, t in self.tensors:
            if t.grad is None:
                continue
            v = self.vel[n]
            v *= self.MOMENTUM
            v += t.grad
            t.data = t.data - self.lr * v


class Adam(Optimizer):
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, tensors, lr):
        super().__init__(tensors, lr)
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.tensors}
        self.v = {n: np.zeros_like(t.data) for n, t in self.tensors}

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for n, t in self.tensors:
            g = t.grad
            if g is None:
                continue
            m = self.m[n]
            v = self.v[n]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            t.data = t.data - self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


OPTIMIZERS = {"sgd": Sgd, "momentum": Momentum, "adam": Adam}


def make_optimizer(tensors: Sequence[tuple[str, Tensor]], cfg: TrainConfig) -> Optimizer:
    if cfg.optimizer not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer: {cfg.optimizer!r}")
    return OPTIMIZERS[cfg.optimizer](tensors, cfg.lr)


def train_asr(
    model: MhatModel | HatModel,
    batch_items: Sequence[tuple[np.ndarray, Sequence[int]]],
    cfg: TrainConfig,
    log: Callable[[str], None] | None = None,
) -> list[float]:
    """Minimize the (M)HAT objective by mini-batch gradient descent.

    Returns the per-epoch mean loss per utterance.  Deterministic under a
    fixed seed: shuffling, batching, and reductions are all seeded or
    order-canonical.  Every feature array and transcript is checked before
    the first step: `Encoder.frames` raises ConfigError or StructureError
    naming the utterance, a token id outside the vocabulary VocabError.  A
    NaN or infinite batch loss raises EvaluationError naming the epoch and
    batch, before any parameter moves on it.
    """
    if isinstance(model, HatModel) and cfg.alpha != 0.0:
        raise ConfigError("internal-LM loss weight applies to MHAT only")
    items = list(batch_items)
    if not items:
        raise ConfigError("training corpus is empty")
    model.encoder.frames([x for x, _ in items])
    model.vocab.check_ids(itertools.chain.from_iterable(y for _, y in items))
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(list(model.params.entries.items()), cfg)
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        epoch_loss = 0.0
        for start in range(0, len(items), cfg.batch_size):
            chunk = [items[i] for i in order[start : start + cfg.batch_size]]
            loss = mhat_loss(model, chunk, cfg.alpha)
            check_finite(loss, f"epoch {epoch + 1}, batch {start // cfg.batch_size + 1}")
            model.params.zero_grads()
            loss.backward()
            opt.step()
            epoch_loss += float(loss.data)
        curve.append(epoch_loss / len(items))
        if log:
            log(f"epoch {epoch + 1}/{cfg.epochs}: loss/utt {curve[-1]:.4f}")
    if isinstance(model, MhatModel):
        model.trained_alpha = cfg.alpha
    return curve
