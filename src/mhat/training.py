"""Optimizers and the paired-data training loop (artifact plumbing)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import hat_loss
from .losses import LossConfig, mhat_loss
from .model import ConfigError, HatModel, MhatModel
from .numerics import Tensor, check_finite


@dataclass
class TrainConfig:
    epochs: int = 8
    batch_size: int = 32
    lr: float = 3e-3
    optimizer: str = "adam"  # sgd | momentum | adam
    alpha: float = 0.0  # internal-LM loss weight (MHAT only)
    momentum: float = 0.9
    seed: int = 0


class Optimizer:
    """Updates a fixed list of (name, tensor) pairs from their .grad."""

    def __init__(self, tensors: Sequence[tuple[str, Tensor]], lr: float):
        self.tensors = list(tensors)
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def _grad(self, t: Tensor) -> np.ndarray | None:
        return t.grad


class Sgd(Optimizer):
    def step(self) -> None:
        for _, t in self.tensors:
            g = self._grad(t)
            if g is not None:
                t.data = t.data - self.lr * g


class Momentum(Optimizer):
    def __init__(self, tensors, lr, momentum=0.9):
        super().__init__(tensors, lr)
        self.momentum = momentum
        self.vel = {n: np.zeros_like(t.data) for n, t in self.tensors}

    def step(self) -> None:
        for n, t in self.tensors:
            g = self._grad(t)
            if g is None:
                continue
            v = self.vel[n]
            v *= self.momentum
            v += g
            t.data = t.data - self.lr * v


class Adam(Optimizer):
    def __init__(self, tensors, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(tensors, lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.tensors}
        self.v = {n: np.zeros_like(t.data) for n, t in self.tensors}

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for n, t in self.tensors:
            g = self._grad(t)
            if g is None:
                continue
            m = self.m[n]
            v = self.v[n]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            t.data = t.data - self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def make_optimizer(tensors: Sequence[tuple[str, Tensor]], cfg) -> Optimizer:
    kind = getattr(cfg, "optimizer", "sgd")
    if kind == "sgd":
        return Sgd(tensors, cfg.lr)
    if kind == "momentum":
        return Momentum(tensors, cfg.lr, getattr(cfg, "momentum", 0.9))
    if kind == "adam":
        return Adam(tensors, cfg.lr)
    raise ConfigError(f"unknown optimizer: {kind!r}")


def train_asr(
    model: MhatModel | HatModel,
    batch_items: Sequence[tuple[np.ndarray, Sequence[int]]],
    cfg: TrainConfig,
    log: Callable[[str], None] | None = None,
) -> list[float]:
    """Minimize the (M)HAT objective by mini-batch gradient descent.

    Returns the per-epoch mean loss per utterance.  Deterministic under a
    fixed seed: shuffling, batching, and reductions are all seeded or
    order-canonical.  A NaN or infinite batch loss raises EvaluationError
    naming the epoch and batch, before any parameter moves on it.
    """
    if isinstance(model, HatModel) and cfg.alpha != 0.0:
        raise ConfigError("internal-LM loss weight applies to MHAT only")
    items = list(batch_items)
    if not items:
        raise ConfigError("training corpus is empty")
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(list(model.params.entries.items()), cfg)
    loss_cfg = LossConfig(alpha=cfg.alpha)
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        epoch_loss = 0.0
        for start in range(0, len(items), cfg.batch_size):
            chunk = [items[i] for i in order[start : start + cfg.batch_size]]
            if isinstance(model, MhatModel):
                loss = mhat_loss(model, chunk, loss_cfg)
            else:
                loss = hat_loss(model, chunk)
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
