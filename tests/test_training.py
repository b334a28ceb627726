import numpy as np
import pytest

from conftest import random_utterance, small_hat, small_mhat
from mhat.model import ConfigError
from mhat.numerics import EvaluationError
from mhat.training import TrainConfig, train_asr


def batch(rng, n=12):
    return [random_utterance(rng, t_len=int(t)) for t in rng.integers(2, 6, size=n)]


def test_loss_decreases(rng):
    model = small_mhat()
    curve = train_asr(model, batch(rng), TrainConfig(epochs=4, batch_size=4, lr=3e-3, alpha=0.1))
    assert curve[-1] < curve[0]
    assert model.trained_alpha == 0.1


def test_deterministic_under_seed(rng):
    items = batch(rng)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=3e-3, alpha=0.1, seed=5)
    m1 = small_mhat(seed=2)
    m2 = small_mhat(seed=2)
    train_asr(m1, items, cfg)
    train_asr(m2, items, cfg)
    assert m1.params.checksum() == m2.params.checksum()


def test_hat_rejects_ilm_weight(rng):
    with pytest.raises(ConfigError):
        train_asr(small_hat(), batch(rng), TrainConfig(epochs=1, alpha=0.1))


def test_hat_trains(rng):
    curve = train_asr(small_hat(), batch(rng), TrainConfig(epochs=3, batch_size=4, lr=3e-3))
    assert curve[-1] < curve[0]


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_asr(small_mhat(), [], TrainConfig(epochs=1))


def test_unknown_optimizer(rng):
    with pytest.raises(ConfigError):
        train_asr(small_mhat(), batch(rng), TrainConfig(epochs=1, optimizer="rmsprop"))


@pytest.mark.parametrize("opt", ["sgd", "momentum", "adam"])
def test_all_optimizers_step(rng, opt):
    model = small_mhat()
    before = model.params.checksum()
    lr = 1e-4 if opt != "adam" else 1e-3
    train_asr(model, batch(rng, n=4), TrainConfig(epochs=1, batch_size=4, lr=lr, optimizer=opt))
    assert model.params.checksum() != before


def test_non_finite_loss_names_epoch_and_batch(rng):
    # SGD at lr=1e6 blows the weights up within the first epoch
    cfg = TrainConfig(epochs=3, batch_size=32, lr=1e6, optimizer="sgd", alpha=0.1)
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match=r"epoch \d+, batch \d+"):
        train_asr(small_mhat(), batch(rng, n=64), cfg)


@pytest.mark.parametrize(
    "field, value",
    [("batch_size", 0), ("batch_size", -2), ("epochs", -1), ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
     ("lr", float("inf"))],
)
def test_bad_config_rejected_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        TrainConfig(**{field: value})


def test_zero_epochs_is_legal(rng):
    model = small_mhat()
    before = model.params.checksum()
    assert train_asr(model, batch(rng, n=4), TrainConfig(epochs=0)) == []
    assert model.params.checksum() == before


def test_train_asr_batch_size_zero_is_a_config_error(rng):
    # used to reach range() and raise its own "arg 3 must not be zero"
    with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
        train_asr(small_mhat(), batch(rng, n=4), TrainConfig(epochs=1, batch_size=0))
