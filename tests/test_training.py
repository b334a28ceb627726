import ctypes
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_utterance, small_hat, small_mhat
from mhat.model import ConfigError, VocabError
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
     ("lr", float("inf")), ("alpha", -1.0), ("alpha", float("nan")), ("alpha", float("inf"))],
)
def test_bad_config_rejected_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        TrainConfig(**{field: value})


def test_zero_epochs_is_legal(rng):
    model = small_mhat()
    before = model.params.checksum()
    assert train_asr(model, batch(rng, n=4), TrainConfig(epochs=0)) == []
    assert model.params.checksum() == before


@pytest.mark.parametrize(
    "kind, error, message",
    [("token", VocabError, r"^token id 99 out of range for \|V\|=4$"),
     ("nan", ConfigError, r"^non-finite feature nan at frame 2 of utterance {u}$"),
     ("inf", ConfigError, r"^non-finite feature -inf at frame 2 of utterance {u}$"),
     ("shape", ConfigError, r"^feature dim mismatch: utterance {u} has shape \(4, 2\)")],
)
def test_bad_item_rejected_before_any_step(rng, kind, error, message):
    items = batch(rng)
    at = np.random.default_rng(0).permutation(len(items))[-1]  # in the last batch of epoch 1
    X, y = items[at]
    if kind == "token":
        y = [1, 99]
    elif kind == "shape":
        X = X[:4, :2]
    else:
        X = X.copy()
        X[2, 1] = np.nan if kind == "nan" else -np.inf
    items[at] = (X, y)
    model = small_mhat()
    before = model.params.checksum()
    with pytest.raises(error, match=message.format(u=at)):
        train_asr(model, items, TrainConfig(epochs=1, batch_size=2, alpha=0.1))
    assert model.params.checksum() == before


def test_train_asr_batch_size_zero_is_a_config_error(rng):
    # used to reach range() and raise its own "arg 3 must not be zero"
    with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
        train_asr(small_mhat(), batch(rng, n=4), TrainConfig(epochs=1, batch_size=0))


# Trains the default MHAT dims for four 32-utterance steps and decodes 20
# utterances; with a free OpenBLAS thread count the weight gradients of
# `numerics.affine` and so every line below would depend on it.
TRAIN_AND_DECODE = """
import hashlib
from mhat.decode import format_record
from mhat.evalcli import ExperimentConfig, decode_corpus, make_experiment_data, train_asr_model
cfg = ExperimentConfig(n_train=128, n_dev=0, n_test=20, n_adapt_text=0, epochs=1)
exp = make_experiment_data(cfg)
model, curve = train_asr_model("mhat", cfg, exp.vocab, exp.src_train.paired(), log=lambda msg: None)
h = hashlib.sha256()
for name in sorted(model.params.entries):
    h.update(model.params[name].data.tobytes())
print(h.hexdigest(), repr(curve))
for uid, best in decode_corpus(model, exp.src_test):
    print(format_record(uid, best, exp.vocab))
"""


def test_outputs_independent_of_blas_threads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
        outs.append(subprocess.run([sys.executable, "-c", TRAIN_AND_DECODE], env=env, capture_output=True,
                                   text=True, check=True).stdout)
    assert len(outs[0].splitlines()) == 21
    assert outs[0] == outs[1]


def test_one_blas_thread_at_import():
    import mhat
    get = mhat._numpy_openblas().scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    assert get() == 1
    mhat._one_blas_thread()  # idempotent
    assert get() == 1


def test_missing_blas_setter_raises(monkeypatch):
    import mhat
    monkeypatch.setattr(mhat.glob, "glob", lambda pattern: [])
    for fn in (mhat._numpy_openblas, mhat._one_blas_thread):
        with pytest.raises(ImportError, match="found no scipy_openblas_set_num_threads64_ in .*numpy.libs"):
            fn()
