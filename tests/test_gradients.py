"""Finite-difference certification of every exposed loss."""

import pytest

from conftest import random_utterance, small_hat, small_mhat
from mhat import numerics as nm
from mhat.adapt import ilma_loss
from mhat.lattice import hat_loss
from mhat.losses import ilm_loss, mhat_loss
from mhat.numerics import Tensor, gradient_check


def test_quadratic_sanity(rng):
    p = nm.ParameterSet()
    p.add("theta", rng.standard_normal((3, 4)), "ilm")

    def loss(params):
        t = params["theta"]
        return nm.mul(0.5, nm.total(nm.mul(t, t)))

    assert gradient_check(loss, p, h=1e-4, rng=rng) < 1e-7


def test_constant_loss_zero_error(rng):
    p = nm.ParameterSet()
    p.add("theta", rng.standard_normal(5), "ilm")
    assert gradient_check(lambda params: Tensor(1.5), p, rng=rng) == 0.0


def test_mhat_loss_small_instance(rng):
    model = small_mhat(vocab_size=4)
    batch = [
        (rng.standard_normal((3, 3)), [int(i) for i in rng.integers(0, 4, size=2)]),
    ]
    err = gradient_check(
        lambda p: mhat_loss(model, batch, 0.1),
        model.params,
        h=1e-4,
        num_coords=250,
        rng=rng,
    )
    assert err <= 1e-4


def test_hat_model_loss(rng):
    model = small_hat(vocab_size=3)
    batch = [random_utterance(rng, t_len=3, vocab_size=3), random_utterance(rng, t_len=2, u_len=0, vocab_size=3)]
    err = gradient_check(
        lambda p: hat_loss(model, batch), model.params, h=1e-4, num_coords=200, rng=rng
    )
    assert err <= 1e-4


def test_ilm_loss(rng):
    model = small_mhat()
    err = gradient_check(
        lambda p: ilm_loss(model, [[1, 2, 0], [3]]), model.params, h=1e-4, num_coords=200, rng=rng
    )
    assert err <= 1e-4


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_ilma_loss(rng, rho):
    model = small_mhat(seed=1)
    teacher = small_mhat(seed=9)  # generic point: teacher differs from student
    err = gradient_check(
        lambda p: ilma_loss(model, teacher, [[1, 2, 0], [3]], rho),
        model.params,
        h=1e-4,
        num_coords=150,
        rng=rng,
    )
    assert err <= 1e-4
