import math

import numpy as np
import pytest

import reference_engine

from mhat import numerics as nm
from mhat.numerics import (
    EvaluationError,
    ParameterSet,
    ShapeError,
    Tensor,
    affine,
    gradient_check,
    log_softmax,
    log_sum_exp,
    sigmoid,
)


class TestAffine:
    def test_identity(self):
        out = affine([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_hand_expansion(self):
        out = affine([1.0, 1.0], [[2.0, 3.0]], [1.0])
        np.testing.assert_allclose(out.data, [6.0])

    def test_zero_input_passes_bias(self):
        out = affine(np.zeros(5), np.ones((2, 5)), [7.0, -2.0])
        np.testing.assert_allclose(out.data, [7.0, -2.0])

    def test_shape_mismatch_names_operands(self):
        with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 2\)"):
            affine(np.zeros(3), np.zeros((2, 2)), np.zeros(2))

    def test_bias_shape_mismatch(self):
        with pytest.raises(ShapeError, match="bias"):
            affine(np.zeros(2), np.zeros((2, 2)), np.zeros(3))


class TestLogSoftmax:
    def test_two_equal(self):
        out = log_softmax([0.0, 0.0])
        np.testing.assert_allclose(out.data, [-math.log(2)] * 2, atol=1e-12)

    def test_extreme_logits_stable(self):
        out = log_softmax([1000.0, 0.0]).data
        assert np.all(np.isfinite(out))
        assert abs(out[0]) < 1e-12
        assert abs(out[1] + 1000.0) < 1e-6

    def test_constant_vector(self):
        out = log_softmax([5.5, 5.5, 5.5])
        np.testing.assert_allclose(out.data, [-math.log(3)] * 3, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            log_softmax(np.zeros(0))

    def test_normalization_random(self, rng):
        for _ in range(200):
            z = rng.uniform(-30, 30, size=rng.integers(1, 9))
            total = np.exp(log_softmax(z).data).sum()
            assert abs(total - 1.0) <= 1e-12

    def test_shift_invariance(self, rng):
        for _ in range(100):
            z = rng.uniform(-30, 30, size=6)
            c = float(rng.uniform(-50, 50))
            np.testing.assert_allclose(
                log_softmax(z + c).data, log_softmax(z).data, atol=1e-12
            )


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            s = sigmoid(50.0)
        assert 0 < s <= 1.0
        assert 1.0 - s < 1e-20
        assert sigmoid(-750.0) >= 0.0  # no overflow on the other side either

    def test_closed_form(self):
        assert abs(sigmoid(math.log(3)) - 0.75) < 1e-15

    def test_symmetry_and_monotonicity(self, rng):
        z = rng.uniform(-30, 30, size=500)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)
        zs = np.sort(z)
        assert np.all(np.diff(sigmoid(zs)) >= 0)


class TestLogSumExp:
    def test_pair(self):
        assert abs(log_sum_exp([0.0, 0.0]) - math.log(2)) < 1e-12

    def test_neg_inf_identity(self):
        assert log_sum_exp([-np.inf, 3.5]) == pytest.approx(3.5, abs=1e-12)

    def test_stability(self):
        assert log_sum_exp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2))

    def test_all_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            log_sum_exp([])

    def test_permutation_invariant_and_bounds(self, rng):
        for _ in range(50):
            z = rng.uniform(-40, 40, size=7)
            a = log_sum_exp(z)
            b = log_sum_exp(z[rng.permutation(7)])
            assert a == pytest.approx(b, abs=1e-12)
            assert a >= z.max()

    def test_bytes_equal_the_guarded_form(self, rng):
        # the finite-max short form against the version that guarded every
        # call (tests/reference_engine.py): same bytes, same return type
        for shape in ((7,), (1,), (4, 5), (3, 1), (2, 3, 4)):
            for trial in range(40):
                z = rng.standard_normal(shape) * (1.0, 30.0, 700.0)[trial % 3]
                mask = rng.random(shape)
                if trial % 2:
                    z[mask < 0.3] = -np.inf
                if trial % 5 == 1:
                    z[..., 0] = -np.inf
                    z[(0,) * (len(shape) - 1)] = -np.inf  # a row, or all of a 1-D input, of -inf
                if trial % 7 == 3:
                    z[mask > 0.9] = np.inf
                if trial % 11 == 5:
                    z[mask > 0.85] = np.nan
                for axis in (None, *range(len(shape)), -1):
                    with np.errstate(invalid="ignore", over="ignore"):  # +inf and NaN entries, on both sides
                        want, got = reference_engine.log_sum_exp(z, axis), log_sum_exp(z, axis)
                    assert type(got) is type(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (z, axis)

    def test_empty_raises_under_every_axis(self):
        for axis in (None, 0, -1):
            with pytest.raises(ShapeError):
                log_sum_exp(np.zeros((0, 3)), axis)


class TestEngine:
    def test_broadcast_add_grads(self, rng):
        a = Tensor(rng.standard_normal((3, 1, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 5, 4)), requires_grad=True)
        out = nm.total(nm.mul(nm.add(a, b), rng.standard_normal((3, 5, 4))))
        out.backward()
        assert a.grad.shape == a.data.shape
        assert b.grad.shape == b.data.shape

    def test_getitem_fancy_scatter(self):
        t = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        idx = (np.array([0, 0, 2]), np.array([1, 1, 3]))
        out = nm.total(t[idx])
        out.backward()
        expected = np.zeros((3, 4))
        expected[0, 1] = 2.0  # repeated index accumulates
        expected[2, 3] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_no_grad_suppresses_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with nm.no_grad():
            out = nm.tanh(t)
        assert out._vjp is None and not out.requires_grad

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            nm.tanh(t).backward()

    def test_log_sigmoid_finite_everywhere(self):
        x = Tensor(np.array([-750.0, -50.0, 0.0, 50.0, 750.0]), requires_grad=True)
        out = nm.log_sigmoid(x)
        assert np.all(np.isfinite(out.data))
        nm.total(out).backward()
        assert np.all(np.isfinite(x.grad))


class TestGathers:
    def test_gather_rows_gradient_sums_repeated_ids(self, rng):
        table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        ids = np.array([4, 0, 4, 2, 4, 0])
        g = rng.standard_normal((6, 3))
        nm.total(nm.mul(reference_engine.gather_rows(table, ids), g)).backward()
        expected = np.zeros((5, 3))
        np.add.at(expected, ids, g)
        np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-15)
        assert not table.grad[[1, 3]].any()

    def test_gather_sum_matches_two_gathers(self, rng):
        params = ParameterSet()
        a = params.add("a", rng.standard_normal((4, 2)), "ilm")
        b = params.add("b", rng.standard_normal((3, 2)), "ilm")
        ia, ib = np.array([0, 3, 3, 1, 0]), np.array([2, 2, 0, 1, 2])
        out = nm.gather_sum(a, ia, b, ib)
        np.testing.assert_array_equal(out.data, a.data[ia] + b.data[ib])
        err = gradient_check(lambda p: nm.total(nm.tanh(nm.gather_sum(a, ia, b, ib))), params, rng=rng)
        assert err < 1e-7

    def test_empty_ids(self):
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        out = reference_engine.gather_rows(table, np.zeros(0, dtype=np.int64))
        nm.total(out).backward()
        assert out.shape == (0, 2) and not table.grad.any()


class TestTextOpsGradients:
    """Finite differences against the two ops every text loss runs on."""

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("ctx", [np.array([[3, 0], [0, 2], [3, 0], [1, 1]]), np.array([2, 3])])
    def test_embed_affine(self, rng, tied, ctx):
        params = ParameterSet()
        t0 = params.add("t0", rng.standard_normal((4, 3)), "ilm")
        t1 = t0 if tied else params.add("t1", rng.standard_normal((4, 3)), "ilm")
        W = params.add("W", rng.standard_normal((2, 6)), "ilm")
        b = params.add("b", rng.standard_normal(2), "ilm")
        g = rng.standard_normal((*ctx.shape[:-1], 2))
        out = nm.embed_affine(t0, t1, ctx, W, b)
        want = np.concatenate([t0.data[ctx[..., 0]], t1.data[ctx[..., 1]]], axis=-1) @ W.data.T + b.data
        np.testing.assert_allclose(out.data, want, rtol=1e-14)
        err = gradient_check(lambda p: nm.total(nm.mul(nm.tanh(nm.embed_affine(t0, t1, ctx, W, b)), g)), params, rng=rng)
        assert err < 1e-7

    @pytest.mark.parametrize("cols", [4, 3])  # weights may leave the last class out
    def test_log_softmax_nll(self, rng, cols):
        params = ParameterSet()
        x = params.add("x", rng.standard_normal((3, 4)), "ilm")
        w = rng.integers(0, 3, size=(3, cols)).astype(float)
        w[0] = 0.0
        w[1, 1] = 0.25
        want = -(w * log_softmax(np.tanh(x.data)).data[:, :cols]).sum()
        assert nm.log_softmax_nll(nm.tanh(x), w).item() == pytest.approx(want, rel=1e-14)
        err = gradient_check(lambda p: nm.log_softmax_nll(nm.tanh(x), w), params, rng=rng)
        assert err < 1e-7

    @pytest.mark.parametrize("weights", [np.ones((2, 4)), np.ones(3), np.ones((3, 2, 1))])
    def test_log_softmax_nll_rejects_weights_that_do_not_fit(self, weights):
        with pytest.raises(ShapeError):
            nm.log_softmax_nll(np.zeros((3, 3)), weights)


class TestLogSoftmaxAt:
    def test_bit_identical_to_pick_of_log_softmax(self, rng):
        x = rng.standard_normal((6, 5)) * 20
        ids = np.array([0, 4, 4, 1, 2, 3])
        a = Tensor(x, requires_grad=True)
        b = Tensor(x, requires_grad=True)
        g = rng.standard_normal(6)
        picked = nm.log_softmax_at(a, ids)
        ref = log_softmax(b)[np.arange(6), ids]
        np.testing.assert_array_equal(picked.data, ref.data)
        nm.total(nm.mul(picked, g)).backward()
        nm.total(nm.mul(ref, g)).backward()
        np.testing.assert_array_equal(a.grad, b.grad)


class TestLargeAffine:
    def test_row_blocks_match_one_product(self, rng):
        n = nm.MATMUL_BLOCK_ROWS * 2 + 7
        x = Tensor(rng.standard_normal((n, 3)), requires_grad=True)
        W = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        g = rng.standard_normal((n, 4))
        out = affine(x, W)
        np.testing.assert_allclose(out.data, x.data @ W.data.T, rtol=1e-14)
        nm.total(nm.mul(out, g)).backward()
        np.testing.assert_allclose(x.grad, g @ W.data, rtol=1e-14)
        np.testing.assert_allclose(W.grad, g.T @ x.data, rtol=1e-12)


class TestBackwardReuse:
    def test_second_pass_gives_the_same_leaf_grads(self, rng):
        p = Tensor(rng.standard_normal(4), requires_grad=True)
        loss = nm.total(nm.tanh(nm.mul(p, p)))
        loss.backward()
        first = p.grad.copy()
        p.grad = None
        loss.backward()
        np.testing.assert_array_equal(p.grad, first)


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        p = ParameterSet()
        p.add("w", np.ones(2), "encoder")
        with pytest.raises(ValueError, match="duplicate"):
            p.add("w", np.ones(2), "encoder")

    def test_unknown_group_rejected(self):
        p = ParameterSet()
        with pytest.raises(ValueError, match="group"):
            p.add("w", np.ones(2), "nonsense")

    def test_group_sizes_and_checksum(self):
        p = ParameterSet()
        p.add("a", np.ones((2, 3)), "encoder")
        p.add("b", np.ones(4), "ilm")
        assert p.group_sizes() == {"encoder": 6, "blank_branch": 0, "ilm": 4}
        c0 = p.checksum()
        assert p.checksum(["encoder"]) != p.checksum(["ilm"])
        p["b"].data[0] = 5.0
        assert p.checksum() != c0
        assert p.checksum(["encoder"]) == p.checksum(["encoder"])


class TestGradientCheck:
    def test_quadratic(self, rng):
        p = ParameterSet()
        p.add("w", rng.standard_normal(6), "ilm")
        p.add("v", rng.standard_normal((2, 3)), "encoder")

        def loss(params):
            out = None
            for _, t in params.entries.items():
                term = nm.mul(0.5, nm.total(nm.mul(t, t)))
                out = term if out is None else nm.add(out, term)
            return out

        assert gradient_check(loss, p, h=1e-4, rng=rng) < 1e-7

    def test_constant_loss(self, rng):
        p = ParameterSet()
        p.add("w", rng.standard_normal(4), "ilm")
        assert gradient_check(lambda params: Tensor(3.25), p, rng=rng) == 0.0

    def test_nonfinite_perturbation_reports_coordinate(self):
        p = ParameterSet()
        h = 1e-4
        p.add("w", np.array([h]), "ilm")

        def loss(params):
            # goes to -inf when the perturbation reaches w[0] - h = 0
            with np.errstate(divide="ignore"):
                return Tensor(np.log(params["w"].data[0]))

        with pytest.raises(EvaluationError, match=r"w\[0\]"):
            gradient_check(loss, p, h=h, rng=np.random.default_rng(0))
