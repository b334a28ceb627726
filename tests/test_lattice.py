import math

import numpy as np
import pytest

from conftest import random_utterance, small_hat, small_mhat
from mhat import numerics as nm
from mhat.evalcli import ExperimentConfig, build_hat, build_mhat, make_experiment_data
from mhat.lattice import (
    batch_log_probs,
    brute_force_log_prob,
    build_lattice,
    forward_log_prob,
    hat_loss,
    lattice_log_prob,
    node_arc_scores,
)
from mhat.losses import mhat_loss
from mhat.model import StructureError, Vocabulary
from mhat.numerics import Tensor


class TestClosedForms:
    def test_single_path_t1_u1(self, mhat_small, rng):
        X = rng.standard_normal((1, 3))
        y = [2]
        log_blank, log_label = node_arc_scores(mhat_small, X, y)
        expected = log_label[0, 0] + log_blank[0, 1]
        got = float(forward_log_prob(mhat_small, X, y).data)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(brute_force_log_prob(mhat_small, X, y), abs=1e-12)

    def test_all_blank_path(self, mhat_small, rng):
        X = rng.standard_normal((2, 3))
        log_blank, _ = node_arc_scores(mhat_small, X, [])
        got = float(forward_log_prob(mhat_small, X, []).data)
        assert got == pytest.approx(log_blank[0, 0] + log_blank[1, 0], abs=1e-12)

    def test_two_paths_t2_u1(self, hat_small, rng):
        X = rng.standard_normal((2, 3))
        y = [1]
        got = float(forward_log_prob(hat_small, X, y).data)
        assert got == pytest.approx(brute_force_log_prob(hat_small, X, y), abs=1e-12)


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_random_instances(self, kind):
        rng = np.random.default_rng(7)
        make = small_mhat if kind == "mhat" else small_hat
        for trial in range(25):
            v = int(rng.choice([2, 3, 5]))
            model = make(vocab_size=v, seed=int(rng.integers(10000)))
            t_len = int(rng.integers(1, 5))
            u_len = int(rng.integers(0, 4))
            X = rng.standard_normal((t_len, 3))
            y = [int(i) for i in rng.integers(0, v, size=u_len)]
            fwd = float(forward_log_prob(model, X, y).data)
            ora = brute_force_log_prob(model, X, y)
            assert abs(fwd - ora) <= 1e-10 * max(1.0, abs(ora))
            assert fwd <= 1e-12  # log-probability

    @pytest.mark.parametrize("bias", [50.0, -800.0])
    @pytest.mark.parametrize("make", [small_mhat, small_hat], ids=["mhat", "hat"])
    def test_saturated_blank_stays_finite(self, make, rng, bias):
        # the blank posterior rounds to 1 (0), but its log-sigmoid arcs do not
        model = make()
        model.params["joint.v_bias"].data[...] = bias
        X, y = random_utterance(rng, t_len=3, u_len=2)
        want = float(forward_log_prob(model, X, y).data)
        assert math.isfinite(want)
        got = [build_lattice(model, X, y).log_prob, brute_force_log_prob(model, X, y)]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_structure_errors(self, mhat_small):
        with pytest.raises(StructureError):
            forward_log_prob(mhat_small, np.zeros((0, 3)), [1])
        with pytest.raises(StructureError):
            brute_force_log_prob(mhat_small, np.zeros((0, 3)), [])

    def test_brute_force_size_guard(self, mhat_small, rng):
        X = rng.standard_normal((11, 3))
        with pytest.raises(ValueError, match="refuses"):
            brute_force_log_prob(mhat_small, X, [0, 1, 0])


class TestAlphaBeta:
    def test_consistency(self, mhat_small, rng):
        X, y = random_utterance(rng, t_len=4, u_len=3)
        lat = build_lattice(mhat_small, X, y)
        assert lat.log_alpha[1, 0] == 0.0
        # beta at the origin reproduces the forward total
        assert lat.log_beta[1, 0] == pytest.approx(lat.log_prob, abs=1e-8)
        # terminal beta is the mandatory final blank
        assert lat.log_beta[lat.t_len, lat.u_len] == lat.log_blank[lat.t_len - 1, lat.u_len]

        combined = lat.log_alpha + lat.log_beta
        assert np.all(combined <= lat.log_prob + 1e-8)
        for k in range(1, lat.t_len + lat.u_len + 1):
            nodes = [
                combined[t, k - t]
                for t in range(max(1, k - lat.u_len), min(lat.t_len, k) + 1)
            ]
            assert nm.log_sum_exp(np.array(nodes)) == pytest.approx(lat.log_prob, abs=1e-8)

    def test_arc_occupancies_sum_to_one_per_cut(self, hat_small, rng):
        X, y = random_utterance(rng, t_len=3, u_len=2)
        lat = build_lattice(hat_small, X, y)
        t_len, u_len, tot = lat.t_len, lat.u_len, lat.log_prob
        for k in range(1, t_len + u_len):
            mass = 0.0
            for t in range(max(1, k - u_len), min(t_len, k) + 1):
                u = k - t
                if t <= t_len - 1:
                    mass += math.exp(
                        lat.log_alpha[t, u] + lat.log_blank[t - 1, u] + lat.log_beta[t + 1, u] - tot
                    )
                if u <= u_len - 1:
                    mass += math.exp(
                        lat.log_alpha[t, u] + lat.log_label[t - 1, u] + lat.log_beta[t, u + 1] - tot
                    )
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_occupancies_match_enumeration(self, mhat_small, rng):
        # tiny instance: occupancy of each arc from explicit path enumeration
        import itertools

        X, y = random_utterance(rng, t_len=2, u_len=1)
        lat = build_lattice(mhat_small, X, y)
        paths = []
        for labels_at in itertools.combinations(range(2), 1):
            t, u, lp, arcs = 1, 0, 0.0, []
            for arc in range(2):
                if arc in labels_at:
                    lp += lat.log_label[t - 1, u]
                    arcs.append(("lab", t, u))
                    u += 1
                else:
                    lp += lat.log_blank[t - 1, u]
                    arcs.append(("b", t, u))
                    t += 1
            lp += lat.log_blank[1, 1]
            paths.append((lp, arcs))
        total = nm.log_sum_exp(np.array([p for p, _ in paths]))
        assert total == pytest.approx(lat.log_prob, abs=1e-12)
        occ_enum = {}
        for lp, arcs in paths:
            w = math.exp(lp - total)
            for a in arcs:
                occ_enum[a] = occ_enum.get(a, 0.0) + w
        occ_blank_10 = math.exp(
            lat.log_alpha[1, 0] + lat.log_blank[0, 0] + lat.log_beta[2, 0] - lat.log_prob
        )
        assert occ_blank_10 == pytest.approx(occ_enum.get(("b", 1, 0), 0.0), abs=1e-10)
        occ_lab_10 = math.exp(
            lat.log_alpha[1, 0] + lat.log_label[0, 0] + lat.log_beta[1, 1] - lat.log_prob
        )
        assert occ_lab_10 == pytest.approx(occ_enum.get(("lab", 1, 0), 0.0), abs=1e-10)


class TestHatLoss:
    def test_empty_batch(self, mhat_small):
        assert float(hat_loss(mhat_small, []).data) == 0.0

    def test_single_item_closed_form(self, mhat_small, rng):
        X = rng.standard_normal((1, 3))
        loss = hat_loss(mhat_small, [(X, [0])])
        assert float(loss.data) == pytest.approx(
            -float(forward_log_prob(mhat_small, X, [0]).data), abs=1e-12
        )

    def test_batch_additive(self, mhat_small, rng):
        items = [random_utterance(rng, t_len=3), random_utterance(rng, t_len=2)]
        total = float(hat_loss(mhat_small, items).data)
        parts = sum(float(hat_loss(mhat_small, [it]).data) for it in items)
        assert total == pytest.approx(parts, abs=1e-12)

    def test_batch_permutation_bit_exact(self, mhat_small, rng):
        items = [random_utterance(rng, t_len=int(t)) for t in rng.integers(1, 5, size=6)]
        a = float(hat_loss(mhat_small, items).data)
        order = rng.permutation(len(items))
        b = float(hat_loss(mhat_small, [items[i] for i in order]).data)
        assert a == b

    def test_gradient_certified(self, mhat_small, rng):
        batch = [random_utterance(rng, t_len=3), random_utterance(rng, t_len=2, u_len=0)]
        err = nm.gradient_check(
            lambda p: hat_loss(mhat_small, batch), mhat_small.params, h=1e-4, num_coords=120, rng=rng
        )
        assert err <= 1e-4


# -- the batched lattice at the real experiment dims -------------------------

REAL = ExperimentConfig()


def real_model(kind, seed=0):
    vocab = Vocabulary.default(REAL.vocab_size)
    build = build_mhat if kind == "mhat" else build_hat
    return build(ExperimentConfig(seed=seed), vocab)


def mixed_batch(rng, shapes):
    """Utterances of the given (T, U), features at the data's scale."""
    return [
        (rng.standard_normal((t, REAL.d_x)), [int(i) for i in rng.integers(0, REAL.vocab_size, size=u)])
        for t, u in shapes
    ]


# T=1 and U=0 alone and together; the longest T (23) and the longest U (11)
# sit in different items; two items share a (T, U) shape
MIXED = [(7, 3), (1, 0), (23, 4), (1, 2), (5, 0), (9, 11), (12, 6), (2, 1), (23, 4)]


def loss_and_grads(model, batch, kind):
    loss = mhat_loss(model, batch, 0.1) if kind == "mhat" else hat_loss(model, batch)
    model.params.zero_grads()
    loss.backward()
    return float(loss.data), {n: t.grad.copy() for n, t in model.params.entries.items()}


@pytest.mark.parametrize("kind", ["mhat", "hat"])
class TestBatchedLattice:
    def test_items_match_single_utterance_calls(self, kind):
        model = real_model(kind)
        batch = mixed_batch(np.random.default_rng(5), MIXED)
        with nm.no_grad():
            totals = batch_log_probs(model, batch).data
            singles = [float(forward_log_prob(model, x, y).data) for x, y in batch]
        assert totals.shape == (len(batch),)
        np.testing.assert_allclose(totals, singles, rtol=0, atol=1e-12)
        assert np.all(totals < 0)

    def test_loss_and_every_gradient_bit_exact_under_shuffle(self, kind):
        model = real_model(kind)
        rng = np.random.default_rng(6)
        batch = mixed_batch(rng, MIXED)
        batch.append(batch[4])  # an exact duplicate must not break the canonical order
        loss, grads = loss_and_grads(model, batch, kind)
        for _ in range(3):
            order = rng.permutation(len(batch))
            loss2, grads2 = loss_and_grads(model, [batch[i] for i in order], kind)
            assert loss2 == loss
            for name, g in grads.items():
                assert np.array_equal(grads2[name], g), name

    def test_gradient_certified_on_mixed_batch(self, kind):
        model = real_model(kind, seed=4)
        rng = np.random.default_rng(7)
        batch = mixed_batch(rng, [(4, 2), (1, 0), (3, 0), (6, 4), (2, 3)])
        err = nm.gradient_check(
            lambda p: mhat_loss(model, batch, 0.1) if kind == "mhat" else hat_loss(model, batch),
            model.params, h=1e-4, num_coords=200, rng=rng,
        )
        assert err <= 1e-4

    def test_enumeration_oracle_at_real_dims(self, kind):
        model = real_model(kind, seed=2)
        batch = mixed_batch(np.random.default_rng(8), [(1, 0), (1, 3), (4, 3), (6, 5), (3, 0), (2, 7)])
        with nm.no_grad():
            totals = batch_log_probs(model, batch).data
        for (x, y), tot in zip(batch, totals):
            ora = brute_force_log_prob(model, x, y)
            assert abs(tot - ora) <= 1e-10 * max(1.0, abs(ora))


# -- the per-node lattice against the batched one, at real lengths -----------


@pytest.fixture(scope="module")
def src_train():
    """The seed-0 source-train utterances, longest by T + U first."""
    items = make_experiment_data(REAL).src_train.paired()
    return sorted(items, key=lambda it: -(len(it[0]) + len(it[1])))


@pytest.fixture(scope="module")
def longest_utterances(src_train):
    """The 4 longest seed-0 source-train utterances by T + U: T 80-88, U 40."""
    return src_train[:4]


def occupancies(lat):
    """Posterior occupancy exp(alpha + arc + beta - log P) of every arc, as
    (T, U+1) blank and (T, U) label grids; the final blank's is 1, and a blank
    out of the last frame before it has none."""
    alpha, beta = lat.log_alpha[1:], lat.log_beta[1:]
    blank = np.zeros_like(lat.log_blank)
    blank[:-1] = np.exp(alpha[:-1] + lat.log_blank[:-1] + beta[1:] - lat.log_prob)
    blank[-1, -1] = 1.0
    return blank, np.exp(alpha[:, :-1] + lat.log_label + beta[:, 1:] - lat.log_prob)


# Bounds from the measured spread on these utterances, with about ten times
# the room: arcs 1.1e-15 relative, log P 2.2e-16 relative, occupancies
# 2.8e-14 absolute.
@pytest.mark.parametrize("kind", ["mhat", "hat"])
def test_per_node_lattice_at_real_lengths(kind, longest_utterances):
    """`build_lattice`, node by node from the single-step heads, against the
    batched cells of `arc_log_scores`, the diagonals of `lattice_log_prob`
    and their backward rule (alpha and beta of every diagonal box)."""
    model, batch = real_model(kind), longest_utterances
    with nm.no_grad():
        log_blank, log_label, cells = model.arc_log_scores(batch)
    leaves = Tensor(log_blank.data, requires_grad=True), Tensor(log_label.data, requires_grad=True)
    totals = lattice_log_prob(*leaves, cells)
    nm.total(totals).backward()
    lats = [build_lattice(model, x, y) for x, y in batch]
    np.testing.assert_allclose([lat.log_prob for lat in lats], totals.data, rtol=2e-15, atol=0)
    arcs, occ = [(lat.log_blank, lat.log_label) for lat in lats], [occupancies(lat) for lat in lats]
    for arc, leaf in enumerate(leaves):  # blank, then label
        cell = list(zip(cells.b, cells.t, cells.u))[: leaf.size]  # the label arcs' cells come first
        np.testing.assert_allclose([arcs[i][arc][j, k] for i, j, k in cell], leaf.data, rtol=1e-14, atol=0)
        np.testing.assert_allclose([occ[i][arc][j, k] for i, j, k in cell], leaf.grad, rtol=0, atol=3e-13)


# -- directional finite differences at real lengths ---------------------------

FD_STEP = 1e-5
# From the measured spread: over 96 seeded unit directions (seeds 0-3, 8 each)
# the relative error was 6e-11 to 1.5e-8 but for one 2.4e-6 at a direction
# nearly orthogonal to the gradient; these 3 directions measured 6.4e-10 to
# 1.2e-8.  Dropping `_segment_sum`'s last row block measured 6.8e-5 at least.
FD_RTOL = 1e-6


@pytest.mark.parametrize("kind, alpha", [("mhat", 0.0), ("hat", 0.0), ("mhat", REAL.alpha)],
                         ids=["mhat-hat_loss", "hat-hat_loss", "mhat-mhat_loss"])
def test_directional_finite_differences_at_real_lengths(kind, alpha, src_train):
    """<grad L, d> against (L(theta + h d) - L(theta - h d)) / 2h over the 16
    longest seed-0 source-train utterances and 16 more at random: 52,516
    lattice cells, past `_segment_sum`'s row blocks and `_matmul_rows`'
    2,048 rows.  `mhat_loss` at alpha = 0 is `hat_loss` itself."""
    rest = src_train[16:]
    batch = src_train[:16] + [rest[i] for i in np.random.default_rng(0).choice(len(rest), 16, replace=False)]
    model = real_model(kind)
    loss = lambda: mhat_loss(model, batch, alpha)  # noqa: E731
    loss().backward()
    tensors = list(model.params.entries.values())
    grads, base = [t.grad for t in tensors], [t.data.copy() for t in tensors]
    rng = np.random.default_rng(0)
    for _ in range(3):
        d = [rng.standard_normal(t.data.shape) for t in tensors]
        norm = math.sqrt(sum(float((x * x).sum()) for x in d))
        want = sum(float((g * x).sum()) for g, x in zip(grads, d)) / norm
        sides = []
        for sign in (1.0, -1.0):
            for t, b, x in zip(tensors, base, d):
                t.data[...] = b + (sign * FD_STEP / norm) * x
            with nm.no_grad():
                sides.append(float(loss().data))
        np.testing.assert_allclose((sides[0] - sides[1]) / (2 * FD_STEP), want, rtol=FD_RTOL, atol=0)
