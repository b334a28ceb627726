"""The training step against the pieces it replaced (tests/reference_engine.py).

The cell list, the segment sums, the fused hidden rows, the encoder
windows, the lattice, the label log-softmax and the blocked products must
give byte-identical arrays, and a whole step must give byte-identical
losses and gradients.  Both sides run in one process, so they share one
BLAS thread count.  Gradient handover must never let two tensors share one
gradient array, and the graph of a step must hold less than the old one.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import reference_engine as ref
from mhat import lattice as lattice_mod
from mhat import model as model_mod
from mhat import numerics as nm
from mhat.evalcli import ExperimentConfig, build_hat, build_mhat, make_experiment_data
from mhat.lattice import canonical_order, hat_loss
from mhat.losses import mhat_loss
from mhat.model import ConfigError, Encoder, EncoderConfig, lattice_cells
from mhat.numerics import EvaluationError, ParameterSet, Tensor
from mhat.training import TrainConfig, train_asr

CFG = ExperimentConfig(n_dev=0, n_test=0, n_adapt_text=0)
FIELDS = ("t_lens", "u_lens", "b", "t", "u", "frame", "ctx", "contexts", "labels")


@pytest.fixture(scope="module")
def real():
    """The vocabulary, the standard training corpus and its first 50
    minibatches as `train_asr` draws them at seed 0, each in canonical order."""
    exp = make_experiment_data(CFG)
    items = exp.src_train.paired()
    order = np.random.default_rng(CFG.seed).permutation(len(items))
    batches = []
    for start in range(0, 50 * CFG.batch_size, CFG.batch_size):
        chunk = [items[i] for i in order[start : start + CFG.batch_size]]
        batches.append([chunk[i] for i in canonical_order(chunk)])
    return exp.vocab, items, batches


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_cells(t_lens, seqs, sos_id):
    got, want = lattice_cells(t_lens, seqs, sos_id), ref.lattice_cells(t_lens, seqs, sos_id)
    for f in FIELDS:
        assert same_bytes(getattr(got, f), getattr(want, f)), f


def batch_windows(enc, xs):
    return np.concatenate([ref.windows(enc, x) for x in xs])


@pytest.fixture
def old_step(monkeypatch):
    """Patch the replaced pieces back in: the step as it was before them."""

    def install():
        monkeypatch.setattr(Tensor, "_hand_over", ref._accumulate)
        monkeypatch.setattr(nm, "_segment_sum", ref._segment_sum)
        monkeypatch.setattr(nm, "gather_sum", ref.gather_sum)
        monkeypatch.setattr(nm, "tanh_gather_sum", ref.tanh_gather_sum)
        monkeypatch.setattr(model_mod, "lattice_cells", ref.lattice_cells)
        monkeypatch.setattr(Encoder, "windows", batch_windows)
        monkeypatch.setattr(nm, "_matmul_rows", ref._matmul_rows)
        monkeypatch.setattr(nm, "log_softmax_at", ref.log_softmax_at)
        monkeypatch.setattr(lattice_mod, "lattice_log_prob", ref.lattice_log_prob)

    return install


class TestCellsOracle:
    def test_real_batches(self, real):
        vocab, _, batches = real
        for batch in batches:
            assert_same_cells([len(x) for x, _ in batch], [y for _, y in batch], vocab.sos_id)

    @pytest.mark.parametrize(
        "t_lens, seqs",
        [
            ([3], [[2, 0, 1]]),  # a batch of one
            ([1], [[]]),  # T = 1, U = 0
            ([4, 1, 2], [[], [], []]),  # no label cells
            ([1, 5, 1], [[3], [], [0, 0, 2]]),
            ([2, 0, 3], [[1, 2], [3], [2]]),  # an utterance without frames has no cells
            ([0], [[1]]),
        ],
    )
    def test_edge_cases(self, t_lens, seqs):
        assert_same_cells(t_lens, seqs, 4)


class TestSegmentSumOracle:
    def test_real_batch_ids(self, real):
        vocab, _, batches = real
        rng = np.random.default_rng(0)
        for batch in batches:
            cells = lattice_cells([len(x) for x, _ in batch], [y for _, y in batch], vocab.sos_id)
            n, k = cells.n_label, len(cells.contexts)
            for ids, rows in [
                (cells.frame, cells.t_lens.sum()),
                (cells.frame[:n], cells.t_lens.sum()),  # non-decreasing: no sort
                (cells.ctx, k),
                (cells.ctx[:n], k),
                (cells.contexts[:, 0], vocab.sos_id + 1),  # non-decreasing
                (cells.contexts[:, 1], vocab.sos_id + 1),
            ]:
                g = rng.standard_normal((ids.size, 32))
                assert same_bytes(nm._segment_sum(g, ids, rows), ref._segment_sum(g, ids, rows))

    @pytest.mark.parametrize(
        "ids, n",
        [
            (np.array([0, 0, 1, 3, 3, 3], dtype=np.int64), 5),  # sorted
            (np.array([3, 0, 3, 1, 0, 3], dtype=np.int64), 5),  # unsorted
            (np.zeros(0, dtype=np.int64), 4),  # empty
            (np.array([2], dtype=np.int64), 3),
            (np.zeros(7, dtype=np.int64), 1),  # one row: uint8 ids
            (np.random.default_rng(1).integers(0, 300, 2000), 300),  # uint16
            (np.random.default_rng(2).integers(0, 70_000, 100_000), 70_000),  # wider than 16 bits
            (np.sort(np.random.default_rng(3).integers(0, 70_000, 100_000)), 70_000),
            # every id occurs: the run sums are returned with no zero fill
            (np.array([0, 0, 1, 2, 2, 2, 3, 4], dtype=np.int64), 5),  # sorted
            (np.array([4, 1, 0, 3, 2, 2, 0, 1], dtype=np.int64), 5),  # unsorted
            (np.arange(6, dtype=np.int64), 6),  # one row per id
            (np.random.default_rng(5).permutation(np.arange(2000) % 300), 300),  # uint16, unsorted
        ],
    )
    @pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
    def test_edge_cases(self, ids, n, tail):
        g = np.random.default_rng(4).standard_normal((ids.size, *tail))
        assert same_bytes(nm._segment_sum(g, ids, n), ref._segment_sum(g, ids, n))


class TestSegmentSumBlocks:
    """Sums over more than SEGMENT_BLOCK_BYTES, which run in row blocks."""

    @staticmethod
    def check(ids, n, tail=(32,)):
        g = np.random.default_rng(6).standard_normal((ids.size, *tail))
        assert g.nbytes > 2 * nm.SEGMENT_BLOCK_BYTES
        assert same_bytes(nm._segment_sum(g, ids, n), ref._segment_sum(g, ids, n))

    def test_segment_longer_than_a_block(self):
        rows = nm.SEGMENT_BLOCK_BYTES // 256  # rows of a block at 32 columns
        ids = np.repeat(np.arange(4), [100, 3 * rows + 5, rows - 1, 900])
        self.check(ids, 4)
        self.check(np.random.default_rng(7).permutation(ids), 6)

    @pytest.mark.parametrize("run", [1, 2, 512, 1024])  # blocks end exactly where a run starts
    def test_block_cut_at_a_run_start(self, run):
        self.check(np.arange(8192) // run, 8192 // run)

    def test_one_dimensional_rows(self):
        rng = np.random.default_rng(8)
        self.check(rng.integers(0, 300, 200_000), 300, tail=())
        self.check(np.sort(rng.integers(0, 70_000, 200_000)), 70_000, tail=())

    @pytest.mark.parametrize("n", [1, 3])
    def test_all_ids_equal(self, n):
        self.check(np.zeros(9000, dtype=np.int64), n)
        self.check(np.zeros(70_000, dtype=np.int64), n, tail=())

    def test_unsorted_with_missing_rows(self):
        rng = np.random.default_rng(9)
        self.check(2 * rng.integers(0, 1000, 20_000), 2001)
        self.check(rng.integers(0, 50, 20_000), 300, tail=(2, 3))


def hidden_outputs(fn, a, ia, b, ib, seed):
    ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    h = fn(ta, ia, tb, ib)
    nm.total(nm.mul(h, np.random.default_rng(seed).standard_normal(h.shape))).backward()
    return h.data, ta.grad, tb.grad


def assert_same_hidden(a, ia, b, ib, seed=0):
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
    got = hidden_outputs(nm.tanh_gather_sum, a, ia, b, ib, seed)
    want = hidden_outputs(ref.tanh_gather_sum, a, ia, b, ib, seed)
    for x, y in zip(got, want):
        assert same_bytes(x, y)


class TestTanhGatherSumOracle:
    """The fused hidden-row op against tanh over the reference gather_sum:
    the same rows and the same gradient in both tables."""

    def test_real_batches(self, real):
        vocab, _, batches = real
        rng = np.random.default_rng(10)
        for i, batch in enumerate(batches):
            cells = lattice_cells([len(x) for x, _ in batch], [y for _, y in batch], vocab.sos_id)
            a = 2.0 * rng.standard_normal((cells.t_lens.sum(), 32))  # saturates some rows
            b = rng.standard_normal((len(cells.contexts), 32))
            assert_same_hidden(a, cells.frame, b, cells.ctx, seed=i)

    BLOCK = nm.SEGMENT_BLOCK_BYTES // (8 * 32)  # rows of one backward block at 32 columns

    @pytest.mark.parametrize(
        "ia, ib, na, nb",
        [
            ([], [], 4, 3),  # no cells
            ([2], [0], 4, 3),  # one cell
            ([1] * 40, [2] * 40, 4, 3),  # one id repeated
            (np.arange(BLOCK) // 3, np.arange(BLOCK) % 5, BLOCK // 3 + 1, 5),  # exactly one block
            (np.arange(BLOCK + 1) // 3, np.arange(BLOCK + 1) % 5, BLOCK // 3 + 1, 5),  # a row past it
            # unsorted frame ids, with table rows that no cell reads
            (2 * np.random.default_rng(11).integers(0, 500, 3000), np.random.default_rng(12).integers(0, 9, 3000), 1001, 12),
        ],
    )
    def test_edge_cases(self, ia, ib, na, nb):
        rng = np.random.default_rng(na)
        assert_same_hidden(3.0 * rng.standard_normal((na, 32)), ia, rng.standard_normal((nb, 32)), ib)

    def test_one_table_without_gradient(self):
        rng = np.random.default_rng(13)
        a, b = Tensor(rng.standard_normal((6, 8))), Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        ia, ib = np.array([5, 0, 0, 2]), np.array([1, 1, 0, 2])
        nm.total(nm.tanh_gather_sum(a, ia, b, ib)).backward()
        c = Tensor(b.data.copy(), requires_grad=True)
        nm.total(ref.tanh_gather_sum(a, ia, c, ib)).backward()
        assert a.grad is None and same_bytes(b.grad, c.grad)


def lattice_outputs(fn, log_blank, log_label, cells, g):
    a, c = Tensor(log_blank.copy(), requires_grad=True), Tensor(log_label.copy(), requires_grad=True)
    tot = fn(a, c, cells)
    nm.total(nm.mul(tot, g)).backward()
    return tot.data, a.grad, c.grad


def assert_same_lattice(log_blank, log_label, cells, seed=0):
    g = np.random.default_rng(seed).standard_normal(cells.t_lens.size)
    got = lattice_outputs(lattice_mod.lattice_log_prob, log_blank, log_label, cells, g)
    want = lattice_outputs(ref.lattice_log_prob, log_blank, log_label, cells, g)
    for x, y in zip(got, want):
        assert (x is None and y is None) or same_bytes(x, y)


class TestLatticeOracle:
    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_real_batches(self, real, kind):
        vocab, _, batches = real
        model = (build_mhat if kind == "mhat" else build_hat)(CFG, vocab)
        for i, batch in enumerate(batches[:20]):
            with nm.no_grad():
                log_blank, log_label, cells = model.arc_log_scores(batch)
            assert_same_lattice(log_blank.data, log_label.data, cells, seed=i)

    @pytest.mark.parametrize(
        "t_lens, seqs",
        [
            ([3], [[2, 0, 1]]),  # a batch of one
            ([1], [[]]),  # T = 1, U = 0
            ([1, 4, 1, 2], [[], [1, 2], [3], []]),
            ([4, 1, 2], [[], [], []]),  # no label arcs
            ([9, 2, 3], [[1], [0, 1, 2, 3, 2, 1], []]),  # the longest T and the longest U apart
            ([2, 3, 1, 3, 1], [[1, 1], [2], [0, 1, 2], [3], [0, 0, 0]]),  # equal T + U
        ],
    )
    def test_edge_cases(self, t_lens, seqs):
        cells = lattice_cells(t_lens, seqs, 4)
        rng = np.random.default_rng(len(t_lens))
        assert_same_lattice(-rng.exponential(size=cells.b.size), -rng.exponential(size=cells.n_label), cells)

    def test_signed_zeros_and_neg_inf_arcs(self):
        # every batch holds rows with U = 0, with T = 1 and with equal T + U; about
        # a third of the arcs are 0.0, -0.0, -inf or -800, so some rows have a log P
        # of -inf and NaN gradients, and some final blanks are -0.0 or -inf
        rng = np.random.default_rng(30)
        fixed = [(1, []), (1, [2]), (3, []), (2, [0]), (2, [0, 1]), (4, [1, 2, 0])]
        impossible = certain = False
        for seed in range(300):
            rows = fixed + [(int(rng.integers(1, 7)), rng.integers(0, 4, rng.integers(0, 5)).tolist())
                            for _ in range(rng.integers(0, 5))]
            t_lens, seqs = zip(*(rows[i] for i in rng.permutation(len(rows))))
            cells = lattice_cells(t_lens, seqs, 4)
            arcs = [np.where(rng.random(size) < 0.35, rng.choice([0.0, -0.0, -np.inf, -800.0], size),
                             -rng.exponential(size=size)) for size in (cells.b.size, cells.n_label)]
            g = np.random.default_rng(seed).standard_normal(len(rows))
            with np.errstate(invalid="ignore"):  # a log P of -inf: -inf - -inf in the occupancies
                got = lattice_outputs(lattice_mod.lattice_log_prob, *arcs, cells, g)
                want = lattice_outputs(ref.lattice_log_prob, *arcs, cells, g)
            for x, y in zip(got, want):
                assert same_bytes(x, y), seed
            impossible |= np.isneginf(got[0]).any()
            certain |= (got[0] == 0).any()
        assert impossible and certain  # some row has P = 0, some P = 1


class TestLogSoftmaxAtOracle:
    @pytest.mark.parametrize("width", [1, 2, 16, nm.ROW_MAX_FOLD_COLUMNS, nm.ROW_MAX_FOLD_COLUMNS + 1, 40])
    def test_rows(self, width):
        rng = np.random.default_rng(width)
        x = rng.standard_normal((3000, width))
        x[::7, 0] = 0.0  # signed zeros and ties at the row max
        x[::5] = np.where(rng.random((600, width)) < 0.5, -0.0, 0.0)
        x[3::11, -1] = -np.inf
        g = rng.standard_normal(3000)
        ids = rng.integers(0, width, 3000)
        out = []
        for fn in (nm.log_softmax_at, ref.log_softmax_at):
            t = Tensor(x.copy(), requires_grad=True)
            with np.errstate(invalid="ignore"):  # a picked -inf, and a width-1 row of -inf
                picked = fn(t, ids)
                nm.total(nm.mul(picked, g)).backward()
            out.append((picked.data, t.grad))
        for got, want in zip(*out):
            assert same_bytes(got, want)

    def test_nan_row(self):
        x = np.random.default_rng(3).standard_normal((6, 16))
        x[2, 9] = np.nan
        picked = nm.log_softmax_at(Tensor(x), np.arange(6))
        assert same_bytes(picked.data, ref.log_softmax_at(Tensor(x), np.arange(6)).data)
        assert np.isnan(picked.data).tolist() == [False, False, True, False, False, False]

    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_nan_logit_row_stops_training(self, real, monkeypatch, kind):
        vocab, items, _ = real
        picked_at = nm.log_softmax_at

        def poisoned(x, ids):
            x.data[1, -1] = np.nan  # one logit of one row, in the last column
            return picked_at(x, ids)

        monkeypatch.setattr(nm, "log_softmax_at", poisoned)
        model = (build_mhat if kind == "mhat" else build_hat)(CFG, vocab)
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError, match="epoch 1, batch 1"):
            train_asr(model, items[:64], TrainConfig(epochs=1, alpha=0.1 if kind == "mhat" else 0.0))


class TestMatmulRowsOracle:
    @pytest.mark.parametrize("rows", [1, nm.MATMUL_BLOCK_ROWS, nm.MATMUL_BLOCK_ROWS + 1, 3 * nm.MATMUL_BLOCK_ROWS + 17])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_blocks(self, rows, lead):
        rng = np.random.default_rng(rows)
        a = rng.standard_normal((rows, *lead, 40))
        w = rng.standard_normal((32, 40))
        assert same_bytes(nm._matmul_rows(a, w.T), ref._matmul_rows(a, w.T))


class TestWindowsOracle:
    def test_real_batches(self, real):
        vocab, _, batches = real
        enc = build_mhat(CFG, vocab).encoder
        for batch in batches:
            xs = [x for x, _ in batch]
            assert same_bytes(enc.windows(xs), batch_windows(enc, xs))

    @pytest.mark.parametrize("context", [0, 1, 3])
    # a batch with T=0 is a StructureError, in tests/test_edge_table.py
    @pytest.mark.parametrize("t_lens", [[1], [5], [1, 4, 1], pytest.param([2, 7, 1, 1], id="t_lens4")])
    def test_edge_cases(self, context, t_lens):
        enc = Encoder(ParameterSet(), EncoderConfig(d_x=3, context=context, d_f=4), np.random.default_rng(0))
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal((t, 3)) for t in t_lens]
        assert same_bytes(enc.windows(xs), batch_windows(enc, xs))

    def test_non_finite_names_the_frame_of_its_utterance(self):
        enc = Encoder(ParameterSet(), EncoderConfig(d_x=3), np.random.default_rng(0))
        xs = [np.zeros((4, 3)), np.zeros((5, 3)), np.zeros((3, 3))]
        xs[1][2, 1] = np.nan
        xs[2][0, 0] = np.inf
        with pytest.raises(ConfigError, match=r"non-finite feature nan at frame 2 of utterance 1$"):
            enc.windows(xs)

    def test_feature_dim_mismatch(self):
        enc = Encoder(ParameterSet(), EncoderConfig(d_x=3), np.random.default_rng(0))
        with pytest.raises(ConfigError, match="feature dim"):
            enc.windows([np.zeros((2, 3)), np.zeros((2, 4))])


def loss_fn(kind):
    if kind == "mhat":
        return lambda m, batch: mhat_loss(m, batch, 0.1)
    return hat_loss


def step_grads(model, kind, batches):
    out = []
    for batch in batches:
        loss = loss_fn(kind)(model, batch)
        model.params.zero_grads()
        loss.backward()
        out.append((loss.data.copy(), {n: t.grad.copy() for n, t in model.params.entries.items()}))
    return out


@pytest.mark.parametrize("kind", ["mhat", "hat"])
class TestStepIdentity:
    def test_gradients_byte_identical(self, real, old_step, kind):
        vocab, _, batches = real
        build = build_mhat if kind == "mhat" else build_hat
        new = step_grads(build(CFG, vocab), kind, batches[:5])
        old_step()
        old = step_grads(build(CFG, vocab), kind, batches[:5])
        for (loss, grads), (loss0, grads0) in zip(new, old):
            assert same_bytes(loss, loss0)
            assert grads.keys() == grads0.keys()
            for name in grads:
                assert same_bytes(grads[name], grads0[name]), name

    def test_training_byte_identical(self, real, old_step, kind):
        vocab, items, _ = real
        build = build_mhat if kind == "mhat" else build_hat
        cfg = TrainConfig(epochs=1, alpha=0.1 if kind == "mhat" else 0.0)
        new = build(CFG, vocab)
        curve = train_asr(new, items[:160], cfg)
        old_step()
        old = build(CFG, vocab)
        assert train_asr(old, items[:160], cfg) == curve
        assert new.params.checksum() == old.params.checksum()


# Bytes the graph of one step holds after its forward pass, against the
# graph under `old_step`, at the largest batch of `real` (15,071 cells).
# Measured 0.78 for both models (MHAT 13.2 against 17.0 MB, HAT 12.9
# against 16.6 MB); keeping the pre-activation rows again reads about 1.0,
# keeping `log_softmax_at`'s shifted rows again about 0.88.
LIVE_GRAPH_RATIO = 0.82


def live_after_forward(kind, vocab, batch):
    model = (build_mhat if kind == "mhat" else build_hat)(CFG, vocab)
    loss_fn(kind)(model, batch)  # fill the caches a first step fills
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = loss_fn(kind)(model, batch)  # kept alive while measured
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["mhat", "hat"])
def test_step_graph_holds_less_than_the_old_step(real, old_step, kind):
    vocab, _, batches = real
    batch = max(batches, key=lambda b: sum(len(x) * (len(y) + 1) for x, y in b))
    new = live_after_forward(kind, vocab, batch)
    old_step()
    old = live_after_forward(kind, vocab, batch)
    assert new <= LIVE_GRAPH_RATIO * old, (new, old)


class TestHandover:
    @pytest.mark.parametrize("kind", ["mhat", "hat"])
    def test_leaf_grads_never_share_memory(self, real, kind):
        vocab, _, batches = real
        model = (build_mhat if kind == "mhat" else build_hat)(CFG, vocab)
        loss = loss_fn(kind)(model, batches[0])
        model.params.zero_grads()
        loss.backward()
        grads = [(n, t.grad) for n, t in model.params.entries.items()]
        assert all(g is not None for _, g in grads)
        for (n1, g1), (n2, g2) in itertools.combinations(grads, 2):
            assert not np.shares_memory(g1, g2), (n1, n2)

    def test_one_tensor_on_many_paths(self, old_step):
        ctx = np.array([[2, 0], [0, 0], [1, 2], [2, 2]])  # repeated ids in both columns
        weights = np.array([[0.0, 1.5, 0.0, 2.0], [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 3.0, 0.0]])

        def grads(embed_affine, log_softmax_nll):
            rng = np.random.default_rng(9)
            x, u, v = (Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(3))
            w = Tensor(rng.standard_normal(8), requires_grad=True)
            W = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
            b = Tensor(rng.standard_normal(5), requires_grad=True)
            h = nm.tanh(x)
            parts = [
                nm.add(x, x),
                nm.add(u, v),  # one upstream array for two leaves without a gradient yet
                nm.mul(x, x),
                nm.mul(h, h),
                nm.neg(nm.mul(nm.add(h, x), h)),
                nm.dot(ref.concat(x, v), w, b[0]),
                ref.concat(h, h),
                x[1],
                x[np.array([0, 2, 0])],
                ref.gather_rows(h, np.array([2, 2, 1])),
                nm.log_softmax(ref.concat(h, x)),
                embed_affine(x, x, ctx, W, b),  # a tied leaf table
                embed_affine(h, h, ctx, W, b),
                embed_affine(h, x, ctx[1], W, b),
                log_softmax_nll(h, weights),
                log_softmax_nll(x, weights[:, :3]),
            ]
            loss = nm.total(parts[0])
            for p in parts[1:]:
                loss = nm.add(loss, nm.total(nm.mul(p, p)))
            loss.backward()
            leaves = (x.grad, u.grad, v.grad, w.grad, W.grad, b.grad)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(leaves, 2))
            return leaves

        def old_embed_affine(t0, t1, ids, W, b):
            return nm.affine(ref.concat(ref.gather_rows(t0, ids[..., 0]), ref.gather_rows(t1, ids[..., 1])), W, b)

        new = grads(nm.embed_affine, nm.log_softmax_nll)
        old_step()
        for got, want in zip(new, grads(old_embed_affine, ref.log_softmax_nll)):
            assert same_bytes(got, want)
