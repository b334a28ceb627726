"""Log-space numerics and a small reverse-mode gradient engine.

Everything downstream (lattice training, internal-LM losses, adaptation)
differentiates through the ops defined here.  The engine is deliberately
minimal: dense float64 arrays, only the ops the losses need, and a
finite-difference certifier (`gradient_check`) that is the contract every
analytic gradient must pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "ParameterSet",
    "ShapeError",
    "Tensor",
    "add",
    "affine",
    "check_finite",
    "dot",
    "embed_affine",
    "gather_sum",
    "gradient_check",
    "log_sigmoid",
    "log_softmax",
    "log_softmax_at",
    "log_softmax_nll",
    "log_softmax_rows",
    "log_sum_exp",
    "mul",
    "neg",
    "no_grad",
    "sigmoid",
    "take",
    "tanh",
    "tanh_gather_sum",
    "total",
]


class ShapeError(ValueError):
    """Operands whose shapes do not conform."""


class EvaluationError(RuntimeError):
    """A loss evaluation produced a non-finite value."""


def check_finite(loss: "Tensor", where: str) -> None:
    """Raise EvaluationError naming `where` if a loss value is NaN or infinite."""
    if not np.isfinite(loss.data):
        raise EvaluationError(f"non-finite loss {float(loss.data)!r} at {where}")


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Suspend graph construction (decoding, teacher/snapshot evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus reverse-mode bookkeeping.

    Tensors are treated as immutable values by every op; training code
    mutates `.data` in place only between graph constructions.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def _ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64)
        else:
            self.grad += g

    def _hand_over(self, g: np.ndarray) -> None:
        """`_accumulate` an array the caller has just allocated and never touches
        again: a first gradient of the right shape is kept, not copied.  (A
        ufunc of 0-d arrays returns a numpy scalar, which is copied.)"""
        if self.grad is None and type(g) is np.ndarray and g.shape == self.data.shape:
            self.grad = g
        else:
            self._accumulate(g)

    def backward(self) -> None:
        """Reverse-mode accumulation from a scalar output into leaf grads.

        An interior node's gradient is released once passed on, so only a
        few of them are alive at a time, and a second backward pass over
        the same graph starts from zero.
        """
        if self.data.ndim != 0:
            raise ShapeError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(1.0))
        for node in reversed(order):
            if node._vjp is not None and node.grad is not None:
                node._vjp(node.grad)
                node.grad = None

    def __getitem__(self, idx):
        return take(self, idx)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _op(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise / structural ops ---------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def vjp(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _op(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = _coerce(a)

    def vjp(g):
        if a.requires_grad:
            a._hand_over(-g)

    return _op(-a.data, (a,), vjp)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def vjp(g):
        if a.requires_grad:
            a._hand_over(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._hand_over(_unbroadcast(g * a.data, b.data.shape))

    return _op(data, (a, b), vjp)


def take(a, idx) -> Tensor:
    """Indexing with gradient scatter.

    Supports basic (int/slice) indexing and pure integer-array gathering;
    the two styles must not be mixed in one index tuple.
    """
    a = _coerce(a)
    data = a.data[idx]
    fancy = any(
        isinstance(i, (np.ndarray, list)) for i in (idx if isinstance(idx, tuple) else (idx,))
    )

    def vjp(g):
        if not a.requires_grad:
            return
        buf = a._ensure_grad()
        if fancy:
            np.add.at(buf, idx, g)
        else:
            buf[idx] += g

    return _op(data, (a,), vjp)


def total(a) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = _coerce(a)

    def vjp(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.data.shape))

    return _op(a.data.sum(), (a,), vjp)


# Segment sums over more bytes than this run in row blocks: `np.add.reduceat`
# over a gathered block that stays in cache is faster than over the whole
# array at once (about 1.6 -> 1.1 ms for the ~10k x 32 gradient rows of a
# training step).
SEGMENT_BLOCK_BYTES = 1 << 18


def _segment_sum(g: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Row i of `g` added into row ids[i] of an (n, ...) zero array.

    A stable sort by id (none when `ids` is already non-decreasing), then
    `np.add.reduceat` over the runs of equal ids: each row sum keeps the
    order of `ids`, with no per-element scatter.  Over more than
    SEGMENT_BLOCK_BYTES, the runs are summed in row blocks of about that
    size, each gathered in sorted order on its own; a block ends only where
    a run starts, so each run is the same reduction over the same rows.
    When every id occurs, the run sums are already the n rows in order,
    and no zero array is filled.
    """
    if not ids.size:
        return np.zeros((n, *g.shape[1:]))
    s, order = ids, None
    if (s[1:] < s[:-1]).any():
        # a stable sort's permutation is unique, so the narrowest id type
        # (a radix sort up to 16 bits) gives the int64 sort's order
        order = np.argsort(ids.astype(np.min_scalar_type(n - 1)), kind="stable")
        s = ids[order]
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    step = SEGMENT_BLOCK_BYTES // (g[:1].nbytes or 1)  # rows per block
    if ids.size <= step:
        sums = np.add.reduceat(g if order is None else g[order], starts, axis=0)
    else:
        sums = np.empty((starts.size, *g.shape[1:]))
        bounds = np.append(starts, ids.size)
        lo = 0  # the block's first run
        while lo < starts.size:
            # the last run start within `step` rows, or the next one if the run is longer
            hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + step, side="right")) - 1)
            a, b = bounds[lo], bounds[hi]
            block = g[a:b] if order is None else g[order[a:b]]
            np.add.reduceat(block, starts[lo:hi] - a, axis=0, out=sums[lo:hi])
            lo = hi
    if starts.size == n:
        return sums
    out = np.zeros((n, *g.shape[1:]))
    out[s[starts]] = sums
    return out


def gather_sum(a, ia, b, ib) -> Tensor:
    """Rows a[ia] + b[ib]; only the sum is kept for the backward pass, whose
    gradient sums the rows of each index into its table row."""
    a, b = _coerce(a), _coerce(b)
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)

    def vjp(g):
        if a.requires_grad:
            a._hand_over(_segment_sum(g, ia, a.data.shape[0]))
        if b.requires_grad:
            b._hand_over(_segment_sum(g, ib, b.data.shape[0]))

    data = np.take(a.data, ia, axis=0)
    data += np.take(b.data, ib, axis=0)
    return _op(data, (a, b), vjp)


def tanh_gather_sum(a, ia, b, ib) -> Tensor:
    """tanh(a[ia] + b[ib]) as one op, keeping only its output h.

    The pre-activation rows are built and squashed in one buffer, so the
    graph holds one rows x width array where `tanh(gather_sum(...))` held
    two.  The backward pass scales the upstream gradient, which the node
    owns, in place by 1 - h^2, in row blocks of about SEGMENT_BLOCK_BYTES,
    then sums it into both tables as `gather_sum` does.  Both passes run
    the float operations of `tanh(gather_sum(...))`.  At the largest
    seed-0 training batch of the standard config (15,071 cells x 32) the
    graph holds 3.9 MB less.
    """
    a, b = _coerce(a), _coerce(b)
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
    h = np.take(a.data, ia, axis=0)
    h += np.take(b.data, ib, axis=0)
    np.tanh(h, out=h)

    def vjp(g):
        step = max(1, SEGMENT_BLOCK_BYTES // (h[:1].nbytes or 1))  # rows per block
        for i in range(0, len(h), step):
            d = h[i : i + step] * h[i : i + step]
            np.subtract(1.0, d, out=d)
            g[i : i + step] *= d
        if a.requires_grad:
            a._hand_over(_segment_sum(g, ia, a.data.shape[0]))
        if b.requires_grad:
            b._hand_over(_segment_sum(g, ib, b.data.shape[0]))

    return _op(h, (a, b), vjp)


# -- linear maps ---------------------------------------------------------


# Products over more rows than this run in row blocks, and the blocks fix
# the bits: an unblocked product need not round as its blocks do.  Over
# 2,049-20,000 rows at the engine's weight shapes, a plain `a @ m` differed
# from the blocked product in 16 of 112 forward and backward products
# (numpy 2.4.6, OpenBLAS 0.3.31, SkylakeX kernel, one thread), so
# unblocking would change every trained model.  Whether the blocks also
# save memory under the one BLAS thread that `import mhat` sets is
# unmeasured.
MATMUL_BLOCK_ROWS = 2048


def _matmul_rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m over the trailing axis of `a`, at most MATMUL_BLOCK_ROWS rows per call."""
    rows = a.reshape(-1, a.shape[-1])
    if rows.shape[0] <= MATMUL_BLOCK_ROWS:
        return a @ m
    step = MATMUL_BLOCK_ROWS
    out = np.empty((rows.shape[0], m.shape[1]), dtype=np.result_type(a, m))
    for i in range(0, rows.shape[0], step):
        np.matmul(rows[i : i + step], m, out=out[i : i + step])
    return out.reshape(*a.shape[:-1], m.shape[1])


def affine(x, W, b=None) -> Tensor:
    """W x + b applied over the trailing axis of `x`."""
    x, W = _coerce(x), _coerce(W)
    if W.data.ndim != 2:
        raise ShapeError(f"affine: W must be a matrix, got shape {W.data.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != W.data.shape[1]:
        raise ShapeError(
            f"affine: x with shape {x.data.shape} does not conform with W {W.data.shape}"
        )
    m, n = W.data.shape
    data = _matmul_rows(x.data, W.data.T)
    parents: tuple[Tensor, ...]
    if b is not None:
        b = _coerce(b)
        if b.data.shape != (m,):
            raise ShapeError(
                f"affine: bias with shape {b.data.shape} does not conform with W {W.data.shape}"
            )
        data = data + b.data
        parents = (x, W, b)
    else:
        parents = (x, W)

    def vjp(g):
        g2 = g.reshape(-1, m)
        if x.requires_grad:
            x._hand_over(_matmul_rows(g, W.data))
        if W.requires_grad:
            W._hand_over(g2.T @ x.data.reshape(-1, n))
        if b is not None and b.requires_grad:
            b._hand_over(g2.sum(axis=0))

    return _op(data, parents, vjp)


def embed_affine(t0, t1, ctx, W, b) -> Tensor:
    """affine(concat(t0[ctx[..., 0]], t1[ctx[..., 1]]), W, b) as one op.

    Both passes replay the float operations of the row gathers, the concat
    and the affine map they stand for.  The backward pass makes the same
    product and sum as `affine`, then one `_segment_sum` per table over its
    half of the input gradient; tied tables (`t1 is t0`) take both, `t0`'s
    first.  A 1-D `ctx` gives a 1-D output.
    """
    t0, t1, W, b = _coerce(t0), _coerce(t1), _coerce(W), _coerce(b)
    ids0 = np.asarray(ctx[..., 0], dtype=np.int64)
    ids1 = np.asarray(ctx[..., 1], dtype=np.int64)
    m, n = W.data.shape
    d = t0.data.shape[1]
    e = np.concatenate([t0.data[ids0], t1.data[ids1]], axis=-1)
    data = _matmul_rows(e, W.data.T) + b.data

    def vjp(g):
        g2 = g.reshape(-1, m)
        if t0.requires_grad or t1.requires_grad:
            ge = _matmul_rows(g, W.data).reshape(-1, n)
        if W.requires_grad:
            W._hand_over(g2.T @ e.reshape(-1, n))
        if b.requires_grad:
            b._hand_over(g2.sum(axis=0))
        if t0.requires_grad:
            t0._hand_over(_segment_sum(ge[:, :d], ids0.reshape(-1), t0.data.shape[0]))
        if t1.requires_grad:
            t1._hand_over(_segment_sum(ge[:, d:], ids1.reshape(-1), t1.data.shape[0]))

    return _op(data, (t0, t1, W, b), vjp)


def dot(x, w, b=None) -> Tensor:
    """Inner product with a vector over the trailing axis, plus a scalar bias."""
    x, w = _coerce(x), _coerce(w)
    if w.data.ndim != 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"dot: x with shape {x.data.shape} does not conform with w {w.data.shape}"
        )
    h = w.data.shape[0]
    data = x.data @ w.data
    parents: tuple[Tensor, ...]
    if b is not None:
        b = _coerce(b)
        if b.data.shape not in ((), (1,)):
            raise ShapeError(f"dot: bias must be scalar, got shape {b.data.shape}")
        data = data + b.data.reshape(())
        parents = (x, w, b)
    else:
        parents = (x, w)

    def vjp(g):
        if x.requires_grad:
            x._hand_over(g[..., None] * w.data)
        if w.requires_grad:
            w._hand_over(g.reshape(-1) @ x.data.reshape(-1, h))
        if b is not None and b.requires_grad:
            b._hand_over(np.asarray(g.sum()).reshape(b.data.shape))

    return _op(data, parents, vjp)


# -- nonlinearities -------------------------------------------------------


def tanh(x) -> Tensor:
    x = _coerce(x)
    data = np.tanh(x.data)

    def vjp(g):
        if x.requires_grad:
            d = data * data
            np.subtract(1.0, d, out=d)
            d *= g
            x._hand_over(d)

    return _op(data, (x,), vjp)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z):
    """Stable logistic function; plain values in (0,1), no graph."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if out.ndim == 0 else out


def log_sigmoid(x) -> Tensor:
    """log(sigmoid(x)); finite for all finite inputs."""
    x = _coerce(x)
    data = -_softplus(-x.data)

    def vjp(g):
        if x.requires_grad:
            # d/dx log sigmoid(x) = sigmoid(-x)
            x._hand_over(g * sigmoid(-x.data))

    return _op(data, (x,), vjp)


def log_softmax(x) -> Tensor:
    """Log-probabilities along the trailing axis, stable via max subtraction."""
    x = _coerce(x)
    if x.data.ndim == 0 or x.data.shape[-1] == 0:
        raise ShapeError("log_softmax: empty input")
    data = log_softmax_rows(x.data)

    def vjp(g):
        if x.requires_grad:
            sm = np.exp(data)
            x._hand_over(g - sm * g.sum(axis=-1, keepdims=True))

    return _op(data, (x,), vjp)


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    """The values of `log_softmax` on a plain array, with no graph."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# Rows up to this wide take their max as a fold of `np.maximum` over columns:
# at 16 columns and 10^4 rows that is about 0.2 ms against 0.9 ms for
# `max(axis=-1)`, which pays per row.  Wider rows pay per column instead.
# The max of a row is the same whatever the order.
ROW_MAX_FOLD_COLUMNS = 24


def log_softmax_at(x, ids) -> Tensor:
    """log_softmax(x)[i, ids[i]] for each row i of a 2-D `x`.

    Only the picked entries, the row maxima m and the row log-sum-exps are
    stored, not the shifted rows x - m, which would duplicate `x`.  The
    backward pass rebuilds x - m in one buffer and turns it into the
    gradient in place, with the float operations of the stored-rows form.
    At the largest seed-0 training batch of the standard config (14,345
    label cells x 16) the graph holds 1.8 MB less.
    """
    x = _coerce(x)
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.arange(ids.size)
    if x.data.shape[1] <= ROW_MAX_FOLD_COLUMNS:
        m = x.data[:, 0].copy()
        for j in range(1, x.data.shape[1]):
            np.maximum(m, x.data[:, j], out=m)
        m = m[:, None]
    else:
        m = x.data.max(axis=-1, keepdims=True)
    e = x.data - m
    lse = np.log(np.exp(e, out=e).sum(axis=-1, keepdims=True))

    def vjp(g):
        if x.requires_grad:
            grad = x.data - m
            grad -= lse
            np.exp(grad, out=grad)
            grad *= -g[:, None]
            grad[rows, ids] += g
            x._hand_over(grad)

    return _op((x.data[rows, ids] - m[:, 0]) - lse[:, 0], (x,), vjp)


def log_softmax_nll(logits, weights) -> Tensor:
    """-sum(weights * log_softmax(logits)), over the non-zero weights only.

    `weights` may leave trailing classes out (an LM scored without its end
    event).  A -inf log-prob that no weight uses cannot turn the sum into NaN.
    Both passes replay the float operations of `log_softmax`, a pick at the
    non-zero weights, a product with them, a sum and a negation; the pick's
    scatter writes 0.0 + g, as `np.add.at` into zeros did, so a -0.0 comes
    back as +0.0.
    """
    x = _coerce(logits)
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ShapeError(f"log_softmax_nll: logits must be (rows, classes >= 1), got {x.data.shape}")
    k, n = x.data.shape
    if np.ndim(weights) != 2 or np.shape(weights)[0] != k or np.shape(weights)[1] > n:
        raise ShapeError(f"log_softmax_nll: weights {np.shape(weights)} do not fit logits {x.data.shape}")
    rows = log_softmax_rows(x.data)
    r, c = np.nonzero(weights)
    w = np.asarray(weights[r, c], dtype=np.float64)

    def vjp(g):
        if x.requires_grad:
            gr = np.zeros_like(rows)
            gr[r, c] = 0.0 + -g * w
            x._hand_over(gr - np.exp(rows) * gr.sum(axis=-1, keepdims=True))

    return _op(-(w * rows[r, c]).sum(), (x,), vjp)


_TINY = np.finfo(np.float64).tiny


def log_sum_exp(z, axis=None):
    """Stable log-sum-exp; tolerates -inf entries (empty-path sentinel)."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ShapeError("log_sum_exp: empty input")
    keep = axis is not None
    m = z.max(axis=axis, keepdims=keep)
    # with finite maxima every sum holds exp(0) = 1, so the shift needs no
    # guard and the sum no floor: this is the guarded form's float ops
    if np.isfinite(m).all() if keep else math.isfinite(m):
        out = np.log(np.exp(z - m).sum(axis=axis, keepdims=keep)) + m
    else:
        # a sum is >= exp(0) = 1 unless its entries are all -inf, where
        # log(tiny) + m is -inf as well: no log(0)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        out = np.log(np.maximum(np.exp(z - m_safe).sum(axis=axis, keepdims=keep), _TINY)) + m
    return out.squeeze(axis) if keep else float(out)


# -- parameters -----------------------------------------------------------

GROUPS = ("encoder", "blank_branch", "ilm")


class ParameterSet:
    """Named, grouped trainable tensors.

    Names are unique dotted paths; every entry belongs to exactly one of
    the groups in ``GROUPS``, the unit of freezing and checkpointing.
    """

    def __init__(self):
        self.entries: dict[str, Tensor] = {}
        self.group: dict[str, str] = {}

    def add(self, name: str, values: np.ndarray, group: str) -> Tensor:
        if name in self.entries:
            raise ValueError(f"duplicate parameter name: {name}")
        if group not in GROUPS:
            raise ValueError(f"unknown parameter group: {group}")
        t = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        self.entries[name] = t
        self.group[name] = group
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def group_names(self, group: str) -> list[str]:
        return [n for n, g in self.group.items() if g == group]

    def zero_grads(self) -> None:
        for t in self.entries.values():
            t.grad = None

    def size(self) -> int:
        return sum(t.size for t in self.entries.values())

    def group_sizes(self) -> dict[str, int]:
        out = {g: 0 for g in GROUPS}
        for n, t in self.entries.items():
            out[self.group[n]] += t.size
        return out

    def checksum(self, groups: Sequence[str] | None = None) -> str:
        gs = set(groups) if groups is not None else set(GROUPS)
        h = hashlib.sha256()
        for n in sorted(self.entries):
            if self.group[n] not in gs:
                continue
            t = self.entries[n]
            h.update(n.encode())
            h.update(str(t.data.shape).encode())
            h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()


def gradient_check(
    loss_fn: Callable[[ParameterSet], Tensor],
    params: ParameterSet,
    h: float = 1e-4,
    num_coords: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples `num_coords` coordinates across all parameters; for each,
    compares the analytic gradient of `loss_fn` with
    (L(theta+h) - L(theta-h)) / 2h using
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if h <= 0:
        raise ValueError("gradient_check: h must be positive")
    rng = rng or np.random.default_rng(0)

    out = loss_fn(params)
    if not np.isfinite(out.data):
        raise EvaluationError("non-finite loss at the unperturbed point")
    params.zero_grads()
    out.backward()
    analytic = {
        n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for n, t in params.entries.items()
    }

    coords: list[tuple[str, int]] = []
    for n, t in params.entries.items():
        coords.extend((n, i) for i in range(t.size))
    if len(coords) > num_coords:
        picks = rng.choice(len(coords), size=num_coords, replace=False)
        coords = [coords[i] for i in picks]

    max_rel = 0.0
    for name, i in coords:
        t = params[name]
        orig = t.data.flat[i]
        t.data.flat[i] = orig + h
        lp = float(loss_fn(params).data)
        t.data.flat[i] = orig - h
        lm = float(loss_fn(params).data)
        t.data.flat[i] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise EvaluationError(f"non-finite loss when perturbing {name}[{i}]")
        numeric = (lp - lm) / (2.0 * h)
        ana = analytic[name].flat[i]
        rel = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
        max_rel = max(max_rel, rel)
    return max_rel
