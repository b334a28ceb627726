"""Exact alignment-lattice log-likelihood, its gradients, and an enumeration oracle.

Lattice convention: node (t, u) means frame t is about to be consumed and u
labels have been emitted, for t in [1..T], u in [0..U].  A blank arc
(t, u) -> (t+1, u) consumes frame t; a label arc (t, u) -> (t, u+1) emits
label u+1 without consuming a frame.  Every alignment ends with a mandatory
final blank at (T, U) that consumes the last frame.

The dynamic program runs over anti-diagonals in plain numpy; the gradient
of the marginal log-probability with respect to each arc log-score is its
posterior occupancy, computed from the alpha/beta recursions and wired into
the engine as a custom backward rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nm
from .model import HatModel, MhatModel, label_posterior
from .numerics import Tensor


class StructureError(ValueError):
    """No alignment exists for the requested (T, U) pair."""


BRUTE_FORCE_LIMIT = 12  # max T+U accepted by the enumeration oracle


@dataclass
class AlignmentLattice:
    """Arc scores plus forward/backward quantities for one utterance.

    `log_alpha[t, u]` is the log mass of partial alignments reaching node
    (t, u); row 0 is an unused -inf boundary so the array is (T+1, U+1).
    `log_blank[t-1, u]` / `log_label[t-1, u]` hold the arc log-scores out
    of node (t, u).
    """

    t_len: int
    u_len: int
    log_blank: np.ndarray  # (T, U+1)
    log_label: np.ndarray  # (T, U)
    log_alpha: np.ndarray  # (T+1, U+1)
    log_beta: np.ndarray  # (T+1, U+1)
    log_prob: float


def _forward_alphas(lb: np.ndarray, ll: np.ndarray) -> np.ndarray:
    t_len, u1 = lb.shape
    u_len = u1 - 1
    alpha = np.full((t_len + 1, u_len + 1), -np.inf)
    alpha[1, 0] = 0.0
    for k in range(2, t_len + u_len + 1):
        ts = np.arange(max(1, k - u_len), min(t_len, k) + 1)
        us = k - ts
        vals = np.full(ts.shape, -np.inf)
        mb = ts >= 2
        if mb.any():
            tb, ub = ts[mb], us[mb]
            vals[mb] = alpha[tb - 1, ub] + lb[tb - 2, ub]
        ml = us >= 1
        if ml.any():
            tl, ul = ts[ml], us[ml]
            vals[ml] = np.logaddexp(vals[ml], alpha[tl, ul - 1] + ll[tl - 1, ul - 1])
        alpha[ts, us] = vals
    return alpha


def _backward_betas(lb: np.ndarray, ll: np.ndarray) -> np.ndarray:
    t_len, u1 = lb.shape
    u_len = u1 - 1
    beta = np.full((t_len + 1, u_len + 1), -np.inf)
    beta[t_len, u_len] = lb[t_len - 1, u_len]
    for k in range(t_len + u_len - 1, 0, -1):
        ts = np.arange(max(1, k - u_len), min(t_len, k) + 1)
        us = k - ts
        vals = np.full(ts.shape, -np.inf)
        mb = ts <= t_len - 1
        if mb.any():
            tb, ub = ts[mb], us[mb]
            vals[mb] = beta[tb + 1, ub] + lb[tb - 1, ub]
        ml = us <= u_len - 1
        if ml.any():
            tl, ul = ts[ml], us[ml]
            vals[ml] = np.logaddexp(vals[ml], beta[tl, ul + 1] + ll[tl - 1, ul])
        beta[ts, us] = vals
    return beta


def lattice_log_prob(log_blank: Tensor, log_label: Tensor) -> Tensor:
    """Marginal log-probability over all alignments, differentiable.

    The backward rule scatters the scalar upstream gradient onto each arc
    weighted by the arc's posterior occupancy; the mandatory final blank
    has occupancy one.
    """
    lb, ll = log_blank.data, log_label.data
    t_len = lb.shape[0]
    u_len = ll.shape[1]
    alpha = _forward_alphas(lb, ll)
    tot = alpha[t_len, u_len] + lb[t_len - 1, u_len]

    def vjp(g):
        g = float(g)
        beta = _backward_betas(lb, ll)
        if log_blank.requires_grad:
            gb = np.zeros_like(lb)
            if t_len > 1:
                gb[: t_len - 1, :] = np.exp(
                    alpha[1:t_len, :] + lb[: t_len - 1, :] + beta[2:, :] - tot
                )
            gb[t_len - 1, u_len] += 1.0
            log_blank._accumulate(g * gb)
        if log_label.requires_grad and u_len > 0:
            gl = np.exp(alpha[1:, :u_len] + ll + beta[1:, 1:] - tot)
            log_label._accumulate(g * gl)

    return nm._op(np.asarray(tot), (log_blank, log_label), vjp)


def check_structure(X: np.ndarray, tokens: Sequence[int]) -> None:
    """Raise StructureError when no alignment exists: every path needs a frame."""
    if np.asarray(X).shape[0] < 1:
        raise StructureError(
            f"no alignment exists for T={np.asarray(X).shape[0]}, U={len(tokens)}"
        )


def forward_log_prob(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> Tensor:
    """log P(tokens | X) by the forward recursion; scalar, graph-attached."""
    check_structure(X, tokens)
    log_blank, log_label = model.arc_log_scores(X, tokens)
    return lattice_log_prob(log_blank, log_label)


def build_lattice(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> AlignmentLattice:
    """Materialize arc scores and both recursions for inspection and tests."""
    check_structure(X, tokens)
    with nm.no_grad():
        log_blank, log_label = model.arc_log_scores(X, tokens)
    lb, ll = log_blank.data, log_label.data
    t_len, u_len = lb.shape[0], ll.shape[1]
    alpha = _forward_alphas(lb, ll)
    beta = _backward_betas(lb, ll)
    return AlignmentLattice(
        t_len=t_len,
        u_len=u_len,
        log_blank=lb,
        log_label=ll,
        log_alpha=alpha,
        log_beta=beta,
        log_prob=float(alpha[t_len, u_len] + lb[t_len - 1, u_len]),
    )


def backward_log_betas(lat: AlignmentLattice) -> np.ndarray:
    """Companion backward recursion over the stored arc scores."""
    return _backward_betas(lat.log_blank, lat.log_label)


def brute_force_log_prob(model: MhatModel | HatModel, X: np.ndarray, tokens: Sequence[int]) -> float:
    """Enumeration oracle: sum over every monotone alignment explicitly.

    Arc scores come from the single-step public heads (not the vectorized
    grid builder), so the oracle also cross-checks grid assembly.  Refuses
    instances beyond T+U <= 12.
    """
    check_structure(X, tokens)
    X = np.asarray(X, dtype=np.float64)
    t_len, u_len = X.shape[0], len(tokens)
    if t_len + u_len > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute_force_log_prob refuses T+U={t_len + u_len} > {BRUTE_FORCE_LIMIT}"
        )

    with nm.no_grad():
        f_rows = model.encode(X).data

        blank_cache: dict[tuple[int, int], float] = {}
        label_cache: dict[tuple[int, int], float] = {}

        def log_b(t: int, u: int) -> float:
            key = (t, u)
            if key not in blank_cache:
                prefix = tokens[:u]
                if isinstance(model, MhatModel):
                    b = model.blank_posterior(f_rows[t - 1], model.decode_blank(prefix))
                else:
                    b, _ = model.hat_joint(f_rows[t - 1], model.decode_state(prefix))
                blank_cache[key] = math.log(b)
                label_cache[key] = math.log1p(-b)
            return blank_cache[key]

        def log_label_arc(t: int, u: int) -> float:
            log_b(t, u)  # fill caches
            prefix = tokens[:u]
            if isinstance(model, MhatModel):
                post = label_posterior(
                    model.am_log_probs(f_rows[t - 1]),
                    model.ilm_log_probs(model.decode_label(prefix)),
                ).data
            else:
                _, lab = model.hat_joint(f_rows[t - 1], model.decode_state(prefix))
                post = lab.data
            return label_cache[(t, u)] + float(post[tokens[u]])

        paths = []
        n_arcs = t_len + u_len - 1  # before the forced final blank
        for label_positions in itertools.combinations(range(n_arcs), u_len):
            label_set = set(label_positions)
            t, u = 1, 0
            score = 0.0
            for arc in range(n_arcs):
                if arc in label_set:
                    score += log_label_arc(t, u)
                    u += 1
                else:
                    score += log_b(t, u)
                    t += 1
            score += log_b(t_len, u_len)
            paths.append(score)
    return nm.log_sum_exp(np.array(paths))


def hat_loss(model: MhatModel | HatModel, batch: Sequence[tuple[np.ndarray, Sequence[int]]]) -> Tensor:
    """Summed negative sequence log-likelihood over a batch.

    Per-item terms are added in value-sorted order so the total is
    bit-exact under batch permutation.
    """
    terms = [nm.neg(forward_log_prob(model, x, y)) for x, y in batch]
    if not terms:
        return Tensor(0.0)
    order = sorted(range(len(terms)), key=lambda i: float(terms[i].data))
    out = terms[order[0]]
    for i in order[1:]:
        out = nm.add(out, terms[i])
    return out
