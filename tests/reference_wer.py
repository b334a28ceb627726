"""The move-matrix WER alignment that the forward table replaced.

Kept verbatim as a test oracle: a numpy cost matrix and a move matrix
filled one cell at a time, then a backtrace from the last cell.
`mhat.evalcli.wer_counts` must return the same counts on every pair.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def wer_counts(ref: Sequence[int], hyp: Sequence[int]) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) of a minimum-edit alignment.

    Ties prefer substitutions over insert+delete pairs (diagonal moves
    first in the backtrace), then deletions over insertions.
    """
    n, m = len(ref), len(hyp)
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    move = np.zeros((n + 1, m + 1), dtype=np.int8)  # 0 diag, 1 del, 2 ins
    cost[:, 0] = np.arange(n + 1)
    cost[0, :] = np.arange(m + 1)
    move[1:, 0] = 1
    move[0, 1:] = 2
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = cost[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = cost[i - 1, j] + 1
            ins = cost[i, j - 1] + 1
            best = min(diag, dele, ins)
            cost[i, j] = best
            move[i, j] = 0 if diag == best else (1 if dele == best else 2)
    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        mv = move[i, j]
        if mv == 0:
            subs += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif mv == 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return int(subs), int(ins), int(dels)
