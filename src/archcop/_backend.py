"""The exact per-pair concordance behind the Monte Carlo Kendall tau.

Knight (1966, JASA 61:436): sort the pairs by (x, y) and merge-sort the y
ranks in that order.  Pairs tied in x are sorted by y and a pair tied only
in y is never inverted, so the inversions are exactly the discordant pairs,
and an entry's summed moves over the merge levels are D_i, its number of
discordant partners.  With tx_i, ty_i and txy_i the sizes of its tie groups
in x, in y and in both, the entry's concordance difference is

    c_i = sum_j sgn(x_i - x_j) sgn(y_i - y_j) = n - tx_i - ty_i + txy_i - 2 D_i,

and sum(c_i) / 2 is (#concordant - #discordant).  One vectorised numpy
pass per merge width makes this O(n log n) in exact integers.
"""

from __future__ import annotations

import numpy as np

KERNEL_BACKEND = "merge"


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """True where a run of equal entries begins in a sorted array."""
    starts = np.ones(sorted_values.size, dtype=bool)
    starts[1:] = sorted_values[1:] != sorted_values[:-1]
    return starts


def _run_sizes(run_starts: np.ndarray) -> np.ndarray:
    """The size of each entry's run, given where each run begins."""
    runs = np.diff(np.r_[np.flatnonzero(run_starts), run_starts.size])
    return np.repeat(runs, runs)


def _discordant(keys: np.ndarray) -> np.ndarray:
    """For each entry, the number of entries it is inverted with (keys in [0, n)).

    At width w the array is sorted within each block of w.  Tagging each
    entry with its 2w-block (block number in the bits above the keys') and
    sorting stably merges the two halves of every block in place, left
    entries first among equals, so each entry moves past exactly the
    other-half entries it is inverted with.  The merges together are a
    stable sort of ``keys``, which tells where each entry's summed moves
    end up.
    """
    n = keys.size
    bits = n.bit_length()
    pos = np.arange(n, dtype=np.int64)
    moved = np.zeros(n, dtype=np.int64)
    merged = keys.astype(np.int64)
    spare = np.empty_like(moved)
    for level in range(1, (n - 1).bit_length() + 1):  # merge blocks of 2**level
        np.right_shift(pos, level, out=spare)
        spare <<= bits
        spare |= merged
        order = np.argsort(spare, kind="stable")
        np.take(spare, order, out=merged, mode="clip")
        merged &= (1 << bits) - 1
        np.take(moved, order, out=spare, mode="clip")
        moved, spare = spare, moved
        order -= pos
        moved += np.abs(order, out=order)
        del order  # before the next argsort
    spare[np.argsort(keys, kind="stable")] = moved
    return spare


def concordance_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each pair's c_i = sum_j sgn(x_i - x_j) sgn(y_i - y_j), in input order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    order = np.argsort(y, kind="stable")
    ranks = np.cumsum(_run_starts(y[order])) - 1  # the count of smaller distinct y
    by_x = np.argsort(x[order], kind="stable")  # ties stay in y order
    order, ranks = order[by_x], ranks[by_x]  # Knight's (x, y) order
    del by_x  # the merge below is the peak of memory
    c = n - 2 * _discordant(ranks)
    new_x = _run_starts(x[order])
    c += _run_sizes(new_x | _run_starts(ranks))
    c -= _run_sizes(new_x)
    c -= np.bincount(ranks)[ranks]
    out = np.empty(n, dtype=np.int64)
    out[order] = c
    return out
