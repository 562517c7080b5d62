"""The exact concordance count behind the Monte Carlo Kendall tau.

Knight (1966, JASA 61:436): sort the pairs by (x, y), count the inversions
("swaps") of y in that order, and correct for ties:

    C - D = n0 - n1 - n2 + n3 - 2 * swaps,

with n0 = n(n-1)/2 and n1, n2, n3 the pairs tied in x, in y and in both.
Pairs tied in x are sorted by y, so they never count as swaps, and a pair
tied only in y is never inverted; so swaps is exactly the discordant count.
The inversions are counted by a bottom-up merge, one vectorised numpy pass
per block width, so the whole count is O(n log n) with exact integers.
"""

from __future__ import annotations

import numpy as np

KERNEL_BACKEND = "merge"


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """True where a run of equal entries begins in a sorted array."""
    return np.r_[True, sorted_values[1:] != sorted_values[:-1]]


def _tied_pairs(run_starts: np.ndarray) -> int:
    """Pairs within the same run, given where each run begins."""
    runs = np.diff(np.r_[np.flatnonzero(run_starts), run_starts.size])
    return int((runs * (runs - 1) // 2).sum())


def _inversions(keys: np.ndarray) -> int:
    """Pairs i < j with keys[i] > keys[j]; keys are integers in [0, n).

    At width w the array is sorted within each block of w.  Tagging each
    entry with its 2w-block (block * n + key) and sorting stably merges the
    two halves of every block in place, left entries first among equals.
    Each left entry then moves right by the number of right entries
    strictly below it, so the summed moves are the cross-half inversions.
    """
    n = keys.size
    pos = np.arange(n, dtype=np.int64)
    total = 0
    w = 1
    while w < n:
        block = pos // (2 * w)
        tagged = block * n + keys
        order = np.argsort(tagged, kind="stable")
        left = (pos // w) % 2 == 0
        total += int(np.flatnonzero(left[order]).sum() - np.flatnonzero(left).sum())
        keys = tagged[order] - block * n
        w *= 2
    return total


def concordance_diff(x: np.ndarray, y: np.ndarray) -> int:
    """Return (#concordant - #discordant) over all i<j pairs; ties count 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    y_sorted = np.sort(y)
    ranks = np.searchsorted(y_sorted, ys)  # equal y, equal rank
    new_x = _run_starts(xs)
    n1 = _tied_pairs(new_x)
    n2 = _tied_pairs(_run_starts(y_sorted))
    n3 = _tied_pairs(new_x | _run_starts(ys))
    return n * (n - 1) // 2 - n1 - n2 + n3 - 2 * _inversions(ranks)
