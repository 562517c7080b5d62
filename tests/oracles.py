"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the
reduced f3 form is hand-derived algebra, and the finite-difference
helpers differentiate the CDF directly.
"""

import numpy as np


def f3_reduced_cdf(u, v):
    """Parameter-free closed form of the frailty family CDF.

    24 / ((s_u + s_v - 6)(s_u + s_v - 4)) with s_x = sqrt(1 + 24/x);
    the dependence parameter cancels algebraically.
    """
    su = np.sqrt(1.0 + 24.0 / u)
    sv = np.sqrt(1.0 + 24.0 / v)
    s = su + sv
    return 24.0 / ((s - 6.0) * (s - 4.0))


def central_first(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f, x, h=5e-4):
    # h balances O(h^2) truncation against eps/h^2 cancellation noise
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def concordance_diff_bruteforce(x, y):
    """(#concordant - #discordant) over all i < j pairs, ties counting 0,
    by comparing every pair: the O(n^2) definition, in exact integers."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0
    for i in range(x.size - 1):
        signs = np.sign(x[i + 1 :] - x[i]) * np.sign(y[i + 1 :] - y[i])
        total += int(signs.sum())
    return total
