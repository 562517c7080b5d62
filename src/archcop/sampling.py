"""Copula-distributed pair generation.

Two independent constructions are provided: conditional-distribution
inversion, which works for every family, and exact frailty sampling for
the ``f3`` family (the frailty variable is a sum of two independent
exponentials with rates 2*alpha and 3*alpha, whose Laplace transform is
exactly that family's inverse generator; it is drawn at alpha = 1, as the
copula does not depend on alpha).

Conditional inversion solves dC/du(u, v) = q for v.  Each generator kind
turns that into one monotone equation in log space, in L = -ln q, which
its ``conditional_v`` solves for a block of pairs at once by Newton's
method (see ``families``).

Randomness comes from the counter-based Philox 4x64 bit generator keyed
by the user seed: numpy's ``Generator(Philox(key=seed)).random()`` stream,
bit for bit, computed here with numpy's uint64 arithmetic (``_uniforms``).
Draw k is a pure function of (seed, k), so a block's draws come straight
from its counters, and no archcop process loads ``numpy.random``, which
costs about 6 MiB of memory and 20 ms per process.  Every pair consumes
a fixed-width slot of the stream, so a batch is reproducible
byte-for-byte from (family, alpha, n, seed, method) and independent of
any internal evaluation order.  The samplers rely on that invariant to
work ``BLOCK`` rows at a time: the stream fills row by row, so block i
starts at draw i * BLOCK * width, and each pair is mapped from its own
draws alone (each entry's Newton iteration does not depend on the
others), so a block's pairs are those the whole batch would give.
Exponential draws use inverse-CDF (-log1p(-U)) for cross-platform
reproducibility.

A sampler call only checks its arguments and returns a ``SampleBatch``,
the recipe of its pairs, which makes them when they are read or written:
so ``archcop sample`` holds one block whatever n, and a
``ConvergenceError`` is raised by the read or write that makes its block.
"""

from __future__ import annotations

import numpy as np

from .families import BLOCK, DomainError, F3, Frailty, check_param, generator

_EPS = 1e-15

CONDITIONAL = "conditional"
FRAILTY = "frailty"


class SampleBatch:
    """n pairs, every coordinate strictly inside (0, 1), kept as their
    recipe: ``fill(draws, out)`` maps a block's (b, width) uniform draws
    to its b pairs in ``out``, then clipped to [1e-15, 1 - 1e-15].
    ``pairs`` makes the (n, 2) array on first access and keeps it; until
    then ``to_csv`` makes and writes one ``BLOCK`` of rows at a time."""

    def __init__(self, n: int, seed: int, width: int, fill):
        if n < 1:
            raise DomainError("n must be >= 1")
        self._n = n
        self._key = _key(seed)  # a bad seed is an error of the sampler call, not of a later read
        self._width = width
        self._fill = fill
        self._pairs = None

    def _blocks(self):
        """The pairs as (b, 2) arrays: slices of ``pairs`` once it is made."""
        n, w = self._n, self._width
        for i in range(0, n, BLOCK):
            b = min(BLOCK, n - i)
            if self._pairs is None:
                draws = _uniforms(self._key, i * w, b * w).reshape(b, w)
                out = np.empty((b, 2))
                self._fill(draws, out)
                yield np.clip(out, _EPS, 1.0 - _EPS, out=out)
            else:
                yield self._pairs[i : i + b]

    @property
    def pairs(self) -> np.ndarray:
        if self._pairs is None:
            pairs = np.empty((self._n, 2))
            for i, block in zip(range(0, self._n, BLOCK), self._blocks()):
                pairs[i : i + len(block)] = block
            self._pairs = pairs
        return self._pairs

    def to_csv(self, out=None) -> str | None:
        """The pairs as CSV text (see ``csvtext``) under a ``u,v`` header:
        written to the text stream ``out`` block by block, or returned
        whole when there is no ``out``."""
        from . import csvtext  # only the commands that write CSV load it

        text = csvtext.table("u,v", self._blocks())
        if out is None:
            return "".join(text)
        out.writelines(text)
        return None


def _key(seed: int) -> tuple[int, int]:
    """The Philox key of ``seed``: its low and high 64-bit words."""
    if not 0 <= seed < 2**128:
        raise DomainError("seed out of domain [0, 2**128)")
    seed = int(seed)
    return seed & (2**64 - 1), seed >> 64


def _uniforms(key: tuple[int, int], start: int, count: int) -> np.ndarray:
    """Draws ``start`` to ``start + count - 1`` of numpy's
    ``Generator(Philox(key=seed)).random()``, bit for bit, computed
    without ``numpy.random``.  Draw k is (w >> 11) * 2**-53, where w is
    word k % 4 of Philox4x64-10 at counter k // 4 + 1 under ``key``
    (Salmon et al., SC'11): ten rounds, each two 64x64-bit products,
    whose high words are summed from 32-bit halves, and xors with a key
    bumped by two Weyl constants.  The key schedule stays in Python ints
    masked to 64 bits and enters numpy as ``np.uint64`` scalars, so no
    numpy version promotes it to float64."""
    k0, k1 = key
    first = start // 4
    m = (start + count - 1) // 4 - first + 1  # counters
    u64, mask = np.uint64, 2**64 - 1
    s32, lo32 = u64(32), u64(2**32 - 1)
    x0 = np.arange(first + 1, first + 1 + m, dtype=np.uint64)
    x1, x2, x3 = (np.zeros(m, np.uint64) for _ in range(3))
    hi0, hi1, t, u, v = (np.empty(m, np.uint64) for _ in range(5))

    def mulhi(a, x, hi):  # hi = (a * x) >> 64; t, u, v are scratch
        a_lo, a_hi = u64(a & (2**32 - 1)), u64(a >> 32)
        np.bitwise_and(x, lo32, t)
        np.right_shift(x, s32, hi)
        np.multiply(t, a_lo, u)
        np.right_shift(u, s32, u)
        np.multiply(t, a_hi, t)
        np.add(t, u, t)  # < 2**64
        np.multiply(hi, a_lo, u)
        np.multiply(hi, a_hi, hi)
        np.bitwise_and(t, lo32, v)
        np.add(u, v, u)
        np.right_shift(t, s32, t)
        np.add(hi, t, hi)
        np.right_shift(u, s32, u)
        np.add(hi, u, hi)

    m0, m1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
    for r in range(10):
        mulhi(m0, x0, hi0)
        mulhi(m1, x2, hi1)
        x1 ^= hi1
        x1 ^= u64((k0 + r * 0x9E3779B97F4A7C15) & mask)
        x3 ^= hi0
        x3 ^= u64((k1 + r * 0xBB67AE8584CAA73B) & mask)
        x0 *= u64(m0)  # the low words, mod 2**64
        x2 *= u64(m1)
        x0, x1, x2, x3 = x1, x2, x3, x0
    words = np.stack((x0, x1, x2, x3), axis=1).ravel()[start % 4 : start % 4 + count]
    words >>= u64(11)
    return words * 2.0**-53


def sample_conditional(family: str, param: float | None, n: int, seed: int) -> SampleBatch:
    """Sample n pairs by conditional inversion: u ~ U(0,1) and q ~ U(0,1),
    both clipped to [1e-15, 1 - 1e-15], then v solves dC/du(u, v) = q
    by the generator kind's Newton iteration (``conditional_v``).

    Raises ``ConvergenceError`` if the iteration does not settle within
    its step cap.
    """
    g = generator(family, param)

    def fill(draws, out):
        u = np.clip(draws[:, 0], _EPS, 1.0 - _EPS)
        out[:, 0] = u
        out[:, 1] = g.conditional_v(u, -np.log(np.clip(draws[:, 1], _EPS, 1.0 - _EPS)))

    return SampleBatch(n, seed, 2, fill)


def sample_frailty_copula(alpha: float, n: int, seed: int) -> SampleBatch:
    """Sample n pairs from the ``f3`` family by the frailty construction at
    alpha = 1, which every alpha shares (the copula does not depend on it):
    gamma = E1/2 + E2/3, then (psi(E3/gamma), psi(E4/gamma)) from unit
    exponentials E1..E4.  So alpha is only validated."""
    check_param(F3, alpha)
    g = Frailty(1.0)

    def fill(draws, out):
        e = -np.log1p(-draws)
        gamma = e[:, 0] / 2.0 + e[:, 1] / 3.0
        out[:, 0] = g.psi(e[:, 2] / gamma)
        out[:, 1] = g.psi(e[:, 3] / gamma)

    return SampleBatch(n, seed, 4, fill)
