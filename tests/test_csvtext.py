"""The CSV formatter of ``archcop.csvtext`` against ``repr``, value by value.

``csvtext`` makes the text of a whole block in numpy and calls ``repr``
only for the values it cannot certify.  Its text must be ``repr``'s for
every double, so these tests compare the two over arbitrary floats and
bit patterns, over a seeded sweep of the cases the digit algorithm
separates, and check that the fast path, not the fallback, does the work
on the program's own outputs.
"""

import subprocess
import sys
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import archcop as ac
from archcop import csvtext
from archcop.copula import _lattice_cdf
from archcop.families import BLOCK, generator


def table_text(x, y) -> str:
    """``table`` of the columns ``x`` and ``y``, given in blocks of
    ``BLOCK`` rows."""
    return "".join(csvtext.table("x,y", (np.column_stack((x[i : i + BLOCK], y[i : i + BLOCK]))
                                         for i in range(0, len(x), BLOCK))))


def assert_reprs(values):
    """``table`` prints each value of ``values`` as ``repr`` does, in both
    of its columns and across its passes and blocks."""
    values = np.asarray(values, dtype=np.float64)
    got = table_text(values, values[::-1]).split("\n")
    want = [f"{a!r},{b!r}" for a, b in zip(values.tolist(), values[::-1].tolist())]
    assert got[0] == "x,y" and got[-1] == ""
    for line, expected in zip(got[1:-1], want):
        assert line == expected
    assert len(got) == len(want) + 2


def count_fallbacks(monkeypatch):
    """Count the values ``csvtext`` hands to ``repr``."""
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(csvtext, "repr", counting_repr, raising=False)
    return calls


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_any_float(values):
    assert_reprs(values)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_any_bit_pattern(bits):
    assert_reprs(np.array(bits, dtype=np.uint64).view(np.float64))


@given(st.lists(st.floats(min_value=-1e16, max_value=1e16), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_any_float_printed_without_exponent(values):
    assert_reprs(values)


def sweep(seed=20240607):
    """1e6 doubles over the cases the digit algorithm tells apart."""
    rng = np.random.default_rng(seed)
    sign = lambda n: rng.choice([-1.0, 1.0], n)  # noqa: E731
    parts = [
        10.0 ** rng.uniform(-320, 308, 200_000) * sign(200_000),
        10.0 ** rng.uniform(-5, 17, 200_000) * sign(200_000),  # around the positional range
        rng.random(200_000),
        np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two
        # 17-digit values that lie exactly halfway between two 17-digit decimals
        rng.integers(10**15, 2**51, 40_000) + rng.integers(0, 4, 40_000) / 4,
    ]
    for places in range(1, 18):  # decimals of few digits, and their neighbours
        parts.append(np.round(10.0 ** rng.uniform(-5, 17, 20_000), places))
    for edge in (1e-4, 1e16):  # where repr switches to and from exponents
        near = [edge]
        for direction in (0.0, np.inf):
            x = edge
            for _ in range(40):
                x = np.nextafter(x, direction)
                near.append(x)
        parts.append(np.array(near))
    values = np.concatenate(parts)
    return values[: 1_000_000]


def test_seeded_sweep():
    values = sweep()
    assert values.size >= 900_000
    got = table_text(values, values)
    want = "x,y\n" + "".join([f"{v!r},{v!r}\n" for v in values.tolist()])
    assert got == want


def test_decade_range_and_power_of_two_boundaries():
    # within a few ulps of each power of ten (where a value just below it
    # rounds up into the next decade, and where repr's exponent form
    # starts: 1e-4 and 1e16) and of powers of two (whose rounding
    # interval is narrower below than above), each value as repr gives it
    edges = [float(f"1e{k}") for k in range(-6, 19)] + [2.0**e for e in range(-16, 56)]
    values = []
    for edge in edges:
        for direction in (0.0, np.inf):
            x = edge
            for _ in range(5):
                x = np.nextafter(x, direction)
                values.append(x)
        values.append(edge)
    values += [9.999999999999999e-5, 9.9999999999999995e-5, 0.9999999999999999,
               9.999999999999998, 99.99999999999999, 9999999999999998.0, 1e16 - 2.0]
    assert_reprs(values)
    assert_reprs([-v for v in values])


def test_sample_and_pdf_rows_take_the_fast_path(monkeypatch):
    calls = count_fallbacks(monkeypatch)
    batch = ac.sample_conditional("f1", 0.5, 20_000, 1)
    batch.to_csv()
    assert len(calls) <= 0.01 * batch.pairs.size

    pts = (np.arange(1000) + 0.5) / 1000
    rows = csvtext.lattice("u,v,value", pts, (ac.density("gumbel", 2.5, u, pts) for u in pts))
    for _ in range(501):  # the header, then rows u = 0.0005 .. 0.4995
        next(rows)
    calls.clear()
    row = next(rows)
    assert row.startswith("0.5005,0.0005,")
    assert len(calls) <= 0.01 * pts.size


def test_lattice_pass_working_set():
    # the rows of a 1000**2 f3 cdf grid after the first, made and dropped
    # one at a time as the grid writes them: 310 KiB above the steady state
    # (numpy 2.4), 482 KiB when each point recomputed both coordinates'
    # terms and each row's text held a copy of its u text per line
    g = generator("f3", 2.0)
    pts = np.linspace(0.0, 1.0, 1001)
    terms = g.axis(pts[1:-1])
    text = csvtext.lattice("u,v,value", pts,
                           (_lattice_cdf(g, pts, terms, i, i + 1)[0] for i in range(1001)))
    next(text), next(text)  # the header and the first row build the tables and the canvas
    tracemalloc.start()
    try:
        for _ in text:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 2**10


def test_import_builds_no_table():
    # the CLI loads csvtext only for a command that writes CSV, and
    # loading it builds no table either
    code = ("import sys, archcop.cli; print('archcop.csvtext' in sys.modules); "
            "import archcop.csvtext as c; print(c._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False", "0"]
