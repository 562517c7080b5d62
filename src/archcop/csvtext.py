"""CSV text of the ``grid`` and ``sample`` outputs.

A header line, then one line per row: the values as shortest round-trip
decimals (``repr`` of the Python floats that ``ndarray.tolist()`` gives),
separated by commas, each line ending in ``\\n``; files are opened with
``newline=""``.  The text comes in blocks of at most ``BLOCK`` rows (one
lattice row for a grid), meant to be written as they come, so an output
never holds more than one block as strings.
"""

from __future__ import annotations

BLOCK = 4096  # rows per block of a two-column table


def labels(values) -> list[str]:
    """``"x,"`` for each value: a leading column, formatted once however
    many rows share it."""
    return [f"{x!r}," for x in values.tolist()]


def rows(leads: list[str], values, prefix: str = "") -> str:
    """One block: ``prefix + lead + repr(value)`` per line, ``leads``
    being ``labels`` of the leading column."""
    return "".join([f"{prefix}{a}{b!r}\n" for a, b in zip(leads, values.tolist())])


def table(header: str, x, y):
    """The header, then the rows ``x_i,y_i`` of two equal-length 1-D
    arrays, ``BLOCK`` rows at a time."""
    yield header + "\n"
    for i in range(0, len(x), BLOCK):
        yield rows(labels(x[i : i + BLOCK]), y[i : i + BLOCK])


def lattice(header: str, pts, fn):
    """The header, then the rows ``u,v,fn(u, pts)`` for each ``u`` of
    ``pts``: one call of ``fn`` per lattice row, each row's text made
    before the next call."""
    yield header + "\n"
    axis = labels(pts)
    for u, prefix in zip(pts.tolist(), axis):
        yield rows(axis, fn(u, pts), prefix)
