"""Known witness sets used across the toolkit and its tests, the one
check of a vertex list, and the readers and writer of witness and JSON
files.  Nothing here needs numpy, so the scalar commands read their
inputs without it."""

from __future__ import annotations

import json
import operator

# The unique Diophantine quadruple extending {1, 3, 8}.
K4_WITNESS = (1, 3, 8, 120)

# Member k = 2 of the parametrized family
# (k-1, k+1, 4k, 16k^3-4k, 256k^5+256k^4-32k^3-64k^2+k+3);
# realizes K5 minus one edge (the missing edge joins 1 and 11781).
K5_MINUS_EDGE_WITNESS = (1, 3, 8, 120, 11781)

# Realizes the complement of the 6-cycle (one of the two 3-regular
# graphs on six vertices).
C6_COMPLEMENT_WITNESS = (1, 3, 8, 10, 96, 168)

# 80-vertex witness whose graph needs five colors.  The order matters:
# it is the branch order under which the 4-coloring refutation was
# certified, starting from the quadruple 1, 3, 8, 120.  Removing any
# single vertex leaves a 4-colorable graph.
FIVE_CHROMATIC_WITNESS = (
    1, 3, 8, 120, 2, 4, 12, 20, 24, 6, 22, 92, 204, 420, 36, 78, 84, 140,
    210, 360, 364, 560, 60, 14, 40, 136, 220, 312, 33, 9, 10, 52, 56, 728,
    11, 48, 90, 168, 408, 840, 5, 7, 28, 30, 34, 35, 46, 70, 88, 132, 180,
    240, 2184, 280, 16, 21, 32, 44, 156, 816, 380, 13, 39, 72, 80, 96, 462,
    528, 1140, 2380, 23, 102, 105, 110, 152, 264, 456, 858, 2520, 1365,
)


def _vertex_list(values) -> list[int]:
    """`values` as a list of distinct positive Python ints.  A value that
    is not an integer (a float, a string, a bool) is a ValueError naming
    it, never truncated or parsed into one; integer types such as numpy's
    are converted."""
    vs = list(values)
    if set(map(type, vs)) - {int}:
        for k, v in enumerate(vs):
            if isinstance(v, bool) or not hasattr(v, "__index__"):
                raise ValueError(f"vertices must be integers, got {v!r}")
            vs[k] = operator.index(v)
    if any(v < 1 for v in vs):
        raise ValueError("vertices must be positive integers")
    if len(set(vs)) != len(vs):
        dup = sorted(v for v in set(vs) if vs.count(v) > 1)
        raise ValueError(f"duplicate vertices: {dup}")
    return vs


class WitnessFileError(ValueError):
    """Malformed witness file; the message carries the offending line."""


def load_witness_file(path) -> list[int]:
    """Read a witness file: one positive decimal integer per line, '#'
    comments, no duplicates.  The listed order is preserved."""
    values: list[int] = []
    seen: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v = int(line)
            except ValueError:
                raise WitnessFileError(
                    f"{path}:{lineno}: not a decimal integer: {line!r}"
                ) from None
            if v < 1:
                raise WitnessFileError(f"{path}:{lineno}: not positive: {v}")
            if v in seen:
                raise WitnessFileError(f"{path}:{lineno}: duplicate value: {v}")
            seen.add(v)
            values.append(v)
    return values


def save_witness_file(values, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for v in values:
            fh.write(f"{v}\n")


def read_json_file(path):
    """Parse a JSON file; invalid JSON is a ValueError naming
    `path:line:column`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from None
