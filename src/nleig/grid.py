"""Periodic grid primitives.

Uniform lattice on one periodicity cell (-L, L], sampled real profiles,
rectangle-rule inner products, the shape diagnostics (evenness,
nonnegativity, unimodality) that define the solution cone, and atomic text
output.  The node x = 0 is always present so even profiles are
sampled symmetrically; x = -L is its own mirror image under periodicity.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, OddPointCountError

MIN_POINTS = 8

# Long dot products are summed chunk by chunk.  OpenBLAS splits a ddot of
# more than 10000 entries over its threads, so the rounding of one call
# would follow the core count, and each call wakes a thread that then
# spins.  A chunk of 8192 entries stays single-threaded on every host; being
# a power of two, it sums a 16384-entry vector in the same two halves as a
# two-thread ddot.
_DOT_CHUNK = 8192


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice x_j = j*h, j = -n/2 .. n/2 - 1, h = 2L/n."""

    half_period: float
    point_count: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_period / self.point_count

    @cached_property
    def nodes(self) -> np.ndarray:
        n = self.point_count
        x = (np.arange(n) - n // 2) * self.spacing
        x.flags.writeable = False
        return x

    @cached_property
    def rfft_frequencies(self) -> np.ndarray:
        """Nonnegative angular frequencies matching numpy.fft.rfft output."""
        k = 2.0 * np.pi * np.fft.rfftfreq(self.point_count, d=self.spacing)
        k.flags.writeable = False
        return k

    @cached_property
    def rfft_multiplicity(self) -> np.ndarray:
        """How often each rfft mode appears among all n modes: 1 for k = 0
        and the Nyquist mode (n is even), 2 for each other mode, which
        stands for its conjugate too.  So sum(a b) over the nodes is
        (1/n) sum(m Re(a_hat conj(b_hat))) over the rfft modes."""
        m = np.full(self.point_count // 2 + 1, 2.0)
        m[0] = m[-1] = 1.0
        m.flags.writeable = False
        return m

    @property
    def nyquist(self) -> float:
        return np.pi / self.spacing


def make_grid(half_period: float, point_count: int) -> Grid:
    """Validated Grid constructor; rejects odd n, tiny n, and an L that is
    not positive and finite."""
    if not 0 < half_period < np.inf:
        raise ValueError(f"half_period must be positive and finite, got {half_period}")
    if point_count % 2 != 0:
        raise OddPointCountError(
            f"point_count must be even so the node x = 0 exists, got {point_count}"
        )
    if point_count < MIN_POINTS:
        raise ValueError(f"point_count must be at least {MIN_POINTS}, got {point_count}")
    return Grid(float(half_period), int(point_count))


@dataclass(frozen=True, eq=False)
class Profile:
    """Real samples of one periodicity cell, in node order.

    Samples are stored as an immutable float64 array; non-finite values are
    rejected at construction time.
    """

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64).copy()
        if arr.shape != (self.grid.point_count,):
            raise ValueError(
                f"samples shape {arr.shape} does not match grid with "
                f"{self.grid.point_count} points"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("profile samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def scaled(self, factor: float) -> "Profile":
        return Profile(self.grid, self.samples * float(factor))

    @property
    def max(self) -> float:
        return float(np.max(self.samples))

    def value_at_zero(self) -> float:
        return float(self.samples[self.grid.point_count // 2])


def require_same_grid(*profiles: Profile) -> Grid:
    grid = profiles[0].grid
    for p in profiles[1:]:
        if p.grid != grid:
            raise GridMismatchError(
                f"profiles live on different grids: {grid} vs {p.grid}"
            )
    return grid


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) as the running sum of np.dot over consecutive chunks of at
    most 8192 entries: a plain np.dot up to 8192 entries, and the same
    result whatever number of threads BLAS runs."""
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    total = 0.0
    for start in range(0, len(a), _DOT_CHUNK):
        total += np.dot(a[start : start + _DOT_CHUNK], b[start : start + _DOT_CHUNK])
    return float(total)


def inner_product(w1: Profile, w2: Profile) -> float:
    """Rectangle-rule L2 pairing h * sum(W1 * W2); spectrally accurate on
    the periodic cell."""
    grid = require_same_grid(w1, w2)
    return float(grid.spacing * dot(w1.samples, w2.samples))


def norm(samples: np.ndarray, grid: Grid) -> float:
    """Rectangle-rule L2 norm sqrt(h * sum(samples^2)) of samples on grid."""
    return float(np.sqrt(grid.spacing * dot(samples, samples)))


def l2_norm(w: Profile) -> float:
    return norm(w.samples, w.grid)


def mirror(samples: np.ndarray) -> np.ndarray:
    # node j maps to -j; x = -L is fixed under the periodic reflection
    return np.concatenate((samples[:1], samples[1:][::-1]))


def even_part(samples: np.ndarray) -> np.ndarray:
    """Even part of node-ordered samples under the periodic reflection
    x -> -x."""
    return 0.5 * (samples + mirror(samples))


@dataclass(frozen=True)
class ConeReport:
    """Deviation of a profile from the even/nonnegative/unimodal cone.

    even_deviation and unimodality_deviation are nonnegative by construction;
    min_value is the raw sample minimum (negative when nonnegativity fails).
    """

    even_deviation: float
    min_value: float
    unimodality_deviation: float

    @property
    def worst(self) -> float:
        """The largest deviation, nonnegativity's being -min_value; never
        below 0, since even_deviation is not."""
        return max(self.even_deviation, -self.min_value, self.unimodality_deviation)

    def in_cone(self, tol: float) -> bool:
        return self.worst <= tol


def cone_check(w: Profile) -> ConeReport:
    """Measure cone deviations; nothing is projected or clipped."""
    s = w.samples
    n = w.grid.point_count
    even_dev = float(np.max(np.abs(s - mirror(s))))
    min_value = float(np.min(s))
    # monotonicity is judged on the symmetrized right half x >= 0
    right = even_part(s)[n // 2 :]
    increases = np.diff(right)
    unimodal_dev = float(max(0.0, np.max(increases, initial=0.0)))
    return ConeReport(even_dev, min_value, unimodal_dev)


_CSV_HEADER = "x,value\n"
_CSV_BLOCK = 2048  # rows formatted and written at once


def atomic_write_text(path, chunks) -> None:
    """Write an iterable of text chunks with LF line endings through a temp
    file in the same directory, renamed over the target, so readers never
    see a partial file.  A generator is written as it yields, so a large
    file is never held in memory whole.  When the write or the rename fails,
    the temp file is removed and the error re-raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fh = tmp.open("w", newline="\n")
    try:
        with fh:
            fh.writelines(chunks)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """Indented JSON with sorted keys and a final line feed, written
    atomically."""
    atomic_write_text(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


@lru_cache(maxsize=4)
def _row_formats(grid: Grid) -> tuple:
    """The rows of a grid's profile CSV with the value left as a "%.17g"
    field, joined into blocks of _CSV_BLOCK rows.  A formatted finite node
    holds no "%", so each block is a valid format string.  All the profiles
    of a sweep share one grid, so its x column is formatted once."""
    rows = [f"{x:.17g},%.17g\n" for x in grid.nodes.tolist()]
    return tuple(
        "".join(rows[start : start + _CSV_BLOCK])
        for start in range(0, len(rows), _CSV_BLOCK)
    )


def write_profile_csv(w: Profile, path) -> None:
    """Two-column CSV (x, value) at 17 significant digits, LF line endings,
    written atomically.  Every row is f"{x:.17g},{value:.17g}" and a line
    feed, byte for byte: "%" formatting makes the same .17g conversion.  The
    rows are formatted and written one block of _CSV_BLOCK at a time, so no
    more than one block's values and text are held at once."""
    blocks = (
        fmt % tuple(w.samples[i * _CSV_BLOCK : (i + 1) * _CSV_BLOCK].tolist())
        for i, fmt in enumerate(_row_formats(w.grid))
    )
    atomic_write_text(path, itertools.chain([_CSV_HEADER], blocks))
