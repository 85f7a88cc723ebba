"""Partitioned map model: per-cell alert probabilities and alert zones.

A grid is a rectangular partition of the map into cells, each carrying a
non-negative weight describing how likely that cell is to be part of an
alert zone.  Weights are raw (they need not sum to one); normalization is
applied only where a distribution is required.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    CsvParseError,
    DegenerateInputError,
    DimensionError,
    DuplicateCellError,
    ParameterError,
)

# Largest grid a probability CSV may describe (1024 x 1024 cells).  The
# loader fills every absent cell, so one far coordinate would otherwise
# allocate a grid of any size.
MAX_CSV_CELLS = 1 << 20


@dataclass(frozen=True)
class Cell:
    """One map partition; row/col are metadata for rectangular grids."""

    id: int
    row: int
    col: int


@dataclass(frozen=True)
class ProbabilityGrid:
    """Ordered cells plus per-cell alert weights, in row-major order."""

    cells: tuple[Cell, ...]
    weights: tuple[float, ...]
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if len(self.weights) != len(self.cells):
            raise DimensionError("cell and weight counts differ")
        if len(self.cells) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} cells, got {len(self.cells)}"
            )
        if any(w < 0 for w in self.weights):
            raise ParameterError("weights must be non-negative")
        if not any(w > 0 for w in self.weights):
            raise DegenerateInputError("all cell weights are zero")
        ids = [c.id for c in self.cells]
        if ids != list(range(len(ids))):
            raise DimensionError("cell ids must be contiguous from 0")

    @property
    def n(self) -> int:
        return len(self.cells)

    def weight_of(self, cell_id: int) -> float:
        return self.weights[cell_id]


@dataclass(frozen=True)
class AlertZone:
    """Set of alerted cell ids, optionally with the sampled origin/radius."""

    cell_ids: frozenset[int]
    origin_cell: Optional[int] = None
    radius_meters: Optional[float] = None

    def __post_init__(self):
        if not self.cell_ids:
            raise ParameterError("an alert zone must contain at least one cell")


def make_grid(weights: Sequence[float], rows: int = 1, cols: Optional[int] = None) -> ProbabilityGrid:
    """Build a grid from row-major weights; defaults to a single row."""
    if cols is None:
        if rows < 1 or len(weights) % rows:
            raise DimensionError("weights do not fill a rectangular grid")
        cols = len(weights) // rows
    cells = tuple(Cell(i, i // cols, i % cols) for i in range(rows * cols))
    return ProbabilityGrid(cells=cells, weights=tuple(float(w) for w in weights), rows=rows, cols=cols)


def sigmoid(x: float, a: float, b: float) -> float:
    """Logistic curve 1/(1+exp(-b*(x-a))), evaluated overflow-safely.

    The result is kept strictly inside (0, 1): steep curves would
    otherwise round to exactly 0 or 1 and produce degenerate weights.
    """
    t = b * (x - a)
    if t >= 0:
        value = 1.0 / (1.0 + math.exp(-t))
    else:
        e = math.exp(t)
        value = e / (1.0 + e)
    if value >= 1.0:
        return math.nextafter(1.0, 0.0)
    if value <= 0.0:
        return math.nextafter(0.0, 1.0)
    return value


def generate_sigmoid_probabilities(rows: int, cols: int, a: float, b: float, seed: int) -> ProbabilityGrid:
    """Draw one uniform(0,1) value per cell and map it through the sigmoid.

    Deterministic for a fixed seed: cell i receives the i-th draw of
    ``random.Random(seed)`` in row-major order.
    """
    if rows < 1 or cols < 1:
        raise DimensionError(f"grid must be at least 1x1, got {rows}x{cols}")
    rng = random.Random(seed)
    weights = [sigmoid(rng.random(), a, b) for _ in range(rows * cols)]
    return make_grid(weights, rows=rows, cols=cols)


def load_probabilities_csv(path) -> tuple[ProbabilityGrid, int]:
    """Read a ``row,col,probability`` CSV into a grid.

    Cells absent from the file default to weight 0; the count of such
    defaulted cells is returned alongside the grid so callers can warn.
    """
    entries: dict[tuple[int, int], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["row", "col", "probability"]:
            raise CsvParseError("expected header 'row,col,probability'", line=1)
        for lineno, fields in enumerate(reader, start=2):
            if not fields or fields == [""]:
                continue
            if len(fields) != 3:
                raise CsvParseError(f"expected 3 fields, got {len(fields)}", line=lineno)
            try:
                row, col = int(fields[0]), int(fields[1])
                prob = float(fields[2])
            except ValueError:
                raise CsvParseError(f"unparseable cell row {fields!r}", line=lineno) from None
            if row < 0 or col < 0:
                raise CsvParseError("row/col must be non-negative", line=lineno)
            if not math.isfinite(prob) or prob < 0:
                raise CsvParseError(f"probability must be a finite value >= 0, got {fields[2]}", line=lineno)
            if (row, col) in entries:
                raise DuplicateCellError(f"duplicate cell ({row}, {col})")
            entries[(row, col)] = prob
    if not entries:
        raise CsvParseError("file contains no cells")
    rows = max(r for r, _ in entries) + 1
    cols = max(c for _, c in entries) + 1
    if rows * cols > MAX_CSV_CELLS:
        raise CsvParseError(f"a {rows}x{cols} grid exceeds the limit of {MAX_CSV_CELLS} cells")
    weights = [entries.get((r, c), 0.0) for r in range(rows) for c in range(cols)]
    missing = rows * cols - len(entries)
    return make_grid(weights, rows=rows, cols=cols), missing


def normalize(grid: ProbabilityGrid) -> ProbabilityGrid:
    """Rescale weights to sum to 1 (within 1e-12), preserving order."""
    total = math.fsum(grid.weights)
    if total <= 0:
        raise DegenerateInputError("cannot normalize zero total weight")
    return ProbabilityGrid(
        cells=grid.cells,
        weights=tuple(w / total for w in grid.weights),
        rows=grid.rows,
        cols=grid.cols,
    )


def poisson_alert_pmf(k: int) -> float:
    """P(Y = k) for the unit-rate Poisson alert-count model: e^-1 / k!."""
    if k < 0:
        raise ParameterError("k must be >= 0")
    return math.exp(-1) / math.factorial(k)


def _weighted_origin(grid: ProbabilityGrid, rng: random.Random) -> int:
    # Selection by cumulative-sum walk; depends only on relative weights.
    total = math.fsum(grid.weights)
    target = rng.random() * total
    acc = 0.0
    for i, w in enumerate(grid.weights):
        acc += w
        if acc >= target and w > 0:
            return i
    # Float slack may leave target marginally above the final accumulator.
    return max(i for i, w in enumerate(grid.weights) if w > 0)


def sample_alert_zone(
    grid: ProbabilityGrid, cell_size_meters: float, radius_meters: float, seed: int
) -> AlertZone:
    """Disc-shaped zone around a probability-weighted origin cell.

    The zone contains every cell whose center lies within ``radius_meters``
    of the origin cell's center (Euclidean distance); the origin is always
    included.
    """
    if cell_size_meters <= 0:
        raise ParameterError("cell size must be positive")
    if radius_meters < 0:
        raise ParameterError("radius must be non-negative")
    rng = random.Random(seed)
    origin = _weighted_origin(grid, rng)
    o_row, o_col = grid.cells[origin].row, grid.cells[origin].col
    reach = int(radius_meters // cell_size_meters) + 1
    cs2 = cell_size_meters * cell_size_meters
    r2 = radius_meters * radius_meters
    members = set()
    for row in range(max(0, o_row - reach), min(grid.rows, o_row + reach + 1)):
        for col in range(max(0, o_col - reach), min(grid.cols, o_col + reach + 1)):
            dr, dc = row - o_row, col - o_col
            if (dr * dr + dc * dc) * cs2 <= r2:
                members.add(row * grid.cols + col)
    members.add(origin)
    return AlertZone(cell_ids=frozenset(members), origin_cell=origin, radius_meters=radius_meters)


def grid_to_json(grid: ProbabilityGrid) -> dict:
    """JSON-ready mapping: {rows, cols, weights} with row-major weights."""
    return {"rows": grid.rows, "cols": grid.cols, "weights": list(grid.weights)}


def grid_from_json(obj: dict) -> ProbabilityGrid:
    return make_grid(obj["weights"], rows=obj["rows"], cols=obj["cols"])
