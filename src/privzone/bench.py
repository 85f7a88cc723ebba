"""Experiment harness: pairing-cost comparison across encoding methods.

Each trial samples an alert zone (disc of a given radius around a
probability-weighted origin), encodes it under every requested method,
minimizes the tokens, and accounts the pairing sets they would cost.
Improvement percentages are reported against the unminimized fixed-length
baseline, whose cost per zone is exactly (number of alert cells) x
ceil(log2 n).
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import hve
from .encoding import CellIndexMap, CodingTree, build_fixed_length, make_cell_indexes, make_coding_tree
from .errors import ConfigError, PrivzoneError
from .grid import ProbabilityGrid, generate_sigmoid_probabilities, load_probabilities_csv, sample_alert_zone
from .tokens import TokenSet, fixed_length_minimize, minimize_tokens, pairing_cost, token_matches
from .trees import (
    PrefixTree,
    average_code_length,
    build_balanced_tree,
    build_bary_huffman_tree,
    build_huffman_tree,
    fixed_code_width,
)

SHORT_RADIUS_M = 20.0
LONG_RADIUS_M = 300.0

_METHOD_RE = re.compile(r"^bary\((\d+)\)$")
KNOWN_METHODS = ("huffman", "balanced", "fixed", "fixed-minimized", "bary(B)")


@dataclass(frozen=True)
class DistributionSpec:
    """Probability source: a seeded sigmoid draw or a CSV file."""

    kind: str
    a: float = 0.9
    b: float = 10.0
    seed: int = 0
    path: Optional[str] = None

    def build(self, rows: int, cols: int) -> ProbabilityGrid:
        if self.kind == "sigmoid":
            return generate_sigmoid_probabilities(rows, cols, self.a, self.b, self.seed)
        if self.kind == "csv":
            if not self.path:
                raise ConfigError("csv distribution needs a path")
            grid, _missing = load_probabilities_csv(self.path)
            return grid
        raise ConfigError(f"unknown distribution kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    rows: int = 32
    cols: int = 32
    cell_size_m: float = 10.0
    distribution: DistributionSpec = field(default_factory=lambda: DistributionSpec(kind="sigmoid"))
    methods: tuple[str, ...] = ("huffman", "balanced", "fixed", "fixed-minimized")
    radii_m: tuple[float, ...] = (10.0, 20.0, 50.0, 100.0, 200.0, 300.0)
    trials: int = 200
    workload_mix: Optional[tuple[tuple[float, float], ...]] = None
    seed: int = 0
    validate_hve: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        for m in self.methods:
            _parse_method(m)
        if self.workload_mix is not None:
            total = math.fsum(f for _, f in self.workload_mix)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"workload fractions must sum to 1, got {total}")

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        dist = obj.get("distribution", {"kind": "sigmoid"})
        spec = DistributionSpec(
            kind=dist.get("kind", "sigmoid"),
            a=float(dist.get("a", 0.9)),
            b=float(dist.get("b", 10.0)),
            seed=int(dist.get("seed", 0)),
            path=dist.get("path"),
        )
        mix = obj.get("workloadMix")
        return cls(
            rows=int(obj.get("rows", 32)),
            cols=int(obj.get("cols", 32)),
            cell_size_m=float(obj.get("cellSizeMeters", 10.0)),
            distribution=spec,
            methods=tuple(obj.get("methods", ["huffman", "balanced", "fixed", "fixed-minimized"])),
            radii_m=tuple(float(r) for r in obj.get("radiiMeters", [10, 20, 50, 100, 200, 300])),
            trials=int(obj.get("trials", 200)),
            workload_mix=tuple((float(r), float(f)) for r, f in mix) if mix else None,
            seed=int(obj.get("seed", 0)),
            validate_hve=bool(obj.get("validateHve", False)),
        )


@dataclass(frozen=True)
class ExperimentRow:
    method: str
    radius_label: str
    mean_pairing_cost: float
    mean_tokens: float
    improvement_pct: float
    rl: int
    avg_max_ratio: float
    trials: int
    seed: int
    # Diagnostic only: never written to result files, ignored by equality.
    wall_time_s: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ExperimentRow, ...]
    config: ExperimentConfig


def _parse_method(name: str) -> tuple[str, Optional[int]]:
    if name in ("huffman", "balanced", "fixed", "fixed-minimized"):
        return name, None
    m = _METHOD_RE.match(name)
    if m:
        b = int(m.group(1))
        if b < 2:
            raise ConfigError(f"bary arity must be >= 2, got {b}")
        return "bary", b
    raise ConfigError(f"unknown method {name!r}; known: {', '.join(KNOWN_METHODS)}")


@dataclass(frozen=True)
class _Encoding:
    method: str
    index_map: CellIndexMap
    coding_tree: Optional[CodingTree]
    tree: Optional[PrefixTree]
    rl: int
    avg_max_ratio: float
    minimized: bool


def _prepare_encoding(name: str, grid: ProbabilityGrid) -> _Encoding:
    kind, b = _parse_method(name)
    if kind in ("fixed", "fixed-minimized"):
        tree, index_map = build_fixed_length(grid)
        return _Encoding(
            method=name,
            index_map=index_map,
            coding_tree=None,
            tree=tree,
            rl=fixed_code_width(grid.n),
            avg_max_ratio=1.0,
            minimized=(kind == "fixed-minimized"),
        )
    if kind == "huffman":
        tree = build_huffman_tree(grid)
    elif kind == "balanced":
        tree = build_balanced_tree(grid)
    else:
        tree = build_bary_huffman_tree(grid, b)
    return _Encoding(
        method=name,
        index_map=make_cell_indexes(tree),
        coding_tree=make_coding_tree(tree),
        tree=tree,
        rl=tree.rl,
        avg_max_ratio=code_length_ratio(tree, grid),
        minimized=True,
    )


def code_length_ratio(tree: PrefixTree, grid: ProbabilityGrid) -> float:
    """Average leaf-code length divided by the maximum (the tree depth)."""
    return average_code_length(tree, grid) / tree.rl


def _zone_tokens(enc: _Encoding, zone_indexes: list[str]) -> TokenSet:
    if enc.coding_tree is not None:
        return minimize_tokens(zone_indexes, enc.coding_tree)
    if enc.minimized:
        return fixed_length_minimize(zone_indexes)
    return TokenSet(tokens=tuple(zone_indexes), source_zone=None)


def _validate_against_hve(enc: _Encoding, zone_indexes: list[str], tokens: TokenSet, cost: int, seed: int):
    """Run the tokens through the mock scheme and check the counter math."""
    width = len(zone_indexes[0])
    params = hve.GroupParams.generate(width=width, bits=32, seed=seed)
    pk, sk = hve.setup(params, seed=seed + 1)
    message = hve.random_message(params, seed=seed + 2)
    ct = hve.encrypt(pk, zone_indexes[0], message, seed=seed + 3)
    counter = hve.PairingCounter()
    matched = 0
    for k, pattern in enumerate(tokens.tokens):
        tk = hve.gen_token(sk, pattern, seed=seed + 4 + k)
        result = hve.query(ct, tk, {message}, counter=counter)
        expected = token_matches(pattern, zone_indexes[0])
        if (result == message) != expected:
            raise PrivzoneError("mock HVE disagreed with symbolic matching")
        matched += bool(result == message)
    delta = counter.snapshot()
    if (delta - len(tokens.tokens)) // 2 != cost or (delta - len(tokens.tokens)) % 2:
        raise PrivzoneError(
            f"pairing accounting mismatch: counter delta {delta}, tokens {len(tokens.tokens)}, cost {cost}"
        )
    if matched != 1:
        raise PrivzoneError("the encrypted zone cell should match exactly one token")


def _measure(
    config: ExperimentConfig,
    grid: ProbabilityGrid,
    encodings: dict[str, _Encoding],
    zones_by_label: dict[str, list],
) -> ExperimentResult:
    base_width = fixed_code_width(grid.n)
    rows = []
    for method in config.methods:
        enc = encodings[method]
        for label, zones in zones_by_label.items():
            start = time.perf_counter()
            total_cost = 0
            total_tokens = 0
            total_base = 0
            for t, zone in enumerate(zones):
                zone_indexes = sorted(enc.index_map.index_of(c) for c in zone.cell_ids)
                tokens = _zone_tokens(enc, zone_indexes)
                cost = pairing_cost(tokens)
                total_cost += cost
                total_tokens += len(tokens.tokens)
                total_base += len(zone.cell_ids) * base_width
                if config.validate_hve and t == 0:
                    _validate_against_hve(enc, zone_indexes, tokens, cost, seed=config.seed)
            elapsed = time.perf_counter() - start
            n_zones = len(zones)
            mean_cost = total_cost / n_zones
            mean_base = total_base / n_zones
            rows.append(
                ExperimentRow(
                    method=method,
                    radius_label=label,
                    mean_pairing_cost=mean_cost,
                    mean_tokens=total_tokens / n_zones,
                    improvement_pct=100.0 * (mean_base - mean_cost) / mean_base,
                    rl=enc.rl,
                    avg_max_ratio=enc.avg_max_ratio,
                    trials=n_zones,
                    seed=config.seed,
                    wall_time_s=elapsed,
                )
            )
    return ExperimentResult(rows=tuple(rows), config=config)


def _setup(config: ExperimentConfig) -> tuple[ProbabilityGrid, dict[str, _Encoding], random.Random]:
    """The grid, every method's encoding, and the master RNG that seeds the zones."""
    grid = config.distribution.build(config.rows, config.cols)
    return grid, {m: _prepare_encoding(m, grid) for m in config.methods}, random.Random(config.seed)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Radius sweep: every method sees the same zones per radius."""
    grid, encodings, master = _setup(config)
    zones_by_label = {}
    for radius in config.radii_m:
        seeds = [master.randrange(2**63) for _ in range(config.trials)]
        zones_by_label[f"{radius:g}"] = [
            sample_alert_zone(grid, config.cell_size_m, radius, s) for s in seeds
        ]
    return _measure(config, grid, encodings, zones_by_label)


def run_workload_mix(config: ExperimentConfig) -> ExperimentResult:
    """Mixed workload: per-trial radius drawn by the configured fractions."""
    if not config.workload_mix:
        raise ConfigError("config has no workload mix")
    grid, encodings, master = _setup(config)
    # Zone seeds come first so a degenerate mix {(r, 1.0)} samples exactly
    # the zones of a single-radius sweep with the same seed.
    seeds = [master.randrange(2**63) for _ in range(config.trials)]
    cumulative = []
    acc = 0.0
    for radius, fraction in config.workload_mix:
        acc += fraction
        cumulative.append((acc, radius))
    zones = []
    for s in seeds:
        u = master.random()
        radius = next(r for threshold, r in cumulative if u <= threshold + 1e-12)
        zones.append(sample_alert_zone(grid, config.cell_size_m, radius, s))
    label = "mix(" + ",".join(f"{r:g}:{f:g}" for r, f in config.workload_mix) + ")"
    return _measure(config, grid, encodings, {label: zones})


CSV_COLUMNS = (
    "method",
    "radius_m",
    "mean_pairing_cost",
    "mean_tokens",
    "improvement_pct",
    "rl",
    "avg_max_ratio",
    "trials",
    "seed",
)


def _row_values(row: ExperimentRow) -> list:
    return [
        row.method,
        row.radius_label,
        f"{row.mean_pairing_cost:.6f}",
        f"{row.mean_tokens:.6f}",
        f"{row.improvement_pct:.6f}",
        row.rl,
        f"{row.avg_max_ratio:.6f}",
        row.trials,
        row.seed,
    ]


def emit_results(result: ExperimentResult, path, fmt: str = "csv"):
    """Write rows as CSV or JSON with a stable layout (no wall times)."""
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(str(v) for v in _row_values(row)) for row in result.rows]
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    if fmt == "json":
        payload = [dict(zip(CSV_COLUMNS, _row_values(row))) for row in result.rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    raise ConfigError(f"unknown output format {fmt!r}")


def hve_demo(zone_indexes: Sequence[str], user_index: str, seed: int = 0) -> dict:
    """End-to-end match demo: minimized vs per-cell tokens, with counters."""
    if not zone_indexes:
        raise ConfigError("demo needs at least one alert index")
    width = len(user_index)
    minimized = fixed_length_minimize(list(zone_indexes))
    per_cell = tuple(sorted(set(zone_indexes)))

    params = hve.GroupParams.generate(width=width, bits=32, seed=seed)
    pk, sk = hve.setup(params, seed=seed + 1)
    message = hve.random_message(params, seed=seed + 2)
    ct = hve.encrypt(pk, user_index, message, seed=seed + 3)

    def run(patterns):
        counter = hve.PairingCounter()
        matches = []
        for k, pattern in enumerate(patterns):
            tk = hve.gen_token(sk, pattern, seed=seed + 10 + k)
            matches.append(hve.query(ct, tk, {message}, counter=counter) == message)
        return {
            "tokens": list(patterns),
            "pairing_sets": pairing_cost(patterns),
            "pairings": counter.snapshot(),
            "matched": any(matches),
            "matches": matches,
        }

    return {
        "zone": sorted(set(zone_indexes)),
        "user_index": user_index,
        "minimized": run(minimized.tokens),
        "unminimized": run(per_cell),
        "insecure_mock": True,
    }
