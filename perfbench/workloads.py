"""Workloads: the inputs a run makes from its seed, the set-up, and one alert.

Every call into privzone goes through :class:`Api`, which holds the
package's public functions, each wrapped in a span when the run is traced.
Nothing here imports privzone or numpy at module level, so the set-up
probe can time the package import itself.

Each workload is a closed loop in one thread: one alert at a time, each
finished before the next starts.  Radii come in shuffled blocks that hold
every radius in its exact share, and a run always ends on a block
boundary, so the mix of zone sizes never varies between runs.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import random
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

CELL_M = 10.0
SIGMOID_A = 0.99
SIGMOID_B = 100.0
MAP_SEED = 2021  # every workload's map is fixed; --seed varies its alerts and users
MOVE_SHARE = 10  # one user in this many moves before each alert

# Labels used in metric names (no parentheses allowed there).
METHOD_LABEL = {"huffman": "huffman", "balanced": "balanced", "fixed-minimized": "fixed-minimized", "bary(3)": "bary3"}
TREE_LABEL = {"huffman": "huffman", "balanced": "balanced", "fixed-minimized": "fixed", "bary(3)": "bary3"}


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    methods: tuple[str, ...]
    block: tuple[tuple[float, int], ...]  # (radius in m, alerts of that radius per block)
    counted_alerts: int  # alerts whose tokens and counts are reported exactly
    users: int = 0

    @property
    def block_size(self) -> int:
        return sum(k for _, k in self.block)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-sweep",
            rows=32,
            cols=32,
            methods=("huffman", "balanced", "fixed-minimized", "bary(3)"),
            block=((10.0, 1), (20.0, 1), (50.0, 1), (100.0, 1), (200.0, 1), (300.0, 1)),
            counted_alerts=240,
        ),
        # 20 m zones only: the W1 mix's 300 m alerts take about 2 s each and
        # their pairing sets vary widely with the origin, so a run held too
        # few of them to be steady (README.md gives the measurements).
        Workload(
            name="alert-match",
            rows=32,
            cols=32,
            methods=("huffman", "fixed-minimized"),
            block=((20.0, 4),),
            counted_alerts=170,
            users=20,
        ),
    )
}


class Alert(NamedTuple):
    id: int
    radius: float
    zone_seed: int


def _rng(workload: Workload, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload.name}/{seed}/{purpose}")


def alerts(workload: Workload, seed: int) -> Iterator[Alert]:
    """Endless alert stream; the same seed always yields the same alerts."""
    rng = _rng(workload, seed, "alerts")
    radii = [r for r, k in workload.block for _ in range(k)]
    order = radii
    for i in itertools.count():
        if i % len(radii) == 0:
            order = radii[:]
            rng.shuffle(order)
        yield Alert(i, order[i % len(radii)], rng.randrange(2**63))


def _index_of_cells(index_map, cells) -> list[str]:
    return [index_map.index_of(c) for c in cells]


def _length(args, result) -> int:
    return len(result)


class Api:
    """privzone's public functions, wrapped in spans when the tracer records."""

    def __init__(self, tracer):
        from privzone import encoding, grid, hve, kernels, tokens, trees

        wrap = tracer.wrap
        self.tracer = tracer
        self.kernels = kernels
        self.fixed_code_width = trees.fixed_code_width
        self.pairing_cost = tokens.pairing_cost
        self.PairingCounter = hve.PairingCounter
        self.generate_sigmoid_probabilities = wrap(
            "grid.generate_sigmoid_probabilities", grid.generate_sigmoid_probabilities
        )
        self.sample_alert_zone = wrap(
            "grid.sample_alert_zone", grid.sample_alert_zone, lambda a, r: len(r.cell_ids)
        )
        self.build_huffman_tree = wrap("trees.build_huffman_tree", trees.build_huffman_tree)
        self.build_balanced_tree = wrap("trees.build_balanced_tree", trees.build_balanced_tree)
        self.build_bary_huffman_tree = wrap("trees.build_bary_huffman_tree", trees.build_bary_huffman_tree)
        self.make_cell_indexes = wrap("encoding.make_cell_indexes", encoding.make_cell_indexes)
        self.make_coding_tree = wrap("encoding.make_coding_tree", encoding.make_coding_tree)
        self.build_fixed_length = wrap("encoding.build_fixed_length", encoding.build_fixed_length)
        # One span per batch of lookups; its count is the number of cells.
        self.index_of_cells = wrap("encoding.index_of", _index_of_cells, _length)
        self.minimize_tokens = wrap("tokens.minimize_tokens", tokens.minimize_tokens, _length)
        self.fixed_length_minimize = wrap(
            "tokens.fixed_length_minimize", tokens.fixed_length_minimize, _length
        )
        self.generate_params = wrap("hve.GroupParams.generate", hve.GroupParams.generate)
        self.hve_setup = wrap("hve.setup", hve.setup)
        self.random_message = wrap("hve.random_message", hve.random_message)
        self.encrypt = wrap("hve.encrypt", hve.encrypt)
        self.gen_token = wrap("hve.gen_token", hve.gen_token)
        self.query = wrap("hve.query", hve.query)

    def kernel_module(self, width: int):
        """The module whose kernels ``fixed_length_minimize`` runs at ``width``."""
        name = {"python": "_qmcore_py", "compiled": "_qmcore"}.get(self.kernels.default_backend(width))
        return importlib.import_module(f"privzone.{name}") if name else None

    @contextlib.contextmanager
    def inner_spans(self, width: int):
        """Spans inside two public calls: the kernels and the fixed-length tree.

        Wraps the ``prime_implicants`` and ``select_cover`` attributes of the
        kernel module selected for ``width``, and the tree builder that
        ``encoding.build_fixed_length`` calls.  Restored on exit.
        """
        from privzone import encoding

        targets = [(encoding, "build_fixed_length_tree", "trees.build_fixed_length_tree", None)]
        module = self.kernel_module(width)
        if module is not None:
            targets += [
                (module, "prime_implicants", "kernels.prime_implicants", _length),
                (module, "select_cover", "kernels.select_cover", _length),
            ]
        # A later package layout may drop a target; it then goes unwrapped.
        targets = [t for t in targets if hasattr(t[0], t[1])]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in targets]
        try:
            for obj, attr, name, count in targets:
                setattr(obj, attr, self.tracer.wrap(name, getattr(obj, attr), count))
            yield
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)


@dataclass
class Encoding:
    method: str
    label: str
    rl: int
    index_map: object
    coding_tree: Optional[object]


@dataclass
class HveState:
    pk: object
    sk: object
    message: object
    ciphertexts: list


@dataclass
class System:
    """Everything set up before the first alert, plus the users' positions."""

    workload: Workload
    seed: int
    grid: object
    encodings: list[Encoding]
    user_cells: list[int]
    hve: dict[str, HveState]
    cum_weights: list[float]

    def snapshot(self):
        return list(self.user_cells), {m: list(s.ciphertexts) for m, s in self.hve.items()}

    def restore(self, snap):
        cells, cts = snap
        self.user_cells[:] = cells
        for m, s in self.hve.items():
            s.ciphertexts[:] = cts[m]


def setup(api: Api, workload: Workload, seed: int) -> System:
    """Grid, every method's tree, indexes and coding tree, and on workloads
    with users the group parameters, keys and each user's first ciphertext."""
    tracer = api.tracer
    grid = api.generate_sigmoid_probabilities(
        workload.rows, workload.cols, SIGMOID_A, SIGMOID_B, MAP_SEED
    )
    builders = {
        "huffman": api.build_huffman_tree,
        "balanced": api.build_balanced_tree,
        "bary(3)": lambda g: api.build_bary_huffman_tree(g, 3),
    }
    encodings = []
    for method in workload.methods:
        tracer.method = TREE_LABEL[method]
        if method == "fixed-minimized":
            tree, index_map = api.build_fixed_length(grid)
            coding = None
        else:
            tree = builders[method](grid)
            index_map = api.make_cell_indexes(tree)
            coding = api.make_coding_tree(tree)
        encodings.append(Encoding(method, METHOD_LABEL[method], tree.rl, index_map, coding))
    tracer.method = None

    cum_weights = list(itertools.accumulate(grid.weights))
    user_cells: list[int] = []
    states: dict[str, HveState] = {}
    if workload.users:
        rng = _rng(workload, seed, "users")
        user_cells = rng.choices(range(grid.n), cum_weights=cum_weights, k=workload.users)
        for enc in encodings:
            tracer.method = enc.label
            keys = _rng(workload, seed, f"hve/{enc.method}")
            params = api.generate_params(enc.index_map.width, bits=32, seed=keys.randrange(2**31))
            pk, sk = api.hve_setup(params, seed=keys.randrange(2**31))
            message = api.random_message(params, seed=keys.randrange(2**31))
            indexes = api.index_of_cells(enc.index_map, user_cells)
            cts = [api.encrypt(pk, ix, message, seed=keys.randrange(2**63)) for ix in indexes]
            states[enc.method] = HveState(pk, sk, message, cts)
        tracer.method = None
    return System(workload, seed, grid, encodings, user_cells, states, cum_weights)


@dataclass
class Op:
    """One (alert, method): the TA's tokens and, with users, the SP's matching."""

    method: str
    issue_s: float
    notify_s: Optional[float] = None
    tokens: tuple[str, ...] = ()
    queries: Optional[list[int]] = None  # queries made per user
    decisions: Optional[list[bool]] = None  # user matched some token
    pairings: int = 0
    error: Optional[str] = None


@dataclass
class AlertResult:
    alert: Alert
    zone: frozenset
    user_cells: tuple[int, ...]
    ops: list[Op]
    elapsed_s: float


def _move_users(api: Api, system: System, alert: Alert) -> None:
    """The writes: a tenth of the users move and re-encrypt under every method."""
    rng = _rng(system.workload, system.seed, f"move/{alert.id}")
    users = len(system.user_cells)
    movers = rng.sample(range(users), max(1, users // MOVE_SHARE))
    cells = rng.choices(range(system.grid.n), cum_weights=system.cum_weights, k=len(movers))
    for u, cell in zip(movers, cells):
        system.user_cells[u] = cell
        seed = rng.randrange(2**63)
        for enc in system.encodings:
            state = system.hve[enc.method]
            [index] = api.index_of_cells(enc.index_map, [cell])
            state.ciphertexts[u] = api.encrypt(state.pk, index, state.message, seed=seed)


def _serve(api: Api, system: System, enc: Encoding, cells: list[int], alert: Alert) -> Op:
    tracer = api.tracer
    tracer.method = enc.label
    clock = time.perf_counter
    start = clock()
    try:
        with tracer.span("run.issue"):
            indexes = api.index_of_cells(enc.index_map, cells)
            if enc.coding_tree is not None:
                tokens = api.minimize_tokens(indexes, enc.coding_tree).tokens
            else:
                tokens = api.fixed_length_minimize(indexes).tokens
        issued = clock()
        state = system.hve.get(enc.method)
        if state is None:
            return Op(enc.method, issued - start, tokens=tokens)
        counter = api.PairingCounter()
        valid = {state.message}
        queries, decisions = [], []
        with tracer.span("run.match"):
            hve_tokens = [
                api.gen_token(state.sk, pattern, seed=alert.zone_seed + k)
                for k, pattern in enumerate(tokens)
            ]
            for ct in state.ciphertexts:
                made, matched = 0, False
                for tk in hve_tokens:
                    made += 1
                    if api.query(ct, tk, valid, counter) is not None:
                        matched = True
                        break
                queries.append(made)
                decisions.append(matched)
        done = clock()
        return Op(enc.method, issued - start, done - start, tokens, queries, decisions, counter.snapshot())
    except Exception as exc:  # a failed operation is counted, not fatal
        return Op(enc.method, clock() - start, error=f"{type(exc).__name__}: {exc}")
    finally:
        tracer.method = None


def run_alert(api: Api, system: System, alert: Alert) -> AlertResult:
    """Handle one alert end to end; only this is timed, never the checks."""
    tracer = api.tracer
    tracer.alert = alert.id
    start = time.perf_counter()
    try:
        with tracer.span("run.alert"):
            if system.user_cells:
                _move_users(api, system, alert)
            zone = api.sample_alert_zone(system.grid, CELL_M, alert.radius, alert.zone_seed)
            cells = sorted(zone.cell_ids)
            ops = [_serve(api, system, enc, cells, alert) for enc in system.encodings]
        zone_cells = zone.cell_ids
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        ops = [Op(enc.method, 0.0, error=error) for enc in system.encodings]
        zone_cells = frozenset()
    elapsed = time.perf_counter() - start
    tracer.alert = None
    return AlertResult(alert, zone_cells, tuple(system.user_cells), ops, elapsed)
