#!/usr/bin/env python3
"""privzone benchmark: alert throughput, token-issue latency and pairing counts.

Run from the root of a source checkout (the directory holding ``src/privzone``):

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
untraced and then traced, prints every per-layer metric, each layer's self
time and the tracing overhead, and writes the spans to ``perfbench/out/``.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 9  # fresh interpreters per run, spread over the timed loop, for setup_s
MEMORY_EVERY = 3  # every third probe also serves a block of alerts, for peak_rss_mb
DEADLINE_S = 140.0  # stop measuring by then so the run ends well within 180 s
STARTED = time.monotonic()

sys.path.insert(0, str(HERE))

# Only the standard library and the benchmark's numpy-free modules are
# imported here: a set-up probe times the import of privzone and of
# anything privzone imports, so numpy, scipy and the checker load lazily.
from spans import NullTracer, Tracer, self_times  # noqa: E402
from speed import REFERENCE_S, reference_s, scale  # noqa: E402
from workloads import TREE_LABEL, WORKLOADS, Api, alerts, run_alert, setup  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed seconds of alert handling")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("setup", "memory"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source() -> None:
    if not (SRC / "privzone" / "__init__.py").is_file():
        sys.exit(f"perfbench: no privzone source at {SRC / 'privzone'}; run from the repository root")
    sys.path.insert(0, str(SRC))


def setup_probe(workload, seed: int, kind: str) -> None:
    """Fresh interpreter that loads neither numpy nor the checker: time from
    before ``import privzone`` until an alert can be served, scaled to the
    reference speed by readings before and after.  A ``memory`` probe then
    serves the first block of alerts unchecked and reports the process's
    peak memory."""
    before = reference_s()
    start = time.perf_counter()
    api = Api(NullTracer())
    system = setup(api, workload, seed)
    raw = time.perf_counter() - start
    out = {"setup_s": raw * scale(before, reference_s()), "raw_setup_s": raw}
    if kind == "memory":
        stream = alerts(workload, seed)
        for _ in range(workload.block_size):
            run_alert(api, system, next(stream))
        out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


def run_probe(workload, seed: int, kind: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--seed", str(seed), "--setup-probe", kind],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def header(api, system, seed: int) -> dict:
    import numpy

    widths = sorted({enc.index_map.width for enc in system.encodings})
    return {
        "workload": system.workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "kernels.available_backends": api.kernels.available_backends(),
        "kernels.default_backend": {str(w): api.kernels.default_backend(w) for w in widths},
    }


class KernelParity:
    """The pure-Python kernel must emit the tokens of the backend that
    ``kernels.default_backend`` picks, on every fixed-minimized operation of
    the counted alerts.  Checked after timing; skipped when the default is
    the Python kernel itself (no compiled kernel is built)."""

    def __init__(self, api, system):
        self.enc = next((e for e in system.encodings if e.method == "fixed-minimized"), None)
        self.backend = api.kernels.default_backend(self.enc.index_map.width) if self.enc else None
        self.available = api.kernels.available_backends()
        self.counted = system.workload.counted_alerts
        self.compared: set[int] = set()

    def check(self, result, problems) -> None:
        """Add a problem to each fixed-minimized op whose tokens differ."""
        if self.backend in (None, "python") or result.alert.id >= self.counted:
            return
        from privzone import tokens

        for op, bad in zip(result.ops, problems):
            if op.method == self.enc.method and op.error is None:
                indexes = [self.enc.index_map.index_of(c) for c in sorted(result.zone)]
                if tokens.fixed_length_minimize(indexes, backend="python").tokens != op.tokens:
                    bad.append(f"python kernel tokens differ from the {self.backend} kernel's")
                self.compared.add(result.alert.id)

    def report(self) -> str:
        if self.enc is None:
            return "skipped: no fixed-minimized method"
        if self.backend == "python":
            return f"skipped: the default backend is python (available: {', '.join(self.available)})"
        return f"python vs {self.backend}: {len(self.compared)} zones compared, mismatches count as failed"


@dataclass
class Counts:
    """Exact counts of one method over the counted alerts."""

    ops: int = 0
    tokens: int = 0
    pairing_sets: int = 0
    pairings: int = 0
    queries: int = 0
    matches: int = 0


@dataclass
class Measured:
    """What the timed loop produced; counts cover the first ``counted`` alerts.

    Timings are scaled block by block to the reference speed (speed.py);
    ``timed_s`` is the measured total, which sets the run's length.
    """

    counted: int
    alerts: int = 0
    timed_s: float = 0.0
    elapsed: list = field(default_factory=list)  # scaled seconds of each alert
    issue_ms: list = field(default_factory=list)  # scaled, per (alert, method)
    notify_ms: list = field(default_factory=list)  # scaled, per (alert, method), with users
    references: list = field(default_factory=list)  # the loop's time at each block boundary
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    per_method: dict = field(default_factory=dict)  # method -> Counts
    pairings_all: int = 0
    digest: object = field(default_factory=hashlib.sha256)
    cut: bool = False
    _block: tuple = field(default_factory=lambda: ([], [], []))  # this block's raw timings

    def boundary(self, reference: float) -> None:
        """A reading of the reference loop between blocks: the block before it
        is scaled by the mean of the readings that bracket it."""
        elapsed, issue, notify = self._block
        if elapsed:
            factor = scale(self.references[-1], reference)
            self.elapsed += [t * factor for t in elapsed]
            self.issue_ms += [t * factor for t in issue]
            self.notify_ms += [t * factor for t in notify]
            self._block = ([], [], [])
        self.references.append(reference)

    def add(self, result, problems) -> None:
        elapsed, issue, notify = self._block
        self.alerts += 1
        self.timed_s += result.elapsed_s
        elapsed.append(result.elapsed_s)
        counted = result.alert.id < self.counted
        for op, bad in zip(result.ops, problems):
            self.attempted += 1
            issue.append(op.issue_s * 1e3)
            if op.notify_s is not None:
                notify.append(op.notify_s * 1e3)
            if bad:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"alert {result.alert.id} {op.method}: {'; '.join(bad)}")
            self.pairings_all += op.pairings
            if counted:
                c = self.per_method.setdefault(op.method, Counts())
                c.ops += 1
                c.tokens += len(op.tokens)
                c.pairing_sets += sum(len(t) - t.count("*") for t in op.tokens)
                c.pairings += op.pairings
                c.queries += sum(op.queries or ())
                c.matches += sum(op.decisions or ())
                self.digest.update(f"{result.alert.id} {op.method} {' '.join(op.tokens)}\n".encode())

    @property
    def pending(self) -> bool:
        return bool(self._block[0])

    def rate(self, alerts=None) -> float:
        """Alerts per scaled second, over all alerts or the first ``alerts``."""
        n = self.alerts if alerts is None else alerts
        return n / math.fsum(self.elapsed[:n])

    def speed(self) -> float:
        """The machine's median speed over the loop, as a share of the reference speed."""
        return REFERENCE_S / statistics.median(self.references)

    def count_mean(self, name: str, method=None) -> float:
        """Mean of one of the :class:`Counts` per (alert, method)."""
        rows = [c for m, c in self.per_method.items() if method in (None, m)]
        return sum(getattr(c, name) for c in rows) / sum(c.ops for c in rows)

    def count_total(self, name: str) -> int:
        return sum(getattr(c, name) for c in self.per_method.values())


def measure(api, system, tables, parity, seconds: float, min_alerts: int, between_blocks=None) -> Measured:
    """Closed loop: alerts until ``seconds`` are timed and ``min_alerts`` done, on a block boundary.

    The reference loop is read, untimed, at every block boundary.
    ``between_blocks(out)``, if given, runs untimed before each block.
    """
    from checker import check_alert

    out = Measured(counted=system.workload.counted_alerts)
    block = system.workload.block_size
    for alert in alerts(system.workload, system.seed):
        if alert.id % block == 0:
            if out.alerts:
                out.boundary(reference_s())
            if out.timed_s >= seconds and out.alerts >= min_alerts:
                break
            # A block's first reading follows whatever ran between blocks.
            if (between_blocks is not None and between_blocks(out)) or not out.alerts:
                out.boundary(reference_s())
        if time.monotonic() - STARTED > DEADLINE_S:
            out.cut = True
            break
        result = run_alert(api, system, alert)
        problems = check_alert(result, tables, api.pairing_cost)
        parity.check(result, problems)
        out.add(result, problems)
    if out.pending:
        out.boundary(reference_s())
    return out


def warm_up(api, system, tables, parity) -> None:
    """Run the first block untimed and put the users back, so first-call costs
    (allocator growth, lazy imports) do not land in the timed loop."""
    start = system.snapshot()
    measure(api, system, tables, parity, 0.0, system.workload.block_size)
    system.restore(start)


def peak_rss_mb() -> float:
    """This process's peak resident memory.

    ``VmHWM`` is read first, because ``ru_maxrss`` also keeps the high-water
    mark of the parent's memory image, in which a subprocess runs before it
    execs.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(lines, name: str, value: float, unit: str, note: str = "") -> None:
    lines.append(f"{name:<44} {value:>16.6f} {unit:<6} {note}".rstrip())


def end_to_end(workload, seed: int, seconds: float):
    from checker import IndexTable
    from stats import beyond, percentile

    api = Api(NullTracer())
    system = setup(api, workload, seed)
    head = header(api, system, seed)
    parity = KernelParity(api, system)
    tables = {enc.method: IndexTable(enc.index_map.entries) for enc in system.encodings}
    warm_up(api, system, tables, parity)

    # The probes are spread over the timed loop, so that their median does
    # not hang on the machine's speed in one moment.
    probes = []

    def next_probe():
        probes.append(run_probe(workload, seed, "setup" if len(probes) % MEMORY_EVERY else "memory"))

    def probe_when_due(out) -> bool:
        due = len(probes) < SETUP_PROBES and out.timed_s >= len(probes) * seconds / SETUP_PROBES
        if due:
            next_probe()
        return due

    run = measure(api, system, tables, parity, seconds, workload.counted_alerts, probe_when_due)
    while len(probes) < SETUP_PROBES:
        next_probe()
    memory = [p["peak_rss_mb"] for p in probes if "peak_rss_mb" in p]
    head["kernel_parity"] = parity.report()

    lines = [f"# header {json.dumps(head)}"]
    metrics = {}

    def put(name, value, unit, note=""):
        emit(lines, name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}

    n_issue = len(run.issue_ms)
    raw_setup = percentile([p["raw_setup_s"] for p in probes], 50)
    put("setup_s", percentile([p["setup_s"] for p in probes], 50), "s", f"median of {SETUP_PROBES} fresh interpreters; measured {raw_setup:.4f} s")
    put("alerts_per_s", run.rate(), "1/s", f"{run.alerts} alerts; measured {run.alerts / run.timed_s:.4f}/s")
    put("issue_ms_p50", percentile(run.issue_ms, 50), "ms", f"n={n_issue}")
    put("issue_ms_p97", percentile(run.issue_ms, 97), "ms", f"n={n_issue}, {beyond(run.issue_ms, 97)} beyond")
    put("pairing_sets_per_alert", run.count_mean("pairing_sets"), "count", f"first {workload.counted_alerts} alerts")
    put("tokens_per_alert", run.count_mean("tokens"), "count", f"first {workload.counted_alerts} alerts")
    put("peak_rss_mb", statistics.median(memory), "MB", f"median of {len(memory)} probes serving the first block")
    # Reported but not in BENCHMARK.json: notify and pairings exist only where
    # users are matched, and failed_frac is 0 whenever the program is correct.
    if run.notify_ms:
        n = len(run.notify_ms)
        emit(lines, "notify_ms_p50", percentile(run.notify_ms, 50), "ms", f"n={n}")
        emit(lines, "notify_ms_p97", percentile(run.notify_ms, 97), "ms", f"n={n}, {beyond(run.notify_ms, 97)} beyond")
        emit(lines, "pairings_per_alert", run.count_mean("pairings"), "count", f"first {workload.counted_alerts} alerts")
    emit(lines, "failed_frac", run.failed / run.attempted, "ratio", f"{run.failed} of {run.attempted} ops")
    lines.append(f"# tokens_sha256 {run.digest.hexdigest()} (first {workload.counted_alerts} alerts)")
    lines.append(f"# machine speed {run.speed():.4f} of the reference (median of {len(run.references)} readings)")
    return run, head, lines, metrics


def layer_metrics(spans, system, traced, plain) -> dict:
    """Every per-layer figure the traced run can give, keyed by metric name."""
    from stats import mean, percentile

    counted = system.workload.counted_alerts
    loop = [s for s in spans if s.alert is not None]
    first = [s for s in loop if s.alert < counted]
    at_setup = [s for s in spans if s.alert is None]
    selfs = self_times(spans)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def durations(name, pool=loop, method=None):
        return [s.duration for s in pool if s.name == name and method in (None, s.method)]

    def setup_ms(name, method=None):
        return sum(durations(name, at_setup, method)) * 1e3

    put("grid.generate_sigmoid_probabilities.ms", setup_ms("grid.generate_sigmoid_probabilities"), "ms")
    zone = durations("grid.sample_alert_zone")
    put("grid.sample_alert_zone.ms_p50", percentile(zone, 50) * 1e3, "ms")
    put("grid.sample_alert_zone.busy_s", sum(zone), "s")
    put("grid.zone_cells.mean", mean(s.count for s in first if s.name == "grid.sample_alert_zone"), "count")

    builders = {
        "huffman": "trees.build_huffman_tree",
        "balanced": "trees.build_balanced_tree",
        "fixed": "trees.build_fixed_length_tree",
        "bary3": "trees.build_bary_huffman_tree",
    }
    for enc in system.encodings:
        tree = TREE_LABEL[enc.method]
        put(f"trees.build.ms.{tree}", setup_ms(builders[tree], tree), "ms")
        put(f"trees.rl.{tree}", enc.rl, "count")
        if enc.coding_tree is not None:
            put(f"encoding.make_cell_indexes.ms.{tree}", setup_ms("encoding.make_cell_indexes", tree), "ms")
            put(f"encoding.make_coding_tree.ms.{tree}", setup_ms("encoding.make_coding_tree", tree), "ms")
        else:
            put("encoding.build_fixed_length.ms", setup_ms("encoding.build_fixed_length"), "ms")
    put("encoding.index_of.busy_s", sum(durations("encoding.index_of")), "s")

    for enc in system.encodings:
        if enc.coding_tree is not None:
            samples = durations("tokens.minimize_tokens", method=enc.label)
            put(f"tokens.minimize_tokens.ms_p50.{enc.label}", percentile(samples, 50) * 1e3, "ms")
            put(f"tokens.minimize_tokens.ms_p90.{enc.label}", percentile(samples, 90) * 1e3, "ms")
        else:
            samples = durations("tokens.fixed_length_minimize")
            put("tokens.fixed_length_minimize.ms_p50", percentile(samples, 50) * 1e3, "ms")
            put("tokens.fixed_length_minimize.ms_p90", percentile(samples, 90) * 1e3, "ms")
        put(f"tokens.pairing_sets.{enc.label}", traced.count_mean("pairing_sets", enc.method), "count")
        put(f"tokens.count.{enc.label}", traced.count_mean("tokens", enc.method), "count")
    put("tokens.busy_s", sum(s.duration for s in loop if s.layer == "tokens"), "s")

    primes = [s.count for s in first if s.name == "kernels.prime_implicants"]
    cover = [s.count for s in first if s.name == "kernels.select_cover"]
    put("kernels.prime_implicants.busy_s", sum(durations("kernels.prime_implicants")), "s")
    put("kernels.select_cover.busy_s", sum(durations("kernels.select_cover")), "s")
    if primes and cover:
        put("kernels.primes", mean(primes), "count")
        put("kernels.cover_size", mean(cover), "count")
        put("kernels.cover_ratio", sum(cover) / sum(primes), "ratio")

    if system.hve:
        query = durations("hve.query")
        queries = traced.count_total("queries")
        put("hve.GroupParams.generate.ms", setup_ms("hve.GroupParams.generate"), "ms")
        put("hve.setup.ms", setup_ms("hve.setup"), "ms")
        put("hve.encrypt.ms_p50", percentile([s.duration for s in spans if s.name == "hve.encrypt"], 50) * 1e3, "ms")
        put("hve.encrypt.busy_s", sum(durations("hve.encrypt")), "s")
        put("hve.gen_token.busy_s", sum(durations("hve.gen_token")), "s")
        put("hve.query.us_p50", percentile(query, 50) * 1e6, "us")
        put("hve.query.busy_s", sum(query), "s")
        put("hve.queries", queries, "count")
        put("hve.pairings", traced.count_total("pairings"), "count")
        put("hve.us_per_pairing", sum(query) * 1e6 / traced.pairings_all, "us")
        put("hve.match_ratio", traced.count_total("matches") / queries, "ratio")

    for layer in ("grid", "trees", "encoding", "tokens", "kernels", "hve", "run"):
        if any(s.layer == layer for s in loop):
            put(f"{layer}.self_s", sum(t for s, t in zip(spans, selfs) if s.alert is not None and s.layer == layer), "s")
    n = plain.alerts
    put("trace.untraced_alerts_per_s", plain.rate(), "1/s")
    put("trace.alerts_per_s", traced.rate(n), "1/s")
    put("trace.overhead_alerts_per_s", traced.rate(n) - plain.rate(), "1/s")
    put("trace.spans", len(spans), "count")
    return out


def per_layer(workload, seed: int, seconds: float):
    from checker import IndexTable

    tracer = Tracer()
    api = Api(tracer)
    plain_api = Api(NullTracer())
    width = api.fixed_code_width(workload.rows * workload.cols)
    with api.inner_spans(width):
        system = setup(api, workload, seed)
    head = header(api, system, seed)
    parity = KernelParity(api, system)
    tables = {enc.method: IndexTable(enc.index_map.entries) for enc in system.encodings}
    start = system.snapshot()
    warm_up(plain_api, system, tables, parity)
    plain = measure(plain_api, system, tables, parity, seconds / 2, 0)
    system.restore(start)
    with api.inner_spans(width):
        traced = measure(api, system, tables, parity, seconds / 2, max(workload.counted_alerts, plain.alerts))
    head["kernel_parity"] = parity.report()
    spans = tracer.finished()
    figures = layer_metrics(spans, system, traced, plain)

    lines = [f"# header {json.dumps(head)}"]
    for name, (value, unit) in figures.items():
        emit(lines, name, value, unit)
    if system.hve and traced.failed == 0:
        lines.append("# hve.pairings: every operation's counter equals the sum of 1 + 2|J| over the queries it made")
    lines.append(f"# tokens_sha256 {traced.digest.hexdigest()} (first {workload.counted_alerts} alerts)")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "header": head,
                "fields": ["name", "start_s", "end_s", "parent", "alert", "method", "count"],
                "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.alert, s.method, s.count] for s in spans],
                "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
            },
            fh,
        )
    lines.append(f"# spans written to {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems = plain.problems + traced.problems
    traced.cut = traced.cut or plain.cut
    return traced, head, lines, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    require_source()
    if args.setup_probe:
        setup_probe(workload, args.seed, args.setup_probe)
        return 0
    import privzone

    if not Path(privzone.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported privzone from {privzone.__file__}, not from {SRC}")
    stage = per_layer if args.trace else end_to_end
    run, head, lines, metrics = stage(workload, args.seed, args.seconds)
    if args.trace:
        wanted = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: metrics[m["name"]] for m in wanted}
    print(f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(lines))
    for problem in run.problems:
        print(f"# FAILED {problem}")
    if run.cut:
        print(f"# measurement cut at {DEADLINE_S:.0f} s; counts cover fewer alerts than usual")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
