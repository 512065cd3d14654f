"""Benchmark for alcove-hecke: three workloads against the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload mtriangle_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in one single-threaded process as a closed loop: one
caller, the next item starts when the previous one has returned.  A pass
builds a fresh engine per datum (timed as set-up, since a command-line user
pays cold caches on every call), then runs every item and checks its answer
exactly.  Passes repeat until --seconds have been measured, at least
MIN_PASSES of them.  Times are scaled to a reference host speed by a gauge
timed between items (see Gauge); the raw figures are in the detail line.
Latency percentiles are Harrell-Davis estimates.  With --trace 1
the run makes one untraced and one traced pass and reports the per-layer
metrics instead.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when any item
fails its check and 2 when the library cannot be found.

``--workload all`` runs every workload, untraced and traced, each in its own
process, prints every metric by name with its unit and ends with a JSON
summary of all of them.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_COUNTS = (
    "ext_weyl.mul.calls",
    "ext_weyl.length.calls",
    "ext_weyl.length.distinct",
    "ext_weyl.reduced_expression.calls",
    "ext_weyl.bruhat_leq.calls",
    "ext_weyl.bruhat_lower_set.calls",
    "ext_weyl.bruhat_lower_set.size_mean",
    "laurent.mul.calls",
    "laurent.add.calls",
    "hecke.kl_basis.calls",
    "hecke.kl_basis.distinct",
    "hecke.kl_basis.support_mean",
    "hecke.inverse_m.calls",
    "hecke.inverse_m.interval_mean",
    "hecke.bar.calls",
    "hecke.standard_inverse.calls",
    "hecke.right_mul_gen.calls",
    "alcove.in_wexts.calls",
    "alcove.triangle.calls",
    "alcove.res_decompose.calls",
    "orders.leq.calls",
    "orders.leq.distinct",
    "parabolic.min_rep.calls",
    "groth_calc.projective_filtration.calls",
    "groth_calc.xi_s.calls",
    "satake_char.weight_multiplicities.calls",
    "satake_char.kostant_multiplicity.calls",
)
SELF_TIME_MODULES = (
    "ext_weyl", "laurent", "hecke", "alcove", "orders", "parabolic", "groth_calc", "satake_char",
)
# per-layer metric -> traced function whose inclusive time it is
INCLUSIVE = {
    "root_datum.load_s": "root_datum.load_root_datum.total_s",
    "engine.build_s": "engine.build_engine.total_s",
}
MIN_PASSES = 2  # an item's latency is its mean over at least this many passes
SETUP_SAMPLES = 21  # set-up takes milliseconds: at least this many per run
GAUGE_EVERY_S = 0.2  # work between two gauge samples
REFERENCE_S = 0.010  # the gauge kernel's time at the reference speed


def per_layer_units() -> dict[str, str]:
    from workloads import WORKLOADS

    units = {}
    for name in PER_LAYER_COUNTS:
        units[name] = "count"
    for module in SELF_TIME_MODULES:
        units[f"{module}.self_s"] = "s"
    for name in INCLUSIVE:
        units[name] = "s"
    for workload in WORKLOADS.values():
        for datum, _ in workload.sizes["full"]:
            units[f"per_datum.{datum}.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max((p for p in range(100) if n - math.ceil(p * n / 100) >= 10), default=100)


def percentile(sorted_values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, the weights being the
    Beta(p(n+1), (1-p)(n+1)) mass over each rank's share of [0, 1].  It
    estimates the same percentile as the nearest rank, but averages the few
    items around that rank instead of taking one of them, so that one
    item's noise, or a step between two clusters of item costs, moves it
    less."""
    n, q = len(sorted_values), p / 100
    if n == 1 or q <= 0:
        return sorted_values[0]
    if q >= 1:
        return sorted_values[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 8  # midpoint rule within each rank's interval
    total = weight_sum = 0.0
    for i, value in enumerate(sorted_values):
        weight = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            weight += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
        total += weight * value
        weight_sum += weight
    return total / weight_sum


def _gauge_kernel() -> int:
    """Fixed pure-Python work of the kind the library does (dict updates,
    integer arithmetic); it calls nothing in the library, so no change to
    the library can change its time.  It allocates no object the cyclic
    garbage collector tracks, apart from its one dict, so sampling the gauge
    does not move the points where the workload's collections fall."""
    table: dict = {}
    total = 0
    for i in range(17_000):
        key = (i % 89) * 10_000 + (i % 13) * 100 + -i % 7
        table[key] = table.get(key, 0) + i * 3 // 5
        total += (i ^ total) % 11
    return total + len(table)


class Gauge:
    """Host-speed gauge.

    The benchmark shares a few cores of a host whose speed drifts by 10-25%
    over seconds to minutes.  A fixed kernel is timed between the items of
    the workload, about every GAUGE_EVERY_S, and each measured time is
    scaled by REFERENCE_S over the median of the NEIGHBOURS kernel times
    nearest to it: times are reported as seconds at the reference speed.
    The kernel's own time is kept out of every figure, and the raw figures
    are printed in the detail line.
    """

    NEIGHBOURS = 3

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each sample
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> float:
        """Time the kernel once; return the time it took."""
        start = time.perf_counter()
        _gauge_kernel()
        self.last = time.perf_counter()
        self.at.append((start + self.last) / 2)
        self.samples.append(self.last - start)
        return self.last - start

    def due(self) -> bool:
        return time.perf_counter() - self.last >= GAUGE_EVERY_S

    def scale(self, when: float, since: int = 0) -> float:
        """Factor that turns a time measured around `when` into reference
        seconds, from the samples taken since sample `since`."""
        k = self.NEIGHBOURS
        i = bisect.bisect(self.at, when, lo=since)
        lo = max(since, min(i - k // 2, len(self.samples) - k))
        return REFERENCE_S / statistics.median(self.samples[lo:lo + k])


class Run:
    """Inputs and accumulated results of one workload run."""

    def __init__(self, workload, size: str, seed: int):
        import alcove_hecke

        from workloads import descriptor

        self.ah = alcove_hecke
        self.workload = workload
        self.plan = []  # (datum, descriptor, items)
        for datum, param in workload.sizes[size]:
            spec = descriptor(datum)
            eng = alcove_hecke.build_engine(spec)
            self.plan.append((datum, spec, workload.inputs(eng, datum, param, seed)))
        expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.expected = expected.get(workload.name, {}).get(size, {})
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.digests: dict[str, str] = {}
        self.gauge = Gauge()

    def build(self) -> tuple[dict, float]:
        gc.collect()  # a command-line user builds on a fresh heap
        start = time.perf_counter()
        engines = {datum: self.ah.build_engine(spec) for datum, spec, _ in self.plan}
        return engines, time.perf_counter() - start

    def one_pass(self) -> dict:
        """Build fresh engines, run every item, check every answer.

        Times are in reference seconds (see Gauge); "raw_wall_s" is the
        pass's wall time as measured."""
        gauge, mark = self.gauge, len(self.gauge.samples)
        gauge.sample()
        built = time.perf_counter()
        engines, setup = self.build()
        starts, latencies, per_datum = [], [], {}
        clock = time.perf_counter
        for datum, _, items in self.plan:
            # one datum at a time, as one command-line call would hold it
            eng = engines.pop(datum)
            hasher = hashlib.sha256()
            gauged = 0.0
            # each datum starts from a collected heap, so that the points where
            # the collector runs, and the pauses it adds to items, repeat
            gc.collect()
            start = clock()
            ctx = self.workload.begin(eng)
            for item in items:
                t0 = clock()
                starts.append(t0)
                try:
                    ok, text = self.workload.run(eng, ctx, item.arg)
                except Exception as exc:  # a raising item is a failed item
                    ok, text = False, f"raised {exc!r}"
                latencies.append(clock() - t0)
                self.attempted += 1
                if not ok:
                    self._fail(f"{datum}: {item.arg!r}: {text}")
                if item.anchored:
                    hasher.update(text.encode() + b"\n")
                if gauge.due():
                    gauged += gauge.sample()
            per_datum[datum] = (clock() - start - gauged, len(items))
            digest = hasher.hexdigest()
            self.digests[datum] = digest
            self.attempted += 1
            if self.expected.get(datum) != digest:
                self._fail(f"{datum}: answer digest {digest} differs from digests.json")
        gauge.sample()
        scaled = [t * gauge.scale(t0 + t / 2, mark) for t0, t in zip(starts, latencies)]
        # a datum's time is scaled by the latency-weighted factor of its items
        scaled_per_datum, first = {}, 0
        for datum, (raw, n) in per_datum.items():
            part = slice(first, first + n)
            first += n
            weight = sum(latencies[part])
            scaled_per_datum[datum] = raw * (sum(scaled[part]) / weight if weight else 1.0)
        return {
            "setup_s": setup * gauge.scale(built, mark),
            "wall_s": sum(scaled_per_datum.values()),
            "raw_wall_s": sum(raw for raw, _ in per_datum.values()),
            "per_datum": scaled_per_datum,
            "latencies": scaled,
        }

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what
            print(f"FAILED {what}", file=sys.stderr)


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced passes until `seconds` are measured; medians over passes."""
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        run.gauge.sample()
        built = time.perf_counter()
        setup.append(run.build()[1] * run.gauge.scale(built))
    passes, last = [], 0.0
    start = time.perf_counter()
    # stop at the pass count whose total comes closest to `seconds`
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds - last / 2:
        mark = time.perf_counter()
        passes.append(run.one_pass())
        last = time.perf_counter() - mark
        if len(passes) == 1:
            # later passes reuse the freed heap, so the peak of the first pass
            # is the figure that does not depend on how many passes fit
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [p["setup_s"] for p in passes]
    # every pass runs the same items from the same cold state, so an item's
    # latency is its mean over the passes; percentiles are taken over items
    items = sorted(statistics.fmean(lat) for lat in zip(*(p["latencies"] for p in passes)))
    n = len(items)
    tail = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": 1e3 * percentile(items, 50),
        "item_tail_ms": 1e3 * percentile(items, tail),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "passes": len(passes),
        "items_per_pass": n,
        "tail_percentile": tail,
        "setup_samples": len(setup),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "gauge_median_s": statistics.median(run.gauge.samples),
        "gauge_samples": len(run.gauge.samples),
        "per_datum_wall_s": {
            d: statistics.median(p["per_datum"][d] for p in passes) for d in passes[0]["per_datum"]
        },
    }
    return metrics, detail


def measure_traced(run: Run) -> tuple[dict, dict, list]:
    """One untraced pass, then one traced pass on fresh engines."""
    from calltrace import Tracer

    plain = run.one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.one_pass()
    finally:
        tracer.uninstall()
    metrics = {}
    for name in per_layer_units():
        if name.startswith("per_datum."):
            metrics[name] = plain["per_datum"].get(name.split(".")[1], 0.0)
        elif name == "trace.overhead_s":
            metrics[name] = traced["wall_s"] - plain["wall_s"]
        else:
            metrics[name] = tracer.value(INCLUSIVE.get(name, name))
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return metrics, detail, tracer.table()


def run_one(args) -> int:
    from workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload], args.size, args.seed)
    if args.trace:
        metrics, detail, table = measure_traced(run)
        units = per_layer_units()
        for fn, calls, self_s, total_s in table:
            print(f"fn {fn} calls={calls} self_s={self_s:.4f} total_s={total_s:.4f}")
    else:
        metrics, detail = measure(run, args.seconds)
        units = END_TO_END
    detail["digests"] = run.digests
    detail["error_rate"] = run.failed / run.attempted
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric error_rate {detail['error_rate']:.6g} ratio")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    summary = {"seed": args.seed, "seconds": args.seconds, "size": args.size, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = summary["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                if not lines:
                    continue
            result = json.loads(lines[-1])
            detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[7:])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["trace_detail" if trace else "detail"] = detail
            for k, v in result["metrics"].items():
                print(f"{name}\t{k}\t{v['value']:.6g}\t{v['unit']}")
            print(f"{name}\terror_rate\t{result['failed'] / result['attempted']:.6g}\tratio")
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mtriangle_sweep", "kl_bar_verify", "order_filtration", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # the library is used from source: the checkout may hold no installed copy
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import alcove_hecke  # noqa: F401
    except ImportError as exc:
        print(f"cannot import alcove_hecke from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
