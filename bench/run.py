"""Benchmark of the exact p-adic pipeline: four workloads, one per process.

    python3 bench/run.py --workload oracle-sweep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py            # every workload, each in its own process

With --trace 0 the run sets up several times (a fresh import of the
library, input generation and warm-up) and reports the median as
`setup_s`.  It then runs items one after another for --seconds, and at
least one whole pass over the inputs.  Every pass repeats the same work.
Every item is checked, later passes must reproduce the first pass's
records, and the first pass's records are hashed into a digest that must
match the one frozen in bench/digests.json for the default seed.

Every time is scaled to the reference machine: a fixed kernel
(reference.py) runs after each item and around each set-up, and a time is
multiplied by REFERENCE_S over the kernel's median time next to it.  On a
shared host this removes most of the drift in core speed that other
tenants cause.  Each input then keeps its best scaled time over the
passes; `items_per_s` is inputs over the sum of those times, and
`item_ms.p50` and `item_ms.tail` are percentiles of them.  The first-pass
(cold) and unscaled throughputs are in the `record` line.

With --trace 1 the run makes one untraced pass over the inputs and then
sets up and makes the same pass again with every layer-boundary function
wrapped (see tracing.py), so the per-layer counts repeat exactly for a
seed.  The traced pass must give the same digest; its time over the
untraced pass is reported as the tracing overhead, and the spans are
written to .bench_out/.  --seconds does not apply to a traced run.  A
function's self time is reported as its share of all traced self time
(`.self_frac`), which is 0 exactly where a layer is not exercised; the
`record` line lists the self seconds, scaled to the reference machine.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The metric names and units come from
BENCHMARK.json at the repository root.
"""

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
from pathlib import Path

from reference import REFERENCE_S, timed_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
KERNEL_CALLS = 10
WARMUP_ITEMS = 2
TAIL_PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND_TAIL = 10


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count):
    """Highest listed percentile with at least MIN_BEYOND_TAIL items above it."""
    best = TAIL_PERCENTILES[0]
    for q in TAIL_PERCENTILES:
        if count - math.ceil(q / 100 * count) >= MIN_BEYOND_TAIL:
            best = q
    return best


def digest_of(records):
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def speed_scale(kernel_times):
    """Factor that turns times measured beside these reference kernel times
    into times on the reference machine."""
    return REFERENCE_S / statistics.median(kernel_times)


class Pass:
    """Runs the items of one workload in order, checks and times each one,
    and calls the reference kernel after each."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.records = []  # records of the first pass over the inputs
        self.latencies = []
        self.kernel = []
        self.failed = 0

    @property
    def attempted(self):
        return len(self.latencies)

    def item(self):
        index = self.attempted
        if self.tracer is not None:
            self.tracer.item = index
        start = time.perf_counter()
        try:
            record, ok = self.workload.run(index)
        except Exception as exc:  # noqa: BLE001 - any exception fails the item
            record, ok = {"error": type(exc).__name__}, False
        self.latencies.append(time.perf_counter() - start)
        self.kernel.append(timed_kernel())
        inputs = len(self.workload.inputs)
        if index < inputs:
            self.records.append(record)
        elif record != self.records[index % inputs]:
            ok = False  # every pass must repeat the first one exactly
        if not ok:
            self.failed += 1

    def run_until(self, deadline):
        """Items until the deadline has passed and the first pass is done."""
        while time.perf_counter() < deadline or self.attempted < len(self.workload.inputs):
            self.item()

    def scaled_latencies(self, half=10):
        """Each latency as on the reference machine, scaled by the median
        kernel time over the 2 * half + 1 items around it."""
        out = []
        for i, latency in enumerate(self.latencies):
            near = sorted(self.kernel[max(0, i - half):i + half + 1])
            out.append(latency * REFERENCE_S / near[len(near) // 2])
        return out


def new_workload(name, seed, smoke, warm, fresh=False):
    """Build a workload's inputs and run its first `warm` items.  With
    fresh=True the library is imported anew first, as a new process would."""
    if fresh:
        for module in [m for m in sys.modules if m.split(".")[0] in ("drinfeld", "workloads")]:
            del sys.modules[module]
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, smoke)
    workload.setup()
    return workload, [workload.run(index)[0] for index in range(warm)]


def frozen_digest(name, seed, smoke):
    if seed != 0 or smoke:
        return None
    return json.loads((HERE / "digests.json").read_text()).get(name)


def measure(name, seed, seconds, smoke):
    """Untraced run: end-to-end metrics.

    Every time is scaled to the reference machine (see reference.py), and
    each input's cost is its best scaled time over the passes: scaling
    removes the slow drift in core speed on a shared host, the best of
    several passes removes the bursts too short for the kernel to see."""
    setups = []
    for _ in range(SETUP_REPEATS):
        kernel = [timed_kernel() for _ in range(KERNEL_CALLS)]
        start = time.perf_counter()
        workload, warm_records = new_workload(name, seed, smoke, WARMUP_ITEMS, fresh=True)
        took = time.perf_counter() - start
        kernel += [timed_kernel() for _ in range(KERNEL_CALLS)]
        setups.append(took * speed_scale(kernel))
    run = Pass(workload)
    start = time.perf_counter()
    run.run_until(start + seconds)
    wall_s = time.perf_counter() - start
    # re-running a warm-up item must reproduce its record
    run.failed += sum(1 for a, b in zip(warm_records, run.records) if a != b)
    inputs = len(workload.inputs)
    scaled = run.scaled_latencies()
    best = [min(scaled[i::inputs]) for i in range(inputs)]
    best.sort()
    tail_q = tail_percentile(inputs)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": inputs / sum(best),
        "item_ms.p50": percentile(best, 50) * 1e3,
        "item_ms.tail": percentile(best, tail_q) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "inputs": inputs,
        "timed_items": run.attempted,
        "passes": run.attempted / inputs,
        "tail_percentile": tail_q,
        "setup_repeats_s": setups,
        "kernel_ms.p50": statistics.median(run.kernel) * 1e3,
        "first_pass_items_per_s": inputs / sum(scaled[:inputs]),
        "all_items_per_s": len(scaled) / sum(scaled),
        "unscaled_items_per_s": run.attempted / wall_s,
    }
    return run, metrics, details


def traced(name, seed, smoke):
    """Traced run: one plain and one traced pass over the same inputs."""
    from tracing import SPAN_FIELDS, Tracer

    workload, _ = new_workload(name, seed, smoke, 0)
    plain = Pass(workload)
    plain.run_until(0)
    with Tracer() as tracer:
        workload, _ = new_workload(name, seed, smoke, 0)
        run = Pass(workload, tracer)
        run.run_until(0)
    plain_s = sum(plain.scaled_latencies())
    traced_s = sum(run.scaled_latencies())
    scale = speed_scale(run.kernel)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.tsv"
    tracer.write_spans(spans_path)
    derived = {
        "padic.precision_errors": lambda: tracer.precision_errors,
        "covers.reduce_to_building.levels_tried": lambda: tracer.child_calls_per_call(
            "covers.reduce_to_building", "covers.t_profile"),
        "building.from_homothety_chain.contains_per_call": lambda: tracer.child_calls_per_call(
            "building.from_homothety_chain", "building.Lattice.contains"),
        "trace.overhead_frac": lambda: traced_s / plain_s - 1,
    }
    per_name = {".calls": tracer.count, ".self_frac": tracer.self_frac,
                ".distinct_frac": tracer.distinct_frac}
    metrics = {}
    for spec in load_spec()["per_layer"]:
        metric = spec["name"]
        if metric in derived:
            metrics[metric] = derived[metric]()
        else:
            base, suffix = metric.rsplit(".", 1)
            metrics[metric] = per_name["." + suffix](base)
    details = {
        "inputs": len(workload.inputs),
        "plain_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "spans": len(tracer.spans) // SPAN_FIELDS,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "plain_digest": digest_of(plain.records),
        "layers": {k: {"calls": c, "self_s": round(t * scale, 6)}
                   for k, (c, t) in sorted(tracer.table().items())},
    }
    return run, metrics, details


def run_one(args):
    spec = load_spec()
    if args.trace:
        run, values, details = traced(args.workload, args.seed, args.smoke)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        run, values, details = measure(args.workload, args.seed, args.seconds, args.smoke)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    digest = digest_of(run.records)
    frozen = frozen_digest(args.workload, args.seed, args.smoke)
    digest_ok = frozen is None or digest == frozen
    if args.trace:
        digest_ok = digest_ok and digest == details["plain_digest"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "digest": digest,
        "frozen_digest": frozen,
        "digest_ok": digest_ok,
        "failed_frac": run.failed / run.attempted,
        **details,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':52s} {record['failed_frac']:14.6g} ratio")
    print(f"  digest {digest} {'ok' if digest_ok else 'MISMATCH'}")
    print("record " + json.dumps(record, sort_keys=True))
    correct = digest_ok and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in [w["name"] for w in load_spec()["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None):
    spec_seconds = load_spec()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "drinfeld").is_dir():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
