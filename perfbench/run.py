"""End-to-end benchmark of cantorwit, run from the root of a checkout:

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next operation starts
when the previous one returns.  The loop runs whole rounds of operations
until at least --seconds of operation time and MIN_OPS operations have
passed.  Every operation is checked exactly, outside the timed region.
Times are scaled to a reference machine speed (see speed.py); the raw
figures are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 instead times an
untraced loop, then a loop with spans around every public function of each
layer (see spans.py), and prints the per-layer metrics of the traced loop
and its overhead; its spans are saved under .perfbench/.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it records the Python version, the CPU count, the git
revision, the sha256 digest of the outputs of the first whole rounds of at
least MIN_OPS operations, and the raw times.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# At least 10 samples above the 90th percentile.
MIN_OPS = 110

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_rate": "ratio",
    "cert_bytes_mean": "bytes",
    "peak_rss_mb": "MiB",
}


class LibraryMissing(Exception):
    pass


def load_library(root: Path):
    """Import cantorwit from the checkout's own src/ directory."""
    src = root / "src"
    if not (src / "cantorwit" / "__init__.py").is_file():
        raise LibraryMissing(f"no cantorwit sources under {src}")
    sys.path.insert(0, str(src))
    lib = importlib.import_module("cantorwit")
    if Path(lib.__file__).resolve().parent != (src / "cantorwit").resolve():
        raise LibraryMissing(f"cantorwit was imported from {lib.__file__}, not {src}")
    for name in ("cli", "clopen", "compression", "corpus", "literals", "prefixmap",
                 "witnesses"):
        setattr(lib, name, importlib.import_module(f"cantorwit.{name}"))
    return lib


def git_revision(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def set_up(name, lib, seed, workdir, meter):
    """Build the workload SETUP_REPEATS times; keep the last one.

    Returns it with the median raw and scaled set-up seconds.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload, seconds, seconds_scaled = meter.timed(workloads.WORKLOADS[name],
                                                        lib, seed, workdir)
        raw.append(seconds)
        scaled.append(seconds_scaled)
    return workload, statistics.median(raw), statistics.median(scaled)


@dataclass
class Loop:
    """Everything one timed loop observed.  `times` are scaled seconds;
    `sizes` and `digest` cover the first whole rounds of at least MIN_OPS
    operations."""

    times: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    sizes: list = field(default_factory=list)
    digest: str = ""

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def measure(workload, seconds: float, meter=None, tracer=None) -> Loop:
    """Run whole rounds of operations until `seconds` of raw operation time
    and MIN_OPS operations have passed, checking each result."""
    meter = meter or speed.Speedometer()
    loop = Loop()
    digest = hashlib.sha256()
    first: dict[int, tuple[str, bytes]] = {}
    spans_at: list[tuple[float, float]] = []
    items, n = workload.items, len(workload.items)
    window = -(-MIN_OPS // workload.round_size) * workload.round_size
    timed = 0.0
    i = 0
    gc.collect()
    gc.freeze()
    meter.probe(3)
    while not (i % workload.round_size == 0 and timed >= seconds and i >= MIN_OPS):
        index = i % n
        item = items[index]
        meter.maybe_probe()
        if tracer is not None:
            tracer.op = i
            tracer.on = True
        start = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # a failed operation, judged below
            result = exc
        end = time.perf_counter()
        if tracer is not None:
            tracer.on = False
        spans_at.append((start, end))
        timed += end - start
        output = workload.output(item, result)
        fingerprint = hashlib.sha256(output).digest()
        if index in first:
            verdict, seen = first[index]
            if seen != fingerprint:
                verdict = "failed"
        else:
            try:
                verdict = workload.check(item, result)
            except Exception:
                verdict = "failed"
            first[index] = (verdict, fingerprint)
        loop.verdicts[verdict] += 1
        # Every run of a seed performs these operations, however many rounds
        # the time allows.
        if i < window:
            loop.sizes.append(workload.size(item, result))
            digest.update(len(output).to_bytes(8, "big") + output)
        i += 1
    meter.probe(3)
    loop.raw = [end - start for start, end in spans_at]
    loop.times = [(end - start) * meter.scale(start, end) for start, end in spans_at]
    loop.digest = digest.hexdigest()
    return loop


def latency_ms(times) -> tuple[float, float]:
    """Median and 90th percentile, in milliseconds."""
    times_ms = [t * 1000 for t in times]
    return statistics.median(times_ms), statistics.quantiles(times_ms, n=10)[8]


def end_to_end(loop: Loop, setup_s: float) -> dict:
    p50, p90 = latency_ms(loop.times)
    return {
        "setup_s": setup_s,
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ok_rate": loop.verdicts["ok"] / len(loop.times),
        "cert_bytes_mean": statistics.fmean(loop.sizes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meter = speed.Speedometer()
    try:
        lib, import_s, import_scaled = meter.timed(load_library, ROOT)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_raw, setup_s = set_up(args.workload, lib, args.seed, workdir, meter)
        setup_raw += import_s
        setup_s += import_scaled
        loop = measure(workload, args.seconds, meter)
        loops = [loop]
        if args.trace:
            tracer = spans.Tracer()
            with tracer:
                traced = measure(workload, args.seconds, meter, tracer)
            loops.append(traced)
            metrics = spans.layer_metrics(tracer.spans, tracer.sizes)
            metrics["trace.overhead"] = traced.ops_per_s / loop.ops_per_s
            units = {name: spans.unit(name) for name in metrics}
            tracer.write(out_dir / f"trace-{args.workload}.csv")
        else:
            metrics = end_to_end(loop, setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(l.times) for l in loops)
    failed = sum(l.verdicts["failed"] for l in loops)
    known = sum(l.verdicts["known"] for l in loops)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {(failed + known) / attempted:.6g} ratio"
          f" ({failed} failed, {known} with a known defect, of {attempted})")
    raw_p50, raw_p90 = latency_ms(loop.raw)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT), "digest": loop.digest,
        "digest_ops": len(loop.sizes), "known_defects": known,
        "raw": {"setup_s": setup_raw, "ops_per_s": len(loop.raw) / sum(loop.raw),
                "op_p50_ms": raw_p50, "op_p90_ms": raw_p90,
                "calibration_ms": 1000 * statistics.median(meter.times)},
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
