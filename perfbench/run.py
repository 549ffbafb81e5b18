#!/usr/bin/env python3
"""twobridge benchmark.

    python3 perfbench/run.py --workload corpus|ladder --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics, with ``--trace 1``
the per-layer metrics (spans are written to ``.perfbench/``).  Lines
starting with ``#`` describe the run; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Failed operations and known defects are listed on
standard error.  See ``perfbench/METRICS.md`` for what every metric
means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
WORKLOADS = ("corpus", "ladder")


def _import_library():
    """Import twobridge from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "twobridge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twobridge sources in {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import twobridge
    from twobridge.cli import run_cli

    if Path(twobridge.__file__).resolve().parent != src / "twobridge":
        raise SystemExit(f"perfbench: imported twobridge from {twobridge.__file__}, not from {src}")
    return twobridge, run_cli


def _setup(workload: str, seed: int):
    """Everything before the first timed operation: import and inputs."""
    import gen

    tb, run_cli = _import_library()
    return tb, run_cli, getattr(gen, workload)(seed)


def _setup_seconds(workload: str, seed: int, host) -> tuple[float, float]:
    """Median wall time of fresh interpreters that only set up: (raw, at
    the reference host speed)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    intervals = []
    for _ in range(SETUP_PROBES):
        host.sample()
        start = time.perf_counter_ns()
        # Through pipes, the wait ends when the child closes them; without,
        # a wait with a timeout polls at up to 50 ms intervals.
        subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, timeout=120)
        intervals.append((start, time.perf_counter_ns()))
    host.sample()
    raw = statistics.median(end - start for start, end in intervals) / 1e9
    scaled = statistics.median((end - start) * host.local_scale(start, end) for start, end in intervals) / 1e9
    return raw, scaled


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    _import_library()  # fail before spending time on set-up
    if args.setup_only:
        _setup(args.workload, args.seed)
        return 0
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: Path) -> int:
    import workloads
    from hostspeed import HostSpeed
    from tracer import NullTracer, Tracer

    host = HostSpeed()
    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed, host)
    tb, run_cli, inputs = _setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    ctx = workloads.Context(tb, run_cli, args.seed, str(workdir), args.seconds, tracer, host)
    print(
        f"# context workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"python={platform.python_version()} nproc={ctx.nproc} git={_git_sha()}"
    )
    complete = True
    try:
        run = getattr(workloads, args.workload)(ctx, inputs)
    except workloads.Incomplete as error:
        # With no time for some paths there are no rates to report.
        print(f"FAILED {args.workload}: {error}", file=sys.stderr)
        run, complete = workloads.Run(), False
    if args.trace:
        workloads.layer_metrics(ctx, run)
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        run.raw["setup_s"] = (setup_s[0], "s")
        run.metrics["setup_s"] = (setup_s[1], "s")
        run.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    outcomes = ctx.outcomes
    for label, problem in outcomes.failures:
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    for defect in ctx.known_defects:
        print(f"KNOWN DEFECT (ROADMAP item 4) {defect}", file=sys.stderr)
    for note in run.notes:
        print(f"# {note}")
    failed_frac = outcomes.failed / outcomes.attempted if outcomes.attempted else 0.0
    print(f"# failed_frac {failed_frac:.6g} ({outcomes.failed} of {outcomes.attempted} operations)")
    kernel_ms = 1e3 * statistics.median(host.samples)
    print(f"# host kernel {kernel_ms:.3f} ms (median of {len(host.samples)}); run scale {host.scale:.4f}")
    for name, (value, unit) in sorted(run.raw.items()):
        print(f"# raw {name} {value!r} {unit}")
    for name, (value, unit) in run.extras.items():
        print(f"# workload-metric {name} {value:.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(run.metrics.items())}
    result = {"correct": complete and outcomes.failed == 0, "attempted": outcomes.attempted, "failed": outcomes.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
