"""Benchmark of the ``sturm`` package: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --workload all --smoke       # reduced inputs, all checks, seconds

A run sets up (imports ``sturm`` from ``src/`` and generates the inputs
from ``--seed``), then repeats whole passes over the workload's items
until ``--seconds`` have gone by, checking every output against digests
recorded from the seed code. With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``, its times taken at nominal
machine speed (``speed.py``); with ``--trace 1`` it
alternates untraced and traced passes, makes the probe calls, and
reports the per-layer metrics. The last line of stdout is one JSON
object; a table with units, sample counts and the environment comes
before it, and the full result (and the spans) go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter, defaultdict
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("cli_cold", "analyze_ladder", "survey")
SETUP_REPEATS = 7

# The headline end-to-end metrics of all workloads (see metrics.json),
# printed for every workload; "n/a" marks the ones another one measures.
TABLE = (
    "setup_raw_s",
    "wall_s",
    "fail_ratio",
    "peak_rss_mb",
    "cli_ms_p50",
    "analyze_ms_n101",
    "analyze_ms_c101",
    "family_items_per_s",
    "family_ms_p50",
    "family_ms_p90",
    "enumerate_perms_per_s",
    "harness_s",
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, one pass")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    # The checkout need not be a git repository; read refs without git.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else []
        status |= subprocess.run(argv, cwd=ROOT, check=False).returncode
    return status


def setup_seconds(args, runner) -> tuple[list[float], list[float]]:
    """Cold set-ups, each in a fresh interpreter: import plus input
    generation, as measured and at nominal machine speed."""
    raw, nominal = [], []
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--setup-only"] + (["--smoke"] if args.smoke else [])
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        ok = proc.returncode == 0
        runner.verify("setup", ok, f"set-up child exited {proc.returncode}: {proc.stderr[-200:]}")
        if ok:
            seconds, at_nominal = map(float, proc.stdout.split()[-2:])
            raw.append(seconds)
            nominal.append(at_nominal)
    return raw, nominal


def layer_metrics(workload, runner) -> dict[str, float]:
    """Self time and calls per module and pass, plus the workload's own numbers."""
    from tracing import MODULES, median

    spans = runner.tracer.spans
    own = runner.tracer.self_seconds()
    passes = range(1, runner.tracer.pass_no + 1)
    self_s = defaultdict(Counter)
    calls = defaultdict(Counter)
    for span, seconds in zip(spans, own):
        if span.probe:
            continue
        module = span.name.split(".")[0]
        self_s[module][span.pass_no] += seconds
        calls[module][span.pass_no] += 1
    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.self_ms"] = median([self_s[module][p] for p in passes]) * 1e3
        out[f"{module}.calls"] = median([calls[module][p] for p in passes])
        out[f"{module}.errors"] = runner.errors[module]
    out["trace.bench_self_ms"] = median([self_s["bench"][p] for p in passes]) * 1e3
    out["perm.parse_permutation_us"] = (
        median([s.seconds for s in spans if s.name == "perm.parse_permutation"]) * 1e6
    )
    out["render.render_svg_ms"] = (
        sum(s.seconds for s in spans if s.name == "render.render_svg") * 1e3 / max(1, len(passes))
    )
    out.update(runner.tally)
    out.update(workload.layer_metrics(spans, runner))
    out["trace.overhead_s"] = median(runner.pass_walls[True]) - median(runner.pass_walls[False])
    out["trace.spans"] = len(spans)
    return out


def measure(args, workload, runner) -> float:
    """Whole passes until ``--seconds`` have gone by; returns the time taken.

    A traced run alternates untraced and traced passes.
    """
    start = perf_counter()
    if not args.trace:  # readings would land in the spans
        runner.speed.start()
    try:
        for n in itertools.count(1):
            runner.run_pass(workload.items(), traced=bool(args.trace) and n % 2 == 0)
            if n > args.trace and (args.smoke or perf_counter() - start >= args.seconds):
                return perf_counter() - start
    finally:
        runner.speed.stop()


def slowdowns(speed) -> dict[str, float]:
    """How much slower than nominal the machine ran during the passes."""
    from tracing import median, quantile

    readings = [s / speed.nominal_s for s in speed.seconds]
    return {
        "slowdown_p10": quantile(readings, 1),
        "slowdown_p50": median(readings),
        "slowdown_p90": quantile(readings, 9),
        "readings": len(readings),
    }


def summarize(args, workload, runner, measured: float) -> dict:
    from tracing import median

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    spec = bench_spec()
    walls = runner.pass_walls[False]
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "measured_s": measured,
        "smoke": args.smoke,
        "trace": args.trace,
        "environment": {**environment(args.seed), **slowdowns(runner.speed)},
    }
    if args.trace:
        workload.probes(runner)
        layer = layer_metrics(workload, runner)
        metrics = {m["name"]: (layer.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
        result["samples"] = {"traced_passes": runner.tracer.pass_no, "untraced_passes": len(walls)}
        OUT.mkdir(exist_ok=True)
        runner.tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        setups, setups_nominal = setup_seconds(args, runner)
        times, kind_times, walls_nominal = runner.normalized()
        key = workload.key_times(times, kind_times)
        e2e = {
            "setup_s": median(setups_nominal),
            "wall_nominal_s": median(walls_nominal),
            "key_op_nominal_ms": median(key) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        result["samples"] = {
            "setup_s": len(setups),
            "wall_nominal_s": len(walls_nominal),
            "key_op_nominal_ms": len(key),
        }
        table = dict(
            setup_raw_s=(median(setups), "s", len(setups)),
            wall_s=(median(walls), "s", len(walls)),
            fail_ratio=(runner.failed / max(1, runner.attempted), "ratio", runner.attempted),
            peak_rss_mb=(peak_rss_mb, "MB", 1),
            **workload.table_metrics(runner),
        )
        result["table"] = {
            name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in table.items()
        }
        result["inputs"] = workload.inputs()
        result["items"] = {
            key: {"samples": len(v), "median_s": median(v), "nominal_median_s": median(times[key])}
            for key, v in runner.times.items()
        }
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    return result


def show(result: dict) -> None:
    """A table for people, then the result line: the last line of stdout."""
    traced = result["trace"]
    print(
        f"workload {result['workload']}  seed {result['environment']['seed']}  "
        f"trace {traced}  measured {result['measured_s']:.1f} s"
    )
    print("environment " + " ".join(f"{k}={v}" for k, v in result["environment"].items()))
    print(f"samples {result['samples']}")
    for name in () if traced else TABLE:
        if name in result["table"]:
            m = result["table"][name]
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<6} ({m['samples']} samples)")
        else:
            print(f"  {name:<24} {'n/a':>14} (measured by another workload)")
    kind = "per_layer" if traced else "end_to_end"
    for name, m in result["metrics"].items():
        print(f"  [{kind}] {name:<36} {m['value']:>14.6g} {m['unit']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    keys = ("attempted", "failed", "metrics")
    print(json.dumps({"correct": result["failed"] == 0, **{k: result[k] for k in keys}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sturm" / "__init__.py").is_file():
        print(f"error: no sturm package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    from speed import TimerSpeedometer

    speed = TimerSpeedometer()
    if args.setup_only:
        speed.sample(force=True)
        speed.start()
    t0 = perf_counter()
    import sturm

    if Path(sturm.__file__).resolve().parent != SRC / "sturm":
        print(f"error: imported sturm from {sturm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Runner

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workloads.Pins())
    if args.setup_only:
        seconds = perf_counter() - t0 - speed.spent
        speed.stop()
        speed.sample(force=True)
        print(repr(seconds), repr(speed.normalize(t0, seconds)))
        return 0

    runner = Runner(bool(args.trace), workload.speedometer())
    workload.startup_checks(runner)
    measured = measure(args, workload, runner)
    result = summarize(args, workload, runner, measured)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")
    show(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
