#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--runs 10] [--workloads a,b] [--save F]
                             [--compare F]

Run from the root of a checkout. The first form compiles the library
sources of the checkout together with the benchmark program (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
measurement and passes its output through; the last stdout line is the
result JSON. Extra flags for the program: --smoke (reduced sizes) and
--corrupt-plan (proves that a wrong plan fails the run).

--report is the steadiness mode: it runs every workload --runs times, each
with another seed, and prints for each (workload, end-to-end metric) the
median and quartiles next to the metric's bound in BENCHMARK.json. --save
writes the values to a JSON file; --compare reads such a file and reports
how far each median moved against its bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build() -> Path:
    out = build_dir()
    binary = out / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
        # Build chatter goes to stderr so the result stays the last stdout line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return binary


def run_once(binary: Path, argv: list) -> subprocess.CompletedProcess:
    # Relative to the working directory: the serve workload puts its Unix
    # socket there, and socket paths are limited to 107 bytes.
    out_dir = os.path.relpath(build_dir().parent / "perfbench-run")
    return subprocess.run([str(binary), *argv, "--out-dir", out_dir],
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def last_json(stdout: str) -> dict:
    lines = [l for l in stdout.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else {}


def report(args, binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    values = {}
    ok = True
    for w in workloads:
        values[w] = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            done = run_once(binary, ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"])
            result = last_json(done.stdout)
            if done.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {done.returncode})\n"
                      f"{done.stderr[-2000:]}")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
    previous = json.loads(Path(args.compare).read_text()) if args.compare else {}
    print(f"\n{'workload':<12} {'metric':<20} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'verdict':<8}"
          + ("  shift" if previous else ""))
    for w, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0)
            verdict = ("-" if name == "setup_s" else
                       "steady" if spread < bound / 3 else
                       "ok" if spread <= bound else "NOISY")
            line = (f"{w:<12} {name:<20} {len(vals):>3} {med:>12.6g} "
                    f"{q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6} "
                    f"{verdict:<8}")
            old = previous.get(w, {}).get(name)
            if old:
                old_med = statistics.median(old)
                shift = (statistics.median(vals) - old_med) / old_med
                line += f"  {shift:+.4f}{' WORSE' if shift > bound else ''}"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-plan", action="store_true")
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    binary = build()
    if args.report:
        return report(args, binary)
    if not args.workload:
        parser.error("--workload is required")
    argv = ["--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace]
    argv += ["--smoke"] if args.smoke else []
    argv += ["--corrupt-plan"] if args.corrupt_plan else []
    try:
        done = run_once(binary, argv)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
