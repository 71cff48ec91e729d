#!/usr/bin/env python3
"""One benchmark run: build the benchmark binary from source, run one
workload, print its result.

    python3 perfbench/run.py --workload serve_match --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the build lives in $CARGO_TARGET_DIR
(default .bench_build) under the checkout root. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The lines before it carry provenance and diagnostics. A full
copy of the output goes to <build>/results/. Exits 0 when the run
completed, non-zero (without a result line) when it could not build or run.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_match", "serve_agg_zipf", "serve_ingest", "batch_fetch")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the binary; serialized by a lock file."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "colgraph_perfbench"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return build_dir / "colgraph_perfbench"


def source_version(root):
    """The git commit when the checkout is a repository, plus a digest of the
    sources the binary is built from (always available)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    commit = "none"
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return f"git:{commit} sources:{digest.hexdigest()[:16]}"


def expected_metrics(root, trace):
    spec = root / "BENCHMARK.json"
    if not spec.exists():
        return None
    bench = json.loads(spec.read_text())
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        fail(f"no colgraph sources under {root / 'src'}; run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir)

    # Relative paths keep the daemon's AF_UNIX socket path short.
    run_dir = Path(os.path.relpath(build_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}", root))
    out_dir = Path(os.path.relpath(build_dir / "results", root))
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", str(run_dir), "--out-dir", str(out_dir),
               "--commit", source_version(root)]
    proc = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(root / run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark binary exited with code {proc.returncode}")

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark binary printed no result")
    expected = expected_metrics(root, args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: " +
             str(sorted(set(result["metrics"]) ^ expected)))

    (root / out_dir).mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    (root / out_dir / name).write_text(stdout)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
