#!/usr/bin/env python3
"""Builds bench_discovery from this checkout and runs one workload.

Run from the root of a checkout:

  python3 discovery_bench/run.py --workload NAME --seed N --seconds S \
      --trace 0|1 [--out DIR]

The build goes to $CARGO_TARGET_DIR (default .bench_build) and the run's
data to a work directory beside it that is removed afterwards. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. --out DIR keeps a copy of the full
result (host facts, sizes, extra numbers) and, when traced, the spans.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds bench_discovery; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    step = ["cmake", "--build", build_dir, "--target", "bench_discovery",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(configure, stdout=sys.stderr, check=True)
        subprocess.run(step, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_discovery")


def code_id():
    """The commit, or a digest of the library sources outside git."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for folder, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()


def check_metric_names(result, traced):
    """Fails when the run's metrics differ from those BENCHMARK.json lists."""
    listing = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(listing):
        return
    with open(listing) as handle:
        declared = json.load(handle)["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, unexpected {extra}, unit changed {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="keep the full result JSON here")
    args = parser.parse_args()

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "discovery_bench")
    work_dir = os.path.join(build_root, "discovery_bench-work")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"building bench_discovery failed: {error}")
        return 1

    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    result_path = os.path.join(work_dir, "result.json")
    spans_path = os.path.join(work_dir, "spans.json")
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--json", result_path, "--work-dir",
               os.path.join(work_dir, "data"), "--commit", code_id()]
    if args.trace:
        command += ["--trace", spans_path]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        sys.stdout.write(run.stdout)
        if run.returncode != 0:
            log(f"bench_discovery exited with {run.returncode}")
            return run.returncode if run.returncode > 0 else 1
        with open(result_path) as handle:
            result = json.load(handle)
        check_metric_names(result, args.trace == 1)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}" + (
                "-traced" if args.trace else "")
            shutil.copy(result_path, os.path.join(args.out, stem + ".json"))
            if args.trace:
                shutil.copy(spans_path,
                            os.path.join(args.out, stem + "-spans.json"))
    except subprocess.TimeoutExpired:
        log(f"bench_discovery did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
