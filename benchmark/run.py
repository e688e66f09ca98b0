#!/usr/bin/env python3
"""Build and run the pmcast repo benchmark.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. The first call configures and
builds the pmcast library plus the benchmark binary (Release) into the
directory named by $CARGO_TARGET_DIR, default `.bench_build`; later calls
only rebuild what changed. Build output goes to stderr. The benchmark's
own output goes to stdout, and its last line is the JSON result.

`--workload all` runs every workload in turn, prints each one's metrics
and exits nonzero if any workload had a wrong answer, a tripped tripwire
or an invalid run. See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve_mixed", "serve_overload", "batch_cold", "colgen_large"]
# A run that has not finished by then is stopped and reported as failed.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def source_commit(root):
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds from."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=30).stdout.strip()
            dirty = subprocess.run(["git", "-C", root, "status", "--porcelain",
                                    "--", "src", "include", "benchmark",
                                    "CMakeLists.txt"],
                                   capture_output=True, text=True,
                                   timeout=30).stdout.strip()
            return sha + ("-dirty" if dirty else "")
        except (subprocess.SubprocessError, OSError):
            pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "include", "benchmark"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root, build_dir):
    bench_src = os.path.join(root, "benchmark")
    for needed in ["CMakeLists.txt", "src", "include"]:
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no pmcast source tree here ({needed} is missing)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_src, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "pmcast_repo_bench")
    if not os.path.exists(binary):
        fail("build produced no benchmark binary")
    return binary


def run_one(binary, args, workload, commit, out_dir):
    """Run one workload; returns (exit code, last stdout line)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir, "--commit", commit]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = out.rstrip("\n").split("\n") if out else []
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    commit = source_commit(root)

    if args.workload != "all":
        code, lines = run_one(binary, args, args.workload, commit, out_dir)
        if lines:
            print("\n".join(lines), flush=True)
        sys.exit(code)

    summary, worst = {}, 0
    for workload in WORKLOADS:
        code, lines = run_one(binary, args, workload, commit, out_dir)
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[workload] = {"correct": False}
            worst = max(worst, 1)
    print("# summary")
    for workload, result in summary.items():
        status = "ok" if result.get("correct") else "FAILED"
        print(f"#   {workload} ({status}, attempted {result.get('attempted')},"
              f" failed {result.get('failed')})")
        for name, metric in result.get("metrics", {}).items():
            print(f"#     {name:40s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps({"correct": worst == 0, "workloads": summary}))
    sys.exit(worst)


if __name__ == "__main__":
    main()
