#!/usr/bin/env python3
"""herc-bench runner.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the herc
libraries from the checkout's src/ tree) and runs one workload:

    python3 perfbench/run.py --workload browse_read --seed 1 --seconds 20 --trace 0

Run it from the root of the checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build); stores live in .bench_work while a run lasts; the
results JSON and the span dump of traced runs are written to .bench_out.
The last line of stdout is the run's one-object JSON result.  The exit code
is the benchmark's: 0 when the correctness gate passed, 1 when it failed or
the run could not be made, 2 on bad arguments.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("browse_read", "design_runs", "commit_write")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_id(root):
    """The git commit when the checkout has one, else a digest of the sources."""
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no herc sources at {root / 'src'}: run from the root of a full checkout")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(build_dir), "--target", "herc_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return build_dir / "herc_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    build_dir = root / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_id(root)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
