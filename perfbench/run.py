#!/usr/bin/env python3
"""Build and run the FUSION end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-cold --seed 1 \
        --seconds 12 --trace 0

Configures and builds perfbench/ (the driver plus libfusion from src/)
in Release mode under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver for one workload in a
fresh process. The driver's last stdout line is the JSON result; its
exit code is passed through (nonzero when any output check failed).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-cold", "large-par", "paper-warm")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then let the build tool bring the driver up to
    date. Build output goes to stderr so stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under src/")
    cache = os.path.join(bdir, "CMakeCache.txt")
    home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n"
    if os.path.isfile(cache):
        with open(cache) as f:
            if home not in f.readlines():
                # A build tree of another checkout: start over.
                shutil.rmtree(bdir)
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(bdir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="Scale::Small inputs, for the benchmark's "
                         "own smoke test")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    run_dir = os.path.join(bdir, "run")
    os.makedirs(run_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=run_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", tmp, "--git-sha", git_sha(),
           "--spans-out",
           os.path.join(run_dir, f"spans-{args.workload}.json")]
    if args.smoke:
        cmd.append("--smoke")
    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        rc = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(rc if rc >= 0 else 1)


if __name__ == "__main__":
    main()
