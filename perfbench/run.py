#!/usr/bin/env python3
"""The repository's benchmark: builds cwm_perfbench and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-fig4 --seed 1 --seconds 10 --trace 0

It configures and builds perfbench/ (which builds the repository's libcwm
unchanged) in Release mode under $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs cwm_perfbench with every CWM_* variable removed
from its environment. Its stdout is passed through; its last
line is the JSON result. See perfbench/WORKLOADS.md.
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
WORKLOADS = ("sweep-fig4", "alloc-rr", "serve-light", "churn-cache")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "cwm_perfbench",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            fail("the build in %s is not a Release build" % build_dir)
    return os.path.join(build_dir, "cwm_perfbench")


def private_tmpfs(work_dir):
    """Command prefix that runs cwm_perfbench in a private mount namespace
    with a tmpfs mounted on work_dir, inside the checkout, so the artifact
    cache of churn-cache never waits on a disk's fsync. The mount lives
    and dies with that process; if it cannot be made, the run fails."""
    if shutil.which("unshare") is None:
        fail("churn-cache needs unshare(1) to mount its tmpfs work dir")
    mount = 'mount -t tmpfs -o size=512m,mode=0700 tmpfs "$1"'
    return ["unshare", "-m", "--propagation", "private", "sh", "-c",
            mount + ' && shift && exec "$@"', "sh", work_dir]


def commit_or_digest(build_dir):
    """The commit when this is a git checkout; otherwise a digest of the
    program and benchmark sources, so results stay tied to a source tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return {"commit": out.stdout.strip()}
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if name.startswith(build_dir) or "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"source_digest": digest.hexdigest()[:16]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the program's sources are not next to perfbench/; run from "
             "the root of a full checkout")

    env = {k: v for k, v in os.environ.items() if not k.startswith("CWM_")}
    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 1)

    print("# source " + json.dumps(commit_or_digest(build_dir)), flush=True)
    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    prefix = private_tmpfs(work_dir) if args.workload == "churn-cache" else []
    command = prefix + [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        code = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
