#!/usr/bin/env python3
"""Build and run the store's benchmark.

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the `cobtree-serve` binary and the
`perfbench` package (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload and relays its output. The last
stdout line is the JSON result; build output goes to stderr. Store files
live under the target directory and are removed after each run.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("point-read", "mixed-write", "bulk-lookup")
# Longest a run may take after its build.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    what it measured even where there is no git checkout."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("src", "crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(files):
        if path.endswith((".rs", ".toml", ".lock", ".py")) and os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("PERFBENCH_REVISION", "unknown")


def build(env, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    a = p.parse_args()

    for need in ("Cargo.toml", "crates/serve", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing; run from a full checkout of the repository")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(env, ["-p", "cobtree-serve", "--bin", "cobtree-serve"])
    build(env, ["--manifest-path", "perfbench/Cargo.toml"])

    release = os.path.join(target, "release")
    data = os.path.join(target, "perfbench-data", str(os.getpid()))
    cmd = [os.path.join(release, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--server", os.path.join(release, "cobtree-serve"),
           "--data", data, "--revision", revision(), "--source-digest", source_digest()]
    # A session of its own, so a timeout can stop the servers it starts too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(data, ignore_errors=True)
    if code is None:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
