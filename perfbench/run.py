#!/usr/bin/env python3
"""Build and run the rhmd end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures perfbench/ (which compiles the library from
src/) into .bench_build/perfbench and builds it; later calls rebuild
incrementally. Compiler output goes to .bench_build/perfbench-build.log.
The benchmark prints a human-readable report and, as the last line of
standard output, one JSON object with the result. A traced run
(--trace 1) also writes the spans of its fastest traced rep to
.bench_build/spans/<workload>-<seed>.tsv. Each run passes the
benchmark the provenance of the sources it measures, worked out at run
time: `git describe` (or "none" outside a git work tree) and a SHA-256
over every file under src/ and perfbench/. See perfbench/NOTES.md.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
LOG = os.path.join(OUT, "perfbench-build.log")
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configure once, then build @target incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    os.makedirs(OUT, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(LOG, "a") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                with open(LOG) as text:
                    tail = text.readlines()[-30:]
                sys.stderr.write("".join(tail))
                fail("build failed; full log in " + LOG)
    return os.path.join(BUILD, target)


def git_describe():
    """`git describe --always --dirty` of the checkout, or "none"."""
    if shutil.which("git") is None:
        return "none"
    result = subprocess.run(
        ["git", "-C", ROOT, "describe", "--always", "--dirty"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    described = result.stdout.strip()
    return described if result.returncode == 0 and described else "none"


def source_digest():
    """First 16 hex digits of a SHA-256 over the measured sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def spans_path(args):
    """Where a traced run writes its spans, or None."""
    values = dict(zip(args[::2], args[1::2]))
    workload = values.get("--workload", "")
    seed = values.get("--seed", "1")
    if values.get("--trace") != "1" or not re.fullmatch(r"[a-z_]+", workload) \
            or not re.fullmatch(r"[0-9]+", seed):
        return None
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    return os.path.join(OUT, "spans", "%s-%s.tsv" % (workload, seed))


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    for flag in ("--spans-out", "--git-describe", "--source-digest"):
        if flag in args:
            fail(flag + " is chosen by run.py")
    started = time.monotonic()
    binary = build("perfbench")
    args = args + ["--git-describe", git_describe(),
                   "--source-digest", source_digest()]
    spans = spans_path(args)
    if spans is not None:
        args = args + ["--spans-out", spans]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        result = subprocess.run([binary] + args, cwd=ROOT,
                                timeout=max(remaining, RUN_TIMEOUT_S / 2))
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
