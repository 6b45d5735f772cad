#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
repository's libraries plus the benchmark driver in Release under
.bench_build/perfbench (later calls rebuild only what changed); build output
goes to stderr, so the last line on stdout is the driver's JSON result.
Scratch stores and trace files go under .bench_build/ as well, and the
driver removes its scratch store before it exits.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
BINARY = BUILD / "apks_perfbench"


def source_stamp():
    """The git commit, or a hash of the sources when there is no git."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no source tree at %s/src" % ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    cmd = [str(BINARY)] + argv
    if "--selftest" not in argv:
        cmd += ["--work-dir", str(WORK), "--git-sha", source_stamp()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
