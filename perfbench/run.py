#!/usr/bin/env python3
"""Two-clock benchmark of the dfcnn simulator: build from source, then run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench, relative to the repository root), then runs
the dfcnn_perfbench program with the same arguments. Its last stdout
line is the result JSON. Any further flags (--corrupt-op) are passed
through. Exits nonzero, printing no result, when the sources are missing or
the build fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def jobs() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def build() -> Path:
    """Configures (once) and builds dfcnn_perfbench; returns its path."""
    out = build_dir()
    binary = out / "dfcnn_perfbench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "dfcnn_perfbench",
                    "--parallel", str(jobs())], stdout=sys.stderr, check=True)
    return binary


def source_id() -> str:
    """The commit when run from a git work tree, else a hash of the sources."""
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                                   capture_output=True, text=True).stdout.strip()
            return res.stdout.strip() + ("-dirty" if dirty else "")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def flag(args, name, default=None):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main() -> int:
    args = sys.argv[1:]
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"perfbench: no dfcnn sources under {ROOT}", file=sys.stderr)
        return 1
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    extra = ["--commit", source_id()]
    if flag(args, "--trace") == "1" and "--spans-out" not in args:
        name = f"spans-{flag(args, '--workload', 'none')}-seed{flag(args, '--seed', '1')}.json"
        extra += ["--spans-out", str(build_dir() / name)]
    sys.stdout.flush()
    return subprocess.run([str(binary), *args, *extra]).returncode


if __name__ == "__main__":
    sys.exit(main())
