#!/usr/bin/env python3
"""Build and run the api::Store benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload kv-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. It builds the library, the faust_sockd
worker and the benchmark from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), always as a
Release build, then runs the benchmark. Run files (durability roots, span
dumps) go to .bench_run/. The last line of standard output is the result
JSON object.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def revision():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def group_alive(pgid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def reap_group(pgid):
    """Kills whatever the benchmark left in its process group (faust_sockd
    workers of a run that died) and waits until all of it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)


def metrics_match(binary):
    """The metric table the binary prints equals the one BENCHMARK.json
    declares (names, units and kinds)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [f"{kind} {m['name']} {m['unit']}" for kind in ("end_to_end", "per_layer")
                for m in spec[kind]]
    out = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True)
    ok = out.returncode == 0 and out.stdout.split("\n")[:-1] == declared
    print(f"{'PASS' if ok else 'FAIL'}  BENCHMARK.json lists exactly the metrics the binary reports",
          flush=True)
    return ok


def clean_run_dirs(work_dir):
    if not os.path.isdir(work_dir):
        return
    for name in os.listdir(work_dir):
        path = os.path.join(work_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "tools", "faust_sockd.cpp"))):
        log(f"no library sources under {ROOT}; run from a full checkout")
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 2

    if args.self_test and not metrics_match(binary):
        return 1
    work_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--revision", revision(), "--work-dir", work_dir]
    if args.self_test:
        cmd += ["--self-test"]
    else:
        if not args.workload:
            ap.error("--workload is required")
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=None if args.self_test else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; killed")
        code = 3
    except KeyboardInterrupt:
        code = 130
    finally:
        reap_group(proc.pid)
        proc.wait()
        clean_run_dirs(work_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
