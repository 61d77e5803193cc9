#!/usr/bin/env python3
"""Build and run the end-to-end benchmark, bench_e2e.

    python3 e2ebench/run.py --workload NAME|all [--seed N] [--seconds S]
                            [--trace 0|1] [--smoke] [--record FILE]

Run it from the repository root. The first call configures and builds
the repository's library and bench_e2e under .bench_build/e2e (or
$CARGO_TARGET_DIR/e2e); later calls only bring that build up to date.
The output of bench_e2e is passed through, so the last line of standard
output is its JSON result. A traced run of one workload (--trace 1)
also writes its spans as Chrome trace-event JSON to
trace_<workload>.json in the build directory.

--record FILE appends one line per workload result, tagged with the
workload, seed and trace flag, for e2ebench/e2e_compare.py.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# bench_e2e runs one workload in well under a minute; this caps a hung
# run below the three minutes a single benchmark invocation may take.
TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build bench_e2e; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "bench_e2e")


def record(path, out, seed, trace):
    """Append each workload's JSON result line from `out` to `path`."""
    workload = None
    with open(path, "a") as f:
        for line in out.splitlines():
            if line.startswith("bench_e2e: workload "):
                workload = line.split()[2].rstrip(",")
            elif line.startswith("{") and workload:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": trace,
                                    "result": json.loads(line)}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "e2e"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace and args.workload != "all":
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace_%s.json" % args.workload)]
    if args.smoke:
        cmd.append("--smoke")
    runs = 4 if args.workload == "all" else 1
    # Its own session, so a timeout also stops the children of bench_e2e.
    proc = subprocess.Popen(cmd, cwd=build_dir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S * runs)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("bench_e2e did not finish within %d s" % (TIMEOUT_S * runs))
    sys.stdout.write(out)
    sys.stdout.flush()
    if args.record and proc.returncode == 0:
        record(args.record, out, args.seed, args.trace)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
