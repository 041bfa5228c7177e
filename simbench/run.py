#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

Run from the repository root:

    python3 simbench/run.py --workload r64-hotspot --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the untraced ``simbench`` binary (end-to-end metrics);
``--trace 1`` runs ``simbench-traced`` (per-layer metrics). The last line
of standard output is the JSON result. The binaries are built first with
``cargo build --release --locked --offline`` into ``$CARGO_TARGET_DIR``
(default ``simbench/target``); build output goes to standard error.

To compare two saved runs (it refuses results measured on hosts with
different fingerprints):

    python3 simbench/run.py compare BEFORE.txt AFTER.txt
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The simulator crates the benchmark links against.
REQUIRED = ["crates/core/Cargo.toml", "crates/sim/Cargo.toml", "crates/net/Cargo.toml"]
RUN_TIMEOUT_S = 170


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return Path(configured).resolve()
    return HERE / "target"


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(
            "simbench: the simulator sources are missing (%s); run from a full checkout\n"
            % ", ".join(missing)
        )
        return 2
    cmd = [
        "cargo", "build", "--release", "--locked", "--offline", "--quiet", "--bins",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        sys.stderr.write("simbench: build failed\n")
        return done.returncode or 1
    return 0


def wants_trace(args):
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            return value == "1"
    return False


def run_binary(args):
    name = "simbench-traced" if wants_trace(args) else "simbench"
    exe = target_dir() / "release" / name
    proc = subprocess.Popen([str(exe)] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("simbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def parse_output(text):
    """Returns (fingerprint, result) from a run's standard output."""
    fingerprint = None
    for line in text.splitlines():
        if line.startswith("# fingerprint: "):
            fingerprint = json.loads(line[len("# fingerprint: ") :])
    lines = [l for l in text.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    return fingerprint, result


def compare(before_path, after_path):
    before_fp, before = parse_output(Path(before_path).read_text())
    after_fp, after = parse_output(Path(after_path).read_text())
    if before_fp is None or after_fp is None or before_fp != after_fp:
        sys.stderr.write(
            "simbench: refusing to compare results from different hosts:\n  %s\n  %s\n"
            % (before_fp, after_fp)
        )
        return 4
    for name, m in before["metrics"].items():
        if name not in after["metrics"]:
            continue
        a, b = m["value"], after["metrics"][name]["value"]
        change = "n/a" if a == 0 else "%+.2f%%" % (100.0 * (b - a) / a)
        print("%-40s %16.6g -> %16.6g %s (%s)" % (name, a, b, m["unit"], change))
    return 0


def main(argv):
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    code = build()
    if code != 0:
        return code
    return run_binary(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
