#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <attach_storm|wire_ladder> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), offline.
Build output goes to stderr, so the last stdout line is the result JSON
the benchmark prints. Exits non-zero, without a result, if the build or
the run fails. See perfbench/README.md for what is measured.
"""

import os
import signal
import subprocess
import sys
import time

# A run must end within 180 s; the benchmark bounds itself well inside
# this, and the guard only catches a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    started = time.monotonic()
    # Own process group, so a hung run takes its MLB and MMP children
    # down with it.
    proc = subprocess.Popen([exe, *sys.argv[1:]], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(
            f"perfbench: run exceeded {time.monotonic() - started:.0f} s; killed",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
