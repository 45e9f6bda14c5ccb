"""One fresh-interpreter set-up, timed by run.py.

    python3 perfbench/probe.py WORKLOAD SEED

Imports girardlab and builds the workload's inputs exactly as a run does,
then prints the monotonic clock, which run.py compares with the time it
spawned this process.
"""
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="probe-", dir=run.OUT) as workdir:
        run.set_up(name, seed, Path(workdir))
        print(time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
