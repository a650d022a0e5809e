"""Set-up time of a fresh process: import tllcd from the checkout's `src`
and finish one tiny `simulate` call.  Prints the speed-calibrated seconds
taken (see speed.py), then the wall seconds.

Usage: python3 perfbench/setup_probe.py CONFIG OUT_DIR
"""

import contextlib
import io
import sys
from pathlib import Path

import speed

with speed.Calibrated() as clock:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tllcd.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = tllcd.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
if rc != 0:
    sys.exit(rc)
print(repr(clock.seconds), repr(clock.wall))
