"""Helper process that starts commands for run.py and reports their rusage.

On Linux a child's ru_maxrss also counts the peak RSS of the process that
started it: the child runs in, or is copied from, its parent's memory until
exec.  run.py grows as it checks outputs, so it starts every CLI process
through this small helper instead, and the reported peak is the CLI's own.

Protocol: one JSON object per line on stdin,
    {"argv": [...], "env": {...}, "out": path, "err": path},
answered by one JSON object per line on stdout,
    {"code": int, "wall_s": float, "cpu_s": float, "rss_mb": float}.
The command's stdout and stderr go to the two files, never through here.
The request {"calibrate": true} is answered by {"calibration_s": float}, so
that run.py can time the calibration load on two CPUs at once.  The helper
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

HALF = Fraction(1, 2)


def calibration_s() -> float:
    """Wall time of a fixed pure-Python load: exact Fraction arithmetic,
    hashing and big-int shifts, the mix the CLI runs.

    Neighbours on a shared machine slow this load as they slow the CLI, so
    dividing a timing by calibration_s() / run.CALIBRATION_REFERENCE_S scales
    it to a machine running at the reference speed.
    """
    start = time.perf_counter()
    x = Fraction(7, 5)
    acc = 0
    for _ in range(6000):
        x = x * 3 / 2 + HALF if (x.numerator // x.denominator) & 1 else x / 2
        if x > 1000:
            x = Fraction(x.numerator % 997 + 1, x.denominator % 991 + 1)
        acc += hash(x) & 0xFF
        acc ^= (acc << 17) % 1000003
    return time.perf_counter() - start


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("calibrate"):
            print(json.dumps({"calibration_s": calibration_s()}), flush=True)
            continue
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
