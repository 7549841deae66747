"""Small process that starts the benchmark's jobs and reports their usage.

Linux carries a process's peak RSS across fork and exec, so a job forked
straight from the benchmark (which holds mpmath and every output) would
report the benchmark's own size.  This launcher stays small: it reads one
JSON request per line on stdin, forks and execs the command with stdout and
stderr sent to the named files, waits for it with ``os.wait4`` and answers
with one JSON line.  It exits at end of input.

Around each job it also times a fixed calibration loop, so that the
benchmark can tell a slower program from a machine that is slower for a
while (other tenants, frequency changes).
"""

import json
import os
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds of a fixed piece of pure-Python work like the jobs' (a
    bytecode loop, then big-integer Fraction sums): how fast the machine
    runs now."""
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    total = Fraction(0)
    for k in range(1, 700):
        total += Fraction(1, k)
    return time.perf_counter() - start


def main():
    for line in sys.stdin:
        req = json.loads(line)
        before = calibrate()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.chdir(req["cwd"])
                for fd, path in ((1, req["stdout"]), (2, req["stderr"])):
                    os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
                os.execve(req["argv"][0], req["argv"], req["env"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        reply = {
            "seconds": seconds,
            "calibration_s": (before + calibrate()) / 2,
            "code": os.waitstatus_to_exitcode(status),
            "rss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
