"""Starts the benchmark's commands from a small process of its own.

The peak RSS that wait4 reports for a child is at least the peak RSS of the
process that spawned it, because the child runs in its parent's memory until
it calls exec.  The benchmark's own process grows as it keeps results; this
one stays small, so the peaks it reports are the commands' own.

Reads one JSON request per line on stdin, {"argv": [...], "log": path,
"timeout": seconds}, runs the command in this process's working directory
and environment with stdin from /dev/null and stdout and stderr sent to
the log, waits for it and
writes one JSON line back: {"rc": exit code, "wall": seconds, "maxrss_kb": peak}.
"""

import json
import os
import signal
import sys
import time


def run(argv: list, log_path: str, timeout: float) -> dict:
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0), (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it ended as the timer fired

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return {"rc": os.waitstatus_to_exitcode(status), "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["log"], req["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
