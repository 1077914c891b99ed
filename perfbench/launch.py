"""Run one program and report its wall time, exit code and peak RSS.

    python3 -S perfbench/launch.py STDOUT STDERR PROGRAM [ARGS...]

The program's standard output and error go to the two files.  One JSON
object goes to this process's standard output: wall_s from spawn to exit,
exit_code, and peak_rss_mb, the max-RSS of the program and of every child
it waited for (pool workers).

The benchmark starts each measured program through this small process and
never directly: on Linux a program's max-RSS starts at the peak RSS of the
process that spawned it, so the benchmark's own peak (corpus, oracle
references) would otherwise stand in for the program's.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    out, err, *program = argv
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawn(program[0], program, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    json.dump({"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
               "peak_rss_mb": usage.ru_maxrss / 1024.0}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
