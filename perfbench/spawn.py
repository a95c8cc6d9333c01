"""Run a command; write its exit code, wall time and own peak RSS as JSON.

    python3 -I -S spawn.py RESULT -- COMMAND...

A child's peak RSS on Linux includes the peak of the process it was
spawned from, so the benchmark spawns each command from this small
process instead of from itself: a peak read here belongs to the command.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    result_path, sep, *command = sys.argv[1:]
    if sep != "--" or not command:
        sys.exit("usage: spawn.py RESULT -- COMMAND...")
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
    # the largest of all children so far.
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w") as fh:
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}, fh)
