"""Lean launcher: runs CLI commands one after another and reports, per command,
wall time, exit status and peak RSS from ``os.wait4``.

A child's ``ru_maxrss`` starts from the resident set of the process that
spawned it, so the commands are spawned from this small process, which
imports only the modules below and never loads a corpus.

Protocol: one JSON request per line on stdin,
``{"env": {...}, "cmds": [[argv, stdout_path, stderr_path], ...]}``, answered
by one JSON line ``{"wall": s, "results": [[wall_s, exit_code, maxrss_kb], ...]}``
where ``wall`` spans the whole list. The launcher exits at end of input.
"""

import json
import os
import sys
import time

_OUT = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(cmds, env):
    results = []
    started = time.perf_counter()
    for argv, out, err in cmds:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, _OUT, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, _OUT, 0o644),
        ]
        begin = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        results.append([time.perf_counter() - begin, os.waitstatus_to_exitcode(status), usage.ru_maxrss])
    return time.perf_counter() - started, results


def main():
    for line in sys.stdin:
        request = json.loads(line)
        wall, results = run(request["cmds"], request["env"])
        sys.stdout.write(json.dumps({"wall": wall, "results": results}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
