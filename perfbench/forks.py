"""Run a function in a forked child and collect its result and usage."""

from __future__ import annotations

import json
import os
import traceback


class ChildError(RuntimeError):
    """The child raised; carries its traceback."""


def fork_call(fn, *args):
    """``fn(*args)`` in a child process; returns its JSON-able result and
    the child's resource usage (``ru_maxrss`` is its peak resident set).

    The parent reads the pipe to its end before reaping the child, so a
    large result cannot block the child's exit.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = {"ok": fn(*args)}
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        with os.fdopen(write_fd, "w") as fh:
            json.dump(payload, fh)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, _, usage = os.wait4(pid, 0)
    payload = json.loads(data) if data else {"error": "child exited without a result"}
    if "error" in payload:
        raise ChildError(payload["error"])
    return payload["ok"], usage
