"""Index ranges run in forked processes.  ``verify`` imports this module
only when its sweep forks, so that importing the package does not compile
it, and the module imports nothing from the package: ``verify`` hands it
the function to run, which returns a report's ``_state()``.

A child sends its range's value back down a pipe as ``marshal`` data,
which needs no import, and exits with ``os._exit``, running none of the
parent's clean-up; the parent reaps every child, also when it or a child
fails.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable, NoReturn


def sweep(run: Callable[[int, int], object], bounds: list[int]) -> list:
    """``run(start, stop)`` for each index range ``bounds[i]`` to
    ``bounds[i + 1] - 1``, in order: the first in this process, each other
    one in a child whose value, ``marshal``-able, comes back down a pipe."""
    children = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(w, run, start, stop)
            os.close(w)
            children.append((pid, r, start, stop))
        values = [run(bounds[0], bounds[1])]
        while children:
            pid, r, start, stop = children[0]
            chunks = []
            while chunk := os.read(r, 1 << 16):
                chunks.append(chunk)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(r)
            del children[0]
            data = b"".join(chunks)
            if status != 0:
                why = f"was killed by signal {-status}" if status < 0 else data.decode()
                raise RuntimeError(f"sweep of objects {start}..{stop - 1} {why}")
            values.append(marshal.loads(data))
        return values
    finally:
        for pid, r, *_ in children:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(r)


def _child(w: int, run: Callable[[int, int], object], start: int, stop: int) -> NoReturn:
    """Run a range in a forked child, write its value as ``marshal`` data
    or what it raised to ``w``, and exit: 0 after a value, 1 after a raise."""
    status = 1
    try:
        try:
            data = marshal.dumps(run(start, stop))
            status = 0
        except BaseException as e:  # an interrupt too: the parent reports it
            data = f"raised {type(e).__name__}: {e}".encode()
        view = memoryview(data)
        while view:
            view = view[os.write(w, view):]
    finally:
        os._exit(status)
