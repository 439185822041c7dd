"""``verify``'s sweep split over forked processes, imported only when a
sweep forks, so that importing the package does not compile it.

A child sends its range's report back down a pipe as ``marshal`` data,
which needs no import, and exits with ``os._exit``, running none of the
parent's clean-up; the parent reaps every child, also when it or a child
fails.
"""

from __future__ import annotations

import marshal
import os
from typing import NoReturn

from .verify import Counterexample, CorpusSpec, VerificationReport, _sweep


def sweep(spec: CorpusSpec, seed: int, bounds: list[int]) -> VerificationReport:
    """The report of the corpus of ``spec``, swept in the index ranges
    ``bounds[i]`` to ``bounds[i + 1] - 1``: the first in this process, each
    other one in a child whose report comes back down a pipe."""
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
                _child(w, spec, seed, start, stop)
            os.close(w)
            children.append((pid, r, start, stop))
        report = _sweep(spec, seed, 0, bounds[1])
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
            report._merge(_load(spec, data))
        return report
    finally:
        for pid, r, *_ in children:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(r)


def _child(w: int, spec: CorpusSpec, seed: int, start: int, stop: int) -> NoReturn:
    """Sweep a range in a forked child, write its report (``_dump``) or
    what it raised to ``w``, and exit: 0 after a report, 1 after a raise."""
    status = 1
    try:
        try:
            data = _dump(_sweep(spec, seed, start, stop))
            status = 0
        except BaseException as e:  # an interrupt too: the parent reports it
            data = f"raised {type(e).__name__}: {e}".encode()
        view = memoryview(data)
        while view:
            view = view[os.write(w, view):]
    finally:
        os._exit(status)


def _dump(report: VerificationReport) -> bytes:
    """A range's report as ``marshal`` bytes, its spec and empirical left
    out: ``_load`` takes the one and ``_merge`` remakes the other."""
    stats = [(s.checked, s.failed) for s in report.checks.values()]
    examples = [tuple(c) for c in report.counterexamples]
    return marshal.dumps((report.size, stats, examples, list(report._tally.items())))


def _load(spec: CorpusSpec, data: bytes) -> VerificationReport:
    size, stats, examples, tally = marshal.loads(data)
    report = VerificationReport(spec, size, [Counterexample(*c) for c in examples])
    for stat, (checked, failed) in zip(report.checks.values(), stats):
        stat.checked, stat.failed = checked, failed
    report._tally.update(dict(tally))
    return report
