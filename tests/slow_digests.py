"""The stdout digests of the ``--max-n 6`` sweeps, too slow for the test suite.

Run it as ``python tests/slow_digests.py`` (pytest does not collect it).
Each sweep runs through ``cli.main`` in a fresh interpreter, so that its
peak RSS is its own; the script prints, per sweep, whether its stdout
sha256 matches the recorded one, its wall time, and the peak RSS of the
sweeping process and of its largest forked child (``RUSAGE_CHILDREN``).
It exits 1 if any digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# sha256 of the full stdout, recorded before ``--dedupe`` became a filter
# on the corpus.
DIGESTS = {
    ("--max-n", "6"): "b0f5de0bf58bcc2adcb4412aa59ef5170e10f774b354475e5f17acb44412ac57",
    ("--max-n", "6", "--dedupe"): "56fd8d771d53a96d63e9707a8859d3cf9c27f40ebb032f195475abf4680a91b2",
}


def _sweep(flags: list[str]) -> None:
    """Run ``sgauss verify`` on ``flags`` here and print its stdout sha256,
    its wall time and the two peak RSS figures in MiB."""
    from sgauss.cli import main

    out = io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *flags])
    wall = time.perf_counter() - began
    rss = [resource.getrusage(who).ru_maxrss / 1024 for who in
           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(code, digest, f"{wall:.1f}", *(f"{m:.0f}" for m in rss))


def main() -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, GAUSS_COLOR="0")
    failed = False
    for flags, expected in DIGESTS.items():
        line = subprocess.run(
            [sys.executable, __file__, *flags], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        code, digest, wall, self_mib, children_mib = line
        ok = code == "0" and digest == expected
        failed |= not ok
        print(
            f"verify {' '.join(flags)}: {'ok' if ok else f'MISMATCH exit={code} sha256={digest}'}"
            f" wall={wall}s peak-rss self={self_mib}MiB children={children_mib}MiB"
        )
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _sweep(sys.argv[1:])
    else:
        sys.exit(main())
