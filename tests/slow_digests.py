"""The stdout digests of the ``--max-n 6`` sweeps and of ``reduce`` on a
2,000-word chain, too slow for the test suite.

Run it as ``python tests/slow_digests.py`` (pytest does not collect it).
Each command runs through ``cli.main`` in a fresh interpreter, so that its
peak RSS is its own; the script prints, per command, whether its stdout
sha256 matches the recorded one, its wall time, and the peak RSS of the
process and of its largest forked child (``RUSAGE_CHILDREN``).  The chain
``x_i y_i -x_{i+1} -y_i`` (i = 0..1,999, cyclically) is built here and
read from stdin.  It exits 1 if any digest differs.
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
# on the corpus and before ``reduce_to_word`` joined on the code.
DIGESTS = {
    ("verify", "--max-n", "6"): "b0f5de0bf58bcc2adcb4412aa59ef5170e10f774b354475e5f17acb44412ac57",
    ("verify", "--max-n", "6", "--dedupe"):
        "56fd8d771d53a96d63e9707a8859d3cf9c27f40ebb032f195475abf4680a91b2",
    ("reduce", "-"): "a12acbbf9d8d284bc676357dabfec1f9c877c93ff90b7efdf5237da14586fdc5",
}
CHAIN = " / ".join(f"x{i} y{i} -x{(i + 1) % 2000} -y{i}" for i in range(2000)) + "\n"
STDIN = {("reduce", "-"): CHAIN}


def _run(argv: list[str]) -> None:
    """Run ``sgauss`` on ``argv`` here and print its exit code, stdout
    sha256, wall time and the two peak RSS figures in MiB."""
    from sgauss.cli import main

    out = io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    wall = time.perf_counter() - began
    rss = [resource.getrusage(who).ru_maxrss / 1024 for who in
           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(code, digest, f"{wall:.2f}", *(f"{m:.0f}" for m in rss))


def main() -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, GAUSS_COLOR="0")
    failed = False
    for argv, expected in DIGESTS.items():
        line = subprocess.run(
            [sys.executable, __file__, *argv], env=env, check=True,
            capture_output=True, text=True, input=STDIN.get(argv, ""),
        ).stdout.split()
        code, digest, wall, self_mib, children_mib = line
        ok = code == "0" and digest == expected
        failed |= not ok
        print(
            f"{' '.join(argv)}: {'ok' if ok else f'MISMATCH exit={code} sha256={digest}'}"
            f" wall={wall}s peak-rss self={self_mib}MiB children={children_mib}MiB"
        )
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _run(sys.argv[1:])
    else:
        sys.exit(main())
