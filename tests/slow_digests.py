"""The stdout digests of the ``--max-n 6`` sweeps, of ``reduce`` on a
2,000-word chain and of ``iso`` on large inputs, too slow for the test suite.

Run it as ``python tests/slow_digests.py`` (pytest does not collect it).
Each command runs through ``cli.main`` in a fresh interpreter, so that its
peak RSS is its own; the script prints, per command, whether its stdout
sha256 matches the recorded one, its wall time, and the peak RSS of the
process and of its largest forked child (``RUSAGE_CHILDREN``).  It exits 1
if any digest differs.

The inputs are built here.  ``reduce`` reads the chain ``x_i y_i -x_{i+1}
-y_i`` (i = 0..1,999, cyclically) from stdin.  ``iso`` reads one input from
stdin and the other from a temporary file: a seeded random word with
n = 8,000, a seeded random 10-word paragraph with n = 1,000 and the
200-star, each against a seeded copy moved by rotations, word order and
renaming, and the word ``x1 .. xn -x1 .. -xn`` with n = 2,000 against
such a copy of itself, of itself with one letter pair swapped and of
itself with one symbol's exponents swapped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# sha256 of "isomorphic\n" and of "not isomorphic\n".
ISOMORPHIC = "44e0d7efb6e4750b3ea16fd7dff197d07992d203d64d4ea8fbc163f3788be190"
NOT_ISOMORPHIC = "356bbb837458718ec66598b669ee124da29f04569ba98b964c7270239f68f233"


def _text(words: list[list[str]]) -> str:
    return " / ".join(" ".join(w) for w in words) + "\n"


def _word(n: int, rng: random.Random) -> list[str]:
    letters = [f"{sign}x{i}" for i in range(n) for sign in ("", "-")]
    rng.shuffle(letters)
    return letters


def _moved(words: list[list[str]], seed: int) -> str:
    """The text of a copy of ``words`` with every word rotated, the words
    reordered and the symbols renamed at random."""
    rng = random.Random(seed)
    moved = []
    for w in words:
        r = rng.randrange(len(w))
        moved.append(w[r:] + w[:r])
    rng.shuffle(moved)
    syms = sorted({l.lstrip("-") for w in words for l in w})
    names = [f"s{i}" for i in range(len(syms))]
    rng.shuffle(names)
    rename = dict(zip(syms, names))
    return _text([
        [("-" if l.startswith("-") else "") + rename[l.lstrip("-")] for l in w]
        for w in moved
    ])


def _cut(word: list[str], m: int, rng: random.Random) -> list[list[str]]:
    """``word`` cut into ``m`` words at random (connected for the seeds
    used here: ``iso`` exits 1 on a disconnected input)."""
    cuts = [0, *sorted(rng.sample(range(1, len(word)), m - 1)), len(word)]
    return [word[i:j] for i, j in zip(cuts, cuts[1:])]


CHAIN = [[f"x{i}", f"y{i}", f"-x{(i + 1) % 2000}", f"-y{i}"] for i in range(2000)]
WORD = [_word(8000, random.Random(8000))]
SYMMETRIC = [[f"x{i}" for i in range(2000)] + [f"-x{i}" for i in range(2000)]]
# The letters x1999 and -x0 swapped, which changes the offsets of x0 and
# x1999 to their partners; and x1000's exponents swapped, which changes no
# offset, only the runs of equal exponents.
SWAPPED = [[*SYMMETRIC[0][:1999], "-x0", "x1999", *SYMMETRIC[0][2001:]]]
FLIPPED = [[{"x1000": "-x1000", "-x1000": "x1000"}.get(l, l) for l in SYMMETRIC[0]]]
CUT = _cut(_word(1000, random.Random(1000)), 10, random.Random(10))
STAR = [[f"-x{i}", f"y{i}"] for i in range(200)] + [
    [l for i in range(200) for l in (f"x{i}", f"-y{i}")]
]

# Per command: its argv, its stdin, the text of iso's second input or None,
# and the sha256 of its full stdout.  The sweep and reduce digests were
# recorded before ``--dedupe`` became a filter on the corpus and before
# ``reduce_to_word`` joined on the code.  The iso verdicts hold by
# construction; comparing canonical forms gives them too, except on the
# 200-star, where that search does not finish.
CASES = {
    "verify --max-n 6": (["verify", "--max-n", "6"], "", None,
        "b0f5de0bf58bcc2adcb4412aa59ef5170e10f774b354475e5f17acb44412ac57"),
    "verify --max-n 6 --dedupe": (["verify", "--max-n", "6", "--dedupe"], "", None,
        "56fd8d771d53a96d63e9707a8859d3cf9c27f40ebb032f195475abf4680a91b2"),
    "reduce (2,000-word chain)": (["reduce", "-"], _text(CHAIN), None,
        "a12acbbf9d8d284bc676357dabfec1f9c877c93ff90b7efdf5237da14586fdc5"),
    "iso (random word, n = 8,000; moved)": (["iso", "-"], _text(WORD), _moved(WORD, 1), ISOMORPHIC),
    "iso (symmetric word, n = 2,000; moved)":
        (["iso", "-"], _text(SYMMETRIC), _moved(SYMMETRIC, 2), ISOMORPHIC),
    "iso (symmetric word, n = 2,000; one pair swapped)":
        (["iso", "-"], _text(SYMMETRIC), _moved(SWAPPED, 3), NOT_ISOMORPHIC),
    "iso (symmetric word, n = 2,000; one symbol's exponents swapped)":
        (["iso", "-"], _text(SYMMETRIC), _moved(FLIPPED, 6), NOT_ISOMORPHIC),
    "iso (random 10-word paragraph, n = 1,000; moved)":
        (["iso", "-"], _text(CUT), _moved(CUT, 4), ISOMORPHIC),
    "iso (200-star; moved)": (["iso", "-"], _text(STAR), _moved(STAR, 5), ISOMORPHIC),
}


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
    print(code, digest, f"{wall:.3f}", *(f"{m:.0f}" for m in rss))


def main() -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, GAUSS_COLOR="0")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for label, (argv, stdin, other, expected) in CASES.items():
            if other is not None:
                path = Path(tmp) / "other"
                path.write_text(other)
                argv = [*argv, str(path)]
            line = subprocess.run(
                [sys.executable, __file__, *argv], env=env, check=True,
                capture_output=True, text=True, input=stdin,
            ).stdout.split()
            code, digest, wall, self_mib, children_mib = line
            ok = code == "0" and digest == expected
            failed |= not ok
            print(
                f"{label}: {'ok' if ok else f'MISMATCH exit={code} sha256={digest}'}"
                f" wall={wall}s peak-rss self={self_mib}MiB children={children_mib}MiB"
            )
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _run(sys.argv[1:])
    else:
        sys.exit(main())
