"""The exit codes and stdout/stderr digests of the ``--max-n 6`` sweeps,
of ``reduce`` on a 2,000-word chain, of ``iso`` on large inputs, of
``validate`` on large paragraphs and of ``profile`` on large words, too
slow for the test suite.

Run it as ``python tests/slow_digests.py`` (pytest does not collect it).
Each command runs through ``cli.main`` in a fresh interpreter, its stdout
and stderr hashed as they are written and not kept, so that its peak RSS
is its own; the script prints, per command, whether its exit code and the
sha256 of its stdout and stderr match the recorded ones, its wall time,
and the peak RSS of the process and of its largest forked child
(``RUSAGE_CHILDREN``).  It exits 1 if any of them differs.

The inputs are built here.  ``reduce`` reads the chain ``x_i y_i -x_{i+1}
-y_i`` (i = 0..1,999, cyclically) from stdin.  ``iso`` reads one input from
stdin and the other from a temporary file: a seeded random word with
n = 8,000, a seeded random 10-word paragraph with n = 1,000 and the
200-star, each against a seeded copy moved by rotations, word order and
renaming, and the word ``x1 .. xn -x1 .. -xn`` with n = 2,000 against
such a copy of itself, of itself with one letter pair swapped and of
itself with one symbol's exponents swapped.  ``validate`` reads from stdin
the chain above with 5,000 words, that chain with the lone word ``z -z``
after it (exit 1 with a ``DISCONNECTED`` error at word 5,001) and a seeded
random 40-word paragraph with n = 2,000.  ``profile`` and ``profile
--json`` read from stdin a seeded random word and a seeded word of kinks
(``k_i -k_i`` or ``-k_i k_i``, each put at a random place), both with
n = 2,000.
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

# sha256 of "isomorphic\n", of "not isomorphic\n" and of no output.
ISOMORPHIC = "44e0d7efb6e4750b3ea16fd7dff197d07992d203d64d4ea8fbc163f3788be190"
NOT_ISOMORPHIC = "356bbb837458718ec66598b669ee124da29f04569ba98b964c7270239f68f233"
NOTHING = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


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


def _kinks(n: int, rng: random.Random) -> list[str]:
    """A planar word: n kinks, each put at a random place in the word so far."""
    letters: list[str] = []
    for i in range(n):
        at = rng.randint(0, len(letters))
        letters[at:at] = [f"k{i}", f"-k{i}"][:: rng.choice([1, -1])]
    return letters


def _chain(k: int) -> list[list[str]]:
    return [[f"x{i}", f"y{i}", f"-x{(i + 1) % k}", f"-y{i}"] for i in range(k)]


CHAIN = _chain(2000)
LONG_CHAIN = _chain(5000)
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
WIDE_CUT = _cut(_word(2000, random.Random(2000)), 40, random.Random(40))
PROFILE_WORD = [_word(2000, random.Random(2001))]
KINKS = [_kinks(2000, random.Random(2002))]

# Per command: its argv, its stdin, the text of iso's second input or None,
# and its exit code with the sha256 of its full stdout and stderr.  The
# sweep and reduce digests were recorded before ``--dedupe`` became a filter
# on the corpus and before ``reduce_to_word`` joined on the code.  The iso
# verdicts hold by construction; comparing canonical forms gives them too,
# except on the 200-star, where that search does not finish.  The validate
# digests are of "valid: words=5000 symbols=10000\n", of "error: 1:135561:
# word 5001 shares no symbols with the rest of the paragraph
# [disconnected]\n" and of "valid: words=40 symbols=2000\n".  The profile
# digests were recorded when ``profile`` built its whole dict before
# printing (6-12 s and 0.8-1.1 GiB a case).
CASES = {
    "verify --max-n 6": (["verify", "--max-n", "6"], "", None,
        (0, "b0f5de0bf58bcc2adcb4412aa59ef5170e10f774b354475e5f17acb44412ac57", NOTHING)),
    "verify --max-n 6 --dedupe": (["verify", "--max-n", "6", "--dedupe"], "", None,
        (0, "56fd8d771d53a96d63e9707a8859d3cf9c27f40ebb032f195475abf4680a91b2", NOTHING)),
    "reduce (2,000-word chain)": (["reduce", "-"], _text(CHAIN), None,
        (0, "a12acbbf9d8d284bc676357dabfec1f9c877c93ff90b7efdf5237da14586fdc5", NOTHING)),
    "iso (random word, n = 8,000; moved)":
        (["iso", "-"], _text(WORD), _moved(WORD, 1), (0, ISOMORPHIC, NOTHING)),
    "iso (symmetric word, n = 2,000; moved)":
        (["iso", "-"], _text(SYMMETRIC), _moved(SYMMETRIC, 2), (0, ISOMORPHIC, NOTHING)),
    "iso (symmetric word, n = 2,000; one pair swapped)":
        (["iso", "-"], _text(SYMMETRIC), _moved(SWAPPED, 3), (0, NOT_ISOMORPHIC, NOTHING)),
    "iso (symmetric word, n = 2,000; one symbol's exponents swapped)":
        (["iso", "-"], _text(SYMMETRIC), _moved(FLIPPED, 6), (0, NOT_ISOMORPHIC, NOTHING)),
    "iso (random 10-word paragraph, n = 1,000; moved)":
        (["iso", "-"], _text(CUT), _moved(CUT, 4), (0, ISOMORPHIC, NOTHING)),
    "iso (200-star; moved)":
        (["iso", "-"], _text(STAR), _moved(STAR, 5), (0, ISOMORPHIC, NOTHING)),
    "validate (5,000-word chain)": (["validate", "-"], _text(LONG_CHAIN), None,
        (0, "0b519187cd544ae377c02ed5cf91ef89fe7bc128b1453dd43a64602cc4a6a282", NOTHING)),
    "validate (5,000-word chain and a lone word)":
        (["validate", "-"], _text([*LONG_CHAIN, ["z", "-z"]]), None,
        (1, NOTHING, "b591c5ed4294ea3e7a5cc9ec9d802d075e618096d5275a1cf9ed2e35055ba106")),
    "validate (random 40-word paragraph, n = 2,000)": (["validate", "-"], _text(WIDE_CUT), None,
        (0, "846556c7cf1ff63bfac11aee2b7f1b2b037fd3850a6b443bf5b2195d6b818378", NOTHING)),
    "profile (random word, n = 2,000)": (["profile", "-"], _text(PROFILE_WORD), None,
        (0, "f99832b022bc778c41d5ff4421f288ff9c54c1fffc1f0ee2e535f96fec08cddb", NOTHING)),
    "profile --json (random word, n = 2,000)":
        (["profile", "--json", "-"], _text(PROFILE_WORD), None, (0, "6679772209523d4a529ce9470f32f50e6f8dc5ef5c8c8dcb560ace6bbbb3b913", NOTHING)),
    "profile (kink word, n = 2,000)": (["profile", "-"], _text(KINKS), None,
        (0, "78cc196bff47ab6e066ea747bebba4d9f396f78529ee986cab5538f10eece49d", NOTHING)),
    "profile --json (kink word, n = 2,000)":
        (["profile", "--json", "-"], _text(KINKS), None, (0, "b8bb695ef856a93dc5535eb1af847d7ab173c30c573033b85df8196c7a8e8836", NOTHING)),
}


class _Hashed(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        return len(text)


def _run(argv: list[str]) -> None:
    """Run ``sgauss`` on ``argv`` here and print its exit code, stdout and
    stderr sha256, wall time and the two peak RSS figures in MiB."""
    from sgauss.cli import main

    out, err = _Hashed(), _Hashed()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    wall = time.perf_counter() - began
    rss = [resource.getrusage(who).ru_maxrss / 1024 for who in
           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    print(code, out.sha256.hexdigest(), err.sha256.hexdigest(), f"{wall:.3f}",
          *(f"{m:.0f}" for m in rss))


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
            code, out, err, wall, self_mib, children_mib = line
            ok = (int(code), out, err) == expected
            failed |= not ok
            mismatch = f"MISMATCH exit={code} stdout sha256={out} stderr sha256={err}"
            print(
                f"{label}: {'ok' if ok else mismatch}"
                f" wall={wall}s peak-rss self={self_mib}MiB children={children_mib}MiB"
            )
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _run(sys.argv[1:])
    else:
        sys.exit(main())
