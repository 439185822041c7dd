"""Seeded query pools for the two CLI query mixes.

Each mix draws from a fixed pool generated from ``POOL_SEED``, so the exit
code and stdout digest of every pool query can be recorded once
(``record.py``) and checked on every run.  A run's ``--seed`` chooses which
blocks of the pool it visits and in what order.

The pool is made of blocks.  Every block of a mix holds the same ladder of
(command, size) slots with freshly drawn codes, so any run that covers whole
blocks has the same composition whatever its seed: run-to-run differences
come from the codes, not from how many large inputs a seed happened to draw.

This module generates codes on its own, from plain strings, and imports
nothing from ``sgauss``: the program sees only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_SEED = 1511_07863
POOL_BLOCKS = {"query-words": 60, "query-paragraphs": 100}
EXPECTED = Path(__file__).resolve().parent / "expected"

# query-words: the linear-time commands at n in [50, 400], profile (cubic)
# at n in [8, 40], and a corrupted word at n = 50 (exit 1).
LINEAR_COMMANDS = ("summary", "circles", "validate", "split", "canon")
LINEAR_SIZES = (50, 100, 200, 300, 400)
PROFILE_SIZES = (8, 16, 24, 32, 40)
KINK_SHARE = 0.25  # profile inputs that are planar by construction

# query-paragraphs: every command at k in {2, 3, 4} components on a random
# cut and on a symmetric chain; pairing needs k = 2.
PARAGRAPH_COMMANDS = ("canon", "iso", "reduce", "join", "summary")
COMPONENTS = (2, 3, 4)
SHAPES = ("cut", "chain")
FRESH = "w_fresh"  # never produced by _names


@dataclass(frozen=True)
class Query:
    """One CLI call.  ``argv`` holds ``{0}``/``{1}`` where the paths of the
    files holding ``inputs`` go; ``expect_stdout`` is a verdict known by
    construction; ``planarity_check`` marks a valid ``profile`` query whose
    verdict is compared with ``summary`` on the same word."""

    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    expect_exit: int = 0
    expect_stdout: str | None = None
    planarity_check: bool = False


# --- codes as lists of letter strings ("a3" or "-a3") ------------------------


def _names(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.choice('abcdeghkmnpqrstuvxyz')}{i}" for i in rng.sample(range(10 * n), n)]


def _sym(letter: str) -> str:
    return letter.lstrip("-")


def _flip(letter: str) -> str:
    return letter[1:] if letter.startswith("-") else "-" + letter


def random_word(rng: random.Random, n: int) -> list[str]:
    names = _names(rng, n)
    letters = names + ["-" + s for s in names]
    rng.shuffle(letters)
    return letters


def kink_word(rng: random.Random, n: int) -> list[str]:
    """A planar word: n kinks ``x -x`` (either order) inserted one after
    another at random positions, each a Reidemeister I move."""
    letters: list[str] = []
    for s in _names(rng, n):
        i = rng.randrange(len(letters) + 1)
        letters[i:i] = [s, "-" + s] if rng.random() < 0.5 else ["-" + s, s]
    return letters


def corrupt(rng: random.Random, letters: list[str]) -> list[str]:
    """Drop one letter (a symbol then occurs once) or flip one exponent
    (a symbol then occurs twice with the same exponent)."""
    letters = list(letters)
    i = rng.randrange(len(letters))
    if rng.random() < 0.5:
        del letters[i]
    else:
        letters[i] = _flip(letters[i])
    return letters


def _connected(words: list[list[str]]) -> bool:
    parent = list(range(len(words)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    home: dict[str, int] = {}
    for wi, w in enumerate(words):
        for letter in w:
            other = home.setdefault(_sym(letter), wi)
            parent[find(other)] = find(wi)
    return len({find(i) for i in range(len(words))}) == 1


def random_cut(rng: random.Random, k: int) -> list[list[str]]:
    """A random word on 2k symbols cut into k pieces of 4 letters, the word
    lengths of the k-chain, redrawn until the pieces are connected.  Equal
    pieces keep canonicalize's k!·∏|w_i| search the same size for every
    cut, so the mix costs the same whichever blocks a seed selects."""
    while True:
        letters = random_word(rng, 2 * k)
        words = [letters[4 * i : 4 * i + 4] for i in range(k)]
        if _connected(words):
            return words


def chain(rng: random.Random, k: int) -> list[list[str]]:
    """The symmetric chain x_i y_i -x_{i+1} -y_i, i = 1..k (cyclically)."""
    names = _names(rng, 2 * k)
    x, y = names[:k], names[k:]
    return [[x[i], y[i], "-" + x[(i + 1) % k], "-" + y[i]] for i in range(k)]


def shuffle_moves(rng: random.Random, words: list[list[str]]) -> list[list[str]]:
    """An isomorphic copy: rotate every word, reorder the words, relabel."""
    moved = []
    for w in words:
        r = rng.randrange(len(w))
        moved.append(w[r:] + w[:r])
    rng.shuffle(moved)
    syms = sorted({_sym(l) for w in words for l in w})
    rename = dict(zip(syms, _names(rng, len(syms))))
    return [[("-" if l.startswith("-") else "") + rename[_sym(l)] for l in w] for w in moved]


def _shape_invariant(words: list[list[str]]) -> list[tuple[int, int]]:
    # Word lengths with their count of +1 letters: unchanged by every move.
    return sorted((len(w), sum(not l.startswith("-") for l in w)) for w in words)


def _cross_symbols(words: list[list[str]]) -> list[str]:
    home: dict[str, set[int]] = {}
    for wi, w in enumerate(words):
        for l in w:
            home.setdefault(_sym(l), set()).add(wi)
    return sorted(s for s, ws in home.items() if len(ws) == 2)


def non_isomorphic_variant(
    rng: random.Random, words: list[list[str]]
) -> list[list[str]] | None:
    """Same word lengths, not isomorphic: swap the exponents of one symbol
    shared by two words, keeping only a swap that changes the per-word count
    of +1 letters, which no isomorphism move changes."""
    base = _shape_invariant(words)
    candidates = _cross_symbols(words)
    rng.shuffle(candidates)
    for s in candidates:
        flipped = [[_flip(l) if _sym(l) == s else l for l in w] for w in words]
        if _shape_invariant(flipped) != base:
            return flipped
    return None


def text(words: list[list[str]], rng: random.Random) -> str:
    sep = " / " if rng.random() < 0.5 else "\n"
    return sep.join(" ".join(w) for w in words) + "\n"


# --- blocks --------------------------------------------------------------------


def _word_query(rng: random.Random, cmd: str, n: int, invalid: bool) -> Query:
    if cmd == "profile" and rng.random() < KINK_SHARE:
        letters = kink_word(rng, n)
    else:
        letters = random_word(rng, n)
    argv: tuple[str, ...] = (cmd, "{0}")
    if cmd == "split":
        # A symbol whose occurrences are not cyclically adjacent, so both
        # pieces are nonempty.
        at = _sym(rng.choice(letters))
        while abs(letters.index(at) - letters.index("-" + at)) in (1, len(letters) - 1):
            at = _sym(rng.choice(letters))
        argv += ("--at", at)
    if invalid:
        letters = corrupt(rng, letters)
    return Query(
        argv,
        (text([letters], rng),),
        expect_exit=1 if invalid else 0,
        planarity_check=cmd == "profile" and not invalid,
    )


def word_block(rng: random.Random) -> list[Query]:
    slots = [(cmd, n) for cmd in LINEAR_COMMANDS for n in LINEAR_SIZES]
    slots += [("profile", n) for n in PROFILE_SIZES]
    block = [_word_query(rng, cmd, n, False) for cmd, n in slots]
    # One corrupted word more, of the smallest size, so that which command it
    # lands on hardly changes what the block costs.  The odd count (31) puts
    # the median of whole blocks in the middle of one (command, size) slot,
    # not between two slots whose latencies differ by a tenth.
    block.append(_word_query(rng, rng.choice(LINEAR_COMMANDS), LINEAR_SIZES[0], True))
    return block


def _paragraph_query(rng: random.Random, cmd: str, k: int, shape: str, iso: bool) -> Query:
    words = chain(rng, k) if shape == "chain" else random_cut(rng, k)
    if cmd == "iso":
        other = None if iso else non_isomorphic_variant(rng, words)
        verdict = "isomorphic" if other is None else "not isomorphic"
        other = shuffle_moves(rng, words if other is None else other)
        return Query(
            ("iso", "{0}", "{1}"),
            (text(words, rng), text(other, rng)),
            expect_stdout=verdict + "\n",
        )
    if cmd == "join":
        shared = rng.choice(_cross_symbols(words))
        return Query(("join", "{0}", "--shared", shared, "--fresh", FRESH), (text(words, rng),))
    return Query((cmd, "{0}"), (text(words, rng),))


def paragraph_block(rng: random.Random) -> list[Query]:
    # Per k, one shape gets an isomorphic iso pair and the other a pair of
    # the same shape that is not isomorphic.
    iso_shape = {k: rng.choice(SHAPES) for k in COMPONENTS}
    slots = [(cmd, k, shape) for cmd in PARAGRAPH_COMMANDS for k in COMPONENTS for shape in SHAPES]
    slots += [("pairing", 2, shape) for shape in SHAPES]
    return [
        _paragraph_query(rng, cmd, k, shape, iso_shape[k] == shape) for cmd, k, shape in slots
    ]


def pool(workload: str) -> list[list[Query]]:
    """The fixed query pool of a query mix, as a list of blocks."""
    make = word_block if workload == "query-words" else paragraph_block
    rng = random.Random(f"{POOL_SEED}:{workload}")
    return [make(rng) for _ in range(POOL_BLOCKS[workload])]


def pool_digest(blocks: list[list[Query]]) -> str:
    h = hashlib.sha256()
    for block in blocks:
        for q in block:
            h.update(repr((q.argv, q.inputs)).encode())
    return h.hexdigest()


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def digest_path(workload: str) -> Path:
    return EXPECTED / f"{workload}.digests"


def load_digests(workload: str) -> list[tuple[int, str]]:
    """Recorded (exit code, stdout digest) per pool query, in pool order;
    refuses a pool that no longer matches the one the digests were recorded
    for."""
    lines = digest_path(workload).read_text().splitlines()
    header, rows = lines[0].split(), lines[1:]
    full = pool(workload)
    if header != ["pool", pool_digest(full)] or len(rows) != sum(map(len, full)):
        raise SystemExit(
            f"error: {digest_path(workload)} was recorded for another query pool; "
            "run bench/record.py"
        )
    return [(int(code), sha) for code, sha in (r.split() for r in rows)]


def write_inputs(queries: dict[int, Query], directory: Path) -> dict[int, list[str]]:
    """Write the input files of the queries, keyed by pool index, and return
    each one's argv with the file paths filled in."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for i, q in queries.items():
        paths = []
        for j, body in enumerate(q.inputs):
            path = directory / f"{i}-{j}.txt"
            path.write_text(body)
            paths.append(str(path))
        argvs[i] = [a.format(*paths) for a in q.argv]
    return argvs


def write_manifest(workload: str, seed: int, directory: Path, blocks: int) -> Path:
    """Write the inputs of the run with ``seed`` and a manifest listing, in
    the run's order, each query's argv and expected results.  The seed
    chooses ``blocks`` blocks of the pool, their order and the order within
    each block."""
    full = pool(workload)
    digests = load_digests(workload)
    starts = [0]
    for block in full:
        starts.append(starts[-1] + len(block))
    rng = random.Random(seed)
    order = list(range(len(full)))
    rng.shuffle(order)
    ids = []
    for b in order[:blocks]:
        in_block = list(range(starts[b], starts[b + 1]))
        rng.shuffle(in_block)
        ids += in_block
    flat = [q for block in full for q in block]
    argvs = write_inputs({i: flat[i] for i in ids}, directory)
    entries = [
        {
            "id": i,
            "argv": argvs[i],
            "exit": digests[i][0],
            "digest": digests[i][1],
            "expect_exit": flat[i].expect_exit,
            "expect_stdout": flat[i].expect_stdout,
            "planarity_check": flat[i].planarity_check,
        }
        for i in ids
    ]
    path = directory / "manifest.json"
    path.write_text(json.dumps(entries))
    return path
