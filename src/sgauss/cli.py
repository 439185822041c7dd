"""Command-line front end.

Every subcommand reads one paragraph from a positional file path or stdin
("-" or omitted) and writes text, or JSON with --json.  A call that names
its command first makes one argparse pass, in that command's subparser, and
reads its input once, as bytes, decoded strictly as UTF-8.  Exit status: 0 on
success, 1 on a domain error (invalid input, failed precondition, failed
verification) or an internal error (reported on one line, no traceback), 2
on usage errors.  If the reader of stdout closes it early, the command ends
with status 1 and prints nothing more.  Set GAUSS_COLOR=0 to disable ANSI
styling of diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .homology import pairing, profile
from .model import (
    GaussError,
    ParseError,
    canonicalize,
    is_isomorphic,
    parse_paragraph,
    render,
)
from .surface import build_ribbon, summarize, trace_circles
from .transforms import join, reduce_to_word, split
from .verify import (
    KIND_PARAGRAPHS,
    KIND_WORDS,
    MAX_SYMBOLS,
    CorpusSpec,
    verify,
)

__all__ = ["main"]


def _color_enabled(stream) -> bool:
    if os.environ.get("GAUSS_COLOR", "") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _error(e: GaussError) -> int:
    kind = getattr(e, "kind", None)
    text = f"error: {e}" + (f" [{kind}]" if kind else "")
    if _color_enabled(sys.stderr):
        text = f"\x1b[31m{text}\x1b[0m"
    print(text, file=sys.stderr)
    return 1


def _read(path: str | None) -> str:
    """The text of a file, or of stdin, read as bytes and decoded strictly as
    UTF-8 (so that no decoder's error handler or newline translation plays
    a part; the parser takes CRLF and a lone CR as line breaks)."""
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb", buffering=0) as f:
            data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # The text before the bad byte decodes; the byte stands where the
        # placeholder "?" ends that text.
        lines = (data[: e.start].decode("utf-8") + "?").splitlines()
        message = f"byte {data[e.start]:#04x} is not valid UTF-8"
        raise ParseError(message, len(lines), len(lines[-1])) from None


def _emit(obj: dict) -> None:
    import json
    print(json.dumps(obj))


def _show(p, args) -> None:
    print(render(p, "json" if args.json else "text"))


def _cmd_validate(args) -> int:
    p = parse_paragraph(_read(args.file), pairwise=args.pairwise)
    if args.json:
        _emit({"valid": True, "words": len(p._code), "symbols": p.n})
    else:
        print(f"valid: words={len(p._code)} symbols={p.n}")
    return 0


def _cmd_canon(args) -> int:
    _show(canonicalize(parse_paragraph(_read(args.file))), args)
    return 0


def _cmd_iso(args) -> int:
    if args.file == "-" and args.other == "-":
        print("error: only one input may come from stdin", file=sys.stderr)
        return 2
    p = parse_paragraph(_read(args.file))
    q = parse_paragraph(_read(args.other))
    verdict = is_isomorphic(p, q)
    if args.json:
        _emit({"isomorphic": verdict})
    else:
        print("isomorphic" if verdict else "not isomorphic")
    return 0


def _cmd_summary(args) -> int:
    s = summarize(parse_paragraph(_read(args.file)))
    if args.json:
        _emit(s.as_dict())
    else:
        print(
            f"n={s.n} b={s.b} genus={s.genus} "
            f"geometric={str(s.geometric).lower()}"
        )
    return 0


def _cmd_circles(args) -> int:
    p = parse_paragraph(_read(args.file))
    r = build_ribbon(p)
    circles = trace_circles(r)
    edges = r._edges
    if args.json:
        _emit(
            {
                "n": p.n,
                "edges": 2 * p.n,
                "b": len(circles),
                "circles": [
                    {
                        "darts": list(c.signed_ids()),
                        "edges": list(map(edges.__getitem__, c.darts)),
                    }
                    for c in circles
                ],
            }
        )
    else:
        # Dart d as its signed arc id, "+k" or "-k" for arc k = d // 2 + 1.
        ids = [f"{sign}{k}" for k in range(1, 2 * p.n + 1) for sign in "+-"]
        print(f"n={p.n} b={len(circles)}")
        for i, c in enumerate(circles, start=1):
            darts = c.darts
            print(
                f"circle {i}: {' '.join(map(ids.__getitem__, darts))}"
                f" | {' '.join(map(edges.__getitem__, darts))}"
            )
    return 0


def _cmd_profile(args) -> int:
    pr = profile(parse_paragraph(_read(args.file)))
    if args.json:
        _emit(pr.as_dict())
    else:
        print("alpha: " + " ".join(f"{s}={v}" for s, v in pr.alpha.items()))
        print("beta:" + "".join(f" {i},{j}={v}" for (i, j), v in pr.beta.items()))
        print(f"planar: {str(pr.is_zero).lower()}")
    return 0


def _cmd_pairing(args) -> int:
    value = pairing(parse_paragraph(_read(args.file)))
    _emit({"pairing": value}) if args.json else print(f"pairing={value}")
    return 0


def _cmd_split(args) -> int:
    _show(split(parse_paragraph(_read(args.file)), args.at), args)
    return 0


def _cmd_join(args) -> int:
    _show(join(parse_paragraph(_read(args.file)), args.shared, args.fresh), args)
    return 0


def _cmd_reduce(args) -> int:
    _show(reduce_to_word(parse_paragraph(_read(args.file)), args.prefix), args)
    return 0


def _cmd_verify(args) -> int:
    words_report = verify(CorpusSpec(args.max_n, dedupe=args.dedupe, kind=KIND_WORDS))
    par_report = None
    if args.max_n > 1:
        par_report = verify(
            CorpusSpec(args.max_n - 1, dedupe=args.dedupe, kind=KIND_PARAGRAPHS)
        )
    ok = words_report.ok and (par_report is None or par_report.ok)
    if args.json:
        _emit(
            {
                "words": words_report.as_dict(),
                "paragraphs": par_report.as_dict() if par_report else None,
                "ok": ok,
            }
        )
    else:
        print(words_report.to_text())
        if par_report is not None:
            print()
            print(par_report.to_text())
        print()
        print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _corpus_bound(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= k <= MAX_SYMBOLS:
        raise argparse.ArgumentTypeError(f"must be in 1..{MAX_SYMBOLS}, got {k}")
    return k


@functools.cache  # built on the first call to main, then reused
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="sgauss",
        description="Realizability of signed Gauss words and paragraphs: "
        "Carter circles, minimal genus, planarity, split/join transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *, reads_file=True):
        sp = sub.add_parser(name, help=help)
        if reads_file:
            sp.add_argument(
                "file",
                nargs="?",
                default="-",
                help="paragraph file, or - for stdin (default)",
            )
        sp.add_argument("--json", action="store_true", help="JSON output")
        sp.set_defaults(command=name, func=func)
        return sp

    sp = add("validate", _cmd_validate, "parse and validate a paragraph")
    sp.add_argument(
        "--pairwise",
        action="store_true",
        help="additionally require every pair of words to share a symbol",
    )
    add("canon", _cmd_canon, "canonical representative of the isomorphism class")
    sp = add("iso", _cmd_iso, "decide whether two paragraphs are isomorphic")
    sp.add_argument("other", help="second paragraph file, or - for stdin")
    add("summary", _cmd_summary, "crossing count, Carter circles, genus")
    add("circles", _cmd_circles, "list the Carter circles")
    add("profile", _cmd_profile, "alpha/beta intersection profile of a word")
    add("pairing", _cmd_pairing, "intersection pairing of a 2-component paragraph")
    sp = add("split", _cmd_split, "split a word at a crossing")
    sp.add_argument("--at", required=True, metavar="SYM", help="crossing to split at")
    sp = add("join", _cmd_join, "join the two components sharing a crossing")
    sp.add_argument("--shared", required=True, metavar="SYM")
    sp.add_argument("--fresh", required=True, metavar="SYM")
    sp = add("reduce", _cmd_reduce, "join components until a single word remains")
    sp.add_argument("--prefix", default="j", help="fresh-symbol prefix (default: j)")
    sp = add("verify", _cmd_verify, "exhaustive consistency checks", reads_file=False)
    sp.add_argument(
        "--max-n",
        type=_corpus_bound,
        default=4,
        metavar="K",
        help="word corpus bound (paragraphs use K-1; default 4)",
    )
    sp.add_argument("--dedupe", action="store_true", help="one word per isomorphism class")
    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The arguments of one call (``sys.argv[1:]`` if ``argv`` is None), from
    one argparse pass: a known command's own subparser reads the rest of
    ``argv``, and leftovers are reported as the top-level ``parse_args``
    reports them.  Anything else (no arguments, an option or an unknown name
    first) goes through the top-level parser, which picks the subparser."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout has gone: end quietly, sending what is still
        # buffered to devnull so that the flush at exit succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except GaussError as e:
        return _error(e)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        # A bug, not bad input: one line instead of a traceback.
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"error: internal: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
