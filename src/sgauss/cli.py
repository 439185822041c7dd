"""Command-line front end.

Every subcommand reads one paragraph from a positional file path or stdin
("-" or omitted) and writes text, or JSON with --json.  A plain call is read
straight from the command table, any other (help, usage errors) by argparse
built from it; a call reads its input once, as bytes, decoded strictly as
UTF-8.  Exit status: 0 on success, 1 on a domain error (invalid input,
failed precondition, failed verification) or an internal error (reported on
one line, no traceback), 2 on usage errors.  If the reader of stdout closes
it early, the command ends with status 1 and prints nothing more.  Set
GAUSS_COLOR=0 to disable ANSI styling of diagnostics.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from .homology import pairing, profile_rows
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
        ids = r._ids
        print(f"n={p.n} b={len(circles)}")
        for i, c in enumerate(circles, start=1):
            darts = c.darts
            print(
                f"circle {i}: {' '.join(map(ids.__getitem__, darts))}"
                f" | {' '.join(map(edges.__getitem__, darts))}"
            )
    return 0


def _cmd_profile(args) -> int:
    """The profile, written a row of beta at a time.  Row i is one
    %-template of its n - 1 entries (i, j, beta), the diagonal left out;
    a symbol name holds no "%"."""
    names, alphas, rows = profile_rows(parse_paragraph(_read(args.file)))
    write = sys.stdout.write
    if args.json:
        import json
        write(f'{{"alpha": {json.dumps(dict(zip(names, alphas)))}, "beta": [')
        names = list(map(json.dumps, names))
        head, cell, gap = "[{}, ", "{}, %d]", ", "  # gap: between entries
    else:
        write("alpha: " + " ".join(map("{}={}".format, names, alphas)) + "\nbeta:")
        head, cell, gap = " {},", "{}=%d", ""
    cells = list(map(cell.format, names))
    planar = not any(alphas)
    for r, row in enumerate(rows if len(cells) > 1 else ()):  # 1 symbol: no beta
        planar = planar and not any(row)
        first = head.format(names[r])
        template = first + (gap + first).join(cells[:r] + cells[r + 1 :])
        write(gap * (r > 0) + template % (row[:r] + row[r + 1 :]))
    planar = str(planar).lower()
    write(f'], "planar": {planar}}}\n' if args.json else f"\nplanar: {planar}\n")
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
        if 1 <= (k := int(text)) <= MAX_SYMBOLS:
            return k
        message = f"must be in 1..{MAX_SYMBOLS}, got {k}"
    except ValueError:
        message = f"invalid int value: {text!r}"
    import argparse  # for the error only: a plain argv never loads argparse
    raise argparse.ArgumentTypeError(message)


# Every subcommand, declared once: its handler and help, its positionals as
# (name, default, help), and its options in help order, as (option, help) for
# a flag or (option, help, default, metavar, type) for a valued option.  A
# positional or valued option whose default is None is required.
_FILE = ("file", "-", "paragraph file, or - for stdin (default)")
_JSON = ("--json", "JSON output")
_COMMANDS = {
    "validate": (_cmd_validate, "parse and validate a paragraph", [_FILE], [_JSON, (
        "--pairwise", "additionally require every pair of words to share a symbol")]),
    "canon": (_cmd_canon, "canonical representative of the isomorphism class",
              [_FILE], [_JSON]),
    "iso": (_cmd_iso, "decide whether two paragraphs are isomorphic",
            [_FILE, ("other", None, "second paragraph file, or - for stdin")], [_JSON]),
    "summary": (_cmd_summary, "crossing count, Carter circles, genus", [_FILE], [_JSON]),
    "circles": (_cmd_circles, "list the Carter circles", [_FILE], [_JSON]),
    "profile": (_cmd_profile, "alpha/beta intersection profile of a word", [_FILE], [_JSON]),
    "pairing": (_cmd_pairing, "intersection pairing of a 2-component paragraph",
                [_FILE], [_JSON]),
    "split": (_cmd_split, "split a word at a crossing", [_FILE],
              [_JSON, ("--at", "crossing to split at", None, "SYM", str)]),
    "join": (_cmd_join, "join the two components sharing a crossing", [_FILE], [_JSON,
             ("--shared", None, None, "SYM", str), ("--fresh", None, None, "SYM", str)]),
    "reduce": (_cmd_reduce, "join components until a single word remains", [_FILE],
               [_JSON, ("--prefix", "fresh-symbol prefix (default: j)", "j", None, str)]),
    "verify": (_cmd_verify, "exhaustive consistency checks", [], [_JSON, ("--max-n",
        "word corpus bound (paragraphs use K-1; default 4)", 4, "K", _corpus_bound),
        ("--dedupe", "one word per isomorphism class")]),
}


@functools.cache  # built on the first call that needs it, then reused
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by name, built from ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sgauss",
        description="Realizability of signed Gauss words and paragraphs: "
        "Carter circles, minimal genus, planarity, split/join transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, positionals, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        for dest, default, help in positionals:
            sp.add_argument(dest, nargs="?" if default else None, default=default, help=help)
        for option, help, *valued in options:
            if valued:
                default, metavar, type = valued
                sp.add_argument(option, required=default is None, default=default,
                                metavar=metavar, help=help, type=type)
            else:
                sp.add_argument(option, action="store_true", help=help)
        sp.set_defaults(command=name, func=func)
    return parser, sub.choices


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain ``argv``, read from ``_COMMANDS``;
    else None.  Plain: a command first, each option spelled out, at most once
    and its value (not starting with "-", accepted by its type) next, and the
    positionals one contiguous run, none missing and none extra."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    func, _, positionals, options = spec
    unseen = {o[0]: o for o in options}
    args = {o[0][2:].replace("-", "_"): o[2] if o[2:] else False for o in options}
    files, closed = [], False  # closed: an option has followed the positionals
    rest = iter(argv[1:])
    for a in rest:
        if a[:1] != "-" or a == "-":
            if closed:
                return None
            files.append(a)
            continue
        if (option := unseen.pop(a, None)) is None:
            return None
        closed, dest = bool(files), a[2:].replace("-", "_")
        if not option[2:]:
            args[dest] = True
        elif (value := next(rest, "-"))[:1] == "-":
            return None
        else:
            try:
                args[dest] = option[4](value)
            except Exception:  # refused: argparse runs the type again and reports it
                return None
    files += [p[1] for p in positionals[len(files):]]  # the defaults of the rest
    args.update(zip([p[0] for p in positionals], files))
    if len(files) > len(positionals) or None in args.values():
        return None  # a surplus positional, or a required argument missing
    return SimpleNamespace(command=argv[0], func=func, **args)


def _parse(argv: list[str] | None) -> argparse.Namespace | SimpleNamespace:
    """The arguments of one call (``sys.argv[1:]`` if ``argv`` is None): a
    plain argv from ``_plain``, with no argparse; any other from one argparse
    pass, in a known command's own subparser (leftovers reported as the
    top-level ``parse_args`` reports them), or else in the top-level parser."""
    argv = sys.argv[1:] if argv is None else argv
    if (args := _plain(argv)) is not None:
        return args
    parser, commands = _build_parser()
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
