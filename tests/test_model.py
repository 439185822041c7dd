"""Parsing, rendering, validation, rotation, canonical forms, isomorphism."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce_canon import bruteforce_canonicalize, canonical_name
from conftest import (
    LETTERS,
    TEXTS,
    addresses,
    canonical_isomorphic,
    naive_isomorphic,
    random_word,
    rotate,
    signed_paragraphs,
    signed_words,
    star,
    symmetric_chain,
    symmetric_word,
)
from letters import SignedLetter, SignedWord, paragraph, words_of
from sgauss.model import (
    GaussError,
    OperationError,
    ParseError,
    SignedParagraph,
    ValidationError,
    canonicalize,
    check_pairwise,
    is_isomorphic,
    parse_paragraph,
    relabel,
    render,
    _canonical_names,
    _canonical_search,
    _canonical_word,
)
import sgauss.model
from sgauss.transforms import join
from sgauss.verify import _draw, _moved, _paragraph, apply_random_moves
from tokenparse import parse_by_tokens


def word_texts(p: SignedParagraph) -> list[str]:
    return [str(w) for w in words_of(p)]


class TestParse:
    def test_smallest_word(self):
        p = parse_paragraph("a -a")
        assert word_texts(p) == ["a -a"]
        assert p.alphabet == {"a"}
        assert p._code == ((0, 1),)

    def test_length_four(self):
        p = parse_paragraph("a b -a -b")
        assert len(p._code[0]) == 4
        assert p.alphabet == {"a", "b"}

    def test_two_components(self):
        p = parse_paragraph("a -b / -a b")
        assert word_texts(p) == ["a -b", "-a b"]

    def test_caret_alias_and_comments(self):
        p = parse_paragraph("a b a^-1 -b  # trailing comment\n")
        assert word_texts(p) == ["a b -a -b"]

    def test_newline_separates_words(self):
        p = parse_paragraph("a -b\n-a b\n")
        assert word_texts(p) == ["a -b", "-a b"]

    def test_blank_lines_ignored(self):
        p = parse_paragraph("\n\na -a\n\n")
        assert word_texts(p) == ["a -a"]

    def test_multichar_symbols(self):
        p = parse_paragraph("x1 cross_2 -x1 -cross_2")
        assert p.alphabet == {"x1", "cross_2"}

    @pytest.mark.parametrize("bad", ["a^2", "-", "9x", "-a^-1", "a-b", "^-1"])
    def test_lexical_errors(self, bad):
        with pytest.raises(ParseError) as exc:
            parse_paragraph(f"a {bad} -a")
        assert exc.value.line == 1
        assert exc.value.col == 3

    def test_symbol_occurs_once(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a b -a")
        assert exc.value.kind == ValidationError.SYMBOL_COUNT
        assert (exc.value.line, exc.value.col) == (1, 3)

    def test_symbol_occurs_three_times(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a -a a -b b")
        assert exc.value.kind == ValidationError.SYMBOL_COUNT
        assert (exc.value.line, exc.value.col) == (1, 6)

    def test_equal_exponents(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a b a -b")
        assert exc.value.kind == ValidationError.EQUAL_EXPONENTS
        assert (exc.value.line, exc.value.col) == (1, 5)

    @pytest.mark.parametrize("text", ["a / / -a", "/ a -a", "a -a /"])
    def test_empty_word(self, text):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph(text)
        assert exc.value.kind == ValidationError.EMPTY_WORD
        assert exc.value.line is not None

    def test_empty_paragraph(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("  # nothing here\n")
        assert exc.value.kind == ValidationError.EMPTY_WORD

    def test_disconnected(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a -a / b -b")
        assert exc.value.kind == ValidationError.DISCONNECTED
        assert (exc.value.line, exc.value.col) == (1, 8)

    def test_disconnected_multiline(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a -a\nb -b")
        assert exc.value.kind == ValidationError.DISCONNECTED
        assert (exc.value.line, exc.value.col) == (2, 1)

    def test_second_line_positions(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a -a\nb c -c")
        assert exc.value.kind == ValidationError.SYMBOL_COUNT
        assert (exc.value.line, exc.value.col) == (2, 1)

    def test_comment_holding_slash_and_minus(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a b # -b / c\n-a c")
        assert exc.value.kind == ValidationError.SYMBOL_COUNT
        assert exc.value.message == "symbol 'b' occurs once, expected twice"
        assert (exc.value.line, exc.value.col) == (1, 3)

    def test_crlf_line_endings(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a\tb\r\n-a\t-b -c\r\n")
        assert exc.value.kind == ValidationError.SYMBOL_COUNT
        assert (exc.value.line, exc.value.col) == (2, 7)

    def test_symbol_count_after_comment_line(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a b -a\n# only a comment -b /\n-b c\n")
        assert exc.value.kind == ValidationError.SYMBOL_COUNT
        assert (exc.value.line, exc.value.col) == (3, 4)

    def test_disconnected_after_slash_on_later_line(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a -b\n-a b / c -c")
        assert exc.value.kind == ValidationError.DISCONNECTED
        assert (exc.value.line, exc.value.col) == (2, 8)


BAD_TOKENS = ["9x", "-a^-1", "a^2", "-", "^-1", "a-b", "a^-1^-1", "--a", "\u00e9"]


@st.composite
def paragraph_texts(draw) -> str:
    """The text of a valid paragraph in any spelling the grammar allows: "-a"
    or "a^-1", spaces and tabs, words ended by "/", LF or CRLF, blank lines,
    and comments that hold "/" and "-".  Most draws then break it with one
    edit: a letter dropped, repeated, inverted or renamed, a bad token or a
    "/" put in, a line break put inside a word, or a word put in that shares
    no symbol."""
    p = draw(signed_paragraphs(1, 5))
    words = [
        [
            draw(st.sampled_from([f"-{l.sym}", f"{l.sym}^-1"])) if l.exp < 0 else l.sym
            for l in w
        ]
        for w in words_of(p)
    ]
    edit = draw(
        st.sampled_from("none drop repeat invert rename bad slash line word".split())
    )
    w = draw(st.sampled_from(words))
    i = draw(st.integers(0, len(w) - 1))
    if edit == "drop":
        del w[i]
    elif edit == "repeat":
        w.insert(i, w[i])
    elif edit == "invert":
        tok = w[i]
        w[i] = tok[1:] if tok[0] == "-" else tok[:-3] if "^" in tok else f"-{tok}"
    elif edit == "rename":
        w[i] = w[i].replace(w[i].strip("-^1"), "x_1", 1)
    elif edit == "bad":
        w.insert(draw(st.integers(0, len(w))), draw(st.sampled_from(BAD_TOKENS)))
    elif edit in ("slash", "line"):
        w.insert(draw(st.integers(0, len(w))), "/" if edit == "slash" else "\n")
    elif edit == "word":
        words.insert(draw(st.integers(0, len(words))), ["y", "-y"])
    gaps = st.sampled_from([" ", "  ", "\t", " \t"])
    ends = st.sampled_from(
        [" / ", "/", " /\n", "\n", "\r\n", "\n\n", "\r\n\r\n"]
        + ["  # c / -a\n", "\t#-b/\r\n"]
    )
    text = draw(st.sampled_from(["", "\n", "# head / -x\n", "\r\n"]))
    for k, w in enumerate(words):
        if k:
            text += draw(ends)
        text += "".join(tok + draw(gaps) for tok in w)
    return text + draw(st.sampled_from(["", "\n", "\r\n", " # tail -a /"]))


def outcome(parse, text: str, pairwise: bool):
    """The paragraph ``parse`` returns, or the class, text, kind, position
    and letter address of the error it raises."""
    try:
        return parse(text, pairwise=pairwise)
    except GaussError as e:
        return type(e), str(e), e.kind, e.line, e.col, getattr(e, "where", None)


class TestParseAgainstTokenParser:
    """The one-scan parser gives what the token-by-token parser
    (``tests/tokenparse.py``) gives: an equal paragraph, or the same error
    class, message, kind, line, column and address."""

    @pytest.mark.parametrize(
        "text",
        [
            "a -a /",
            "/ a -a",
            "a / / -a",
            "a -a\n/ b -b",
            "a -b /\n\n-a b",
            "a^-1 a",
            "-a^-1 a",
            "a#b -a",
            "a b\r-a -b",
            "a\x0bb -a -b",
            "a -a\x1cb -b",
            "a\u2028-a",
            "a -a \x85 / b -b",
            "a/-a/",
            "a b -a -b c\n",
        ],
    )
    @pytest.mark.parametrize("pairwise", [False, True])
    def test_hand_picked(self, text, pairwise):
        assert outcome(parse_paragraph, text, pairwise) == outcome(
            parse_by_tokens, text, pairwise
        )

    @settings(max_examples=300)
    @given(st.one_of(TEXTS, paragraph_texts()), st.booleans())
    def test_same_outcome(self, text, pairwise):
        assert outcome(parse_paragraph, text, pairwise) == outcome(
            parse_by_tokens, text, pairwise
        )

    def test_oracle_does_not_parse(self):
        # The oracle, and the letters it builds its paragraphs from, must
        # not go through the parser they check.
        for oracle in ("letters.py", "tokenparse.py"):
            assert "parse_paragraph" not in referenced_names(oracle), oracle


def referenced_names(module: str) -> set[str]:
    """Every name, attribute and imported name in the test module's source."""
    names = set()
    for node in ast.walk(ast.parse((Path(__file__).parent / module).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


class TestValidation:
    def test_both_occurrences_in_one_word_is_legal(self):
        p = parse_paragraph("a b -b / -a")
        assert p.n == 2

    def test_connected_chain_of_three(self):
        p = parse_paragraph("a / -a b / -b")
        assert len(p._code) == 3

    def test_pairwise_check(self):
        p = parse_paragraph("a / -a b / -b")
        with pytest.raises(ValidationError) as exc:
            check_pairwise(p)
        assert exc.value.kind == ValidationError.PAIRWISE

    def test_pairwise_via_parse(self):
        with pytest.raises(ValidationError) as exc:
            parse_paragraph("a / -a b / -b", pairwise=True)
        assert exc.value.kind == ValidationError.PAIRWISE
        assert exc.value.line is not None

    def test_pairwise_ok(self):
        check_pairwise(parse_paragraph("a -b / -a b"))

    def test_direct_construction_validates(self):
        # The parser's validator, run on a code built from letters.
        with pytest.raises(ValidationError):
            paragraph((SignedWord((SignedLetter("a", 1),)),))

    def test_no_words(self):
        with pytest.raises(ValidationError, match="^empty paragraph$") as exc:
            paragraph([])
        assert exc.value.kind == ValidationError.EMPTY_WORD

    def test_empty_word_beside_a_valid_one(self):
        # Every letter occurs once, and still the code is invalid.
        a, not_a = SignedLetter("a", 1), SignedLetter("a", -1)
        with pytest.raises(ValidationError, match="^word 2 is empty$") as exc:
            paragraph([[a, not_a], []])
        assert (exc.value.kind, exc.value.where) == (ValidationError.EMPTY_WORD, (1, 0))
        # No symbols at all.
        with pytest.raises(ValidationError, match="^word 1 is empty$") as exc:
            paragraph([[]])
        assert exc.value.kind == ValidationError.EMPTY_WORD

    def test_class_cannot_be_called(self):
        for args in [(), ("a -a",), ([[SignedLetter("a", 1), SignedLetter("a", -1)]],)]:
            with pytest.raises(TypeError, match="use parse_paragraph"):
                SignedParagraph(*args)

    @given(signed_paragraphs())
    def test_exponent_sum_is_zero(self, p):
        assert sum(l.exp for w in words_of(p) for l in w) == 0


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "text", ["a -a", "a b -a -b", "a -b / -a b", "x1 -x1"]
    )
    def test_text_round_trip(self, text):
        p = parse_paragraph(text)
        assert render(p) == text.replace("\n", " / ")
        assert parse_paragraph(render(p)) == p

    def test_json_schema(self):
        import json

        doc = json.loads(render(parse_paragraph("a -b / -a b"), "json"))
        assert doc == {
            "words": [
                [{"sym": "a", "exp": 1}, {"sym": "b", "exp": -1}],
                [{"sym": "a", "exp": -1}, {"sym": "b", "exp": 1}],
            ]
        }

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(parse_paragraph("a -a"), "xml")

    @given(signed_paragraphs())
    def test_round_trip_random(self, p):
        assert parse_paragraph(render(p)) == p


class TestRotate:
    def test_shift_by_one(self):
        (w,) = words_of(parse_paragraph("a b -a -b"))
        assert str(rotate(w, 1)) == "b -a -b a"

    @given(signed_words(), st.integers(-20, 20))
    def test_rotation_group(self, w, k):
        assert rotate(w, 0) == w
        assert rotate(w, len(w)) == w
        assert rotate(rotate(w, k), len(w) - k % len(w)) == w


class TestCanonicalize:
    def test_fixed_forms(self):
        assert render(canonicalize(parse_paragraph("a -a"))) == "-a a"
        assert render(canonicalize(parse_paragraph("-a a"))) == "-a a"
        assert render(canonicalize(parse_paragraph("a b -a -b"))) == "-a -b a b"

    def test_rotation_same_class(self):
        assert canonicalize(parse_paragraph("b -a -b a")) == canonicalize(
            parse_paragraph("a b -a -b")
        )

    def test_relabeling_same_class(self):
        assert canonicalize(parse_paragraph("x y -x -y")) == canonicalize(
            parse_paragraph("a b -a -b")
        )

    def test_word_order(self):
        assert canonicalize(parse_paragraph("-a b / a -b")) == canonicalize(
            parse_paragraph("a -b / -a b")
        )

    @given(signed_paragraphs(), st.randoms(use_true_random=False))
    def test_idempotent_and_move_invariant(self, p, rng):
        c = canonicalize(p)
        assert canonicalize(c) == c
        moved = apply_random_moves(p, rng)
        assert canonicalize(moved) == c


def random_cut(rng: random.Random, n: int, k: int) -> SignedParagraph:
    """A random word on n symbols cut at random places into k connected words."""
    while True:
        letters = [SignedLetter(LETTERS[i], e) for i in range(n) for e in (1, -1)]
        rng.shuffle(letters)
        cuts = sorted(rng.sample(range(1, 2 * n), k - 1))
        bounds = list(zip([0] + cuts, cuts + [2 * n]))
        try:
            return paragraph(letters[a:b] for a, b in bounds)
        except ValidationError:
            continue


class TestCanonicalizeAgainstBruteForce:
    """The pruned search returns the brute force's paragraph, not only an
    equivalent one."""

    def test_all_words_up_to_4(self, words_le_4):
        # A word's canonical form comes from ``_canonical_word``.
        assert len(words_le_4) == 1814
        for p in words_le_4:
            assert canonicalize(p) == bruteforce_canonicalize(p), render(p)

    def test_all_two_component_paragraphs_up_to_3(self, paragraphs_le_3):
        assert len(paragraphs_le_3) == 586
        for p in paragraphs_le_3:
            assert canonicalize(p) == bruteforce_canonicalize(p), render(p)

    @given(signed_paragraphs(min_symbols=1, max_symbols=6))
    def test_random_paragraphs(self, p):
        assert canonicalize(p) == bruteforce_canonicalize(p)

    @pytest.mark.parametrize("k", [3, 4])
    def test_random_cuts(self, k):
        rng = random.Random(100 + k)
        for _ in range(12):
            p = random_cut(rng, 2 * k, k)
            c = bruteforce_canonicalize(p)
            assert canonicalize(p) == c, render(p)
            assert canonicalize(apply_random_moves(p, rng)) == c, render(p)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_symmetric_chains(self, k):
        p = symmetric_chain(k)
        assert canonicalize(p) == bruteforce_canonicalize(p)

    @pytest.mark.parametrize("k", [2, 3])
    def test_stars(self, k):
        p = star(k)
        assert canonicalize(p) == bruteforce_canonicalize(p)

    def test_fully_symmetric_word(self):
        syms = [f"x{i}" for i in range(1, 7)]
        p = parse_paragraph(" ".join(syms + ["-" + s for s in syms]))
        c = canonicalize(p)
        assert c == bruteforce_canonicalize(p)
        assert render(c) == "-a -b -c -d -e -f a b c d e f"

    def test_names_past_26_symbols(self):
        p = symmetric_chain(14)
        c = canonicalize(p)
        assert {"s26", "s27"} <= c.alphabet
        assert canonicalize(c) == c

    @pytest.mark.parametrize("n", [0, 1, 26, 27, 400])
    def test_canonical_names(self, n):
        assert _canonical_names(n) == tuple(map(canonical_name, range(n)))


class TestCanonicalWord:
    """The one-word kernel returns what the search over word orders returns
    on the one-word code."""

    def test_every_word_up_to_5(self, word_codes_le_5):
        assert len(word_codes_le_5) == 32054
        wrong = [w for w in word_codes_le_5 if (_canonical_word(w),) != _canonical_search((w,))]
        assert wrong == []

    @settings(max_examples=50)
    @given(signed_words(max_symbols=7))
    def test_hypothesis_words(self, w):
        p = paragraph((w,))
        (word,) = p._code
        assert (_canonical_word(word),) == _canonical_search(p._code)
        assert canonicalize(p) == bruteforce_canonicalize(p)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 200])
    def test_symmetric_words(self, n):
        w = symmetric_word(n)
        for r in {0, 1, n, 2 * n - 1}:
            rotated = w[r:] + w[:r]
            assert (_canonical_word(rotated),) == _canonical_search((rotated,))
        assert _canonical_word(w) == tuple(range(1, 2 * n, 2)) + tuple(range(0, 2 * n, 2))

    def test_random_large_words(self):
        rng = random.Random(11)
        for n in (50, 120, 250, 400):
            for _ in range(3):
                w = random_word(rng, n)
                assert (_canonical_word(w),) == _canonical_search((w,))


class TestIsomorphism:
    def test_rotation(self):
        assert is_isomorphic(
            parse_paragraph("a b -a -b"), parse_paragraph("b -a -b a")
        )

    def test_different_sizes(self):
        assert not is_isomorphic(parse_paragraph("a -a"), parse_paragraph("a b -a -b"))

    def test_relabel_plus_rotation(self):
        # a -b -a b maps onto a b -a -b by swapping a<->b then rotating by 3.
        assert is_isomorphic(
            parse_paragraph("a b -a -b"), parse_paragraph("a -b -a b")
        )
        assert naive_isomorphic(
            parse_paragraph("a b -a -b"), parse_paragraph("a -b -a b")
        )

    def test_genus_distinct_words_not_isomorphic(self):
        assert not is_isomorphic(
            parse_paragraph("a b -a -b"), parse_paragraph("a b -b -a")
        )

    def test_exponents_not_swappable(self):
        # A crossing and its reverse traversal are different objects.
        assert not is_isomorphic(
            parse_paragraph("a / -a b / -b"), parse_paragraph("a b / -a / -b")
        )
        assert not is_isomorphic(
            parse_paragraph("a -a b -b"), parse_paragraph("-a a b -b")
        )
        assert not naive_isomorphic(
            parse_paragraph("a -a b -b"), parse_paragraph("-a a b -b")
        )

    def test_matches_naive_search_on_corpus(self, words_le_3):
        sample = words_le_3[::7]
        for p in sample[:30]:
            for q in sample[:30]:
                assert is_isomorphic(p, q) == naive_isomorphic(p, q)

    def test_equivalence_relation(self, words_le_3):
        rng = random.Random(7)
        sample = rng.sample(words_le_3, 40)
        for p in sample:
            assert is_isomorphic(p, p)
        for p in sample[:15]:
            for q in sample[:15]:
                assert is_isomorphic(p, q) == is_isomorphic(q, p)

    def test_partition_agrees_with_naive(self, words_le_3):
        # Group the n=2 block two ways; the partitions must coincide.
        block = [p for p in words_le_3 if p.n == 2]
        canon_classes: dict = {}
        for p in block:
            canon_classes.setdefault(canonicalize(p), []).append(p)
        for cls in canon_classes.values():
            rep = cls[0]
            for other in cls[1:]:
                assert naive_isomorphic(rep, other)
        reps = [cls[0] for cls in canon_classes.values()]
        for i, p in enumerate(reps):
            for q in reps[i + 1 :]:
                assert not naive_isomorphic(p, q)


def moved(code, rng: random.Random):
    """A uniform random isomorph of ``code``."""
    n = sum(map(len, code)) // 2
    return _moved(code, n, _draw(rng.getrandbits, code, n))


def exponents_swapped(code, s: int):
    """``code`` with the two exponents of symbol ``s`` swapped."""
    return tuple(tuple(c ^ 1 if c >> 1 == s else c for c in w) for w in code)


def transposed(code, wi: int, k: int):
    """``code`` with letters ``k`` and ``k + 1`` of word ``wi`` swapped."""
    w = list(code[wi])
    w[k], w[k + 1] = w[k + 1], w[k]
    return (*code[:wi], tuple(w), *code[wi + 1 :])


def perturbed(code, rng: random.Random) -> list:
    """``code`` with one symbol's exponents swapped, and with two adjacent
    letters of one word transposed if a word has two letters or more: each
    still a valid code."""
    out = [exponents_swapped(code, rng.randrange(sum(map(len, code)) // 2))]
    long = [wi for wi, w in enumerate(code) if len(w) > 1]
    if long:
        wi = rng.choice(long)
        out.append(transposed(code, wi, rng.randrange(len(code[wi]) - 1)))
    for x in out:
        _paragraph(x).__post_init__()
    return out


def decided(a, b) -> bool:
    """``is_isomorphic`` on codes ``a`` and ``b``, checked to be symmetric."""
    verdict = is_isomorphic(_paragraph(a), _paragraph(b))
    assert is_isomorphic(_paragraph(b), _paragraph(a)) == verdict
    return verdict


class TestPropagation:
    """``is_isomorphic`` propagates one letter's image; the decision by
    canonical forms (``canonical_isomorphic``) and the brute force
    ``naive_isomorphic`` are its oracles."""

    @pytest.fixture(scope="class")
    def small_codes(self, word_codes_le_5, paragraph_codes_le_4):
        """Every word with n <= 4 and every two-component paragraph with
        n <= 3, in blocks of one kind and size."""
        blocks: dict = {}
        for code in [(w,) for w in word_codes_le_5 if len(w) <= 8] + [
            c for c in paragraph_codes_le_4 if sum(map(len, c)) <= 6
        ]:
            blocks.setdefault((len(code), sum(map(len, code))), []).append(code)
        return list(blocks.values())

    def test_small_codes_against_moved_copies_and_samples(self, small_codes):
        # Both ways against the moved copy, one way against the samples.
        rng = random.Random(30)
        wrong = []
        for block in small_codes:
            paragraphs = dict(zip(block, map(_paragraph, block)))
            for a, p in paragraphs.items():
                if not decided(a, moved(a, rng)):
                    wrong.append(a)
                for b in rng.sample(block, min(10, len(block))):
                    if is_isomorphic(p, paragraphs[b]) != canonical_isomorphic(a, b):
                        wrong.append((a, b))
        assert wrong == []
        assert sum(map(len, small_codes)) == 1814 + 586

    def test_small_codes_perturbed(self, small_codes):
        rng = random.Random(31)
        wrong = []
        for block in small_codes:
            for a in block:
                for x in perturbed(a, rng):
                    b = moved(x, rng)
                    if decided(a, b) != canonical_isomorphic(a, b):
                        wrong.append((a, b))
        assert wrong == []

    def test_naive_on_the_smallest_codes(self, small_codes):
        # Every word with n <= 3 and paragraph with n <= 2 against a moved
        # copy, a perturbed copy and three samples of its block.
        rng = random.Random(32)
        for block in small_codes:
            if sum(map(len, block[0])) > 6 - 2 * (len(block[0]) > 1):
                continue
            for a in block:
                others = [moved(a, rng), *(moved(x, rng) for x in perturbed(a, rng))]
                for b in others + rng.sample(block, min(3, len(block))):
                    want = naive_isomorphic(_paragraph(a), _paragraph(b))
                    assert decided(a, b) == want == canonical_isomorphic(a, b)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_stars_and_chains(self, k):
        rng = random.Random(k)
        for p in (star(k), symmetric_chain(k)):
            a = p._code
            others = [moved(a, rng) for _ in range(3)]
            others += [moved(x, rng) for _ in range(3) for x in perturbed(a, rng)]
            for b in others:
                want = canonical_isomorphic(a, b)
                assert decided(a, b) == want
                if k <= 2:
                    assert naive_isomorphic(p, _paragraph(b)) == want
            assert all(decided(a, b) for b in others[:3])

    @pytest.mark.parametrize("m", range(3, 9))
    def test_random_cuts(self, m):
        rng = random.Random(100 + m)
        for _ in range(4):
            a = random_cut(rng, m + rng.randrange(4), m)._code
            others = [moved(a, rng), *(moved(x, rng) for x in perturbed(a, rng))]
            others.append(random_cut(rng, sum(map(len, a)) // 2, m)._code)
            for b in others:
                want = canonical_isomorphic(a, b)
                assert decided(a, b) == want
                if m == 3 and sum(map(len, a)) <= 8:
                    assert naive_isomorphic(_paragraph(a), _paragraph(b)) == want
            assert decided(a, others[0])

    @settings(max_examples=60)
    @given(signed_paragraphs(1, 5), signed_paragraphs(1, 5), st.integers(0, 2**16))
    def test_hypothesis_paragraphs(self, p, q, seed):
        rng = random.Random(seed)
        copy = apply_random_moves(p, rng)
        swapped = _paragraph(moved(perturbed(p._code, rng)[0], rng))
        for x, y in ((p, q), (p, copy), (p, swapped)):
            want = canonical_isomorphic(x._code, y._code)
            assert is_isomorphic(x, y) == is_isomorphic(y, x) == want
            assert want == naive_isomorphic(x, y) == (canonicalize(x) == canonicalize(y))
        assert is_isomorphic(p, copy)

    def test_word_lengths_are_checked(self):
        # The key multisets agree, and a propagation that maps a word onto
        # one of another length meets no conflict of exponent or symbol.
        a = ((0, 2, 6, 3), (7, 5, 4, 8), (1, 9))
        b = ((7, 6, 0, 3), (9, 1), (4, 8, 5, 2))
        assert not decided(a, b)
        assert not canonical_isomorphic(a, b)
        assert not naive_isomorphic(_paragraph(a), _paragraph(b))

    def test_decides_without_a_canonical_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a canonical form was computed")

        for name in ("_canonical", "canonicalize", "_canonical_search", "_canonical_word"):
            monkeypatch.setattr(sgauss.model, name, refuse)
        rng = random.Random(15)
        a = star(15)._code
        assert decided(a, moved(a, rng))
        assert not decided(a, moved(exponents_swapped(a, 0), rng))
        assert is_isomorphic(parse_paragraph("a b -a -b"), parse_paragraph("b -a -b a"))
        assert not is_isomorphic(parse_paragraph("a b -a -b"), parse_paragraph("a b -b -a"))


@st.composite
def letter_texts(draw):
    """A valid paragraph built from letters, and its text with every -1
    letter written as "-a" or "a^-1" at random."""
    p = draw(signed_paragraphs(1, 6))
    text = " / ".join(
        " ".join(
            draw(st.sampled_from([f"-{l.sym}", f"{l.sym}^-1"])) if l.exp < 0 else l.sym
            for l in w
        )
        for w in words_of(p)
    )
    return p, text


class TestStoredCode:
    """A paragraph is its symbol names and its code, and nothing else."""

    @given(letter_texts())
    def test_parsed_equals_built_from_letters(self, case):
        p, text = case
        parsed, built = parse_paragraph(text), paragraph(words_of(p))
        assert words_of(parsed) == words_of(built) == words_of(p)
        assert parsed == built and hash(parsed) == hash(built)
        assert str(parsed) == str(built) == str(p)
        assert parsed.alphabet == built.alphabet
        assert (parsed._names, parsed._code) == (built._names, built._code)

    @given(signed_paragraphs(1, 6), st.integers(0, 2**16))
    def test_equality_ignores_the_numbering(self, p, seed):
        # The moves number symbols in sorted-name order, the parser by
        # first appearance; equal words make equal paragraphs either way.
        moved = apply_random_moves(p, random.Random(seed))
        again = parse_paragraph(render(moved))
        assert again == moved and hash(again) == hash(moved)
        assert words_of(again) == words_of(moved)

    def test_immutable(self):
        p = parse_paragraph("a -a")
        with pytest.raises(AttributeError):
            p._code = ((0, 1),)

    def test_stores_names_and_code_only(self):
        # Letter addresses are found in the code by the operations that
        # need them, and letters are not stored.
        assert SignedParagraph.__slots__ == ("_names", "_code")


class TestRelabel:
    def test_requires_injective(self):
        p = parse_paragraph("a b -a -b")
        with pytest.raises(OperationError):
            relabel(p, {"a": "c", "b": "c"})

    def test_roundtrip(self):
        p = parse_paragraph("a b -a -b")
        q = relabel(p, {"a": "x", "b": "y"})
        assert render(q) == "x y -x -y"
        assert relabel(q, {"x": "a", "y": "b"}) == p

    @pytest.mark.parametrize("target", ["-c", "c^-1", "1c", "c d", ""])
    def test_target_must_be_a_symbol(self, target):
        # Otherwise the result renders as text that does not parse back.
        with pytest.raises(OperationError):
            relabel(parse_paragraph("a b -a -b"), {"a": target})

    def test_no_two_symbols_share_a_name(self):
        with pytest.raises(OperationError):
            relabel(parse_paragraph("a b -a -b"), {"a": "b"})

    def test_target_not_a_string(self):
        # A GaussError, not the TypeError of matching a non-string.
        with pytest.raises(OperationError, match="^target 1 is not a valid symbol token$"):
            relabel(parse_paragraph("a b -a -b"), {"a": 1})

    def test_unhashable_target(self):
        # Checked as a token before the injectivity set hashes it.
        with pytest.raises(OperationError, match=r"^target \['x'\] is not a valid symbol token$"):
            relabel(parse_paragraph("a b -a -b"), {"a": ["x"]})

    def test_swap_renders_and_parses_back(self):
        q = relabel(parse_paragraph("a -b / -a b"), {"a": "b", "b": "a_2"})
        assert render(q) == "b -a_2 / -b a_2"
        assert parse_paragraph(render(q)) == q


class TestOccurrenceIndex:
    """The letters of a symbol, which ``join`` finds in the code."""

    def test_resolution(self):
        p = parse_paragraph("a -b / -a b")
        assert addresses(p)["b"] == ((1, 1), (0, 1))
        # From b's +1 letter in word 1, then from its -1 letter in word 0.
        assert render(join(p, "b", "c")) == "b -a c -b a -c"

    def test_missing_symbol(self):
        with pytest.raises(OperationError, match="symbol 'z' not in paragraph"):
            join(parse_paragraph("a -b / -a b"), "z", "c")
