"""Differential test of the script scanner against a character-loop reference.

`reference_tokenize` walks the text one character per loop turn, where
`dsl.tokenize` scans it line by line.  Both must give the same
(kind, value, line, column) tuples, the same EOF position, and the same
errors.
"""

import glob
import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowcalc.dsl import ParseError, tokenize

ROOT = os.path.join(os.path.dirname(__file__), "..")

_PUNCT = ("==", "+", "-", "*", "^", "(", ")", ",", ";", "=")


def reference_tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append((p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def scan(tokenizer, text):
    """The tokens of `text`, or the (message, line, col) of its error."""
    try:
        return tokenizer(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def assert_same_scan(text):
    assert scan(tokenize, text) == scan(reference_tokenize, text)


# characters whose class differs between str methods and `re`: a letter, a
# decimal that is not ASCII, digits and numerals that are not decimal,
# blanks that are not separators, and line breaks of `splitlines` that do
# not end a script line
SPECIAL = "\t\r\n#$é²½Ⅷ٣ß\x0b\x0c\x85\u2028"


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(max_codepoint=127) | st.sampled_from(SPECIAL)))
def test_scanner_matches_the_reference_on_random_text(text):
    assert_same_scan(text)


@pytest.mark.parametrize(
    "text",
    ["", "²", "a²", "_½", "٣é", "1Ⅷ", "x\x0by",
     "a==b", "===", "#é\nß", "let a = 1 # no semicolon", "\r\n\t\n",
     # line-wise scanning: CRLF line ends, a number run into a name, a
     # comment right after a token or in column 1, trailing blank lines, a
     # last line without a line end, and characters that `splitlines` takes
     # for line breaks but the script language refuses
     "let a = 1;\r\ncheck a == 1;\r\n", "12ab", "x#c", "#c\nx", "x\n\n\n",
     "x\ny", "x\x0cy", "x\x85y", "x\u2028y", "a\n\x0c"],
)
def test_scanner_matches_the_reference_on_edge_cases(text):
    assert_same_scan(text)


def _chow_scripts():
    paths = glob.glob(os.path.join(ROOT, "**", "*.chow"), recursive=True)
    scripts = {}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            scripts[os.path.relpath(path, ROOT)] = fh.read()
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", os.path.join(ROOT, "bench", "inputs.py")
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for seed in range(5):
        scripts["chow_script(%d)" % seed] = inputs.chow_script(seed)
    return scripts


def test_scanner_matches_the_reference_on_every_script():
    scripts = _chow_scripts()
    assert {"examples/so4.chow", "src/chowcalc/so4.chow",
            "tests/golden/wide.chow", "chow_script(4)"} <= scripts.keys()
    for text in scripts.values():
        assert isinstance(scan(tokenize, text), list)
        assert_same_scan(text)
