"""Front-end fuzz: token-level edits of corpus sources never crash.

Hypothesis picks a corpus source and applies a few token-level edits:
drop a token, copy one to another place, or swap two.  Whatever text
comes out, ``lint_source`` returns a diagnostic list and
``compile_sample`` returns a program or a reason; neither raises.  Each
edited token keeps the whitespace and comments that followed it, so the
layout stays close to the original and most mutants get past the lexer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.runner import compile_sample
from repro.lang.lexer import lex
from repro.lang.tokens import TokKind
from repro.lint import lint_source
from repro.models.solutions import corpus

CORPUS = [(model, source) for _, model, source in corpus()]


def _pieces(source: str):
    """``(head, pieces)``: the text before the first token, then each
    token's text together with the trivia up to the next token."""
    line_starts = [0]
    for k, ch in enumerate(source):
        if ch == "\n":
            line_starts.append(k + 1)
    starts = [line_starts[t.line - 1] + t.col - 1
              for t in lex(source) if t.kind is not TokKind.EOF]
    bounds = starts + [len(source)]
    return source[:starts[0]], [source[a:b]
                                for a, b in zip(bounds, bounds[1:])]


@st.composite
def edited_sources(draw):
    model, source = draw(st.sampled_from(CORPUS))
    head, pieces = _pieces(source)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        op = draw(st.sampled_from(("drop", "dup", "swap")))
        k = draw(st.integers(min_value=0, max_value=len(pieces) - 1))
        j = draw(st.integers(min_value=0, max_value=len(pieces) - 1))
        if op == "drop" and len(pieces) > 1:
            del pieces[k]
        elif op == "dup":
            pieces.insert(j, pieces[k])
        else:
            pieces[k], pieces[j] = pieces[j], pieces[k]
    return model, head + "".join(pieces)


def test_pieces_reassemble_the_source():
    for _, source in CORPUS:
        head, pieces = _pieces(source)
        assert head + "".join(pieces) == source


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edited_sources())
def test_lint_and_compile_never_raise(case):
    model, source = case
    diags = lint_source(source, model)
    assert isinstance(diags, list)
    program, reason = compile_sample(source, model)
    assert (program is None) != (reason is None)
