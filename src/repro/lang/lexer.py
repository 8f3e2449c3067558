"""Hand-written lexer for MiniPar.

MiniPar source is what the simulated LLMs emit, so the lexer must reject
malformed text with precise positions — injected "syntax error" bugs are
caught here or in the parser, just as GCC would reject malformed C++.
"""

from __future__ import annotations

from typing import List

from .errors import LexError
from .tokens import ONE_CHAR, TWO_CHAR, TokKind, Token

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


class Lexer:
    """Converts MiniPar source text into a token list."""

    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.src) and self.src[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments (// line and /* block */)."""
        while self.pos < len(self.src):
            c = self._peek()
            if c in " \t\r\n":
                self._advance()
            elif c == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif c == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.src):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start_line, start_col)
            else:
                return

    def _lex_number(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        while self._peek() in _DIGITS:
            self._advance()
        is_float = False
        # A '.' begins a fractional part only if NOT '..' (range operator).
        if self._peek() == "." and self._peek(1) != ".":
            is_float = True
            self._advance()
            if self._peek() not in _DIGITS:
                raise LexError("digit expected after decimal point", self.line, self.col)
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() in ("e", "E"):
            is_float = True
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            if self._peek() not in _DIGITS:
                raise LexError("malformed exponent", self.line, self.col)
            while self._peek() in _DIGITS:
                self._advance()
        text = self.src[start : self.pos]
        return Token(TokKind.FLOAT if is_float else TokKind.INT, text, line, col)

    def _lex_name(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        while self._peek() in _IDENT_CONT:
            self._advance()
        text = self.src[start : self.pos]
        return Token(TokKind.NAME, text, line, col)

    def _lex_string(self) -> Token:
        line, col = self.line, self.col
        self._advance()  # opening quote
        start = self.pos
        while self._peek() not in ('"', ""):
            if self._peek() == "\n":
                raise LexError("unterminated string literal", line, col)
            self._advance()
        if self._peek() != '"':
            raise LexError("unterminated string literal", line, col)
        text = self.src[start : self.pos]
        self._advance()  # closing quote
        return Token(TokKind.STRING, text, line, col)

    def tokens(self) -> List[Token]:
        """Lex the whole input, returning tokens ending with EOF."""
        out: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.src):
                out.append(Token(TokKind.EOF, "", self.line, self.col))
                return out
            c = self._peek()
            if c in _DIGITS:
                out.append(self._lex_number())
            elif c in _IDENT_START:
                out.append(self._lex_name())
            elif c == '"':
                out.append(self._lex_string())
            else:
                two = c + self._peek(1)
                if two in TWO_CHAR:
                    out.append(Token(TWO_CHAR[two], two, self.line, self.col))
                    self._advance(2)
                elif c in ONE_CHAR:
                    out.append(Token(ONE_CHAR[c], c, self.line, self.col))
                    self._advance()
                else:
                    raise LexError(f"unexpected character {c!r}", self.line, self.col)


def lex(source: str) -> List[Token]:
    """Tokenize ``source``; raise :class:`LexError` on malformed input."""
    return Lexer(source).tokens()
