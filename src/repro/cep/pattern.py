"""Event patterns as regular expressions (Section 6).

Complex events are defined by regular expressions over the low-level
event alphabet, where sub-patterns are related through **sequence**,
**disjunction** or **iteration** — exactly the three operators the paper
names. Patterns can be built from :class:`Sym` with combinators
(:func:`seq`, :func:`disj`, :func:`star`, :func:`plus`) or parsed from a
compact text form::

    cih_n ; (cih_n | cih_e)* ; cih_s

which is the paper's NorthToSouthReversal pattern R = N (N + E)* S.
"""

from __future__ import annotations

from dataclasses import dataclass


class Pattern:
    """Base class of the regular-expression AST."""

    def symbols(self) -> set[str]:
        """Every symbol mentioned by the pattern."""
        raise NotImplementedError


@dataclass(frozen=True)
class Sym(Pattern):
    """A single event type."""

    symbol: str

    def symbols(self) -> set[str]:
        return {self.symbol}

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class Seq(Pattern):
    """Sequence: parts in order."""

    parts: tuple[Pattern, ...]

    def symbols(self) -> set[str]:
        return set().union(*(p.symbols() for p in self.parts)) if self.parts else set()

    def __str__(self) -> str:
        return " ; ".join(f"({p})" if isinstance(p, Or) else str(p) for p in self.parts)


@dataclass(frozen=True)
class Or(Pattern):
    """Disjunction: any one alternative."""

    parts: tuple[Pattern, ...]

    def symbols(self) -> set[str]:
        return set().union(*(p.symbols() for p in self.parts)) if self.parts else set()

    def __str__(self) -> str:
        return " | ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Star(Pattern):
    """Iteration: zero or more repetitions."""

    inner: Pattern

    def symbols(self) -> set[str]:
        return self.inner.symbols()

    def __str__(self) -> str:
        inner = str(self.inner)
        return f"({inner})*" if (" " in inner or "|" in inner) else f"{inner}*"


def seq(*parts: Pattern) -> Pattern:
    if not parts:
        raise ValueError("empty sequence pattern")
    return parts[0] if len(parts) == 1 else Seq(tuple(parts))


def disj(*parts: Pattern) -> Pattern:
    if not parts:
        raise ValueError("empty disjunction pattern")
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def star(inner: Pattern) -> Star:
    return Star(inner)


def plus(inner: Pattern) -> Pattern:
    """One or more repetitions (sequence of the pattern and its star)."""
    return Seq((inner, Star(inner)))


class PatternSyntaxError(ValueError):
    """Raised on malformed pattern text."""


def parse_pattern(text: str) -> Pattern:
    """Parse the compact text form (``;`` sequence, ``|`` disjunction, ``*``)."""
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    pattern = parser.parse_alternation()
    if parser.peek() is not None:
        raise PatternSyntaxError(f"unexpected trailing token {parser.peek()!r}")
    return pattern


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    buf: list[str] = []
    for ch in text:
        if ch.isalnum() or ch == "_":
            buf.append(ch)
            continue
        if buf:
            tokens.append("".join(buf))
            buf = []
        if ch in "();|*+":
            tokens.append(ch)
        elif ch.isspace():
            continue
        else:
            raise PatternSyntaxError(f"unexpected character {ch!r}")
    if buf:
        tokens.append("".join(buf))
    return tokens


class _Parser:
    """Recursive descent over the token list."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise PatternSyntaxError("unexpected end of pattern")
        self.pos += 1
        return token

    def parse_alternation(self) -> Pattern:
        parts = [self.parse_sequence()]
        while self.peek() == "|":
            self.advance()
            parts.append(self.parse_sequence())
        return disj(*parts)

    def parse_sequence(self) -> Pattern:
        parts = [self.parse_postfix()]
        while True:
            token = self.peek()
            if token == ";":
                self.advance()
                parts.append(self.parse_postfix())
            elif token is not None and token not in ")|;*+":
                # Adjacent atoms also count as a sequence.
                parts.append(self.parse_postfix())
            else:
                break
        return seq(*parts)

    def parse_postfix(self) -> Pattern:
        atom = self.parse_atom()
        while self.peek() in ("*", "+"):
            op = self.advance()
            atom = star(atom) if op == "*" else plus(atom)
        return atom

    def parse_atom(self) -> Pattern:
        token = self.advance()
        if token == "(":
            inner = self.parse_alternation()
            if self.advance() != ")":
                raise PatternSyntaxError("missing closing parenthesis")
            return inner
        if token in ");|*+":
            raise PatternSyntaxError(f"unexpected token {token!r}")
        return Sym(token)
