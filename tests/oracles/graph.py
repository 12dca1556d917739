"""The graph that indexes on write: the oracle of ``repro.rdf.Graph``.

``repro.rdf.Graph`` builds its subject, predicate and object indexes
when they are read. This is the graph it replaced: every ``add`` and
``discard`` updates all three indexes at once. Both apply the same
inserts and discards to each index set in the same order, so
``tests/test_rdf.py::TestLazyIndexes`` requires every return value to
be equal, and every order too (``match``, ``query_bgp`` solutions and
iteration).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.rdf.terms import IRI, PatternTerm, Term, Triple, Variable, is_ground


class EagerGraph:
    """A set of triples with SPO/POS/OSP hash indexes, kept up to date on every write."""

    def __init__(self):
        self._triples: set[Triple] = set()
        self._by_s: dict[Term, set[Triple]] = {}
        self._by_p: dict[IRI, set[Triple]] = {}
        self._by_o: dict[Term, set[Triple]] = {}

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False if it was already present."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_s.setdefault(triple.s, set()).add(triple)
        self._by_p.setdefault(triple.p, set()).add(triple)
        self._by_o.setdefault(triple.o, set()).add(triple)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many; returns how many were new."""
        return sum(1 for t in triples if self.add(t))

    def discard(self, triple: Triple) -> bool:
        """Remove a triple if present."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        self._by_s[triple.s].discard(triple)
        self._by_p[triple.p].discard(triple)
        self._by_o[triple.o].discard(triple)
        return True

    def match(
        self,
        s: PatternTerm | None = None,
        p: PatternTerm | None = None,
        o: PatternTerm | None = None,
    ) -> Iterator[Triple]:
        """All triples matching the pattern; None or a Variable is a wildcard."""
        s_fixed = s if s is not None and is_ground(s) else None
        p_fixed = p if p is not None and is_ground(p) else None
        o_fixed = o if o is not None and is_ground(o) else None
        # Choose the most selective index available.
        candidates: Iterable[Triple]
        if s_fixed is not None:
            candidates = self._by_s.get(s_fixed, set())
        elif o_fixed is not None:
            candidates = self._by_o.get(o_fixed, set())
        elif p_fixed is not None:
            candidates = self._by_p.get(p_fixed, set())
        else:
            candidates = self._triples
        for t in candidates:
            if p_fixed is not None and t.p != p_fixed:
                continue
            if s_fixed is not None and t.s != s_fixed:
                continue
            if o_fixed is not None and t.o != o_fixed:
                continue
            yield t

    def objects(self, s: Term | None = None, p: IRI | None = None) -> set[Term]:
        """Distinct objects of triples matching (s, p, ?)."""
        return {t.o for t in self.match(s, p, None)}

    def value(self, s: Term, p: IRI) -> Term | None:
        """A single object of (s, p, ?), or None; raises if ambiguous."""
        objs = self.objects(s, p)
        if not objs:
            return None
        if len(objs) > 1:
            raise ValueError(f"value({s}, {p}) is ambiguous: {len(objs)} objects")
        return next(iter(objs))

    def query_bgp(self, patterns: list[tuple[PatternTerm, PatternTerm, PatternTerm]]) -> list[dict[str, Term]]:
        """Evaluate a basic graph pattern by backtracking join.

        Returns one binding dict per solution, by the same join as
        ``repro.rdf.Graph.query_bgp``.
        """
        solutions: list[dict[str, Term]] = []

        def substitute(term: PatternTerm, binding: dict[str, Term]) -> PatternTerm:
            if isinstance(term, Variable) and term.name in binding:
                return binding[term.name]
            return term

        def backtrack(idx: int, binding: dict[str, Term]) -> None:
            if idx == len(patterns):
                solutions.append(dict(binding))
                return
            s, p, o = (substitute(term, binding) for term in patterns[idx])
            for triple in self.match(s, p, o):
                extension = dict(binding)
                ok = True
                for pattern_term, actual in ((s, triple.s), (p, triple.p), (o, triple.o)):
                    if isinstance(pattern_term, Variable):
                        if extension.get(pattern_term.name, actual) != actual:
                            ok = False
                            break
                        extension[pattern_term.name] = actual
                    elif pattern_term != actual:
                        ok = False
                        break
                if ok:
                    backtrack(idx + 1, extension)

        backtrack(0, {})
        return solutions
