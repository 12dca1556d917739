"""Star queries answered from the raw triples: the oracle of ``KGStore.execute``.

``repro.kgstore`` answers a :class:`StarQuery` from dictionary-encoded
ids, a physical layout and — on the pushdown plan — the spatio-temporal
slot embedded in each id. This module answers the same query from the
``Triple`` list alone, sharing none of that state: group the triples by
subject, keep a subject that has every arm's predicate, whose fixed
objects match, whose repeated variables agree and — under an
:class:`STConstraint` — whose own ``asWKT`` point and ``timestamp``
literal lie in the range. No ``Dictionary``, no layout, no slots, so an
id minted in the wrong cell cannot fool both sides at once.

Defined for graphs in which every (subject, arm predicate) pair a query
reads has one object. A star row carries one object per arm in every
layout, but the layouts do not agree on *which* one of a multi-valued
property (the property table keeps the last loaded, the semi-join
cascade the last that passed the arm's filter), so the oracle refuses
such input rather than pick a side. Row order is layout-specific too:
compare with :func:`canonical`.
"""

from __future__ import annotations

from repro.geo import parse_point
from repro.kgstore import StarQuery
from repro.rdf import Literal, Term, Triple, VOC, Variable


def star_bindings(triples: list[Triple], query: StarQuery) -> list[dict[str, Term]]:
    """The query's bindings, one per matching subject, in first-seen order."""
    by_subject: dict[Term, dict[Term, Term]] = {}
    predicates = [p for p, _ in query.arms]
    for tr in triples:
        props = by_subject.setdefault(tr.s, {})
        if props.setdefault(tr.p, tr.o) != tr.o and tr.p in predicates:
            raise ValueError(f"{tr.s} has two objects for {tr.p}: not a graph this oracle judges")
    bindings = []
    for subject, props in by_subject.items():
        binding = _bind(subject, props, query)
        if binding is not None and (query.st is None or _in_range(props, query)):
            bindings.append(binding)
    return bindings


def _bind(subject: Term, props: dict[Term, Term], query: StarQuery) -> dict[str, Term] | None:
    binding = {query.subject.name: subject}
    for predicate, obj in query.arms:
        value = props.get(predicate)
        if value is None:
            return None
        if not isinstance(obj, Variable):
            if value != obj:
                return None
        elif binding.setdefault(obj.name, value) != value:
            return None
    return binding


def _in_range(props: dict[Term, Term], query: StarQuery) -> bool:
    wkt, stamp = props.get(VOC.asWKT), props.get(VOC.timestamp)
    if not isinstance(wkt, Literal) or not isinstance(stamp, Literal):
        return False
    point = parse_point(wkt.value)
    return query.st.contains(point.lon, point.lat, float(stamp.value))


def canonical(bindings: list[dict[str, Term]]) -> list[list[tuple[str, str]]]:
    """Bindings as an order-free, comparable value."""
    return sorted(sorted((name, str(term)) for name, term in b.items()) for b in bindings)
