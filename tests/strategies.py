"""Hypothesis strategies for preorders and monotone maps."""

import hypothesis.strategies as st
from hypothesis import assume
from hypothesis.errors import InvalidArgument

from preord.relations import FinPreorder, FinSet, PreordMorphism, Relation, SetMap, _bits


@st.composite
def preorders(draw, max_size: int = 8, min_size: int = 0):
    n = draw(st.integers(min_size, max_size))
    if n == 0:
        return FinPreorder.discrete(0)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    return FinPreorder.from_edges(n, edges)


# Printable tokens that spell what the library itself writes as labels:
# points ``a`` and ``b`` make the class label ``{a,b}``, and so does the
# point ``a,b`` alone; ``{a}`` and ``(a,b)`` are class and pair labels, and
# ``0`` and ``1`` the default labels.  The pool is small, so a drawn
# preorder often holds colliding tokens.
ADVERSARIAL_LABELS = ("a", "b", "a,b", "{a}", "{a,b}", "(a,b)", "0", "1", "0,1")


@st.composite
def labelled_preorders(draw, max_size: int = 6):
    """A preorder of ``preorders`` relabelled by distinct tokens drawn from
    ``ADVERSARIAL_LABELS``."""
    p = draw(preorders(max_size))
    tokens = st.sampled_from(ADVERSARIAL_LABELS)
    labels = draw(st.lists(tokens, min_size=p.size, max_size=p.size, unique=True))
    carrier = FinSet(p.size, tuple(labels))
    return FinPreorder(carrier, Relation(carrier, carrier, p.rel.rows))


@st.composite
def endorelations(draw, max_size: int = 5):
    n = draw(st.integers(0, max_size))
    carrier = FinPreorder.discrete(n).carrier
    if n == 0:
        return Relation(carrier, carrier, ())
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * n,
        )
    )
    return Relation.from_pairs(carrier, carrier, pairs)


@st.composite
def endorelation_pairs(draw, max_size: int = 5, count: int = 2):
    """Several endorelations sharing one carrier."""
    n = draw(st.integers(0, max_size))
    carrier = FinSet(n)
    rels = []
    for _ in range(count):
        rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
        rels.append(Relation(carrier, carrier, rows))
    return tuple(rels)


@st.composite
def monotone_maps(draw, max_size: int = 6, src=None, dst=None):
    """Build a monotone map by choosing images along a linear extension.

    When ``dst`` is empty the drawn source is empty too; a given nonempty
    source has no map into an empty ``dst`` and raises ``InvalidArgument``.
    """
    if src is not None:
        p = src
    else:
        p = draw(preorders(max_size if dst is None or dst.size else 0))
    q = dst if dst is not None else draw(preorders(max_size, min_size=1 if p.size else 0))
    if p.size == 0:
        return PreordMorphism(p, q, SetMap(p.carrier, q.carrier, ()))
    if q.size == 0:
        raise InvalidArgument("no map from a nonempty source into an empty target")
    order = sorted(range(p.size), key=lambda a: (-p.rel.rows[a].bit_count(), a))
    qcols = {b: 0 for b in range(q.size)}
    for b in range(q.size):
        for c in _bits(q.rel.rows[b]):
            qcols[c] |= 1 << b
    values = [-1] * p.size
    for a in order:
        allowed = (1 << q.size) - 1
        for b in order:
            if values[b] < 0 or b == a:
                continue
            if p.rel.rows[b] >> a & 1:
                allowed &= q.rel.rows[values[b]]
            if p.rel.rows[a] >> b & 1:
                allowed &= qcols[values[b]]
        choices = list(_bits(allowed))
        assume(choices)
        values[a] = draw(st.sampled_from(choices))
    return PreordMorphism(p, q, SetMap(p.carrier, q.carrier, tuple(values)))
