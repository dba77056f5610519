import io

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given

from preord.alexandroff import preorder_to_space
from preord.docio import Document, DocumentError, dumps, load, loads, save
from preord.pretorsion import reflect
from preord.relations import FinPreorder, FinSet, identity_morphism

RUNNING = """\
preord 1

object P
  points a b c
  edge a b
  edge b a
  edge b c
"""

WITH_MORPHISM = """\
preord 1

object P
  points a b c
  edge a b
  edge b a
  edge b c

object Q
  points x y
  edge x y

morphism f P Q
  send a x
  send b x
  send c y
"""


class TestLoad:
    def test_minimal_document(self):
        doc = loads("preord 1\nobject P\n  points a\n")
        assert doc.preorders["P"] == FinPreorder.discrete(1, ("a",))

    def test_closure_applied(self):
        doc = loads(RUNNING)
        p = doc.preorders["P"]
        assert set(p.rel.pairs()) == {
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 2),
        }

    def test_morphism_block(self):
        doc = loads(WITH_MORPHISM)
        f = doc.morphisms["f"]
        assert f.map.values == (0, 0, 1)
        assert doc.morphism_ends["f"] == ("P", "Q")

    def test_unknown_point_in_edge(self):
        bad = "preord 1\nobject P\n  points a\n  edge a z\n"
        with pytest.raises(DocumentError, match=r"line 4.*unknown point 'z'.*edge"):
            loads(bad)

    def test_missing_version(self):
        with pytest.raises(DocumentError, match="version header"):
            loads("object P\n  points a\n")

    def test_unsupported_version(self):
        with pytest.raises(DocumentError, match="unsupported"):
            loads("preord 9\n")

    def test_unknown_keyword(self):
        with pytest.raises(DocumentError, match="unknown keyword 'edges'"):
            loads("preord 1\nobject P\n  points a\n  edges a a\n")

    def test_duplicate_point(self):
        with pytest.raises(DocumentError, match="duplicate point"):
            loads("preord 1\nobject P\n  points a a\n")

    def test_duplicate_object_name(self):
        with pytest.raises(DocumentError, match="duplicate name"):
            loads("preord 1\nobject P\n  points a\nobject P\n  points b\n")

    def test_morphism_unknown_object(self):
        bad = "preord 1\nobject P\n  points a\nmorphism f P Z\n  send a a\n"
        with pytest.raises(DocumentError, match="unknown object 'Z'"):
            loads(bad)

    def test_morphism_missing_send(self):
        bad = WITH_MORPHISM.replace("  send c y\n", "")
        with pytest.raises(DocumentError, match="does not send point 'c'"):
            loads(bad)

    def test_morphism_duplicate_send(self):
        bad = WITH_MORPHISM + "  send c y\n"
        with pytest.raises(DocumentError, match="sent twice"):
            loads(bad)

    def test_non_monotone_morphism(self):
        bad = """\
preord 1
object P
  points a b
  edge a b
object Q
  points x y
morphism f P Q
  send a x
  send b y
"""
        with pytest.raises(DocumentError, match="not monotone"):
            loads(bad)

    def test_comments_and_blanks(self):
        text = "# heading\npreord 1\n\nobject P # inline\n  points a b\n  edge a b # more\n"
        doc = loads(text)
        assert doc.preorders["P"].leq(0, 1)

    def test_load_from_stream(self):
        doc = load(io.StringIO(RUNNING))
        assert "P" in doc.preorders


class TestStrictMode:
    def test_rejects_unclosed_edges(self):
        with pytest.raises(DocumentError, match="not closed: missing edge a a"):
            loads(RUNNING, strict=True)

    def test_accepts_closed_relation(self):
        text = dumps(loads(RUNNING))
        doc = loads(text, strict=True)
        assert doc.preorders["P"] == loads(RUNNING).preorders["P"]

    def test_names_missing_transitive_edge(self):
        text = """\
preord 1
object P
  points a b c
  edge a a
  edge b b
  edge c c
  edge a b
  edge b c
"""
        with pytest.raises(DocumentError, match="missing edge a c"):
            loads(text, strict=True)


class TestRoundTrip:
    def test_save_load_identity_on_canonical(self):
        doc = loads(WITH_MORPHISM)
        text = dumps(doc)
        assert dumps(loads(text)) == text

    def test_objects_survive(self):
        doc = loads(WITH_MORPHISM)
        again = loads(dumps(doc))
        assert again.preorders == doc.preorders
        assert again.morphisms == doc.morphisms
        assert again.morphism_ends == doc.morphism_ends

    def test_space_round_trip(self):
        doc = Document()
        doc.add_space("S", preorder_to_space(FinPreorder.chain(2, ("u", "v"))))
        text = dumps(doc)
        assert "nbhd v u v" in text
        again = loads(text)
        assert again.spaces == doc.spaces

    def test_save_to_stream(self):
        buffer = io.StringIO()
        save(loads(RUNNING), buffer)
        assert buffer.getvalue().startswith("preord 1")

    def test_empty_object_round_trip(self):
        doc = Document()
        doc.add_preorder("E", FinPreorder.discrete(0))
        again = loads(dumps(doc))
        assert again.preorders["E"].size == 0


@st.composite
def labelled_preorders(draw):
    """A preorder, possibly empty, on default labels or on explicit labels
    drawn from all text ``FinSet`` accepts."""
    labels = draw(st.none() | st.lists(st.text(min_size=1, max_size=6), max_size=5, unique=True))
    if labels is None:
        n = draw(st.integers(0, 5))
    else:
        n = len(labels)
        labels = tuple(labels)
        try:
            FinSet(n, labels)
        except ValueError:
            assume(False)
    if n == 0:
        return FinPreorder.discrete(0, labels)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return FinPreorder.from_edges(n, edges, labels)


class TestLabels:
    @given(labelled_preorders())
    @example(FinPreorder.chain(2, ('q"x', "b\\y")))
    @example(FinPreorder.chain(2))
    @example(reflect(FinPreorder.discrete(0)).poset)
    def test_every_accepted_label_round_trips(self, p):
        doc = Document()
        doc.add_preorder("P", p)
        doc.add_space("S", preorder_to_space(p))
        doc.add_morphism("f", identity_morphism(p), "P", "P")
        assert loads(dumps(doc)) == doc

    @pytest.mark.parametrize("label", ["a#b", "#", "a b", ""])
    def test_labels_documents_cannot_carry_are_rejected(self, label):
        with pytest.raises(ValueError, match="printable token"):
            FinSet(1, (label,))

    @pytest.mark.parametrize("name", ["a#b", "a b", ""])
    def test_names_documents_cannot_carry_are_rejected(self, name):
        with pytest.raises(DocumentError, match="printable token"):
            Document().add_preorder(name, FinPreorder.discrete(1))
