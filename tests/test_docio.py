import io
import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given

from preord import oracle
from preord.alexandroff import preorder_to_space
from preord.docio import Document, DocumentError, dumps, load, loads, save
from preord.pretorsion import reflect
from preord.relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    identity_morphism,
    reflexive_transitive_closure,
)

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


HEAD = "preord 1\n"
OBJ = HEAD + "object P\n  points a b\n"
TWO = OBJ + "object Q\n  points x y\n  edge x y\n"

# (text, strict, the exact message, or None for a document that loads)
ERRORS = {
    "empty": ("", False, "empty document: missing version header 'preord 1'"),
    "blank-and-comment-only": ("# nothing\n\n", False, "empty document: missing version header 'preord 1'"),
    "missing-version": ("object P\n  points a\n", False, "line 1: expected version header 'preord 1'"),
    "version-arity": ("preord 1 2\n", False, "line 1: expected version header 'preord 1'"),
    "unsupported-version": ("# c\npreord 9\n", False, "line 2: unsupported format version '9'"),
    "unknown-keyword": (OBJ + "  edges a b\n", False, "line 4: unknown keyword 'edges'"),
    "edge-before-object": (HEAD + "edge a b\n", False, "line 2: 'edge' outside an object block"),
    "edge-in-space": (HEAD + "space S\n  points a\n  edge a a\n", False, "line 4: 'edge' outside an object block"),
    "edge-one-point": (OBJ + "  edge a\n", False, "line 4: 'edge' takes exactly two points"),
    "edge-three-points": (OBJ + "  edge a b a\n", False, "line 4: 'edge' takes exactly two points"),
    "edge-unknown-first": (OBJ + "  edge a a\n  edge z b\n", False, "line 5: unknown point 'z' in edge z b of object 'P'"),
    "edge-unknown-second": (OBJ + "  edge a z\n", False, "line 4: unknown point 'z' in edge a z of object 'P'"),
    "edge-both-unknown": (OBJ + "  edge y z\n", False, "line 4: unknown point 'y' in edge y z of object 'P'"),
    "edge-unknown-in-second-object": (
        OBJ + "  edge a b\nobject R\n  points c\n  edge c d\n", False,
        "line 7: unknown point 'd' in edge c d of object 'R'",
    ),
    "points-after-edge": (HEAD + "object P\n  points a\n  edge a b\n  points b\n", False, None),
    "syntax-after-unknown-point": (OBJ + "  edge a z\nobject R\n  nonsense\n", False, "line 6: unknown keyword 'nonsense'"),
    "duplicate-points": (HEAD + "object P\n  points a b\n  points c a\n", False, "line 3: duplicate point 'a' in object 'P'"),
    "duplicate-object": (OBJ + "space P\n  points a\n", False, "duplicate name 'P'"),
    "comment-inside-edge": (OBJ + "  edge a # b\n", False, "line 4: 'edge' takes exactly two points"),
    "comment-after-edge": (OBJ + "  edge a b # c\n", False, None),
    "object-arity": (HEAD + "object P Q\n", False, "line 2: 'object' takes exactly one name"),
    "points-outside": (HEAD + "points a\n", False, "line 2: 'points' outside an object or space block"),
    "strict-missing-reflexive": (OBJ + "  edge a b\n", True, "line 2: object 'P' is not closed: missing edge a a"),
    "strict-missing-transitive": (
        HEAD + "object P\n  points a b c\n  edge a a\n  edge b b\n  edge c c\n  edge a b\n  edge b c\n", True,
        "line 2: object 'P' is not closed: missing edge a c",
    ),
    "nbhd-outside-space": (OBJ + "  nbhd a a\n", False, "line 4: 'nbhd' outside a space block"),
    "nbhd-no-point": (HEAD + "space S\n  points x y\n  nbhd\n", False, "line 4: 'nbhd' takes a point and its members"),
    "nbhd-unknown-point": (HEAD + "space S\n  points x y\n  nbhd z x\n", False, "line 4: unknown point 'z' in nbhd of space 'S'"),
    "nbhd-unknown-member": (
        HEAD + "space S\n  points x y\n  nbhd y x w\n", False, "line 4: unknown point 'w' in nbhd of y of space 'S'",
    ),
    "space-not-alexandroff": (
        HEAD + "space S\n  points x y\n  nbhd x y\n", False,
        "line 2: space 'S' is not Alexandroff: point 0 is missing from its own neighborhood",
    ),
    "morphism-arity": (TWO + "morphism f P\n", False, "line 7: 'morphism' takes a name, a source object and a target object"),
    "send-outside-morphism": (OBJ + "  send a b\n", False, "line 4: 'send' outside a morphism block"),
    "send-arity": (TWO + "morphism f P Q\n  send a\n", False, "line 8: 'send' takes exactly two points"),
    "send-unknown-object": (TWO + "morphism f P Z\n  send a x\n", False, "line 7: morphism 'f' references unknown object 'Z'"),
    "send-unknown-source-point": (TWO + "morphism f P Q\n  send c x\n", False, "line 8: unknown point 'c' in send of morphism 'f'"),
    "send-unknown-target-point": (TWO + "morphism f P Q\n  send a z\n", False, "line 8: unknown point 'z' in send of morphism 'f'"),
    "send-twice": (
        TWO + "morphism f P Q\n  send a x\n  send b y\n  send a y\n", False, "line 10: point 'a' is sent twice in morphism 'f'",
    ),
    "send-missing": (TWO + "morphism f P Q\n  send b y\n", False, "line 7: morphism 'f' does not send point 'a'"),
    "send-not-monotone": (
        TWO + "morphism f Q Q\n  send x y\n  send y x\n", False,
        "line 7: morphism 'f' is not monotone: not monotone: (0, 1) related but (1, 0) is not",
    ),
}


@pytest.mark.parametrize("case", ERRORS)
def test_error_messages_and_line_numbers(case):
    """Each message, line number included, as the per-pair loader gave it:
    a syntax error anywhere is reported before any unknown point, the first
    unknown point of an edge is the one named, and a block's ``points`` may
    follow its edges."""
    text, strict, message = ERRORS[case]
    if message is None:
        assert loads(text, strict).preorders["P"].leq(0, 1)
        return
    with pytest.raises(DocumentError) as caught:
        loads(text, strict)
    assert str(caught.value) == message


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

    def test_morphism_ends_must_be_added_first(self):
        u = reflect(FinPreorder.chain(2))[1]
        doc = Document()
        doc.add_preorder("P", u.src)
        with pytest.raises(DocumentError, match="morphism 'u' references unknown object 'Q'"):
            doc.add_morphism("u", u, "P", "Q")
        assert doc.morphisms == {}

    def test_morphism_ends_must_be_its_objects(self):
        u = reflect(FinPreorder.chain(2))[1]
        doc = Document()
        doc.add_preorder("P", FinPreorder.chain(3))
        doc.add_preorder("Q", u.dst)
        with pytest.raises(DocumentError, match="object 'P' is not the source of morphism 'u'"):
            doc.add_morphism("u", u, "P", "Q")
        doc.add_preorder("R", u.src)
        with pytest.raises(DocumentError, match="object 'P' is not the target of morphism 'u'"):
            doc.add_morphism("u", u, "R", "P")
        assert doc.morphisms == {}

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


def _random_labels(rng, n):
    """Default labels, explicit tokens, or a shuffle of the default ones."""
    kind = rng.choice(["default", "tokens", "shuffled"])
    if kind == "default":
        return None
    if kind == "tokens":
        return tuple(rng.choice(["p", "é", 'q"', "b\\"]) + str(i) for i in range(n))
    labels = [str(i) for i in range(n)]
    rng.shuffle(labels)
    return tuple(labels)


def _random_document(rng):
    """Preorders up to 60 points (some empty), their spaces, random monotone
    maps between them, and reflection units."""
    doc = Document()
    objects = []
    for k in range(rng.randint(1, 4)):
        n = 0 if rng.random() < 0.15 else rng.randint(1, 60)
        p = oracle.random_preorder(rng, n, _random_labels(rng, n), rng.choice([0.5, 1.2, 3.0]))
        doc.add_preorder(f"P{k}", p)
        objects.append((f"P{k}", p))
        if rng.random() < 0.5:
            doc.add_space(f"S{k}", preorder_to_space(p))
    for k in range(rng.randint(0, 4)):
        (src_name, p), (dst_name, q) = rng.choice(objects), rng.choice(objects)
        mapping = oracle.random_monotone_map(rng, p, q)
        if mapping is not None:
            doc.add_morphism(f"f{k}", PreordMorphism(p, q, mapping), src_name, dst_name)
    name, p = rng.choice(objects)
    poset, unit = reflect(p)
    doc.add_preorder(f"{name}.quotient", poset)
    doc.add_morphism(f"{name}.unit", unit, name, f"{name}.quotient")
    return doc


def _edge_pairs(text):
    """The edge pairs of each object of ``text``, read naively."""
    points, edges, name = {}, {}, None
    for line in text.splitlines():
        toks = line.split("#")[0].split()
        if toks[:1] == ["object"]:
            name = toks[1]
            points[name], edges[name] = [], []
        elif toks[:1] in (["space"], ["morphism"]):
            name = None
        elif toks[:1] == ["points"] and name is not None:
            points[name] += toks[1:]
        elif toks[:1] == ["edge"]:
            edges[name].append(toks[1:])
    return {
        name: [(points[name].index(a), points[name].index(b)) for a, b in edges[name]]
        for name in edges
    }


def _generator_text(rng, doc, closed):
    """Each object of ``doc`` as an edge list in random order, with its
    ``points`` line anywhere in the block and some comments: its closed
    pairs, or random generators."""
    lines = ["preord 1"]
    for name, p in doc.preorders.items():
        labels = [p.carrier.label(i) for i in range(p.size)]
        if closed:
            pairs = list(p.rel.pairs())
            rng.shuffle(pairs)
        else:
            count = rng.randint(0, 2 * p.size) if p.size else 0
            pairs = [(rng.randrange(p.size), rng.randrange(p.size)) for _ in range(count)]
        block = [f"  edge {labels[i]} {labels[j]}" + rng.choice(["", " # note"]) for i, j in pairs]
        block.insert(rng.randint(0, len(block)), "  points " + " ".join(labels))
        lines += [f"object {name}", *block, ""]
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(12))
def test_documents_agree_with_the_per_pair_oracle(seed):
    """The row-wise writer agrees byte for byte with the per-pair one, and
    every object loaded, in both modes, is the closure of its edge pairs."""
    rng = random.Random(seed)
    doc = _random_document(rng)
    text = dumps(doc)
    assert text == oracle.dumps_by_pairs(doc)
    for strict in (False, True):
        again = loads(text, strict)
        assert again == doc
        for name, pairs in _edge_pairs(text).items():
            p = again.preorders[name]
            assert p == reflexive_transitive_closure(Relation.from_pairs(p.carrier, p.carrier, pairs))

    for closed in (True, False):
        generated = _generator_text(rng, doc, closed)
        loaded = loads(generated)
        raw = {}
        for name, pairs in _edge_pairs(generated).items():
            p = loaded.preorders[name]
            raw[name] = Relation.from_pairs(p.carrier, p.carrier, pairs)
            assert p == reflexive_transitive_closure(raw[name])
        if closed:
            assert loaded.preorders == doc.preorders
        if all(p.rel == raw[name] for name, p in loaded.preorders.items()):
            assert loads(generated, strict=True) == loaded
        else:
            assert not closed
            with pytest.raises(DocumentError, match="is not closed: missing edge"):
                loads(generated, strict=True)
