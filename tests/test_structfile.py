"""Structure-file parsing, serialization, and the golden files."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girardlab import structfile
from girardlab.ortho import check_orthomodular, is_orthomodular
from girardlab.structfile import (
    ParseError,
    RangeError,
    StructError,
    build_lattice,
    build_ortholattice,
    build_poset,
    from_lattice,
    load,
    parse,
    serialize,
)

MINIMAL = "elements: [x]\ncovers: []\n"

GOLDEN = [
    "boolean-2.struct",
    "boolean-4.struct",
    "boolean-8.struct",
    "m3.struct",
    "n5.struct",
    "o6.struct",
    "mo2.struct",
    "mo3.struct",
    "lukasiewicz-3.struct",
    "lukasiewicz-4.struct",
    "lukasiewicz-5.struct",
    "godel-3.struct",
]


class TestParse:
    def test_minimal_singleton(self):
        sf = parse(MINIMAL)
        assert sf.n == 1 and sf.labels == ("x",)
        assert build_poset(sf).n == 1

    def test_comments_and_multiline_values(self):
        text = """
# a comment
elements: [0, a, b, 1]   # trailing comment
covers: [[0,1], [0,2],
         [1,3], [2,3]]
"""
        sf = parse(text)
        assert sf.n == 4 and len(sf.covers) == 4

    def test_wrong_mul_row_length_reports_line(self):
        text = "elements: [0, 1]\ncovers: [[0,1]]\nmul: [\n  [0, 0],\n  [0]\n]\n"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == 3  # the mul section starts here

    @pytest.mark.parametrize("text, line", [
        ("elements: [a, b]\ncovers: [[0,1]]\nunit: 0 1\n  0\n", 3),  # a stray token ends line 3
        # comment and blank lines inside a value still count
        ("elements: [a, b]\ncovers: [[0,1]]\nmul: [\n# rows\n\n  [0, 0],\n  [0, 1]]\n]\n", 8),
    ])
    def test_value_error_names_the_token_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse(MINIMAL + "colour: 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse(MINIMAL + "covers: []\n")

    def test_order_enforced(self):
        with pytest.raises(ParseError):
            parse("elements: [a, b]\nunit: 1\ncovers: [[0,1]]\n")

    def test_out_of_range_index(self):
        with pytest.raises(RangeError):
            parse("elements: [a, b]\ncovers: [[0,5]]\n")

    @pytest.mark.parametrize("section, what", [
        ("covers: [[0,1], [0,2]]", "covers"),
        ("leq: [[0,0], [1,1], [-1,1]]", "leq"),
        ("covers: []\northo: [1, 2]", "ortho"),
        ("covers: []\nmul: [[0, 0], [0, 2]]", "mul"),
        ("covers: []\nunit: 2", "unit"),
    ])
    def test_index_just_out_of_range(self, section, what):
        with pytest.raises(RangeError) as exc:
            parse("elements: [a, b]\n" + section + "\n")
        bad = -1 if what == "leq" else 2
        assert str(exc.value).endswith(f": {what} index {bad} out of range 0..1")

    def test_covers_or_leq_required(self):
        with pytest.raises(ParseError):
            parse("elements: [a]\n")
        with pytest.raises(ParseError):
            parse("elements: [a]\ncovers: []\nleq: [[0,0]]\n")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError):
            parse("elements: [a, a]\ncovers: []\n")

    def test_colon_in_label_rejected_at_the_elements_line(self):
        # serialize cannot write such a label, so parse must not accept it
        with pytest.raises(ParseError) as exc:
            parse("# header\nelements: [0,\n  x:y, 1]\ncovers: [[0,1], [1,2]]\n")
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: expected a label without ':', not 'x:y'"

    @pytest.mark.parametrize("token", ["\u0662", "\uff11", "1_0", "+1", "1.0", "0x1", "--1"])
    def test_integers_are_ascii_digits(self, token):
        # int() would read the first four as 2, 1, 10 and 1
        text = f"elements: [a, b]\ncovers: [[0,1]]\nmul: [[0, 0],\n  [0, {token}]]\n"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line 3: expected an integer for mul, not {token!r}"

    @pytest.mark.parametrize("token, value", [("007", 7), ("-0", 0), ("00", 0)])
    def test_leading_zeros_and_minus_zero(self, token, value):
        sf = parse(f"elements: [a, b, c, d, e, f, g, h]\ncovers: []\nunit: {token}\n")
        assert sf.unit == value

    def test_leq_taken_literally(self):
        text = "elements: [0, 1]\nleq: [[0,0], [0,1], [1,1]]\n"
        p = build_poset(parse(text))
        assert p.leq.tolist() == [[True, True], [False, True]]


class TestRoundTrip:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_parse_serialize_parse(self, structures_dir, name):
        first = load(structures_dir / name)
        again = parse(serialize(first))
        assert again == first

    def test_from_lattice_round_trip(self):
        from girardlab.catalog import horizontal_sum_mo

        o = horizontal_sum_mo(2)
        sf = from_lattice(o.lattice, ortho=o.ortho)
        rebuilt = build_ortholattice(parse(serialize(sf)))
        assert rebuilt.ortho == o.ortho
        assert (rebuilt.lattice.leq == o.lattice.leq).all()


class TestGoldenFiles:
    def test_mo2_is_orthomodular(self, structures_dir):
        o = build_ortholattice(load(structures_dir / "mo2.struct"))
        assert is_orthomodular(o)

    def test_o6_is_not_orthomodular(self, structures_dir):
        o = build_ortholattice(load(structures_dir / "o6.struct"))
        assert all(r.failed for r in check_orthomodular(o))

    def test_lukasiewicz_file_matches_generator(self, structures_dir):
        from girardlab.residuation import lukasiewicz_chain, residuated_structure

        sf = load(structures_dir / "lukasiewicz-4.struct")
        s = residuated_structure(build_lattice(sf), np.array(sf.mul, dtype=np.intp))
        ref = lukasiewicz_chain(4)
        assert (s.mul == ref.mul).all()
        assert (s.rres == ref.rres).all()
        assert sf.unit == 3 and sf.dualizing == 0

    def test_boolean_file_unit_and_dualizer(self, structures_dir):
        sf = load(structures_dir / "boolean-8.struct")
        lat = build_lattice(sf)
        assert sf.unit == lat.top and sf.dualizing == lat.bottom

    @pytest.mark.parametrize("name", GOLDEN)
    def test_all_build_lattices(self, structures_dir, name):
        lat = build_lattice(load(structures_dir / name))
        assert lat.n >= 1

    def test_missing_sections_raise(self, structures_dir):
        sf = load(structures_dir / "m3.struct")
        with pytest.raises(StructError):
            build_ortholattice(sf)


# ---------------------------------------------------------------------------
# the json pass for integer sections against the tokenizer alone
# ---------------------------------------------------------------------------

# integer tokens that are not -?[0-9]+, or not integers at all
ODD_INTEGERS = ["+1", "1_0", "\u0662", "\uff11", "1.0", "1e1", "true", "null", "--1", "-", "0x1",
                '"1"', "[]"]


@st.composite
def structure_texts(draw):
    """Structure texts in the file syntax with random spacing, comments,
    blank lines and line ends, lists without commas or with trailing
    ones, and integers with leading zeros; in about half of them some
    integers, commas and brackets out of place."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    flawed = draw(st.booleans())

    def flaw():
        return flawed and draw(st.integers(0, 24)) == 0

    def gap():
        return draw(st.sampled_from(["", "", " ", "  ", "\t", "\n ", "\n\n  ", " # note\n ",
                                     "\n# note\n"]))

    def integer(v):
        if flaw():
            return draw(st.sampled_from([str(n), "-1", f"[{v}]"] + ODD_INTEGERS))  # [v] is one list too deep
        return draw(st.sampled_from([str(v)] * 4 + [f"0{v}", "-0" if v == 0 else f"00{v}"]))

    def listing(items):
        sep = draw(st.sampled_from([",", ", ", ",\n  ", " ", "\n"]))  # the last two without commas
        tail = draw(st.sampled_from(["", "", "", ",", " ,"])) if items else ""
        return ("[" + gap() + ((",," if flaw() else sep).join(items)) + tail + gap()
                + ("" if flaw() else "]"))

    sections = ["elements: [" + ", ".join(f"e{i}" for i in range(n)) + "]"]
    pairs = draw(st.lists(st.tuples(index, index), max_size=6))
    sections.append(draw(st.sampled_from(["covers:", "leq:"])) + gap()
                    + listing([listing([integer(i), integer(j)]) for i, j in pairs]))
    if draw(st.booleans()):
        sections.append("ortho:" + gap() + listing([integer(draw(index)) for _ in range(n)]))
    if draw(st.booleans()):
        rows = [listing([integer(draw(index)) for _ in range(n)]) for _ in range(n)]
        sections.append("mul:" + gap() + listing(rows))
    for key in ("unit", "dualizing"):
        if draw(st.booleans()):
            sections.append(f"{key}: " + gap() + integer(draw(index)) + gap())
    if flaw():  # nested past the interpreter's recursion limit
        sections.append("dualizing: " + "[" * 3000 + "0" + "]" * 3000)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(sections) + draw(st.sampled_from(["", eol, eol + eol]))


def parsed(text):
    try:
        return "parsed", repr(parse(text))
    except Exception as exc:  # the error itself is the result under comparison
        return "raised", type(exc), getattr(exc, "line", None), str(exc)


@settings(max_examples=400, deadline=None)
@given(structure_texts())
def test_json_pass_matches_the_tokenizer(text):
    fast = parsed(text)
    with mock.patch.object(structfile, "_json_value", lambda body: None):
        assert parsed(text) == fast


@pytest.mark.parametrize("name", GOLDEN)
def test_integer_sections_skip_the_tokenizer(structures_dir, name):
    # only the elements section reaches the tokenizer
    with mock.patch.object(structfile, "_parse_value", wraps=structfile._parse_value) as spy:
        load(structures_dir / name)
    assert spy.call_count == 1
