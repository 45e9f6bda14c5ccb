"""Structure-file parsing, serialization, and the golden files."""
import numpy as np
import pytest

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
