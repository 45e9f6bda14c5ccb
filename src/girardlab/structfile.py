"""Parsing and serialization of the shared structure-file format.

A structure file is plain text with '#' comments and the sections below,
in this fixed order; unknown keys are rejected:

    elements:  [tok, tok, ...]          required; distinct labels
    covers:    [[i,j], ...]             exactly one of covers / leq;
    leq:       [[i,j], ...]             leq lists the full relation,
                                        reflexive pairs included
    ortho:     [k0, k1, ...]            optional; image of each element
    mul:       [[...], ...]             optional; row i is i * .
    unit:      i                        optional
    dualizing: i                        optional

Label tokens may use any characters except whitespace, '#', ',', ':',
'[' and ']'; integers are ASCII, -?[0-9]+.  Values may span lines until
their brackets balance.  The parser is the inverse of serialize up to
formatting: parse(serialize(f)) reproduces f.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .orders import (
    FiniteLattice,
    FinitePoset,
    closure_from_covers,
    compute_lattice,
    hasse_covers,
    validate_poset,
)
from .ortho import OrthoLattice
from .reports import InputError

KEYS = ("elements", "covers", "leq", "ortho", "mul", "unit", "dualizing")
_LABEL_FORBIDDEN = set(" \t\n#,:[]")
_TOKEN = re.compile(r"[\[\],]|[^\s\[\],]+")
_INT = re.compile(r"-?[0-9]+")
_INT_VALUE = re.compile(r"[-0-9 \t\n\[\],]*")  # what an integer section may hold


class StructError(InputError):
    pass


class ParseError(StructError):
    def __init__(self, line: int, expected: str):
        self.line = line
        self.expected = expected
        super().__init__(f"line {line}: expected {expected}")


class RangeError(StructError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class StructureFile:
    """Parsed sections of one structure file."""

    labels: Tuple[str, ...]
    covers: Optional[tuple] = None
    leq_pairs: Optional[tuple] = None
    ortho: Optional[tuple] = None
    mul: Optional[tuple] = None
    unit: Optional[int] = None
    dualizing: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.labels)


def _tokenize(text: str, base_line: int):
    """(token, line) pairs: brackets, commas and the words between them."""
    return [(m.group(), line) for line, part in enumerate(text.split("\n"), start=base_line)
            for m in _TOKEN.finditer(part)]


def _parse_value(text: str, base_line: int):
    """Parse one section value: an atom or arbitrarily nested lists."""
    tokens = _tokenize(text, base_line)
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(base_line, "a value")
        tok, line = tokens[pos]
        if tok == "[":
            pos += 1
            items = []
            while True:
                if pos >= len(tokens):
                    raise ParseError(line, "']'")
                if tokens[pos][0] == "]":
                    pos += 1
                    return items
                items.append(node())
                if pos < len(tokens) and tokens[pos][0] == ",":
                    pos += 1
        if tok in ",]":
            raise ParseError(line, f"a value, not {tok!r}")
        pos += 1
        return tok

    value = node()
    if pos != len(tokens):
        raise ParseError(tokens[pos][1], "end of section value")
    return value


def _json_value(text: str):
    """An integer section's value read by json in one C-level pass, or
    None where json does not accept it.  Within _INT_VALUE's characters
    json accepts a subset of what _parse_value does, with the same
    lists and ints for tokens; whatever it rejects goes to _parse_value,
    which reports the error."""
    if not _INT_VALUE.fullmatch(text):
        return None
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def _as_int(v, line: int, what: str) -> int:
    if isinstance(v, list):
        raise ParseError(line, f"an integer for {what}")
    if isinstance(v, int):
        return v
    try:
        if _INT.fullmatch(v):
            return int(v)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(line, f"an integer for {what}, not {v!r}")


def _as_index(v, n: int, line: int, what: str) -> int:
    i = _as_int(v, line, what)
    if not 0 <= i < n:
        raise RangeError(line, f"{what} index {i} out of range 0..{n - 1}")
    return i


def _in_range(v, shape: tuple, n: int) -> bool:
    """Whether v is a non-empty integer array of this shape with every
    entry in 0..n-1: one C-level check of what json read, in place of
    the item-by-item ones, which still find and report the first fault
    of any other v (token strings and empty lists included)."""
    try:
        a = np.array(v)
    except ValueError:  # ragged lists
        return False
    return a.dtype.kind == "i" and a.shape == shape and 0 <= a.min() <= a.max() < n


def _as_pairs(v, n: int, line: int, what: str) -> tuple:
    if isinstance(v, list) and _in_range(v, (len(v), 2), n):
        return tuple(map(tuple, v))
    if not isinstance(v, list):
        raise ParseError(line, f"a list of [i, j] pairs for {what}")
    out = []
    for item in v:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(line, f"[i, j] pairs in {what}")
        out.append((_as_index(item[0], n, line, what), _as_index(item[1], n, line, what)))
    return tuple(out)


def parse(text: str) -> StructureFile:
    """Parse one structure file; raise ParseError / RangeError on bad input."""
    # split into sections: a new section starts where a line begins "key:"
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        head = line.split(":", 1)
        if line and not line[0].isspace() and len(head) == 2 and head[0].strip().isidentifier():
            key = head[0].strip()
            current = [key, lineno, [head[1]]]
            sections.append(current)
        elif current is not None:
            current[2].append(line)  # blank lines too, so body lines stay file lines
        elif line:
            raise ParseError(lineno, "a 'key:' section header")

    fields: dict = {}
    lines: dict = {}
    order = []
    for key, lineno, body_lines in sections:
        body = "\n".join(body_lines)
        if key not in KEYS:
            raise ParseError(lineno, f"one of {', '.join(KEYS)}, not {key!r}")
        if key in fields:
            raise ParseError(lineno, f"{key!r} only once")
        value = _json_value(body) if key != "elements" else None
        fields[key] = _parse_value(body, lineno) if value is None else value
        lines[key] = lineno
        order.append(key)

    ranked = [KEYS.index(k) for k in order]
    if ranked != sorted(ranked):
        bad = order[next(i for i in range(1, len(ranked)) if ranked[i] < ranked[i - 1])]
        raise ParseError(lines[bad], f"sections in the order {', '.join(KEYS)}")

    if "elements" not in fields:
        raise ParseError(1, "an 'elements:' section")
    labels_value = fields["elements"]
    if not isinstance(labels_value, list) or not labels_value:
        raise ParseError(lines["elements"], "a non-empty label list")
    labels = []
    for item in labels_value:
        if isinstance(item, list):
            raise ParseError(lines["elements"], "flat label tokens")
        if any(c in _LABEL_FORBIDDEN for c in item):
            raise ParseError(lines["elements"], f"a label without ':', not {item!r}")
        labels.append(item)
    if len(set(labels)) != len(labels):
        raise ParseError(lines["elements"], "distinct labels")
    n = len(labels)

    if ("covers" in fields) == ("leq" in fields):
        raise ParseError(lines.get("covers", lines.get("leq", 1)), "exactly one of covers / leq")

    covers = _as_pairs(fields["covers"], n, lines["covers"], "covers") if "covers" in fields else None
    leq_pairs = _as_pairs(fields["leq"], n, lines["leq"], "leq") if "leq" in fields else None

    ortho = None
    if "ortho" in fields:
        v, ln = fields["ortho"], lines["ortho"]
        if _in_range(v, (n,), n):
            ortho = tuple(v)
        elif not isinstance(v, list) or len(v) != n:
            raise ParseError(ln, f"an ortho list of length {n}")
        else:
            ortho = tuple(_as_index(x, n, ln, "ortho") for x in v)

    mul = None
    if "mul" in fields:
        v, ln = fields["mul"], lines["mul"]
        if _in_range(v, (n, n), n):
            mul = tuple(map(tuple, v))
        elif not isinstance(v, list) or len(v) != n:
            raise ParseError(ln, f"{n} mul rows")
        else:
            rows = []
            for row in v:
                if not isinstance(row, list) or len(row) != n:
                    raise ParseError(ln, f"mul rows of length {n}")
                rows.append(tuple(_as_index(x, n, ln, "mul") for x in row))
            mul = tuple(rows)

    unit = _as_index(fields["unit"], n, lines["unit"], "unit") if "unit" in fields else None
    dualizing = (
        _as_index(fields["dualizing"], n, lines["dualizing"], "dualizing")
        if "dualizing" in fields
        else None
    )
    return StructureFile(tuple(labels), covers, leq_pairs, ortho, mul, unit, dualizing)


def serialize(sf: StructureFile) -> str:
    """Render a StructureFile back to text; inverse of parse."""
    for lab in sf.labels:
        if not lab or any(c in _LABEL_FORBIDDEN for c in lab):
            raise StructError(f"label {lab!r} not serializable")
    out = [f"elements: [{', '.join(sf.labels)}]"]
    if sf.covers is not None:
        out.append("covers: [" + ", ".join(f"[{i},{j}]" for i, j in sf.covers) + "]")
    if sf.leq_pairs is not None:
        out.append("leq: [" + ", ".join(f"[{i},{j}]" for i, j in sf.leq_pairs) + "]")
    if sf.ortho is not None:
        out.append("ortho: [" + ", ".join(str(k) for k in sf.ortho) + "]")
    if sf.mul is not None:
        rows = [f"  [{', '.join(str(v) for v in row)}]" for row in sf.mul]
        out.append("mul: [\n" + ",\n".join(rows) + "\n]")
    if sf.unit is not None:
        out.append(f"unit: {sf.unit}")
    if sf.dualizing is not None:
        out.append(f"dualizing: {sf.dualizing}")
    return "\n".join(out) + "\n"


def load(path) -> StructureFile:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise StructError(str(exc)) from None


def build_poset(sf: StructureFile) -> FinitePoset:
    """Materialize the order: covers get their reflexive-transitive
    closure, an leq list is taken literally."""
    if sf.covers is not None:
        rel = closure_from_covers(sf.n, sf.covers)
    else:
        rel = np.zeros((sf.n, sf.n), dtype=bool)
        for i, j in sf.leq_pairs:
            rel[i, j] = True
    return validate_poset(rel, sf.labels)


def build_lattice(sf: StructureFile) -> FiniteLattice:
    return compute_lattice(build_poset(sf))


def build_ortholattice(sf: StructureFile) -> OrthoLattice:
    if sf.ortho is None:
        raise StructError("file has no ortho section")
    return OrthoLattice(build_lattice(sf), sf.ortho)


def from_lattice(l: FiniteLattice, ortho=None, mul=None, unit=None, dualizing=None) -> StructureFile:
    """Assemble a StructureFile from core objects, covers-based."""
    return StructureFile(
        tuple(l.label(i) for i in range(l.n)),
        covers=tuple(hasse_covers(l)),
        ortho=tuple(int(x) for x in ortho) if ortho is not None else None,
        mul=None if mul is None else tuple(tuple(int(v) for v in row) for row in np.asarray(mul)),
        unit=unit,
        dualizing=dualizing,
    )
