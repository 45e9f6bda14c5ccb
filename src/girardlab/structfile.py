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
their brackets balance, and lists may nest to any depth.  An integer
section is read by json where it is plain JSON, else by the tokenizer;
one validator, _as_index, checks either.  load accepts a UTF-8 byte-order
mark.  parse(serialize(f)) reproduces f.
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
    """Parse one section value: an atom or nested lists.  Open lists wait
    on a stack, not on the interpreter's, so any depth the text holds is
    read."""
    tokens = _tokenize(text, base_line)
    stack = []  # (items, line of its '[') for each open list
    comma_ok = False  # one comma may follow each item of a list
    for pos, (tok, line) in enumerate(tokens):
        if tok == "," and comma_ok:
            comma_ok = False
            continue
        if tok == "[":
            stack.append(([], line))
            comma_ok = False
            continue
        if tok == "," or (tok == "]" and not stack):
            raise ParseError(line, f"a value, not {tok!r}")
        value = stack.pop()[0] if tok == "]" else tok
        if not stack:
            if pos + 1 < len(tokens):
                raise ParseError(tokens[pos + 1][1], "end of section value")
            return value
        stack[-1][0].append(value)
        comma_ok = True
    raise ParseError(stack[-1][1], "']'") if stack else ParseError(base_line, "a value")


def _json_value(text: str):
    """An integer section's value read by json in one C-level pass (about
    10x faster than _parse_value on a Boolean-64 file), or None where
    json does not accept it.  Within _INT_VALUE's characters json accepts
    a subset of what _parse_value does, with the same lists and ints for
    tokens; whatever it rejects goes to _parse_value, which reports it."""
    if not _INT_VALUE.fullmatch(text):
        return None
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def _in_range(v, levels: tuple, n: int) -> bool:
    """Whether v is an integer array with one axis per level, of that
    level's length, and every entry in 0..n-1: one C-level check of what
    json read, in place of _as_index's walk."""
    try:
        a = np.array(v)
    except ValueError:  # ragged lists, or more axes than numpy holds
        return False
    return (a.dtype.kind == "i" and a.ndim == len(levels)
            and all(k in (None, m) for (k, _), m in zip(levels, a.shape))
            and 0 <= a.min() <= a.max() < n)


def _as_index(v, n: int, line: int, what: str, *levels):
    """v as an index 0..n-1 or, given levels, as nested tuples of them;
    the one validator of every integer section.  Each level is a
    (length, expected) pair for one list depth, length None for any: a
    value there that is no list of that length raises ParseError(line,
    expected).  A json int array passes in one _in_range test; any other
    v is walked depth first, so the first fault in the file is raised."""
    if levels and _in_range(v, levels, n):
        return tuple(map(tuple, v)) if len(levels) == 2 else tuple(v)

    def walk(v, depth: int):
        if depth < len(levels):
            length, expected = levels[depth]
            if not isinstance(v, list) or length not in (None, len(v)):
                raise ParseError(line, expected)
            return tuple(walk(x, depth + 1) for x in v)
        if isinstance(v, list):
            raise ParseError(line, f"an integer for {what}")
        try:
            i = v if isinstance(v, int) else int(v) if _INT.fullmatch(v) else None
        except ValueError:  # more digits than int() converts
            i = None
        if i is None:
            raise ParseError(line, f"an integer for {what}, not {v!r}")
        if not 0 <= i < n:
            raise RangeError(line, f"{what} index {i} out of range 0..{n - 1}")
        return i

    return walk(v, 0)


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

    def index(key, *levels):
        return _as_index(fields[key], n, lines[key], key, *levels) if key in fields else None

    return StructureFile(
        tuple(labels),
        index("covers", (None, "a list of [i, j] pairs for covers"), (2, "[i, j] pairs in covers")),
        index("leq", (None, "a list of [i, j] pairs for leq"), (2, "[i, j] pairs in leq")),
        index("ortho", (n, f"an ortho list of length {n}")),
        index("mul", (n, f"{n} mul rows"), (n, f"mul rows of length {n}")),
        index("unit"),
        index("dualizing"),
    )


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
        with open(path, encoding="utf-8-sig") as fh:
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
