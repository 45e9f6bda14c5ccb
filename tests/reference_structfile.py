"""The structure-file reader and section checks girardlab used before
one index validator replaced them, kept as the oracle of
tests/test_structfile.py: a recursive value reader, a json pass for the
integer sections, and one hand-written check per section, each a numpy
fast path beside its own item loop.  On any text nested below the
interpreter's recursion limit, `girardlab.structfile.parse` must give
the same StructureFile, or raise the same error class with the same line
and message.
"""
import json
import re

import numpy as np

from girardlab.structfile import KEYS, ParseError, RangeError, StructureFile

_LABEL_FORBIDDEN = set(" \t\n#,:[]")
_TOKEN = re.compile(r"[\[\],]|[^\s\[\],]+")
_INT = re.compile(r"-?[0-9]+")
_INT_VALUE = re.compile(r"[-0-9 \t\n\[\],]*")


def _tokenize(text, base_line):
    return [(m.group(), line) for line, part in enumerate(text.split("\n"), start=base_line)
            for m in _TOKEN.finditer(part)]


def _parse_value(text, base_line):
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


def _json_value(text):
    if not _INT_VALUE.fullmatch(text):
        return None
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def _as_int(v, line, what):
    if isinstance(v, list):
        raise ParseError(line, f"an integer for {what}")
    if isinstance(v, int):
        return v
    try:
        if _INT.fullmatch(v):
            return int(v)
    except ValueError:
        pass
    raise ParseError(line, f"an integer for {what}, not {v!r}")


def _as_index(v, n, line, what):
    i = _as_int(v, line, what)
    if not 0 <= i < n:
        raise RangeError(line, f"{what} index {i} out of range 0..{n - 1}")
    return i


def _in_range(v, shape, n):
    try:
        a = np.array(v)
    except ValueError:
        return False
    return a.dtype.kind == "i" and a.shape == shape and 0 <= a.min() <= a.max() < n


def _as_pairs(v, n, line, what):
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


def parse(text):
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
            current[2].append(line)
        elif line:
            raise ParseError(lineno, "a 'key:' section header")

    fields = {}
    lines = {}
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
