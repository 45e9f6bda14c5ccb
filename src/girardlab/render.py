"""Report rendering and DOT export."""
from __future__ import annotations

import json
from typing import List, Tuple

from .orders import FinitePoset, hasse_covers
from .reports import LawReport

Sections = List[Tuple[str, List[LawReport]]]


def export_dot(p: FinitePoset) -> str:
    """Hasse diagram as DOT, one edge per cover, bottom-up rank."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i in range(p.n):
        label = p.label(i).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in hasse_covers(p):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _witness_text(witness) -> str:
    # numpy scalars and arrays, which json cannot write, as Python values
    return json.dumps(list(witness), default=lambda x: x.tolist())


def render_report(sections: Sections, fmt: str = "human") -> str:
    """Render law reports; machine format is LAW<TAB>VERDICT<TAB>WITNESS."""
    if fmt == "machine":
        lines = []
        for _, reports in sections:
            for r in reports:
                lines.append(f"{r.law}\t{r.verdict}\t{_witness_text(r.witness)}")
        if not lines:
            lines = ["#\tPASS\tno laws evaluated"]
        return "\n".join(lines) + "\n"
    if fmt != "human":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    total = fails = 0
    for name, reports in sections:
        if not reports:
            continue
        lines.append(f"{name}:")
        for r in reports:
            mark = {"PASS": "ok", "FAIL": "FAIL", "SKIPPED": "--"}[str(r.verdict)]
            extra = f"  witness={_witness_text(r.witness)}" if r.failed else ""
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"  [{mark:>4}] {r.law}{extra}{note}")
            total += 1
            fails += r.failed
    if total == 0:
        lines.append("no laws evaluated")
    else:
        lines.append(f"{total} laws, {fails} failures")
    return "\n".join(lines) + "\n"


def exit_code(sections: Sections) -> int:
    """0 when nothing failed, 1 otherwise; input errors use 2 elsewhere."""
    for _, reports in sections:
        if any(r.failed for r in reports):
            return 1
    return 0
