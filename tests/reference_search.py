"""The bounded-poset lattice enumerator, kept as a reference.

Before girardlab grew lattices one coatom at a time, its enumerator grew
every bounded-below poset one maximal element at a time and kept only
the lattices when it emitted each size.  That process reaches every
lattice because deleting a maximal element keeps the bottom.  It shares
the canonical form, the output order and the filters with the current
enumerator but not the growth, so it serves, only here, as the oracle
of the differential test in tests/test_search.py.
"""
from functools import lru_cache
from typing import Dict, List, Tuple

from girardlab.orders import is_complemented, is_distributive
from girardlab.search import _down_masks, _has_orthocomplement, _is_lattice_rows, \
    _rows_to_lattice, canonical_key


def grow_bounded_poset(rows: Tuple[int, ...]):
    """All one-larger bounded posets: add a maximal element above a
    down-closed subset containing the bottom."""
    n = len(rows)
    downs = _down_masks(rows)
    bottom = rows.index((1 << n) - 1)
    new_bit = 1 << n
    for d in range(1 << n):
        if not d >> bottom & 1:
            continue
        closed = 0
        for i in range(n):
            if d >> i & 1:
                closed |= downs[i]
        if closed != d:
            continue
        yield tuple(rows[i] | (new_bit if d >> i & 1 else 0) for i in range(n)) + (new_bit,)


@lru_cache(maxsize=None)
def poset_frontiers(max_n: int) -> Tuple[Dict[tuple, Tuple[int, ...]], ...]:
    """The frontier of bounded-below posets at each size 1..max_n."""
    frontiers = [{canonical_key((1,)): (1,)}]
    while len(frontiers) < max_n:
        grown: Dict[tuple, Tuple[int, ...]] = {}
        for rows in frontiers[-1].values():
            for ext in grow_bounded_poset(rows):
                grown.setdefault(canonical_key(ext), ext)
        frontiers.append(grown)
    return tuple(frontiers)


def reference_enumeration(max_n: int, filters: tuple = ()):
    """(keys, counts): the canonical keys each size emits, in output
    order, and the per-size counts, filtering the poset frontier."""
    keys: Dict[int, List[tuple]] = {}
    for size, frontier in enumerate(poset_frontiers(max_n), start=1):
        keys[size] = []
        for key in sorted(frontier):
            rows = frontier[key]
            if not _is_lattice_rows(rows):
                continue
            lat = _rows_to_lattice(rows)
            if "complemented" in filters and not is_complemented(lat)[0].passed:
                continue
            if "nondistributive" in filters and is_distributive(lat).passed:
                continue
            if "orthocomplemented" in filters and not _has_orthocomplement(lat):
                continue
            keys[size].append(key)
    return keys, {size: len(k) for size, k in keys.items()}
