"""The four workloads: their inputs, their girardlab commands and the check
of each command's output.

Each workload has a large phase (the engine's heavy instances, run once)
and a small phase (the same commands on small instances, repeated), so an
optimisation of a hot loop shows on one and a per-call cost it adds shows
on the other.  `tiny=True` shrinks every instance for the self-test.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

import oracle
from oracle import A006966, CheckFailed, expect

@dataclass
class Command:
    argv: List[str]
    # check(stdout, enumerations): raises CheckFailed on a wrong answer.
    # `enumerations` holds what the CLI's enumerate_lattices returned
    # during the call, so the enumerated lattices can be re-examined.
    check: Callable[[str, list], None]


@dataclass
class Workload:
    large: List[Command]
    small: List[Command]


def build(name: str, seed: int, root: Path, workdir: Path, tiny: bool = False) -> Workload:
    """Inputs and commands of one workload; files go to `workdir`."""
    builders = {
        "enum-sweep": _enum_sweep,
        "residuation-search": _residuation_search,
        "big-tables": _big_tables,
        "rn-battery": _rn_battery,
    }
    return Workload(*builders[name](seed, root, workdir, tiny))


# ---------------------------------------------------------------------------
# output parsing shared by the checks
# ---------------------------------------------------------------------------

_LAW = re.compile(r"^  \[\s*(ok|FAIL|--)\] (\S+)(?:  witness=.*?)?(?:  \((.*)\))?$", re.M)


def _laws(out: str) -> dict:
    return {law: (mark, note) for mark, law, note in _LAW.findall(out)}


def _no_failures(out: str) -> dict:
    laws = _laws(out)
    expect(laws, "no law report in the output")
    failed = [law for law, (mark, _) in laws.items() if mark == "FAIL"]
    expect(not failed, f"laws failed: {failed}")
    expect(re.search(rf"^{len(laws)} laws, 0 failures$", out, re.M), "summary line is wrong")
    return laws


def _passed(laws: dict, *names: str) -> None:
    for name in names:
        expect(laws.get(name, ("missing",))[0] == "ok", f"law {name} did not pass")


def _structure_cache() -> Callable[[Path], oracle.Structure]:
    return functools.cache(lambda path: oracle.parse_structure(path.read_text()))


def _checked_in(root: Path) -> List[Path]:
    return sorted((root / "structures").glob("*.struct"))


# ---------------------------------------------------------------------------
# enum-sweep
# ---------------------------------------------------------------------------

def _enum_sweep(seed, root, workdir, tiny):
    """No input is drawn: `enumerate` takes only a size."""
    large_n, small_n = (6, 5) if tiny else (9, 8)
    return ([Command(["enumerate", "--max-n", str(large_n)], _check_enumeration(large_n, False))],
            [Command(["enumerate", "--max-n", str(small_n), "--confirm-thm2"],
                     _check_enumeration(small_n, True))])


def _check_enumeration(max_n: int, sweep: bool):
    def check(out, enumerations):
        counts = {int(k): int(v) for k, v in re.findall(r"^n=(\d+): (\d+)$", out, re.M)}
        expected = {k: A006966[k] for k in range(1, max_n + 1)}
        expect(counts == expected, f"counts {counts} differ from A006966 {expected}")
        expect(re.search(rf"^total: {sum(expected.values())}$", out, re.M), "wrong total")
        expect(len(enumerations) == 1, "enumerate did not run exactly one enumeration")
        lattices = [oracle.Lattice(np.asarray(lat.leq)) for lat in enumerations[0].lattices]
        sizes = np.bincount([lat.n for lat in lattices], minlength=max_n + 1)[1:]
        expect(list(sizes) == list(expected.values()), "enumerated lattices differ from the counts")
        for lat in lattices:
            _ = lat.join, lat.meet  # each raises CheckFailed unless the order is a lattice
        if not sweep:
            return
        complemented = [lat.n for lat in lattices if lat.complemented]
        per_size = ", ".join(f"{k}:{complemented.count(k)}" for k in range(1, max_n + 1))
        note = f"{len(complemented)} complemented lattices checked (per size {per_size})"
        laws = _no_failures(out)
        _passed(laws, "complemented-integral-iff-boolean")
        expect(laws["complemented-integral-iff-boolean"][1] == note,
               f"sweep note differs from this check's own count: {note}")
    return check


# ---------------------------------------------------------------------------
# residuation-search
# ---------------------------------------------------------------------------

def _residuation_search(seed, root, workdir, tiny):
    """The checked-in lattices, in their file order.  The seed draws no
    relabelling: under a budget, a relabelled MO2 costs from 0.2x to 1.1x
    as much per search, which would swamp any change to the searcher."""
    paths, structure = _checked_in(root), _structure_cache()
    by_name = {p.stem: p for p in paths}
    brute_force = functools.cache(lambda p: oracle.count_boolean_unital_tables(structure(p).lattice))

    def search(name, mode, budget=None, exhaustive=True):
        argv = ["search-residuation", str(by_name[name]), "--mode", mode]
        if budget is not None:
            argv += ["--budget", str(budget)]
        return Command(argv, _check_search(lambda: structure(by_name[name]), mode, exhaustive,
                                           lambda: brute_force(by_name[name])))

    if tiny:
        large = [search("mo2", "unital", 3000, exhaustive=False)]
        small = [search(n, "integral") for n in ("boolean-4", "m3", "godel-3")]
        small.append(search("boolean-4", "unital", 200_000))
    else:
        large = [search("mo2", "unital", 200_000, exhaustive=False),
                 search("mo3", "unital", 100_000, exhaustive=False)]
        small = [search(p.stem, "integral") for p in paths]
        small += [search(n, "unital", 200_000) for n in ("boolean-2", "boolean-4")]
    return large, small


def _solutions(out: str) -> List[oracle.Structure]:
    body = out.split("\nunit-downset:")[0]
    return [oracle.parse_structure(chunk) for chunk in re.split(r"^# solution \d+$", body, flags=re.M)[1:]]


def _check_search(structure, mode, exhaustive, brute_force):
    def check(out, _):
        s = structure()
        lat = s.lattice
        head = re.match(r"mode=(\w+) found=(\d+) exhausted=(True|False) nodes=(\d+)\n", out)
        expect(head and head[1] == mode, "search header missing")
        found = _solutions(out)
        expect(len(found) == int(head[2]), "found= differs from the solutions printed")
        tables = set()
        for sol in found:
            expect(sol.labels == s.labels and (sol.lattice.leq == lat.leq).all(),
                   "solution printed on another carrier")
            oracle.check_residuated_table(lat, sol.mul, sol.unit)
            tables.add(sol.mul.tobytes())
        expect(len(tables) == len(found), "a table is reported twice")
        if exhaustive:
            expect(head[3] == "True", "exhaustive search did not exhaust")
        if mode == "integral":
            expect(all(sol.unit == lat.top for sol in found), "integral table with unit below top")
            if lat.complemented:
                # Boolean forcing: only the meet on Boolean lattices, nothing otherwise.
                want = {lat.meet.tobytes()} if lat.boolean else set()
                expect(tables == want, f"complemented carrier: {len(tables)} tables, want {len(want)}")
            elif lat.is_chain:
                for product in (lat.meet, oracle.lukasiewicz_product(lat)):
                    expect(product.astype(np.intp).tobytes() in tables, "chain product missed")
            return
        laws = _LAW.findall(out.split("\nunit-downset:")[-1]) if found else []
        expect(len(laws) == len(found) and all(m == "ok" for m, *_ in laws),
               "unit-downset reports do not all pass")
        if exhaustive:
            want = brute_force()
            expect(len(found) == want, f"unital count {len(found)}, brute force {want}")
    return check


# ---------------------------------------------------------------------------
# big-tables
# ---------------------------------------------------------------------------

def _boolean(atoms: int):
    n = 1 << atoms
    covers = [(i, i | 1 << k) for i in range(n) for k in range(atoms) if not i >> k & 1]
    idx = np.arange(n)
    return dict(n=n, covers=covers, ortho=(n - 1) ^ idx, mul=idx[:, None] & idx[None, :],
                unit=n - 1, dualizing=0, inversion=(n - 1) ^ idx)


def _chain(n: int, product: str):
    idx = np.arange(n)
    mul = (np.maximum(0, idx[:, None] + idx[None, :] - (n - 1)) if product == "lukasiewicz"
           else np.minimum(idx[:, None], idx[None, :]))
    ortho = n - 1 - idx if product == "lukasiewicz" else None
    return dict(n=n, covers=[(i, i + 1) for i in range(n - 1)], ortho=ortho, mul=mul,
                unit=n - 1, dualizing=0 if product == "lukasiewicz" else None,
                inversion=n - 1 - idx)


def write_relabelled(table: dict, rng: np.random.Generator, path: Path) -> List[int]:
    """Write `table` with its elements in a random order; labels keep the
    natural indices.  Returns the candidate inversion in file indices."""
    n = table["n"]
    p = rng.permutation(n)  # natural index k sits at file index p[k]
    labels = [""] * n
    for k in range(n):
        labels[p[k]] = str(k)

    def moved(values):
        if values is None:
            return None
        out = np.empty(n, dtype=np.intp)
        out[p] = p[values]
        return out

    mul = None
    if table["mul"] is not None:
        mul = np.empty((n, n), dtype=np.intp)
        mul[np.ix_(p, p)] = p[table["mul"]]
    path.write_text(oracle.serialize_structure(
        labels, sorted((int(p[i]), int(p[j])) for i, j in table["covers"]),
        ortho=moved(table["ortho"]), mul=mul, unit=int(p[table["unit"]]),
        dualizing=None if table["dualizing"] is None else int(p[table["dualizing"]])))
    return [int(v) for v in moved(table["inversion"])]


def _big_tables(seed, root, workdir, tiny):
    """Large: a Boolean algebra on 64 elements and 60-element Lukasiewicz
    and Godel chains, each relabelled by a permutation drawn from the
    seed.  Small: every checked-in file that accepts the command."""
    rng = np.random.default_rng([seed, 3])
    tables = {
        "boolean": _boolean(3 if tiny else 6),
        "lukasiewicz": _chain(6 if tiny else 60, "lukasiewicz"),
        "godel": _chain(6 if tiny else 60, "godel"),
    }
    structure = _structure_cache()
    large = []
    for family, table in tables.items():
        path = workdir / f"{family}-{table['n']}.struct"
        inversion = write_relabelled(table, rng, path)
        large += _table_commands(path, structure, inversion)

    paths = _checked_in(root)
    if tiny:
        paths = [p for p in paths if p.stem in ("boolean-4", "lukasiewicz-4", "godel-3", "mo2", "o6")]
    small = []
    for path in paths:
        s = structure(path)
        small += _table_commands(path, structure, None, with_mul=s.mul is not None,
                                 with_blocks=s.ortho is not None
                                 and s.lattice.is_orthomodular(s.ortho))
    return large, small


def _table_commands(path, structure, inversion, with_mul=True, with_blocks=False):
    s = functools.partial(structure, path)
    cmds = [Command(["verify", str(path)], _check_verify(s))]
    if with_mul:
        girard = ["girard", str(path)]
        if inversion is not None:
            girard += ["--inversion", ",".join(map(str, inversion))]
        cmds += [Command(["residuate", str(path)], _check_residuate(s)),
                 Command(girard, _check_girard(s))]
    if with_blocks:
        cmds.append(Command(["blocks", str(path)], _check_blocks(s)))
    return cmds


def _flags_text(s: oracle.Structure) -> str:
    t, idx = s.mul, np.arange(s.n)
    units = oracle.two_sided_units(t)
    unit = units[0] if units else None
    return (f"Flags(commutative={bool((t == t.T).all())}, idempotent={bool((t[idx, idx] == idx).all())}, "
            f"unit={unit}, integral={unit is not None and unit == s.lattice.top})")


def _check_verify(structure):
    def check(out, _):
        s = structure()
        lat = s.lattice
        laws = _no_failures(out)
        _passed(laws, "poset-axioms", "lattice-structure")
        want = {"distributive": lat.distributive, "complemented": lat.complemented,
                "boolean": lat.boolean}
        if s.ortho is not None:
            _passed(laws, "inversion")
            want["ortholattice"] = lat.is_ortholattice(s.ortho)
            if want["ortholattice"]:
                want["orthomodular"] = lat.is_orthomodular(s.ortho)
        want = {k: str(v) for k, v in want.items()}
        if s.mul is not None:
            _passed(laws, "associativity", "residuation")
            if s.unit is not None:
                _passed(laws, "declared-unit")
            if s.dualizing is not None:
                _passed(laws, "declared-dualizer-cyclic", "declared-dualizer-dualizing")
            want["flags"] = _flags_text(s)
        expect("classification:" in out, "classification missing")
        got = dict(re.findall(r"^  (\w+): (.*)$", out.split("classification:")[1], re.M))
        expect(got == want, f"classification {got} differs from {want}")
    return check


def _parse_table(text: str, s: oracle.Structure) -> np.ndarray:
    rows = [line.split() for line in text.strip("\n").splitlines()]
    expect(len(rows) == s.n + 1, "table has the wrong number of rows")
    cols = [s.index[x] for x in rows[0]]
    table = np.full((s.n, s.n), -1, dtype=np.intp)
    for row in rows[1:]:
        table[s.index[row[0]], cols] = [s.index[x] for x in row[1:]]
    expect((table >= 0).all(), "table has missing cells")
    return table


def _check_residuate(structure):
    def check(out, _):
        s = structure()
        try:
            right, rest = out.split("right residuum (row -> col):\n")[1].split(
                "left residuum (row <- col):\n")
            left = rest.split("flags:")[0]
            rres, lres = _parse_table(right, s), _parse_table(left, s)
        except (IndexError, KeyError, ValueError) as exc:
            raise CheckFailed(f"unreadable residuum tables: {exc!r}") from exc
        want = oracle.closed_form_residuum(s)
        expect((rres == want).all(), f"right residuum differs from the {s.family} closed form")
        # every family here is commutative, so z <- x equals x -> z
        expect((lres == want.T).all(), f"left residuum differs from the {s.family} closed form")
        expect(f"flags: {_flags_text(s)}" in out, "flags line is wrong")
    return check


def _check_girard(structure):
    def check(out, _):
        s = structure()
        lat = s.lattice
        laws = _no_failures(out)
        certs = re.findall(r"^cyclic dualizing element d=(\S+)  unit e=(\S+)  negation: (.*)$", out, re.M)
        girard = s.family in ("boolean", "lukasiewicz")
        note = " ".join(f"{k}={girard}" for k in ("cyclic-dualizer", "negation-residuation", "exchange"))
        _passed(laws, "girard-recognition-agreement")
        expect(laws["girard-recognition-agreement"][1] == note, f"recognitions are not all {girard}")
        if not girard:
            expect(not certs and "no cyclic dualizing element" in out, "Godel table certified Girard")
            return
        expect(len(certs) == 1, f"{len(certs)} certificates, want exactly one")
        d, e, negation = certs[0]
        neg = dict(pair.split("->") for pair in negation.split())
        neg = np.array([s.index[neg[label]] for label in s.labels])
        if s.family == "boolean":
            want = lat.complement()
        else:
            r = lat.rank
            want = np.argsort(r)[r.max() - r]
        expect(s.index[d] == lat.bottom and s.index[e] == lat.top, "certificate is not d=bottom, e=top")
        expect((neg == want).all(), "negation is not the expected involution")
        _passed(laws, "dualizer-join-formula", "boolean-iff-idempotent-bottom-dualizer")
    return check


def _check_blocks(structure):
    want = functools.cache(lambda: oracle.boolean_blocks(structure()))

    def check(out, _):
        s = structure()
        try:
            got = {frozenset(s.index[x] for x in line.split()) for line in out.splitlines()}
        except KeyError as exc:
            raise CheckFailed(f"unknown element {exc}") from exc
        expect(len(got) == len(out.splitlines()), "a block is printed twice")
        expect(got == want(), "blocks differ from the maximal Boolean subalgebras")
    return check


# ---------------------------------------------------------------------------
# rn-battery
# ---------------------------------------------------------------------------

# (n, op, r, s): dimensions are fixed so that the cost of a probe does not
# depend on the seed, which draws only the vectors.
_LARGE_PROBES = [
    (n, op, r, s) for n in (16, 32, 64)
    for op, r, s in (("mul", 3, n // 8 + 1), ("join", n // 2, n // 4), ("meet", 3 * n // 4, n // 2),
                     ("ortho", n // 3, 0), ("residuum", 2, n - 3))
]
_SMALL_PROBES = [
    (n, op, r, s) for n in (2, 3, 5, 8)
    for op, r, s in (("mul", 1, n), ("join", 1, n // 2), ("meet", n - 1, n // 2 + 1),
                     ("ortho", n // 2, 0), ("residuum", 1, n - 1))
]
# The law batteries run at fixed seeds: their trials draw subspace
# dimensions, so a battery's cost moves by about 10% from seed to seed.
_BATTERY_SEED = 20260


def _rn_battery(seed, root, workdir, tiny):
    """Large: the law battery at n = 64 plus probes up to n = 64.
    Small: batteries at n = 4 and 8 and probes at n <= 8."""
    def battery(dim, trials, k):
        argv = ["rn", "--dim", str(dim), "--trials", str(trials), "--seed", str(_BATTERY_SEED + k)]
        return Command(argv, _check_battery(trials))

    def probes(schedule, first):
        return [_probe(np.random.default_rng([seed, first + k]), *spec) for k, spec in enumerate(schedule)]

    antidiagonal = Command(["rn-op", "--dim", "2", "--op", "mul", "--a", "1,-1", "--b", "1,-1"],
                           _check_antidiagonal)
    if tiny:
        return ([battery(4, 10, 0)] + probes(_SMALL_PROBES[5:10], 0),
                [battery(3, 10, 1), antidiagonal])
    return ([battery(64, 100, 0)] + probes(_LARGE_PROBES, 0),
            [battery(4, 200, 1), battery(8, 100, 2)] + probes(_SMALL_PROBES, 1000) + [antidiagonal])


def _vectors(a: np.ndarray) -> str:
    return ";".join(",".join(repr(float(x)) for x in col) for col in a.T)


def _probe(rng, n, op, r, s):
    a = rng.standard_normal((n, r))
    # --a=... form: a vector list that starts with a minus sign is not an option
    argv = ["rn-op", "--dim", str(n), "--op", op, f"--a={_vectors(a)}"]
    if op != "ortho":
        argv.append(f"--b={_vectors(rng.standard_normal((n, s)))}")
    return Command(argv, _check_probe(op, n, r, s, a))


def _basis(out: str, n: int) -> np.ndarray:
    lines = out.splitlines()
    head = re.fullmatch(r"dim: (\d+)", lines[0]) if lines else None
    expect(head, "dim line missing")
    try:
        rows = [[float(x) for x in line.split(";")] for line in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"unreadable basis: {exc}") from exc
    expect(len(rows) == int(head[1]), "dim differs from the rows printed")
    expect(all(len(row) == n for row in rows), f"a basis vector is not in R^{n}")
    basis = np.array(rows, dtype=float).reshape(len(rows), n)
    expect(np.allclose(basis @ basis.T, np.eye(len(rows)), rtol=0, atol=1e-9),
           "basis is not orthonormal")
    return basis


def _check_probe(op, n, r, s, a):
    def check(out, _):
        basis = _basis(out, n)
        want = oracle.generic_dimension(op, n, r, s)
        expect(basis.shape[0] == want, f"{op} dim {basis.shape[0]}, generic dim {want}")
        if op == "ortho":
            expect(np.abs(basis @ a).max() <= 1e-9 * np.abs(a).max(), "complement not orthogonal")
    return check


def _check_antidiagonal(out, _):
    basis = _basis(out, 2)
    expect(basis.shape[0] == 1 and np.allclose(np.abs(basis), 2 ** -0.5, atol=1e-9),
           "antidiagonal squared is not the unit line")


def _check_battery(trials: int):
    def check(out, _):
        laws = _no_failures(out)
        expect(tuple(laws) == oracle.RN_LAWS, f"laws {tuple(laws)} differ from the nine")
        want = f"{trials} checks"
        expect(all(mark == "ok" and note == want for mark, note in laws.values()),
               f"not every law passed {want}")
    return check
