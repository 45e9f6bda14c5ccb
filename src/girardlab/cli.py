"""Command surface tying the engines together.

Exit codes: 0 all checks passed, 1 some law failed or stdout was closed
early (a broken pipe, reported silently), 2 a bad file or argument
(InputError, OSError), one `error:` line.  Any other exception is a bug
and ends in a traceback.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .girard import (
    check_boolean_idempotent_criterion,
    check_dualizer_join_formula,
    check_unit_downset_boolean,
    girard_equivalences,
    is_cyclic,
    is_dualizing,
)
from .orders import (
    NotALattice,
    NotBounded,
    PosetViolation,
    check_inversion,
    compute_lattice,
    is_complemented,
    is_distributive,
)
from .ortho import OrthoLattice, blocks, check_ortholattice, check_orthomodular, is_orthomodular
from .render import exit_code, export_dot, render_report
from .reports import InputError, law_fail, law_pass, law_skip
from .residuation import (
    ResiduationError,
    check_associative,
    classify,
    godel_chain,
    lukasiewicz_chain,
    residuated_structure,
)
from .search import DEFAULT_BUDGET, confirm_boolean_forcing, enumerate_lattices, \
    search_integral_residuation, search_unital_residuation
from .structfile import StructError, build_lattice, build_ortholattice, build_poset, from_lattice, \
    load, serialize
from .subspaces import (
    check_dimension,
    join,
    meet,
    mul,
    ortho,
    residuum,
    span,
    verify_quantale_laws,
)


def _build_order(sf):
    """Lattice when the order admits one, otherwise the bare poset."""
    poset = build_poset(sf)
    try:
        return compute_lattice(poset)
    except (NotALattice, NotBounded):
        return poset


def _print_table(name, table, labels):
    width = max(len(x) for x in labels)
    padded = [x.rjust(width) for x in labels]
    lines = [f"{name}:", " " * (width + 2) + " ".join(padded)]
    lines += [f"  {padded[i]} " + " ".join([padded[v] for v in row])
              for i, row in enumerate(np.asarray(table).tolist())]
    print("\n".join(lines))


def _labels(obj):
    return [obj.label(i) for i in range(obj.n)]


def _report(sections, fmt="human") -> int:
    """Print the sections and return their exit code."""
    print(render_report(sections, fmt), end="")
    return exit_code(sections)


def _residuation(order, m):
    """(reports, s): the associativity report, then, if it passes, the
    residuation report, with the verified structure s or None."""
    assoc = check_associative(m)
    if assoc.failed:
        return [assoc], None
    try:
        return [assoc, law_pass("residuation")], residuated_structure(order, m)
    except ResiduationError as exc:
        return [assoc, law_fail("residuation", exc.witness, str(exc))], None


def cmd_verify(args) -> int:
    sf = load(args.file)
    try:
        poset = build_poset(sf)
    except PosetViolation as exc:
        return _report([("order", [law_fail("poset-axioms", exc.witness, exc.axiom)])], args.format)
    sections, order_reports, info = [], [law_pass("poset-axioms")], []
    lattice = None
    try:
        lattice = compute_lattice(poset)
        order_reports.append(law_pass("lattice-structure"))
    except (NotALattice, NotBounded) as exc:
        order_reports.append(law_fail("lattice-structure", exc.witness, str(exc)))
    sections.append(("order", order_reports))

    if lattice is not None:
        dist = is_distributive(lattice).passed
        comp = is_complemented(lattice)[0].passed
        info += [f"distributive: {dist}", f"complemented: {comp}", f"boolean: {dist and comp}"]

    if sf.ortho is not None:
        # on the lattice when there is one, where check_ortholattice finds the report
        reports = [check_inversion(poset if lattice is None else lattice, sf.ortho)]
        sections.append(("inversion", reports))
        if lattice is not None and reports[0].passed:
            olat = OrthoLattice(lattice, sf.ortho)
            ortho_ok = check_ortholattice(lattice, sf.ortho).passed
            info.append(f"ortholattice: {ortho_ok}")
            if ortho_ok:
                omod = all(r.passed for r in check_orthomodular(olat))
                info.append(f"orthomodular: {omod}")

    # each declaration is checked, or reported SKIPPED with the hypothesis it lacks
    reports, s, flags, missing = [], None, None, "needs a multiplication table"
    if sf.mul is not None:
        order = lattice if lattice is not None else poset
        m = np.array(sf.mul, dtype=np.intp)
        reports, s = _residuation(order, m)
        missing = "needs an associative multiplication"
        if reports[0].passed:
            flags = classify(order, m) if s is None else s.flags
            info.append(f"flags: {flags}")
            missing = "needs a residuated multiplication"
    if sf.unit is not None:
        if flags is None:
            reports.append(law_skip("declared-unit", missing))
        elif flags.unit == sf.unit:
            reports.append(law_pass("declared-unit"))
        else:
            reports.append(law_fail("declared-unit", (sf.unit,), f"actual unit is {flags.unit}"))
    if sf.dualizing is not None:
        for law, check in (("declared-dualizer-cyclic", is_cyclic),
                           ("declared-dualizer-dualizing", is_dualizing)):
            report = law_skip(law, missing) if s is None else check(s, sf.dualizing)
            reports.append(law_pass(law) if report.passed else report)
    sections.append(("multiplication", reports))

    code = _report(sections, args.format)
    if info and args.format == "human":
        print("classification:")
        for line in info:
            print(f"  {line}")
    return code


def _residuated(args):
    """The file's residuated structure, or None after printing the
    associativity or residuation FAIL under `multiplication`."""
    sf = load(args.file)
    order = _build_order(sf)
    if sf.mul is None:
        raise StructError("file has no mul section")
    reports, s = _residuation(order, np.array(sf.mul, dtype=np.intp))
    if s is not None:
        return sf, s
    _report([("multiplication", reports[-1:])])
    return None


def cmd_residuate(args) -> int:
    found = _residuated(args)
    if found is None:
        return 1
    _, s = found
    labels = _labels(s)
    _print_table("right residuum (row -> col)", s.rres, labels)
    _print_table("left residuum (row <- col)", s.lres, labels)
    print(f"flags: {s.flags}")
    return 0


def cmd_girard(args) -> int:
    inversion = args.inversion
    if inversion is not None:
        inversion = _entries(inversion, int, "inversion", "an integer")
    found = _residuated(args)
    if found is None:
        return 1
    sf, s = found
    eq = girard_equivalences(s, inversion=inversion)  # rejects a bad inversion before any output
    labels = _labels(s)
    certs = eq.certificates
    if certs:
        for c in certs:
            neg = " ".join(f"{labels[x]}->{labels[c.neg[x]]}" for x in range(s.n))
            print(f"cyclic dualizing element d={labels[c.d]}  unit e={labels[c.e]}  negation: {neg}")
    else:
        print("no cyclic dualizing element")
    reports = [eq.agreement]
    for c in certs:
        reports.append(check_dualizer_join_formula(s, c, certs))
    reports.append(check_boolean_idempotent_criterion(s, certs))
    if sf.ortho is not None and s.lattice is not None:
        olat = OrthoLattice(s.lattice, sf.ortho)
        reports.append(check_unit_downset_boolean(olat, s))
    return _report([("girard", reports)])


def cmd_blocks(args) -> int:
    sf = load(args.file)
    olat = build_ortholattice(sf)
    for block in blocks(olat):
        print(" ".join(olat.label(i) for i in block))
    return 0


def cmd_enumerate(args) -> int:
    result = enumerate_lattices(args.max_n)
    counts = result.counts  # a count, filtered or not, builds no FiniteLattice
    if args.complemented:
        kept = result.complemented_posets
        counts = {size: sum(len(rows) == size for rows in kept) for size in counts}
    for size, count in counts.items():
        print(f"n={size}: {count}")
    print(f"total: {sum(counts.values())}" + (" (filters: complemented)" if args.complemented else ""))
    if args.confirm_thm2:
        return _report([("search", [confirm_boolean_forcing(result)])])
    return 0


def cmd_search_residuation(args) -> int:
    sf = load(args.file)
    if args.mode == "integral":
        lattice = build_lattice(sf)
        result = search_integral_residuation(lattice, budget=args.budget)
    else:
        o = build_ortholattice(sf)
        if not is_orthomodular(o):  # the unit-downset reports need it
            raise InputError("unital search expects an orthomodular carrier")
        lattice = o.lattice
        result = search_unital_residuation(lattice, budget=args.budget)
    print(f"mode={args.mode} found={len(result.found)} exhausted={result.exhausted} "
          f"nodes={result.nodes}")
    # every solution shares the carrier, so its covers are found once
    carrier = from_lattice(lattice, ortho=sf.ortho)
    for k, s in enumerate(result.structures):
        out = replace(carrier, mul=tuple(map(tuple, s.mul.tolist())), unit=s.flags.unit)
        print(f"# solution {k}")
        print(serialize(out))
    if args.mode == "integral" or not result.structures:
        return 0
    by_unit = {s.flags.unit: s for s in result.structures}  # a report reads only the unit
    reports = {e: check_unit_downset_boolean(o, s) for e, s in by_unit.items()}
    return _report([("unit-downset", [reports[s.flags.unit] for s in result.structures])])


def cmd_rn(args) -> int:
    reports = verify_quantale_laws(args.dim, args.trials, args.seed)
    return _report([(f"subspace-quantale dim={args.dim}", reports)], args.format)


def _entries(text: str, convert, what: str, kind: str) -> list:
    """Comma-separated entries through convert; a rejected entry is named."""
    values = []
    for x in text.split(","):
        try:
            values.append(convert(x))
        except ValueError:
            raise InputError(f"{what} entry {x.strip()!r} is not {kind}") from None
    return values


def _parse_vectors(text: str, n: int):
    parts = [part.strip() for part in text.split(";")]
    return span(n, [_entries(part, float, "vector", "a number") for part in parts if part])


def cmd_rn_op(args) -> int:
    n = check_dimension(args.dim)  # before any vector is parsed
    a = _parse_vectors(args.a, n)
    ops = {"mul": mul, "meet": meet, "join": join, "residuum": residuum}
    if args.op == "ortho":
        result = ortho(a)
    else:
        if args.b is None:
            raise InputError(f"op {args.op} needs --b")
        b = _parse_vectors(args.b, n)
        result = ops[args.op](a, b)
    print(f"dim: {result.dim}")
    for row in result.basis.T:
        print(";".join(f"{x:.12g}" for x in row))
    return 0


def cmd_gen(args) -> int:
    if args.family == "lukasiewicz":
        s = lukasiewicz_chain(args.size)
        flip = tuple(range(s.n - 1, -1, -1))
        sf = from_lattice(s.lattice, ortho=flip, mul=s.mul, unit=s.n - 1, dualizing=0)
    elif args.family == "godel":
        s = godel_chain(args.size)
        sf = from_lattice(s.lattice, mul=s.mul, unit=s.n - 1)
    else:
        from .catalog import boolean_ortho

        o = boolean_ortho(args.atoms)
        sf = from_lattice(o.lattice, ortho=o.ortho, mul=o.lattice.meet,
                          unit=o.lattice.top, dualizing=o.lattice.bottom)
    print(serialize(sf), end="")
    return 0


def cmd_export_dot(args) -> int:
    sf = load(args.file)
    print(export_dot(build_poset(sf)), end="")
    return 0


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(1, text)


def non_negative_int(text: str) -> int:
    return _int_at_least(0, text)


@functools.cache  # one tree per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="girardlab",
                                     description="finite residuated/ortholattice structure toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check every law declared by a structure file")
    p.add_argument("file")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("residuate", help="derive residua tables and classify")
    p.add_argument("file")
    p.set_defaults(func=cmd_residuate)

    p = sub.add_parser("girard", help="certificates, recognition agreement, propositions")
    p.add_argument("file")
    p.add_argument("--inversion", help="comma-separated candidate inversion, e.g. 2,1,0")
    p.set_defaults(func=cmd_girard)

    p = sub.add_parser("blocks", help="maximal Boolean subalgebras, one per line")
    p.add_argument("file")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("enumerate", help="enumerate small lattices up to isomorphism")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--complemented", action="store_true")
    p.add_argument("--confirm-thm2", action="store_true",
                   help="verify integral residuation exists iff Boolean, per complemented lattice")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search-residuation", help="exhaustive/budgeted multiplication search")
    p.add_argument("file")
    p.add_argument("--mode", choices=("integral", "unital"), required=True)
    p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_search_residuation)

    p = sub.add_parser("rn", help="verify the subspace-quantale laws of R^n on random trials")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.set_defaults(func=cmd_rn)

    p = sub.add_parser("rn-op", help="evaluate one subspace operation")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--op", choices=("mul", "meet", "join", "ortho", "residuum"), required=True)
    p.add_argument("--a", required=True,
                   help="vectors, semicolon-separated comma lists; write --a=-1,0 when "
                        "the value starts with a minus sign")
    p.add_argument("--b", help="second operand, same syntax (--b=-1,0 likewise)")
    p.set_defaults(func=cmd_rn_op)

    p = sub.add_parser("gen", help="emit a structure file for a standard family")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("lukasiewicz")
    g.add_argument("--size", type=int, required=True)
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("godel")
    g.add_argument("--size", type=int, required=True)
    g.set_defaults(func=cmd_gen)
    g = gen_sub.add_parser("boolean")
    g.add_argument("--atoms", type=int, required=True)
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="Hasse diagram as DOT")
    p.add_argument("file")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader left; on devnull the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
