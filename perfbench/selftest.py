"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload at a tiny size and requires that
  * every command passes its check;
  * every planted wrong answer (a perturbed residuum table, counts off by
    one, a wrong dimension, ...) is rejected by the check it targets;
  * the oracle reproduces the known kinds of the checked-in structures;
  * a whole run, untraced and traced, reports exactly the metrics that
    BENCHMARK.json names.
Exits 1 on the first surprise.
"""
import json
import re
import sys
import tempfile
import types
from pathlib import Path

import run

cli = run.import_girardlab()

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bump(pattern, delta=1):
    """Mutation adding `delta` to the first number matched by `pattern`."""
    def mutate(out, enums):
        m = re.search(pattern, out, flags=re.M)
        new = out[:m.start(1)] + str(int(m[1]) + delta) + out[m.end(1):]
        return new, enums
    return mutate


def _drop_last_solution(out, enums):
    """Remove the last table and its unit-downset report; the counts
    printed are lowered to match, so only the count itself is wrong."""
    tables, _, downset = out.partition("unit-downset:\n")
    head, *solutions = tables.split("# solution ")
    k = len(solutions)
    laws = downset.splitlines()
    laws = laws[:-2] + [laws[-1].replace(f"{k} laws", f"{k - 1} laws")]
    head = head.replace(f"found={k}", f"found={k - 1}")
    kept = "".join("# solution " + text for text in solutions[:-1])
    return head + kept + "unit-downset:\n" + "\n".join(laws) + "\n", enums


def _perturb_residuum(out, enums):
    lines = out.splitlines(keepends=True)
    header, row = lines[1].split(), lines[2].split()  # right residuum: labels, first row
    row[-1] = next(label for label in header if label != row[-1])
    lines[2] = "  " + " ".join(row) + "\n"
    return "".join(lines), enums


def _swap_negation(out, enums):
    line = next(x for x in out.splitlines() if x.startswith("cyclic dualizing element"))
    pairs = line.split("negation: ")[1].split()
    a, b = pairs[0].split("->"), pairs[1].split("->")
    swapped = [f"{a[0]}->{b[1]}", f"{b[0]}->{a[1]}"] + pairs[2:]
    return out.replace(line, line.split("negation: ")[0] + "negation: " + " ".join(swapped)), enums


def _drop_last_row(out, enums):
    lines = out.splitlines()
    dim = int(lines[0].split()[1])
    return "\n".join([f"dim: {dim - 1}"] + lines[1:-1]) + "\n", enums


def _drop_lattice(out, enums):
    return out, [types.SimpleNamespace(lattices=enums[0].lattices[:-1])]


def _is(*words):
    return lambda argv: all(any(w == a or a.endswith(w) for a in argv) for w in words)


# (workload, command matcher, wrong answer planted, mutation)
PLANTS = [
    ("enum-sweep", _is("enumerate", "6"), "A006966 count off by one", _bump(r"^n=5: (\d+)$")),
    ("enum-sweep", _is("--confirm-thm2"), "sweep count off by one",
     _bump(r"\((\d+) complemented")),
    ("enum-sweep", _is("--confirm-thm2"), "a lattice missing from the enumeration", _drop_lattice),
    ("residuation-search", _is("boolean-4.struct", "unital"), "unital count off by one",
     _drop_last_solution),
    ("residuation-search", _is("boolean-4.struct", "integral"), "a perturbed product table",
     lambda out, enums: (out.replace("[0, 1, 0, 1]", "[0, 1, 1, 1]", 1), enums)),
    ("big-tables", _is("residuate", "boolean-8.struct"), "a perturbed residuum table",
     _perturb_residuum),
    ("big-tables", _is("residuate", "lukasiewicz-4.struct"), "a perturbed residuum table",
     _perturb_residuum),
    ("big-tables", _is("verify", "o6.struct"), "O6 classified orthomodular",
     lambda out, enums: (out.replace("orthomodular: False", "orthomodular: True"), enums)),
    ("big-tables", _is("girard", "lukasiewicz-6.struct"), "a wrong negation", _swap_negation),
    ("big-tables", _is("blocks", "mo2.struct"), "a block missing",
     lambda out, enums: ("\n".join(out.splitlines()[:-1]) + "\n", enums)),
    ("rn-battery", _is("mul", "3"), "a wrong dimension", _drop_last_row),
    ("rn-battery", _is("rn", "4"), "a law checked one time too few", _bump(r"\((\d+) checks\)", -1)),
    ("rn-battery", _is("rn-op", "1,-1"), "antidiagonal squared off the unit line",
     lambda out, enums: (out.replace("0.707106781187;0.707106781187", "1;0"), enums)),
]

# Known kinds of the checked-in structures, as named in their files.
KINDS = {
    "boolean-2": dict(boolean=True, family="boolean"),
    "boolean-4": dict(boolean=True, family="boolean"),
    "boolean-8": dict(boolean=True, family="boolean"),
    "m3": dict(complemented=True, distributive=False),
    "n5": dict(complemented=True, distributive=False),
    "o6": dict(ortholattice=True, orthomodular=False),
    "mo2": dict(orthomodular=True, boolean=False),
    "mo3": dict(orthomodular=True, boolean=False),
    "godel-3": dict(is_chain=True, family="godel"),
    "lukasiewicz-3": dict(is_chain=True, family="lukasiewicz"),
    "lukasiewicz-4": dict(is_chain=True, family="lukasiewicz"),
    "lukasiewicz-5": dict(is_chain=True, family="lukasiewicz"),
}


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_kinds():
    for path in sorted((run.ROOT / "structures").glob("*.struct")):
        s = oracle.parse_structure(path.read_text())
        lat = s.lattice
        got = {"boolean": lat.boolean, "complemented": lat.complemented,
               "distributive": lat.distributive, "is_chain": lat.is_chain, "family": s.family}
        if s.ortho is not None:
            got["ortholattice"] = lat.is_ortholattice(s.ortho)
            got["orthomodular"] = lat.is_orthomodular(s.ortho)
        for key, value in KINDS[path.stem].items():
            if got[key] != value:
                fail(f"oracle says {path.stem} has {key}={got[key]}, known {value}")
    lat4 = oracle.parse_structure((run.ROOT / "structures" / "boolean-4.struct").read_text()).lattice
    if oracle.count_boolean_unital_tables(lat4) != 9:
        fail("brute force does not find the 9 unital tables on boolean-4")
    mo3 = oracle.parse_structure((run.ROOT / "structures" / "mo3.struct").read_text())
    if len(oracle.boolean_blocks(mo3)) != 3:
        fail("MO3 should have three blocks")
    print("oracle reproduces the known kinds of all checked-in structures")


def check_plants(workdir):
    for name in run.WORKLOADS:
        workload = workloads.build(name, 0, run.ROOT, workdir, tiny=True)
        outputs = []
        with run.captured_enumerations(cli) as captured:
            for command in workload.large + workload.small:
                code, out, err, _, _ = run.execute(cli, command.argv, captured)
                if code != 0:
                    fail(f"{command.argv[:3]} exited {code!r}: {err}")
                command.check(out, list(captured))
                outputs.append((command, out, list(captured)))
        print(f"{name}: {len(outputs)} commands pass their checks")
        for plant_workload, matches, what, mutate in PLANTS:
            if plant_workload != name:
                continue
            command, out, enums = next((c, o, e) for c, o, e in outputs if matches(c.argv))
            bad_out, bad_enums = mutate(out, enums)
            if bad_out == out and bad_enums is enums:
                fail(f"plant '{what}' changed nothing")
            try:
                command.check(bad_out, bad_enums)
            except oracle.CheckFailed as exc:
                print(f"  rejected {what}: {exc}")
            else:
                fail(f"plant '{what}' was accepted by {command.argv[:2]}")


def check_metric_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if want[True] != spans.METRICS:
        fail("per-layer metrics of BENCHMARK.json differ from spans.METRICS")
    for name in run.WORKLOADS:
        for traced in (False, True):
            result = run.run(name, 0, 0.0, traced, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[traced] or not result["correct"] or result["failed"]:
                fail(f"{name} trace={int(traced)}: {json.dumps(result)[:300]}")
    print("untraced and traced runs report exactly the metrics of BENCHMARK.json")


def main():
    check_kinds()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as workdir:
        check_plants(Path(workdir))
    check_metric_names()
    print("selftest passed")


if __name__ == "__main__":
    main()
