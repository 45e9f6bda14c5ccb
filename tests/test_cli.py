"""Command surface and exit-code contract."""
import argparse
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import reference_subspaces as ref
from fixtures import boolean_residuation
from girardlab import cli, girard, residuation, search, structfile, subspaces
from girardlab.cli import main
from girardlab.render import export_dot, render_report
from girardlab.reports import law_fail, law_pass
from girardlab.catalog import boolean_ortho, chain, diamond_m3
from girardlab.residuation import AdjointnessFailure, godel_chain
from girardlab.search import confirm_boolean_forcing, search_unital_residuation
from girardlab.structfile import build_lattice, build_ortholattice, from_lattice, load, parse, \
    serialize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_good_file_exit_zero(self, capsys, structures_dir):
        code, out, _ = run(capsys, "verify", str(structures_dir / "lukasiewicz-3.struct"))
        assert code == 0
        assert "0 failures" in out

    @pytest.mark.parametrize(
        "name",
        ["boolean-2", "boolean-4", "boolean-8", "m3", "n5", "o6", "mo2", "mo3",
         "lukasiewicz-3", "lukasiewicz-4", "lukasiewicz-5", "godel-3"],
    )
    def test_every_golden_file_verifies_clean(self, capsys, structures_dir, name):
        code, out, _ = run(capsys, "verify", str(structures_dir / f"{name}.struct"))
        assert code == 0, out

    def test_residua_derived_once(self, capsys, structures_dir, monkeypatch):
        # the file declares a dualizing element, which is checked on the
        # same structure the residuation law came from
        calls, real = [], residuation.derive_residua

        def derive_residua(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(residuation, "derive_residua", derive_residua)
        code, out, _ = run(capsys, "verify", str(structures_dir / "lukasiewicz-4.struct"))
        assert code == 0 and "declared-dualizer-dualizing" in out
        assert len(calls) == 1

    def test_machine_format(self, capsys, structures_dir):
        code, out, _ = run(
            capsys, "verify", str(structures_dir / "boolean-4.struct"), "--format", "machine"
        )
        assert code == 0
        for line in out.strip().splitlines():
            law, verdict, witness = line.split("\t")
            assert verdict == "PASS"

    def test_failing_inversion_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.struct"
        bad.write_text(
            "elements: [0, a, b, c, 1]\n"
            "covers: [[0,1], [0,2], [0,3], [1,4], [2,4], [3,4]]\n"
            "ortho: [0, 1, 2, 3, 4]\n"
        )
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert "inversion" in out and "FAIL" in out

    @pytest.mark.parametrize("mul, code, hypothesis, unit, unit_verdict", [
        ("", 0, "needs a multiplication table",
         "[  --] declared-unit  (needs a multiplication table)", "SKIPPED"),
        ("mul: [[1,0],[0,0]]\n", 1, "needs an associative multiplication",
         "[  --] declared-unit  (needs an associative multiplication)", "SKIPPED"),
        ("mul: [[1,1],[1,1]]\n", 1, "needs a residuated multiplication",
         "[FAIL] declared-unit  witness=[1]  (actual unit is None)", "FAIL"),
    ], ids=["no-mul", "not-associative", "not-residuated"])
    def test_declarations_it_cannot_check_are_skipped(self, capsys, tmp_path, mul, code,
                                                      hypothesis, unit, unit_verdict):
        # a declared unit and dualizer are reported every time: checked
        # where their hypotheses hold, else SKIPPED with the one missing
        path = tmp_path / "declared.struct"
        path.write_text(f"elements: [a, b]\ncovers: [[0,1]]\n{mul}unit: 1\ndualizing: 0\n")
        got, out, _ = run(capsys, "verify", str(path))
        assert got == code
        lines = out.splitlines()
        assert f"  {unit}" in lines
        for law in ("declared-dualizer-cyclic", "declared-dualizer-dualizing"):
            assert f"  [  --] {law}  ({hypothesis})" in lines
        got, out, _ = run(capsys, "verify", str(path), "--format", "machine")
        assert got == code
        verdicts = dict(line.split("\t")[:2] for line in out.splitlines())
        assert (verdicts["declared-unit"], verdicts["declared-dualizer-cyclic"],
                verdicts["declared-dualizer-dualizing"]) == (unit_verdict, "SKIPPED", "SKIPPED")

    def test_input_error_exit_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "missing.struct"))
        assert code == 2 and "error" in err

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.struct"
        bad.write_text("elements: [a]\nnonsense: 12\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2 and "nonsense" in err


class TestResiduate:
    def test_prints_tables_and_flags(self, capsys, structures_dir):
        code, out, _ = run(capsys, "residuate", str(structures_dir / "godel-3.struct"))
        assert code == 0
        assert "right residuum" in out and "left residuum" in out
        assert "integral=True" in out

    def test_non_residuable_table_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "join.struct"
        bad.write_text(
            "elements: [0, m, 1]\ncovers: [[0,1], [1,2]]\n"
            "mul: [\n  [0, 1, 2],\n  [1, 1, 2],\n  [2, 2, 2]\n]\n"
        )
        code, out, _ = run(capsys, "residuate", str(bad))
        assert code == 1 and "FAIL" in out

    def test_the_search_leaf_and_the_cli_share_one_table_check(self, capsys, monkeypatch,
                                                               structures_dir):
        assert search.search_integral_residuation(chain(3)).found
        stub = law_fail("residuation", (0, 0, 0), "stub rejects every table")
        monkeypatch.setattr(residuation, "check_residuated",
                            lambda order, m: ([law_pass("associativity"), stub], None))
        assert not search.search_integral_residuation(chain(3)).found
        code, out, _ = run(capsys, "residuate", str(structures_dir / "godel-3.struct"))
        assert (code, out) == (1, render_report([("multiplication", [stub])], "human"))


class TestGirard:
    def test_lukasiewicz_certificates(self, capsys, structures_dir):
        code, out, _ = run(capsys, "girard", str(structures_dir / "lukasiewicz-4.struct"))
        assert code == 0
        assert "cyclic dualizing element d=0" in out
        assert "girard-recognition-agreement" in out

    @pytest.mark.parametrize("name", ["boolean-8", "lukasiewicz-5", "godel-3"])
    def test_one_scan_for_dualizers(self, capsys, monkeypatch, structures_dir, name):
        # the recognitions, the certificate lines and the checks share one scan
        calls, real = [], girard.find_cyclic_dualizing

        def counted(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(girard, "find_cyclic_dualizing", counted)
        code, _, _ = run(capsys, "girard", str(structures_dir / f"{name}.struct"))
        assert code == 0 and len(calls) == 1

    def test_godel_negative(self, capsys, structures_dir):
        code, out, _ = run(capsys, "girard", str(structures_dir / "godel-3.struct"))
        assert code == 0
        assert "no cyclic dualizing element" in out

    def test_candidate_inversion_flag(self, capsys, structures_dir):
        code, out, _ = run(
            capsys, "girard", str(structures_dir / "lukasiewicz-3.struct"),
            "--inversion", "2,1,0",
        )
        assert code == 0 and "exchange=True" in out

    def test_bad_inversion_prints_nothing_on_stdout(self, capsys, structures_dir):
        # the inversion is checked before any certificate line is printed
        code, out, err = run(
            capsys, "girard", str(structures_dir / "lukasiewicz-3.struct"), "--inversion", "0",
        )
        assert (code, out, err) == (2, "", "error: map must have length 3, got 1\n")

    @pytest.mark.parametrize("inversion, bad", [("x,y", "x"), ("2,,0", ""), ("", "")])
    def test_inversion_entry_not_an_integer(self, capsys, structures_dir, inversion, bad):
        code, out, err = run(
            capsys, "girard", str(structures_dir / "lukasiewicz-3.struct"),
            f"--inversion={inversion}",
        )
        assert (code, out, err) == (2, "", f"error: inversion entry {bad!r} is not an integer\n")

    def test_large_carrier_needs_no_inversion(self, capsys, tmp_path):
        # the candidate inversions come from the residua, so a carrier of
        # more than a dozen elements is decided without --inversion
        s = godel_chain(13)
        path = tmp_path / "godel-13.struct"
        path.write_text(serialize(from_lattice(s.lattice, mul=s.mul, unit=s.n - 1)))
        code, out, err = run(capsys, "girard", str(path))
        assert (code, err) == (0, "")
        assert "cyclic-dualizer=False negation-residuation=False exchange=False" in out
        assert out.endswith("2 laws, 0 failures\n")

    def test_inversion_parsed_before_the_table(self, capsys, tmp_path):
        # the join of a 3-chain is not residuated, yet the bad inversion is the error
        join = tmp_path / "join.struct"
        join.write_text("elements: [0, m, 1]\ncovers: [[0,1], [1,2]]\n"
                        "mul: [[0,1,2], [1,1,2], [2,2,2]]\n")
        assert run(capsys, "girard", str(join))[0] == 1
        code, out, err = run(capsys, "girard", str(join), "--inversion", "x")
        assert (code, out, err) == (2, "", "error: inversion entry 'x' is not an integer\n")

    def test_non_associative_table_exit_one(self, capsys, tmp_path):
        # residua exist for this table, so only the associativity check stops it
        bad = tmp_path / "nonassoc.struct"
        bad.write_text(
            "elements: [0, m, 1]\ncovers: [[0,1], [1,2]]\n"
            "mul: [[0,0,0], [0,0,1], [0,1,1]]\n"
        )
        code, out, err = run(capsys, "girard", str(bad))
        assert code == 1 and err == ""
        assert out == run(capsys, "residuate", str(bad))[1]
        assert out.startswith("multiplication:\n") and "[FAIL] associativity" in out

    def test_non_residuated_table_exit_one(self, capsys, tmp_path):
        # associative, but 1 * 1 = 0 leaves 1 -> 0 without adjointness
        bad = tmp_path / "nonresiduated.struct"
        bad.write_text(
            "elements: [0, m, 1]\ncovers: [[0,1], [1,2]]\n"
            "mul: [[0,0,0], [0,1,0], [0,0,2]]\n"
        )
        code, out, err = run(capsys, "girard", str(bad))
        assert code == 1 and err == ""
        assert out == run(capsys, "residuate", str(bad))[1]
        assert out.startswith("multiplication:\n") and "[FAIL] residuation" in out
        assert run(capsys, "verify", str(bad))[0] == 1

    def test_non_ortholattice_skips_unit_downset(self, capsys, tmp_path):
        # M3 whose ortho is not involutive: the three orthomodularity
        # forms hold, but the carrier is not an orthomodular lattice
        f = tmp_path / "m3-ortho.struct"
        f.write_text(
            "elements: [0, a, b, c, 1]\n"
            "covers: [[0,1], [0,2], [0,3], [1,4], [2,4], [3,4]]\n"
            "ortho: [4, 2, 1, 1, 0]\n"
            "mul: [[0,0,0,0,0], [0,1,2,3,4], [0,2,0,2,2], [0,3,2,1,4], [0,4,2,4,4]]\n"
        )
        code, out, err = run(capsys, "girard", str(f))
        assert code == 0 and err == ""
        assert "  [  --] unit-downset-boolean-block  (carrier is not orthomodular)\n" in out
        assert out.endswith("5 laws, 0 failures\n")


class TestBlocks:
    def test_mo2_two_lines(self, capsys, structures_dir):
        code, out, _ = run(capsys, "blocks", str(structures_dir / "mo2.struct"))
        assert code == 0
        assert out.splitlines() == ["0 a a' 1", "0 b b' 1"]

    def test_rejects_non_oml(self, capsys, structures_dir):
        code, _, err = run(capsys, "blocks", str(structures_dir / "o6.struct"))
        assert code == 2 and "orthomodular" in err

    def test_boolean_256_is_one_block(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "boolean", "--atoms", "8")
        f = tmp_path / "boolean-256.struct"
        f.write_text(out)
        code, out, _ = run(capsys, "blocks", str(f))
        assert code == 0
        assert [len(line.split()) for line in out.splitlines()] == [256]


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "5")
        assert code == 0
        assert "n=4: 2" in out and "n=5: 5" in out

    def test_counts_build_no_lattice(self, capsys, monkeypatch):
        # a count prints the enumerator's counts, or those of the bitmask
        # complementation test, and builds nothing
        def no_build(poset):
            raise AssertionError("a FiniteLattice was built")

        monkeypatch.setattr(search, "compute_lattice", no_build)
        code, out, err = run(capsys, "enumerate", "--max-n", "8")
        counts = [1, 1, 1, 2, 5, 15, 53, 222]
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"n={n}: {c}" for n, c in enumerate(counts, start=1)] + [
            "total: 300"]
        code, out, err = run(capsys, "enumerate", "--max-n", "8", "--complemented")
        counts = [1, 1, 0, 1, 2, 6, 18, 71]
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"n={n}: {c}" for n, c in enumerate(counts, start=1)] + [
            "total: 100 (filters: complemented)"]

    def test_sweep_builds_only_complemented_lattices(self, capsys, monkeypatch):
        calls, real = [], search.compute_lattice

        def counted(poset):
            calls.append(poset)
            return real(poset)

        monkeypatch.setattr(search, "compute_lattice", counted)
        code, out, err = run(capsys, "enumerate", "--max-n", "8", "--confirm-thm2")
        assert (code, err) == (0, "")
        assert "100 complemented lattices checked" in out and len(calls) == 100

    def test_confirm(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-n", "5", "--confirm-thm2")
        assert code == 0
        assert "complemented-integral-iff-boolean" in out

    def test_confirm_to_nine(self, capsys):
        # the sweep is bounded only by the enumeration bound
        code, out, err = run(capsys, "enumerate", "--max-n", "9", "--confirm-thm2")
        assert code == 0 and err == ""
        assert ("407 complemented lattices checked "
                "(per size 1:1, 2:1, 3:0, 4:1, 5:2, 6:6, 7:18, 8:71, 9:307)") in out

    def test_complemented_counts_to_nine(self, capsys):
        code, out, err = run(capsys, "enumerate", "--max-n", "9", "--complemented")
        assert code == 0 and err == ""
        counts = [1, 1, 0, 1, 2, 6, 18, 71, 307]
        assert out.splitlines() == [f"n={n}: {c}" for n, c in enumerate(counts, start=1)] + [
            "total: 407 (filters: complemented)"]

    def test_confirm_enumerates_once(self, capsys, monkeypatch):
        # the sweep checks the lattices the counts came from, and its
        # report equals a sweep over a separate enumeration
        expected = render_report([("search", [confirm_boolean_forcing(
            search.enumerate_lattices(6))])], "human")
        calls, real = [], search.enumerate_lattices

        def enumerate_lattices(*args):
            calls.append(args)
            return real(*args)

        def no_enumeration(*args):
            raise AssertionError("the sweep enumerated again")

        monkeypatch.setattr("girardlab.cli.enumerate_lattices", enumerate_lattices)
        monkeypatch.setattr("girardlab.search.enumerate_lattices", no_enumeration)
        for flags in ([], ["--complemented"]):
            code, out, _ = run(capsys, "enumerate", "--max-n", "6", "--confirm-thm2", *flags)
            assert code == 0 and out.endswith(expected)
        assert len(calls) == 2

    def test_enumeration_bound_still_reported_first(self, capsys):
        code, out, err = run(capsys, "enumerate", "--max-n", "13", "--confirm-thm2")
        assert (code, out, err) == (2, "", "error: max_n must be in 1..12\n")


EMPTY = hashlib.sha256(b"").hexdigest()
# sha256 of stdout and the exit code of `search-residuation FILE --mode MODE` at the
# default budget; a file the unital command rejects prints nothing on stdout
SEARCH_PINS = {
    ("integral", "boolean-2"): (0, "dbdf716b5a8ad90d47e473534a18447880686a62561ce6ec11ac6cefbf5245f4"),
    ("integral", "boolean-4"): (0, "c160eadc954ec26e36bb3049480134a24bb55525a35962256e641de2090186d8"),
    ("integral", "boolean-8"): (0, "337580e89803f8d8f15cdfb2bd1c381b856751ea0c29f6bdc08d5b4b04ca0222"),
    ("integral", "godel-3"): (0, "491305c3f115dd670cc4808492a50618d27b7f3911f7761c5a6aa3d863a8b50b"),
    ("integral", "lukasiewicz-3"): (0, "7f059707b641bf31fa3162723664acbe9c071f0358d33c75086c71810ad2e3a3"),
    ("integral", "lukasiewicz-4"): (0, "588c432386f149a1cb0824e790b4390fa3dab8b181dd399bb30d375797c2d6a3"),
    ("integral", "lukasiewicz-5"): (0, "1b1ecac4366932babf589bc5c80401f9f55b0e40b72735ac2adbbd336f7fcb20"),
    ("integral", "m3"): (0, "1fdd1ff1c1569c85113128c4716d92a2ca4cb4db5377f9b536f0e41234ecab08"),
    ("integral", "mo2"): (0, "3fc3c02f387880f2a3775c84af610f9b9f55e924b577de31f2806faf055c64aa"),
    ("integral", "mo3"): (0, "1a2ce6d735c9b93dfaec5e1b042aa6a2d620514856609d94839f0be6ea8f9053"),
    ("integral", "n5"): (0, "c2582dab63a973380b27e650bb0175bcf91a589fc5e0710440a48bebb5527df5"),
    ("integral", "o6"): (0, "aec2968f0479a2b5fd9bed65dafcfc84fa66f78b388aabef2c439cf24ea4307f"),
    ("unital", "boolean-2"): (0, "f4df48eb221dd1f661967a754e6729ea23f64fc23e24cce46cc0835dd9aeedeb"),
    ("unital", "boolean-4"): (0, "294e26e1f8c2812bbbd3cde5f994134f9377ed3eb14739406de39dd83ec06357"),
    ("unital", "boolean-8"): (0, "cadd25ebd9db1cc90cf0e96033ce93a2da8620acd9e47ede83d3ef2ee541b97e"),
    ("unital", "godel-3"): (2, EMPTY),
    ("unital", "lukasiewicz-3"): (2, EMPTY),
    ("unital", "lukasiewicz-4"): (2, EMPTY),
    ("unital", "lukasiewicz-5"): (2, EMPTY),
    ("unital", "m3"): (2, EMPTY),
    ("unital", "mo2"): (0, "88323144d72bada76ac3c298fca8ef6c71e0166ee44c239e31c66e8383617768"),
    ("unital", "mo3"): (0, "629a393cbccc6cb7f421448543ad05447b4329ff1f26de342e6b5b87cb71412d"),
    ("unital", "n5"): (2, EMPTY),
    ("unital", "o6"): (2, EMPTY),
}


class TestSearchResiduation:
    def test_integral_m3_empty(self, capsys, structures_dir):
        code, out, _ = run(
            capsys, "search-residuation", str(structures_dir / "m3.struct"),
            "--mode", "integral",
        )
        assert code == 0
        assert "found=0 exhausted=True" in out

    def test_integral_chain_emits_structure_files(self, capsys, tmp_path):
        f = tmp_path / "chain3.struct"
        f.write_text("elements: [0, m, 1]\ncovers: [[0,1], [1,2]]\n")
        code, out, _ = run(capsys, "search-residuation", str(f), "--mode", "integral")
        assert code == 0 and "found=2" in out
        blockstexts = [b for b in out.split("# solution") if "mul:" in b]
        assert len(blockstexts) == 2
        for b in blockstexts:
            sf = parse(b[b.index("elements"):])
            assert sf.mul is not None and sf.unit == 2

    def test_covers_found_once_per_run(self, capsys, structures_dir, monkeypatch):
        # every solution is printed on the same carrier, with the covers
        # from_lattice would give it
        calls, real = [], structfile.hasse_covers

        def hasse_covers(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(structfile, "hasse_covers", hasse_covers)
        code, out, _ = run(capsys, "search-residuation", str(structures_dir / "boolean-4.struct"),
                           "--mode", "unital")
        blocks = [b[b.index("elements"):] for b in out.split("# solution")[1:]]
        assert code == 0 and len(blocks) > 1 and len(calls) == 1
        carrier = build_lattice(load(structures_dir / "boolean-4.struct"))
        for b in blocks:
            sf = parse(b.split("\nunit-downset:")[0])
            assert sf.covers == tuple(real(carrier))

    def test_unital_needs_ortho(self, capsys, structures_dir):
        code, _, err = run(
            capsys, "search-residuation", str(structures_dir / "m3.struct"),
            "--mode", "unital", "--budget", "10",
        )
        assert code == 2

    def test_unital_mo2(self, capsys, structures_dir):
        code, out, _ = run(
            capsys, "search-residuation", str(structures_dir / "mo2.struct"),
            "--mode", "unital", "--budget", "20000",
        )
        assert code == 0
        assert "exhausted=False" in out and "unit-downset-boolean-block" in out

    def test_mo2_exhaustive_one_report_per_table(self, capsys, structures_dir):
        # the unit-downset section lists the proposition's report for the
        # unit of each table, in the order of the tables
        path = structures_dir / "mo2.struct"
        code, out, _ = run(capsys, "search-residuation", str(path), "--mode", "unital")
        o = build_ortholattice(load(path))
        result = search_unital_residuation(o.lattice)
        assert code == 0 and result.exhausted and len(result.structures) == 248
        reports = [girard.check_unit_downset_boolean(o, s) for s in result.structures]
        section = render_report([("unit-downset", reports)], "human")
        assert out.endswith("\n" + section) and out.count("unit-downset:") == 1

    def test_output_pinned_on_every_file(self, capsys, structures_dir):
        # both modes on the checked-in files, every byte of stdout
        for (mode, name), pin in SEARCH_PINS.items():
            code, out, _ = run(capsys, "search-residuation", str(structures_dir / f"{name}.struct"),
                               "--mode", mode)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == pin, (mode, name)
        assert {name for _, name in SEARCH_PINS} == {
            path.stem for path in structures_dir.glob("*.struct")}

    def test_closed_stdout_exits_one_silently(self, structures_dir):
        # the exhaustive MO2 search writes 89750 bytes, more than a pipe
        # buffer holds, so writing fails once the reader has gone
        src = str(structures_dir.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "girardlab.cli", "search-residuation",
             str(structures_dir / "mo2.struct"), "--mode", "unital", "--budget", "3000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert first == b"mode=unital found=248 exhausted=True nodes=22027\n"
        assert err == b""

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, capsys, structures_dir, budget):
        with pytest.raises(SystemExit) as exc:
            main(["search-residuation", str(structures_dir / "boolean-4.struct"),
                  "--mode", "unital", "--budget", budget])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"--budget: must be at least 1, got {budget}" in err

    def test_budget_bounds_the_node_count(self, capsys, structures_dir):
        code, out, _ = run(capsys, "search-residuation", str(structures_dir / "boolean-4.struct"),
                           "--mode", "unital", "--budget", "10")  # exhausts at 14 nodes
        assert code == 0
        assert out.splitlines()[0].endswith(" exhausted=False nodes=10")

    def test_budget_bounds_the_integral_search(self, capsys, tmp_path):
        # unbounded, the integral search on this chain runs for minutes
        code, out, _ = run(capsys, "gen", "godel", "--size", "20")
        f = tmp_path / "godel-20.struct"
        f.write_text(out)
        code, out, _ = run(capsys, "search-residuation", str(f), "--mode", "integral",
                           "--budget", "5000")
        assert code == 0
        assert out.splitlines()[0].endswith(" exhausted=False nodes=5000")

    @pytest.mark.parametrize("family", ["lukasiewicz", "godel"])
    def test_integral_search_deeper_than_the_recursion_limit(self, structures_dir, tmp_path,
                                                            family):
        # the 60-chain has 3481 cells, one search level each; as in a
        # user's shell, a subprocess at the interpreter's default limit
        src = str(structures_dir.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        cmd = [sys.executable, "-m", "girardlab.cli"]
        f = tmp_path / f"{family}-60.struct"
        f.write_text(subprocess.run(cmd + ["gen", family, "--size", "60"], capture_output=True,
                                    text=True, env=env, check=True).stdout)
        proc = subprocess.run(cmd + ["search-residuation", str(f), "--mode", "integral",
                                     "--budget", "5000"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        head = proc.stdout.splitlines()[0]
        assert head.startswith("mode=integral found=")
        assert head.endswith(" exhausted=False nodes=5000")


class TestRn:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "rn", "--dim", "2", "--trials", "25", "--seed", "3")
        assert code == 0
        assert "ortho-is-linear-negation" in out and "0 failures" in out

    def test_machine_format_lines(self, capsys):
        code, out, _ = run(
            capsys, "rn", "--dim", "1", "--trials", "5", "--seed", "0", "--format", "machine"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_bad_dim(self, capsys):
        code, _, err = run(capsys, "rn", "--dim", "0", "--trials", "5", "--seed", "0")
        assert code == 2

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rn", "--dim", "2", "--trials", "5", "--seed", "-1"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--seed: must be at least 0, got -1" in err

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_failure_witness_is_seed_and_trial(self, capsys, monkeypatch, fmt):
        # an equality tolerance of 1e-300 fails every law whose two sides
        # are different bases of one subspace; trial 1 compares the unit
        # times a 2-dimensional s with s itself
        monkeypatch.setattr(subspaces, "tau_eq", lambda n: 1e-300)
        argv = ["rn", "--dim", "3", "--trials", "2", "--seed", "1", "--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        if fmt == "machine":
            assert "unit-law\tFAIL\t[1, 0]" in out.splitlines()
        else:
            assert "  [FAIL] unit-law  witness=[1, 0]  (" in out

    @pytest.mark.parametrize("flag", ["--tol-rank", "--tol-eq"])
    def test_tolerances_are_not_options(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["rn", "--dim", "3", flag, "1e-9"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 1e-9" in err


class TestRnOp:
    def test_mul(self, capsys):
        code, out, _ = run(
            capsys, "rn-op", "--dim", "2", "--op", "mul", "--a", "1,-1", "--b", "1,-1"
        )
        assert code == 0 and out.startswith("dim: 1")

    def test_ortho(self, capsys):
        code, out, _ = run(capsys, "rn-op", "--dim", "3", "--op", "ortho", "--a", "1,1,1")
        assert code == 0 and out.startswith("dim: 2")

    def test_full_result_prints_standard_basis(self, capsys):
        code, out, _ = run(capsys, "rn-op", "--dim", "3", "--op", "mul", "--a", "1,2,3",
                           "--b", "1,1,1;0,1,0;0,0,1")
        assert (code, out) == (0, "dim: 3\n1;0;0\n0;1;0\n0;0;1\n")

    def test_huge_finite_coordinates_do_not_warn(self, structures_dir):
        # a subprocess, so that a RuntimeWarning reaches stderr as a user sees it
        src = str(structures_dir.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "girardlab.cli", "rn-op", "--dim", "2", "--op", "ortho",
             "--a", "1e308,1e308;1e308,-1e308"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "dim: 0\n", "")

    @staticmethod
    def ortho_under_warnings_as_errors(structures_dir, a):
        """rn-op --op ortho in R^20 on the columns of a, run by python -W error."""
        vectors = ";".join(",".join(repr(float(x)) for x in col) for col in a.T)
        src = str(structures_dir.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "girardlab.cli", "rn-op", "--dim", "20",
             "--op", "ortho", f"--a={vectors}"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )

    @pytest.mark.parametrize("scale", [1e308, 1e-300])
    def test_tall_spans_at_extreme_scales(self, structures_dir, scale):
        # 16 vectors in R^20 take the Gram-certified QR route, whose A^T A
        # over- or underflows unless the vectors are rescaled.  At 1e308
        # sigma_0 itself overflows, so the reference is taken at scale 1
        k = 16
        unit = np.random.default_rng(20).uniform(-1.0, 1.0, (20, k))
        proc = self.ortho_under_warnings_as_errors(structures_dir, unit * scale)
        assert (proc.returncode, proc.stderr) == (0, "")
        head, *rows = proc.stdout.splitlines()
        want = 20 - ref.orthonormal_range(unit, subspaces.TAU_RANK).shape[1]
        assert head == f"dim: {want}" and len(rows) == want == 20 - k
        basis = np.array([[float(x) for x in row.split(";")] for row in rows])
        assert np.allclose(basis @ basis.T, np.eye(want), rtol=0, atol=1e-10)
        assert np.abs(basis @ unit).max() <= 1e-10

    @pytest.mark.parametrize("k", [5, 10, 15])
    def test_overflowing_largest_singular_value(self, structures_dir, k):
        # fewer than 16 vectors in R^20 are split by one SVD, whose sigma_0
        # overflows to inf at this scale; the rank is k all the same
        a = np.random.default_rng(20).uniform(-1.0, 1.0, (20, k)) * 1e308
        proc = self.ortho_under_warnings_as_errors(structures_dir, a)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[0] == f"dim: {20 - k}"

    @pytest.mark.parametrize("a", ["1,inf", "1,nan"])
    def test_non_finite_coordinate_is_an_input_error(self, capsys, a):
        code, out, err = run(capsys, "rn-op", "--dim", "2", "--op", "ortho", f"--a={a}")
        assert (code, out, err) == (2, "", "error: vector coordinates must be finite\n")

    @pytest.mark.parametrize("a, bad", [("a,b", "a"), ("1,0;1,x", "x"), ("1,", "")])
    def test_coordinate_not_a_number(self, capsys, a, bad):
        code, out, err = run(capsys, "rn-op", "--dim", "2", "--op", "ortho", f"--a={a}")
        assert (code, out, err) == (2, "", f"error: vector entry {bad!r} is not a number\n")

    def test_meet_requires_b(self, capsys):
        code, _, err = run(capsys, "rn-op", "--dim", "2", "--op", "meet", "--a", "1,0")
        assert code == 2


class TestGen:
    @pytest.mark.parametrize(
        "argv",
        [("gen", "lukasiewicz", "--size", "4"),
         ("gen", "godel", "--size", "3"),
         ("gen", "boolean", "--atoms", "2")],
        ids=["lukasiewicz", "godel", "boolean"],
    )
    def test_emits_parseable_structure(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        sf = parse(out)
        assert sf.mul is not None and sf.unit is not None

    @pytest.mark.parametrize("atoms", range(9))
    def test_boolean_prints_the_canonical_residuation(self, capsys, atoms):
        # the canonical multiplication is the meet, printed without
        # deriving the residua it has
        o = boolean_ortho(atoms)
        lat = o.lattice
        expected = serialize(from_lattice(lat, ortho=o.ortho, mul=boolean_residuation(lat).mul,
                                          unit=lat.top, dualizing=lat.bottom))
        assert run(capsys, "gen", "boolean", "--atoms", str(atoms)) == (0, expected, "")

    def test_boolean_atom_bound_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "gen", "boolean", "--atoms", "9")
        assert code == 2 and out == ""
        assert err == "error: at most 8 atoms are supported\n"


class TestExportDot:
    def test_m3(self, capsys, structures_dir):
        code, out, _ = run(capsys, "export-dot", str(structures_dir / "m3.struct"))
        assert code == 0
        assert out.count("->") == 6 and "rankdir=BT" in out

    @pytest.mark.parametrize("label, quoted", [('a"b', r'"a\"b"'), ("a\\", r'"a\\"')])
    def test_label_quote_and_backslash_escaped(self, capsys, tmp_path, label, quoted):
        f = tmp_path / "labels.struct"
        f.write_text(f"elements: [0, {label}, 1]\ncovers: [[0,1], [1,2]]\n")
        code, out, _ = run(capsys, "export-dot", str(f))
        assert code == 0 and f"  n1 [label={quoted}];\n" in out

    def test_library_function_counts(self):
        assert export_dot(chain(2)).count("->") == 1
        assert export_dot(diamond_m3()).count("->") == 6


class TestRender:
    def test_empty_bundle(self):
        text = render_report([], "human")
        assert "no laws evaluated" in text

    def test_machine_escapes_witness(self):
        text = render_report([("m", [law_fail("law", (1, 2))])], "machine")
        assert text == "law\tFAIL\t[1, 2]\n"

    def test_human_marks(self):
        text = render_report([("m", [law_pass("good"), law_fail("bad", (0,))])], "human")
        assert "[  ok] good" in text and "[FAIL] bad" in text


# Inputs the checked-in files lack, written to a temporary directory.
INPUT_FILES = {
    "no-unit": "elements: [0, 1]\ncovers: [[0,1]]\nmul: [[0, 0], [0, 0]]\n",
    "antichain": "elements: [a, b]\ncovers: []\northo: [1, 0]\n",
    "cyclic": "elements: [a, b]\nleq: [[0,0], [1,1], [0,1], [1,0]]\n",
    "colon-label": "elements: [0, x:y, 1]\ncovers: [[0,1], [1,2]]\n",
}

L3 = "{structures}/lukasiewicz-3.struct"

# One case per raise site that command-line input reaches, with the exact
# error line; the id names the site.  Sites already pinned elsewhere are
# not repeated: cli._entries (TestGirard::test_inversion_entry_not_an_integer),
# orders.as_order_map length (TestGirard::test_bad_inversion_prints_nothing_on_stdout),
# catalog.boolean_cube at 9 atoms (TestGen::test_boolean_atom_bound_is_an_input_error),
# subspaces.span finiteness (TestRnOp::test_non_finite_coordinate_is_an_input_error),
# search.enumerate_lattices (TestEnumerate::test_enumeration_bound_still_reported_first).
INPUT_ERRORS = [
    pytest.param(["rn-op", "--dim", "2", "--op", "mul", "--a=1,-1"], "op mul needs --b",
                 id="cli.cmd_rn_op"),
    pytest.param(["rn-op", "--dim", "3", "--op", "ortho", "--a", "1,1,1", "--b", "garbage"],
                 "op ortho takes no --b", id="cli.cmd_rn_op-ortho-with-b"),
    pytest.param(["girard", L3, "--inversion", "0,1,5"], "map value 5 at 2 out of range",
                 id="orders.as_order_map-range"),
    pytest.param(["girard", L3, "--inversion", "0,1,2"],
                 "supplied map is not an inversion of the carrier order",
                 id="girard._candidate_inversions-not-an-inversion"),
    pytest.param(["girard", "{tmp}/no-unit.struct"], "agreement check needs a unital structure",
                 id="girard.girard_equivalences"),
    pytest.param(["gen", "boolean", "--atoms", "-1"], "need k >= 0 atoms",
                 id="catalog.boolean_cube-negative"),
    pytest.param(["gen", "lukasiewicz", "--size", "1"], "need at least two elements",
                 id="residuation._chain_with_fraction_labels-too-small"),
    pytest.param(["gen", "godel", "--size", "100000000000"], "at most 256 elements are supported",
                 id="residuation._chain_with_fraction_labels-too-large"),
    pytest.param(["rn", "--dim", "65"], "dimension must be in 1..64",
                 id="subspaces.check_dimension"),
    # the dimension is checked before the trial count and before the vectors
    pytest.param(["rn", "--dim", "65", "--trials", "0"], "dimension must be in 1..64",
                 id="subspaces.check_dimension-before-trials"),
    pytest.param(["rn-op", "--dim", "65", "--op", "ortho", "--a=x"], "dimension must be in 1..64",
                 id="subspaces.check_dimension-before-vectors"),
    pytest.param(["rn-op", "--dim", "2", "--op", "ortho", "--a=1,2,3"],
                 "expected vectors of length 2", id="subspaces.span-length"),
    pytest.param(["rn", "--dim", "3", "--trials", "0"], "need at least one trial",
                 id="subspaces.verify_quantale_laws"),
    pytest.param(["search-residuation", "{structures}/o6.struct", "--mode", "unital"],
                 "unital search expects an orthomodular carrier",
                 id="cli.cmd_search_residuation"),
    pytest.param(["blocks", "{structures}/o6.struct"],
                 "blocks are defined for orthomodular lattices", id="ortho.blocks"),
    pytest.param(["blocks", "{tmp}/antichain.struct"], "no bottom element; extremes (0, 1)",
                 id="orders.OrderError"),
    pytest.param(["export-dot", "{tmp}/cyclic.struct"], "antisymmetry violated at (0, 1)",
                 id="orders.PosetViolation"),
    pytest.param(["blocks", "{structures}/m3.struct"], "file has no ortho section",
                 id="structfile.StructError"),
    pytest.param(["residuate", "{structures}/m3.struct"], "file has no mul section",
                 id="cli._residuated"),
]


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        built, real = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(2):
            assert run(capsys, "gen", "lukasiewicz", "--size", "3")[0] == 0
        assert built.count("girardlab") == 1

    def test_usage_error_repeats_on_the_current_stderr(self, capsys):
        # the shared parser prints to the stderr of the call, the same text each time
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["enumerate"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr())
        assert errors[0] == errors[1] and errors[0].out == ""
        assert errors[0].err.startswith("usage: girardlab enumerate")


class TestInputErrors:
    @pytest.fixture
    def inputs(self, tmp_path):
        for name, text in INPUT_FILES.items():
            (tmp_path / f"{name}.struct").write_text(text)
        return tmp_path

    @pytest.mark.parametrize("argv, message", INPUT_ERRORS)
    def test_one_error_line_and_exit_two(self, capsys, structures_dir, inputs, argv, message):
        argv = [a.format(structures=structures_dir, tmp=inputs) for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [["verify"], ["export-dot"],
                                         ["search-residuation", "--mode", "integral"]])
    def test_colon_label_rejected_before_any_output(self, capsys, inputs, command):
        # serialize cannot write the label, so no command may start its output
        argv = [command[0], str(inputs / "colon-label.struct"), *command[1:]]
        assert run(capsys, *argv) == (
            2, "", "error: line 1: expected a label without ':', not 'x:y'\n")

    @pytest.mark.parametrize("key, message", [
        pytest.param("elements", "line 1: expected flat label tokens", id="elements"),
        pytest.param("covers", "line 2: expected [i, j] pairs in covers", id="covers"),
        pytest.param("leq", "line 2: expected [i, j] pairs in leq", id="leq"),
        pytest.param("ortho", "line 3: expected an ortho list of length 2", id="ortho"),
        pytest.param("mul", "line 4: expected 2 mul rows", id="mul"),
        pytest.param("unit", "line 5: expected an integer for unit", id="unit"),
        pytest.param("dualizing", "line 6: expected an integer for dualizing", id="dualizing"),
    ])
    def test_value_nested_past_the_recursion_limit(self, capsys, tmp_path, key, message):
        sections = {"elements": "[a, b]", "covers": "[[0, 1]]", "ortho": "[1, 0]",
                    "mul": "[[0, 0], [0, 1]]", "unit": "1", "dualizing": "0"}
        if key == "leq":
            sections = {("leq" if k == "covers" else k): v for k, v in sections.items()}
        sections[key] = "[" * 3000 + "0" + "]" * 3000
        path = tmp_path / "deep.struct"
        path.write_text("".join(f"{k}: {v}\n" for k, v in sections.items()))
        assert run(capsys, "verify", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [["verify"], ["residuate"], ["girard"], ["blocks"],
                                         ["export-dot"], ["search-residuation", "--mode", "unital"]])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "binary.struct"
        path.write_bytes(b"\xff")
        assert run(capsys, command[0], str(path), *command[1:]) == (
            2, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("name, argv, exc", [
        ("lukasiewicz_chain", ["gen", "lukasiewicz", "--size", "3"],
         AdjointnessFailure((0, 0, 0))),
        ("verify_quantale_laws", ["rn", "--dim", "2", "--trials", "1"], ValueError("internal")),
    ], ids=["AdjointnessFailure", "ValueError"])
    def test_engine_failure_is_not_an_input_error(self, monkeypatch, name, argv, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, broken)
        with pytest.raises(type(exc)) as raised:
            main(argv)
        assert raised.value is exc
