"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is pinned here, not configured elsewhere.
"""
import math
import time

import numpy as np
import pytest

from fixtures import boolean_residuation, drastic_chain, rebased
from girardlab.catalog import benzene_o6, boolean_cube, boolean_ortho, diamond_m3, \
    horizontal_sum_mo
from girardlab.cli import main
from girardlab.girard import check_dualizer_join_formula, find_cyclic_dualizing, \
    check_quantale, girard_equivalences
from girardlab.ortho import check_ortholattice, check_orthomodular, downset_oml
from girardlab.residuation import (
    ResiduationError,
    check_associative,
    derive_residua,
    godel_chain,
    lukasiewicz_chain,
)
from girardlab.search import confirm_boolean_forcing, enumerate_lattices, \
    search_integral_residuation
from girardlab.structfile import build_ortholattice, load
from girardlab.subspaces import (
    dualizing,
    equal,
    join,
    leq,
    mul,
    random_subspace,
    residuum,
    tau_eq,
    verify_quantale_laws,
    zero,
)


def announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS  {text}")


def test_criterion_1_boolean_forcing_exhaustive_to_eight(capsys):
    started = time.monotonic()
    report = confirm_boolean_forcing(enumerate_lattices(8))
    assert report.passed, str(report)
    with capsys.disabled():
        pass
    exit_code = main(["enumerate", "--max-n", "8", "--confirm-thm2"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "n=8: 222" in out
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    announce(1, f"{report.note}; {elapsed:.1f}s")


def test_criterion_2_negative_instances_and_cube():
    started = time.monotonic()
    m3 = search_integral_residuation(diamond_m3())
    assert m3.found == [] and m3.exhausted
    o6 = search_integral_residuation(benzene_o6().lattice)
    assert o6.found == [] and o6.exhausted
    cube = search_integral_residuation(boolean_cube(3))
    assert cube.exhausted and len(cube.found) == 1
    assert (cube.found[0] == boolean_cube(3).meet).all()
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce(2, f"M3 and O6 empty, 2^3 exactly the meet; {elapsed:.1f}s")


def test_criterion_3_subspace_quantale_laws():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3, 4, 6, 8):
        assert tau_eq(n) == pytest.approx(1e-8 * math.sqrt(n))
        reports = verify_quantale_laws(n, trials=1000, seed=42)
        assert len(reports) == 9
        bad = [str(r) for r in reports if not r.passed]
        assert not bad, f"n={n}: {bad}"
        checked += len(reports)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(3, f"{checked} law families over n in (1,2,3,4,6,8), 1000 trials each, "
                f"seed 42; {elapsed:.1f}s")


def test_criterion_4_dualizer_join_formula():
    for s in (lukasiewicz_chain(3), lukasiewicz_chain(4), lukasiewicz_chain(5),
              boolean_residuation(boolean_cube(1)), boolean_residuation(boolean_cube(2)),
              boolean_residuation(boolean_cube(3))):
        (cert,) = find_cyclic_dualizing(s)
        assert cert.d == s.lattice.bottom
        assert check_dualizer_join_formula(s, cert, [cert]).passed

    d = dualizing(2)
    acc = zero(2)
    for trial in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((271828, trial)))
        s = random_subspace(2, rng)
        product = mul(s, residuum(s, d))
        assert leq(product, d)
        acc = join(acc, product)
    assert equal(acc, d)
    announce(4, "exact join formula on MV chains and Boolean cubes; "
                "sampled join over 100 self-products equals d on R^2")


def test_criterion_5_recognition_agreement_suite():
    positives = [boolean_residuation(boolean_cube(k)) for k in range(4)]
    positives += [lukasiewicz_chain(m) for m in range(2, 9)]
    negatives = [godel_chain(m) for m in range(3, 9)]
    negatives += [drastic_chain(m) for m in range(4, 8)]
    assert len(positives) + len(negatives) >= 20
    for s in positives:
        report = girard_equivalences(s)
        assert report.agreement.passed, f"DISAGREEMENT on a positive: {report}"
        assert report.has_cyclic_dualizer
    for s in negatives:
        report = girard_equivalences(s)
        assert report.agreement.passed, f"DISAGREEMENT on a negative: {report}"
        assert not report.has_cyclic_dualizer
    announce(5, f"three deciders agree on {len(positives)} positive and "
                f"{len(negatives)} negative structures")


def test_criterion_6_downsets_stay_orthomodular():
    checked = 0
    for o in (horizontal_sum_mo(2), horizontal_sum_mo(3), boolean_ortho(3)):
        for a in range(o.n):
            d = downset_oml(o, a)
            assert check_ortholattice(d.lattice, d.ortho).passed, (o, a)
            assert all(r.passed for r in check_orthomodular(d)), (o, a)
            checked += 1
    announce(6, f"{checked} principal downsets re-verified as orthomodular lattices")


def test_criterion_7_orthomodularity_conditions_agree(structures_dir):
    with_ortho = ["boolean-2.struct", "boolean-4.struct", "boolean-8.struct",
                  "o6.struct", "mo2.struct", "mo3.struct"]
    agreed = 0
    for name in with_ortho:
        o = build_ortholattice(load(structures_dir / name))
        assert check_ortholattice(o.lattice, o.ortho).passed
        verdicts = [r.passed for r in check_orthomodular(o)]
        assert len(set(verdicts)) == 1, f"{name}: conditions disagree: {verdicts}"
        expected = name != "o6.struct"
        assert verdicts[0] is expected, name
        agreed += 1
    announce(7, f"three conditions agree on {agreed} shipped ortholattices; "
                "O6 fails all three, the rest pass all three")


def test_criterion_8_product_basis_independence():
    failures = 0
    assert tau_eq(8) == pytest.approx(1e-8 * math.sqrt(8))
    for trial in range(500):
        rng = np.random.default_rng(np.random.SeedSequence((314159, trial)))
        s = random_subspace(8, rng)
        t = random_subspace(8, rng)
        if not equal(mul(s, t), mul(rebased(s, rng), rebased(t, rng))):
            failures += 1
    assert failures == 0
    announce(8, "500 random orthogonal re-basings leave the product unchanged "
                "within 1e-8*sqrt(n)")


def _quantale_versus_residuation(lat, table):
    quantale = check_quantale(lat, table).passed
    if check_associative(table).failed:
        residuated = False
    else:
        try:
            derive_residua(lat, table)
            residuated = True
        except ResiduationError:
            residuated = False
    return quantale, residuated


def test_criterion_9_oracle_cross_checks():
    cube = boolean_cube(3)
    reference = boolean_residuation(cube)
    rres, lres = derive_residua(cube, cube.meet)
    assert (rres == reference.rres).all() and (lres == reference.lres).all()

    bases = [
        lukasiewicz_chain(4), godel_chain(4), drastic_chain(5),
        boolean_residuation(boolean_cube(2)),
    ]
    rng = np.random.default_rng(987)
    mutants = []
    flipped_categories = set()
    while len(mutants) < 50:
        base = bases[int(rng.integers(len(bases)))]
        table = np.array(base.mul)
        n = base.n
        x, y = int(rng.integers(n)), int(rng.integers(n))
        v = int(rng.integers(n))
        if table[x, y] == v:
            continue
        table[x, y] = v
        quantale, residuated = _quantale_versus_residuation(base.lattice, table)
        assert quantale == residuated, (
            f"equivalence broken: quantale={quantale} residuated={residuated}"
        )
        mutants.append((x, y, v))
        if not quantale:
            report = check_quantale(base.lattice, table)
            if "associative" in report.note:
                flipped_categories.add("associativity")
            elif "zero" in report.note:
                flipped_categories.add("zero-law")
            else:
                flipped_categories.add("join-distribution")
    assert flipped_categories >= {"associativity", "zero-law", "join-distribution"}, (
        f"mutation coverage too thin: {flipped_categories}"
    )
    announce(9, f"boolean residuation reproduced cell-for-cell; quantale/residuation "
                f"equivalence held on {len(mutants)} mutants covering {sorted(flipped_categories)}")
