"""Acceptance gate: one test per released guarantee, at full case counts.

Each test prints a single human-readable verdict line so a run of this
file doubles as the release checklist. Seeds are fixed; every criterion
is reproducible from the command line via the ``verify`` subcommand
with the same seed and case budget.

Criteria whose suites the default run (criterion 11) covers at the same
seed and case budget read their results from that one run.
"""

import pytest

from hypmeasure.verify import run_suite, run_verify

SEED = 42


@pytest.fixture(scope="module")
def full_verify():
    """The default verify run, ``run_verify(SEED, 1000)``, made once."""
    return run_verify(seed=SEED, cases=1_000)


def _suite(report, name):
    """One suite's result in a verify report."""
    return next(s for s in report.suites if s.name == name)


def _check(capsys, num, name, results, budget=None):
    """Print the verdict line and assert every suite result passed."""
    if isinstance(results, (list, tuple)):
        group = list(results)
    else:
        group = [results]
    cases = sum(r.cases for r in group)
    failures = sum(r.failures for r in group)
    seconds = sum(r.seconds for r in group)
    ok = failures == 0
    detail = f"{cases} cases, {failures} failures, {seconds:.2f}s"
    if budget is not None:
        detail += f" < {budget:g}s"
        ok = ok and seconds < budget
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {verdict} ({detail})")
    for r in group:
        assert r.failures == 0, (r.name, r.first_counterexample)
    if budget is not None:
        assert seconds < budget


def test_criterion_01_algebra(capsys):
    # ring laws, idempotent identities, canonical round trip,
    # zero-divisor criterion; 10^4 cases within 1e-12, under 5 s
    res = run_suite("algebra", SEED, 10_000)
    _check(capsys, 1, "algebra", res, budget=5.0)


def test_criterion_02_order(capsys):
    # partial-order axioms and sup attainment on sets up to 64
    # elements; 10^4 cases, exact
    res = run_suite("order", SEED, 10_000)
    _check(capsys, 2, "order", res)


def test_criterion_03_integration(capsys):
    # linearity, modulus inequality and polar reconstruction on
    # random (f, mu) over 1-8 atom spaces; 10^4 cases
    res = run_suite("integration", SEED, 10_000)
    _check(capsys, 3, "integration", res)


def test_criterion_04_dominated_convergence(capsys, full_verify):
    # 200 generated instances, 100 terms each: domination holds and
    # the L1 gap drops below 0.05*(e1+e2)*integral(g); under 5 s
    res = _suite(full_verify, "dct")
    assert res.cases == 200
    _check(capsys, 4, "dominated convergence", res, budget=5.0)


def test_criterion_05_total_variation(capsys, full_verify):
    # closed form equals brute-force partition enumeration, exact,
    # on spaces with at most 6 atoms; 10^3 cases
    res = _suite(full_verify, "total-variation")
    _check(capsys, 5, "total variation", res)


def test_criterion_06_jordan_hahn(capsys, full_verify):
    # difference/variation identities exact on integer masses and
    # cell formulas match on every subset; 10^3 cases
    res = _suite(full_verify, "jordan-hahn")
    _check(capsys, 6, "jordan/hahn", res)


def test_criterion_07_polar_measure(capsys, full_verify):
    # unimodular density reconstructs the measure on all subsets of
    # spaces with at most 6 atoms; 10^3 cases
    res = _suite(full_verify, "polar-measure")
    _check(capsys, 7, "polar factorization", res)


def test_criterion_08_lebesgue_radon_nikodym(capsys, full_verify):
    # exact sum, absolute continuity, singularity, density integral
    # within 1e-12 on all subsets, atomwise uniqueness; 10^3 cases
    res = _suite(full_verify, "lrn")
    _check(capsys, 8, "lebesgue/radon-nikodym", res)


def test_criterion_09_epsilon_delta(capsys, full_verify):
    # returned delta passes exhaustive subset verification on up to
    # 10 atoms; no witness exactly when continuity fails; 10^3 cases
    res = _suite(full_verify, "epsilon-delta")
    _check(capsys, 9, "epsilon-delta witness", res)


def test_criterion_10_dynamics(capsys, full_verify):
    # change of variables and push-forward linearity exact at 10^4;
    # cesaro limits invariant at 1e-12 and inside the brute-force
    # hull on spaces up to 1000 atoms; nonempty basis for 10^3 maps
    results = [
        run_suite("change-of-variables", SEED, 10_000),
        run_suite("pushforward-linearity", SEED, 10_000),
        _suite(full_verify, "cesaro-hull"),
        _suite(full_verify, "invariant-nonempty"),
    ]
    _check(capsys, 10, "dynamics", results)


def test_criterion_11_full_verify_wall_time(capsys, full_verify):
    # the complete default verification run finishes within 60 s
    report = full_verify
    ok = report.all_passed and report.total_seconds < 60.0
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(
            f"criterion 11 full verify: {verdict} "
            f"({len(report.suites)} suites, all_passed={report.all_passed}, "
            f"{report.total_seconds:.2f}s < 60s)"
        )
    assert report.all_passed
    assert report.total_seconds < 60.0
    # Each suite runs 1000 // scale cases; the benchmark's verify workload
    # is scored only while these counts hold.
    assert {s.name: s.cases for s in report.suites} == {
        "algebra": 1000,
        "cesaro-hull": 50,
        "change-of-variables": 1000,
        "codec": 200,
        "continuity": 200,
        "dct": 200,
        "epsilon-delta": 1000,
        "indefinite-tv": 1000,
        "integration": 1000,
        "invariant-nonempty": 1000,
        "jordan-hahn": 1000,
        "lattice": 1000,
        "lrn": 1000,
        "measure-ops": 1000,
        "order": 1000,
        "polar-measure": 1000,
        "pushforward-linearity": 1000,
        "series": 100,
        "total-variation": 1000,
    }
