"""Tests of the benchmark's oracles: each accepts qrflab's answer on a cheap
fixture and rejects a deliberately wrong one.

Run from the root of the repository:

    python3 -m pytest qrfbench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as orc  # noqa: E402
import workloads  # noqa: E402
from qrflab import (  # noqa: E402
    OperatorAlgebra,
    commutant,
    cyclic_group,
    decompose,
    fixed_point_algebra,
    regular_representation,
    symmetric_group,
    tensor_rep,
    trivial_rep,
)


@pytest.fixture(scope="module")
def built():
    return {
        name: workloads.build(name, 3, HERE.parent, HERE / "out" / "test")
        for name in ("crossed-growth", "algebra-structure", "thermal-frames")
    }


def _check(built, workload, name):
    return next(c for c in built[workload].checks if c.name == name)


def test_crossed_dim_rejects_a_wrong_dimension(built):
    check = _check(built, "crossed-growth", "commutation/scalars-Z4-regular")
    report = check.run()
    assert check.verify(report) == []
    assert check.verify(dataclasses.replace(report, fixed_dim=report.fixed_dim - 1))


def test_invariant_dim_rejects_a_wrong_dimension(built):
    check = _check(built, "crossed-growth", "compression/M2-Z4-phase-ideal-frame")
    report = check.run()
    assert check.verify(report) == []
    assert check.verify(dataclasses.replace(report, compressed_dim=report.compressed_dim + 1))


@pytest.mark.parametrize("group", [cyclic_group(3), symmetric_group(3)])
def test_character_formula_matches_a_brute_force_fixed_space(group):
    u = regular_representation(group).unitaries
    v = [np.kron(a, a) for a in u]
    # Fixed points of Ad V by brute force: the null space of the stacked
    # (V_g (x) conj V_g - 1) superoperators.
    eye = np.eye(v[0].shape[0] ** 2)
    stack = np.vstack([np.kron(a, a.conj()) - eye for a in v])
    s = np.linalg.svd(stack, compute_uv=False)
    brute = int((s <= 1.0e-9 * s[0]).sum()) + (eye.shape[0] - s.size)
    assert orc.fixed_dim([1.0] * group.order, v) == brute


def test_fixed_point_dims_reject_another_action(built):
    check = _check(built, "algebra-structure", "fixed-points/Z3-regular-x-3")
    assert check.verify(check.run()) == []
    lam = regular_representation(cyclic_group(3))
    wrong = fixed_point_algebra(tensor_rep(lam, trivial_rep(lam.group, 3)))
    assert check.verify(wrong)


def test_class_counts_from_the_cayley_table():
    assert orc.class_count(cyclic_group(7).table) == 7
    assert orc.class_count(symmetric_group(3).table) == 3
    assert orc.class_count(symmetric_group(4).table) == 5


def test_centre_dim_rejects_the_commutant(built):
    check = _check(built, "algebra-structure", "centre/S3-group-algebra")
    assert check.verify(check.run()) == []
    group_alg = _check(built, "algebra-structure", "commutant/S3-group-algebra")
    assert check.verify(group_alg.run())


def test_block_lists_reject_another_group(built):
    check = _check(built, "algebra-structure", "decompose/S3-group-algebra")
    assert check.verify(check.run()) == []
    lam = regular_representation(cyclic_group(6))
    rows = np.array([u.ravel() for u in lam.unitaries]) / np.sqrt(6)
    assert check.verify(decompose(OperatorAlgebra(6, rows)))
    with pytest.raises(ValueError):
        orc.regular_blocks((1,) * 6, symmetric_group(3).table)


def test_multiplicity_free_blocks_reject_the_regular_representation(built):
    check = _check(built, "algebra-structure", "decompose/S4-group-algebra")
    assert check.verify(check.run()) == []
    s4 = symmetric_group(4)
    with pytest.raises(ValueError):
        orc.multiplicity_free_blocks(
            orc.IRREP_DIMS["S4"], s4.table, regular_representation(s4).unitaries
        )


def test_commutant_rejects_the_algebra_itself(built):
    check = _check(built, "algebra-structure", "commutant/S3-group-algebra")
    out = check.run()
    assert check.verify(out) == []
    assert check.verify(commutant(out))


def test_delta_spectrum_rejects_another_temperature(built):
    check = _check(built, "thermal-frames", "modular-kms/gibbs-d3-beta1.0")
    delta, defects = check.run()
    assert check.verify((delta, defects)) == []
    vals, vecs = np.linalg.eigh(delta)
    assert check.verify(((vecs * vals**2) @ vecs.conj().T, defects))


def test_relativised_operators_reject_a_non_invariant_one(built):
    check = _check(built, "thermal-frames", "relativise/circle-5x12")
    y, y_id, value, loc = check.run()
    assert check.verify((y, y_id, value, loc)) == []
    x = np.diag(np.arange(5.0)).astype(complex)
    assert check.verify((np.kron(x, np.eye(12)), y_id, value, loc))
    assert check.verify((y, 2.0 * y_id, value, loc))


def test_corpus_rejects_a_report_that_changed(tmp_path):
    corpus = workloads.build("corpus", 3, HERE.parent, tmp_path)
    first = corpus.run_pass()
    assert first.failed == 0 and first.problems == []
    assert len(first.check_ms) == corpus.checks_per_pass
    assert corpus.run_pass().problems == []
    stem = corpus.paths[0].stem
    corpus.first[stem] += " "
    assert corpus.run_pass().problems == [f"{stem}: report differs from the first pass"]


def test_skipping_drops_checks_with_a_large_full_svd():
    wl = workloads.build("algebra-structure", 3, HERE.parent, HERE / "out" / "test")
    wl.skip_large_svd(1.0e9)
    assert wl.skipped == ["commutant/M10", "commutant/M11", "commutant/M12"]
    assert all(c.name not in wl.skipped for c in wl.checks)

