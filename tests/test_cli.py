import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qrflab.cli import OPS, main

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"
CORPUS = sorted(SCENARIO_DIR.glob("*.json"))
CORPUS = [p for p in CORPUS if not p.name.endswith(".schema.json")]


# Non-float leaves of each corpus report, keyed by scenario stem. Recorded
# from a corpus run with ``report_structure``; a change that means to alter
# a dim, block list or verdict regenerates it and says so.
STRUCTURE_FILE = REPO / "tests" / "data" / "corpus_structure.json"


def report_structure(node):
    """The report with its timestamp dropped and every float leaf nulled."""
    if isinstance(node, dict):
        return {k: report_structure(v) for k, v in node.items() if k != "generated_at"}
    if isinstance(node, list):
        return [report_structure(v) for v in node]
    return None if isinstance(node, float) else node


# A swap scheme on two qubits with a Z3 phase representation "r".
SWAP_SCHEME = {
    "schemes": {
        "s": {
            "system_dim": 2, "probe_dim": 2,
            "scattering": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            "probe_prep": [[0.5, 0.5], [0.5, 0.5]],
            "probe_obs": [[0.0, 1.0], [1.0, 0.0]],
        },
    },
    "groups": {"z3": {"kind": "cyclic", "n": 3}},
    "representations": {
        "r": {"kind": "matrices", "group": "z3", "unitaries": [
            [[1, 0], [0, 1]],
            [[1, 0], [0, [-0.5, 0.8660254037844386]]],
            [[1, 0], [0, [-0.5, -0.8660254037844386]]],
        ]},
    },
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path: Path, payload: dict, name: str = "case.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def band_task(**overrides) -> dict:
    task = {
        "op": "trace_of_band",
        "name": "band",
        "intervals": [[0.0, 1.0]],
        "expect": {"value": {"equals": 1.718281828459045, "tol": 1e-9}},
    }
    task.update(overrides)
    return task


def desitter_task(beta: float, expect: dict) -> dict:
    return {"op": "desitter_condition", "name": "window", "intervals": [[0.0, 1.0]],
            "beta": beta, "expect": expect}


class TestCorpus:
    @pytest.mark.parametrize("scenario", CORPUS, ids=[p.stem for p in CORPUS])
    def test_every_shipped_scenario_passes(self, scenario, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "run", str(scenario), "--report", str(tmp_path))
        assert code == 0, out
        summary = out.strip().splitlines()[-1]
        assert re.fullmatch(r"(\d+)/\1 tasks passed", summary)
        assert (tmp_path / f"{scenario.stem}.report.json").exists()

    def test_corpus_is_nonempty(self):
        assert len(CORPUS) >= 7

    @pytest.mark.parametrize("scenario", CORPUS, ids=[p.stem for p in CORPUS])
    def test_report_structure_is_unchanged(self, scenario, tmp_path, capsys):
        # every dim, block list, pass flag and verdict string of the report,
        # against the structure recorded in STRUCTURE_FILE; floats are defects
        # and timings, free to move at rounding level
        run_cli(capsys, "run", str(scenario), "--report", str(tmp_path))
        report = json.loads((tmp_path / f"{scenario.stem}.report.json").read_text())
        recorded = json.loads(STRUCTURE_FILE.read_text())
        assert report_structure(report) == recorded[scenario.stem]


class TestReportFormat:
    def test_report_is_canonical_json(self, tmp_path, capsys):
        scenario = SCENARIO_DIR / "desitter.json"
        code, _, _ = run_cli(capsys, "run", str(scenario), "--report", str(tmp_path))
        assert code == 0
        raw = (tmp_path / "desitter.report.json").read_text()
        parsed = json.loads(raw)
        assert raw == json.dumps(parsed, sort_keys=True, indent=2, allow_nan=False) + "\n"
        env = parsed["environment"]
        assert env["package"].startswith("qrflab ")
        assert "generated_at" in parsed
        assert parsed["summary"]["failed"] == 0

    def test_infinities_are_encoded_as_strings(self, tmp_path, capsys):
        scenario = SCENARIO_DIR / "desitter.json"
        run_cli(capsys, "run", str(scenario), "--report", str(tmp_path))
        parsed = json.loads((tmp_path / "desitter.report.json").read_text())
        by_name = {t["name"]: t for t in parsed["tasks"]}
        assert by_name["full-line-band"]["result"]["integral"] == "inf"

    def test_typecond_csv_table(self, tmp_path, capsys):
        run_cli(capsys, "run", str(SCENARIO_DIR / "desitter.json"), "--report", str(tmp_path))
        with open(tmp_path / "desitter.typecond.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["task", "op", "status", "value", "remainder_bound"]
        assert len(rows) > 1

    def test_kms_csv_table(self, tmp_path, capsys):
        run_cli(capsys, "run", str(SCENARIO_DIR / "modular_gibbs.json"), "--report", str(tmp_path))
        with open(tmp_path / "modular_gibbs.kms.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["task", "pair", "time", "residual"]
        times = {row[2] for row in rows[1:]}
        assert len(times) >= 8

    def test_reports_are_deterministic(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out_dir in (out_a, out_b):
            run_cli(capsys, "run", str(SCENARIO_DIR / "relativise_qubit.json"), "--report", str(out_dir))

        def normalised(path: Path) -> str:
            doc = json.loads(path.read_text())
            doc.pop("generated_at")
            for task in doc["tasks"]:
                task.pop("elapsed_ms")
            return json.dumps(doc, sort_keys=True)

        assert normalised(out_a / "relativise_qubit.report.json") == normalised(out_b / "relativise_qubit.report.json")

    def test_seed_override_changes_sampled_results(self, tmp_path, capsys):
        scenario = SCENARIO_DIR / "relativise_qubit.json"
        code, _, _ = run_cli(capsys, "run", str(scenario), "--seed", "99", "--report", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "relativise_qubit.report.json").read_text())
        assert doc["environment"]["seed"] == 99


class TestOutcomes:
    def test_failed_expectation_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "version": 1,
            "tasks": [band_task(expect={"value": {"equals": 99.0, "tol": 1e-9}})],
        })
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL band (trace_of_band)")
        assert "0/1 tasks passed" in out

    def test_pass_lines_name_the_op(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 1, "tasks": [band_task()]})
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert out.splitlines()[0] == "PASS band (trace_of_band)"

    def test_expect_fail_inverts_an_internal_check(self, tmp_path, capsys):
        # kms_check on a non-thermal state fails internally; expect_fail
        # turns that into a scenario-level pass
        path = write_scenario(tmp_path, {
            "version": 1,
            "tasks": [{
                "op": "kms_check",
                "name": "witness",
                "state": [[0.5, 0.0], [0.0, 0.5]],
                "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
                "beta": 1.0,
                "pairs": [[[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]],
                "expect_fail": True,
            }],
        })
        code, out, _ = run_cli(capsys, "run", str(path), "--report", str(tmp_path))
        assert code == 0, out
        doc = json.loads((tmp_path / "case.report.json").read_text())
        assert doc["tasks"][0]["result"]["expected_failure"] is True

    def test_expect_fail_on_a_passing_check_fails(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "version": 1,
            "tasks": [{
                "op": "kms_check",
                "name": "witness",
                "state": {"kind": "gibbs", "hamiltonian": [[0.0, 0.0], [0.0, 1.0]], "beta": 1.0},
                "hamiltonian": [[0.0, 0.0], [0.0, 1.0]],
                "beta": 1.0,
                "pairs": [[[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]],
                "expect_fail": True,
            }],
        })
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 1
        assert "expected the internal check to fail" in out

    def test_bound_on_a_list_valued_field_fails_the_task(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "version": 1,
            "groups": {"z2": {"kind": "cyclic", "n": 2}},
            "representations": {"r": {"kind": "regular", "group": "z2"}},
            "frames": {"f": {"kind": "ideal", "rep": "r"}},
            "tasks": [{
                "op": "frame_covariance", "name": "cov", "frame": "f",
                "expect": {"norm1": {"max": 2}},
            }],
        })
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 1
        first = out.splitlines()[0]
        assert first.startswith("FAIL cov (frame_covariance): norm1: expected max 2.0, got [")
        assert err == ""

    def test_verbose_prints_result_fields(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 1, "tasks": [band_task()]})
        _, out, _ = run_cli(capsys, "run", str(path), "--verbose")
        assert "value" in out


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` in a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m qrflab.cli`` in a fresh interpreter."""
    return run_python("-m", "qrflab.cli", *argv)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_scenario(self):
        proc = run_module("run", str(SCENARIO_DIR / "desitter.json"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "12/12 tasks passed"

    def test_python_dash_m_reports_a_config_error(self, tmp_path):
        path = write_scenario(tmp_path, {"version": 1, "tasks": [{"op": "frobnicate"}]})
        proc = run_module("run", str(path))
        assert proc.returncode != 0
        assert proc.stderr.startswith("config error:")


class TestScripts:
    """The example scripts the README names run from a source checkout."""

    def test_type_survey(self):
        proc = run_python(str(REPO / "scripts" / "type_survey.py"))
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^24 evaluations: ", proc.stdout, re.MULTILINE), proc.stdout

    def test_modular_flow_demo(self):
        proc = run_python(str(REPO / "scripts" / "modular_flow_demo.py"))
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^max residual \S+ \(ok\)$", proc.stdout, re.MULTILINE), proc.stdout

    @pytest.mark.parametrize(
        "case,shape",
        [
            # M_2 (x) 1 on C^4: two eigenspaces of size 2, p = 8 of n^2 = 16
            ("commutant:tensor:2", {"n_squared": 16, "gram_dim": 8, "clusters": 2}),
            ("fixed-points:M2-Z4-phase", {}),
            # C^4 (x) C^9: the 9 clock charges are shared, each a 1-dim irrep
            ("fixed-points:charge-sectors-8",
             {"m": 16, "d_v": 9, "r": 132, "components": 9, "max_d_pi": 1, "averaged": 0}),
            # D = 8: each product is projected in |G| d^2 = 16 of D^2 = 64 coordinates
            ("closure:M2-Z4-phase", {"D": 8, "D_squared": 64, "width": 16, "route": "graded"}),
            # m = 16 > D = 8: the A cap A' route
            ("centre:M2-Z4-phase", {"D": 8, "dim": 16, "centre_dim": 4}),
            ("invariance:circle-5x12", {}),
            # C^36 = 4 x 9: the charge blocks M_1, M_3, M_4 (7 times), M_3, M_1
            ("decompose:charge-sectors-8", {"m": 132, "D": 36, "blocks": 11}),
        ],
        ids=["commutant", "fixed-points", "fixed-points-charge-sectors", "closure", "centre",
             "invariance", "decompose"],
    )
    def test_bench_kernels_prints_one_json_document(self, case, shape):
        proc = run_python(str(REPO / "scripts" / "bench_kernels.py"), "--repeats", "1",
                          "--cases", case)
        assert proc.returncode == 0, proc.stderr
        [entry] = json.loads(proc.stdout)["cases"]
        assert entry["case"] == case
        assert entry["median_ms"] > 0.0
        assert {key: entry[key] for key in shape} == shape

    def test_bench_kernels_finds_the_checkout_without_pythonpath(self):
        # the usage line of the script's docstring, with no PYTHONPATH set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "bench_kernels.py"), "--repeats", "1",
             "--cases", "commutant:tensor:2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert [c["case"] for c in json.loads(proc.stdout)["cases"]] == ["commutant:tensor:2"]


class TestConfigErrors:
    def assert_config_error(self, capsys, path, *fragments):
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert err.startswith("config error:")
        for fragment in fragments:
            assert fragment in err

    def test_missing_file(self, tmp_path, capsys):
        self.assert_config_error(capsys, tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self.assert_config_error(capsys, path)

    def test_wrong_version(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 2, "tasks": [band_task()]})
        self.assert_config_error(capsys, path, "version")

    def test_unknown_op(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 1, "tasks": [{"op": "frobnicate"}]})
        self.assert_config_error(capsys, path, "frobnicate")

    def test_duplicate_task_names(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"version": 1, "tasks": [band_task(), band_task()]})
        self.assert_config_error(capsys, path, "band")

    def test_unknown_reference(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "version": 1,
            "tasks": [{
                "op": "kms_check", "name": "t", "state": "ghost",
                "hamiltonian": [[0.0, 0.0], [0.0, 1.0]], "beta": 1.0,
                "pairs": [[[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]],
            }],
        })
        self.assert_config_error(capsys, path, "ghost")

    def test_forward_convention_requires_a_pinned_expectation(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "version": 1,
            **SWAP_SCHEME,
            "tasks": [{
                "op": "scheme_equivariance", "name": "broken", "scheme": "s",
                "system_rep": "r", "probe_rep": "r", "convention": "forward",
            }],
        })
        self.assert_config_error(capsys, path, "regression witness")

    @pytest.mark.parametrize(
        "top, task, where",
        [
            ({}, {"tolerance": "abc"}, "tasks[0].tolerance"),
            ({}, {"tolerance": None}, "tasks[0].tolerance"),
            ({}, {"tolerance": True}, "tasks[0].tolerance"),
            ({}, {"tolerance": -1.0}, "tasks[0].tolerance"),
            ({}, {"tolerance": 0}, "tasks[0].tolerance"),
            ({}, {"tolerance": float("inf")}, "tasks[0].tolerance"),
            ({"seed": "x"}, {}, "seed"),
            ({}, {"name": ["band"]}, "tasks[0].name"),
            ({}, {"expect": [{"value": {"max": 2.0}}]}, "tasks[0].expect"),
            ({}, {"op": ["trace_of_band"]}, "tasks[0].op"),
            ({}, {"expect": {"value": {"equals": 1.718281828459045, "tol": -1}}},
             "tasks[0].expect.value.tol"),
            ({}, {"expect": {"value": {"equals": 1.718281828459045, "tol": float("nan")}}},
             "tasks[0].expect.value.tol"),
            ({}, {"expect": {"value": {"equals": None}}}, "tasks[0].expect.value.equals"),
            ({}, {"expect": {"value": {"equals": {"a": 1}}}}, "tasks[0].expect.value.equals"),
            ({}, {"expect": {"value": {"max": "2"}}}, "tasks[0].expect.value.max"),
            ({}, {"op": "kms_weight_on_step", "steps": 7, "terms": [[1, 0, 1]], "beta": 1.0},
             "tasks[0].steps"),
            ({}, {"op": "kms_weight_on_step", "steps": [[1, 0]], "terms": [[1, 0, 1]], "beta": 1.0},
             "tasks[0].steps[0]"),
            ({}, {"op": "so3_partition", "energies": {"kind": "explicit", "values": 4},
                  "beta": 1.0},
             "tasks[0].energies.values"),
            ({"algebras": {"a": {"kind": "generated", "ambient_dim": 2, "generators": 3}}}, {},
             "algebras.a.generators"),
            ({"frames": {"f": {"kind": "explicit", "effects": 5}}}, {}, "frames.f.effects"),
            ({
                "groups": {"t": {"kind": "circle", "bandwidth": 1}},
                "representations": {"r": {"kind": "circle", "group": "t",
                                          "generator": [[0, 0], [0, 1]]}},
                "frames": {"f": {"kind": "phase", "rep": "r", "c": [[1, 1], [1, 1]],
                                 "boundaries": 3}},
            }, {}, "frames.f.boundaries"),
            ({"frames": {"f": {
                "kind": "explicit", "effects": [[[0.5, 0], [0, 0.5]]] * 2,
                "cells": {"kind": "coset", "group": "s3", "subgroup": [1]},
            }}, "groups": {"s3": {"kind": "symmetric", "n": 3}}}, {}, "frames.f.cells"),
            ({"groups": {"c": {"kind": "circle", "bandwidth": -1}}}, {}, "groups.c"),
            ({"groups": {"c": {"kind": "cyclic", "n": 0}}}, {}, "groups.c"),
            ({"groups": {"s": {"kind": "symmetric", "n": -2}}}, {}, "groups.s"),
            ({}, {"intervals": [[0.0, 10**400]]}, "tasks[0].intervals[0][1]"),
            ({"algebras": {"a": {"kind": "full", "dim": -1}}}, {}, "algebras.a"),
            ({"algebras": {"a": {"kind": "diagonal", "dim": 0}}}, {}, "algebras.a"),
            ({}, {"op": "kms_check", "sign": "bogus", "beta": 1.0,
                  "state": {"kind": "gibbs", "hamiltonian": [[0, 0], [0, 1]], "beta": 1.0},
                  "hamiltonian": [[0, 0], [0, 1]], "pairs": [[[[0, 1], [1, 0]], [[0, 1], [1, 0]]]]},
             "tasks[0].sign"),
            (SWAP_SCHEME, {"op": "scheme_equivariance", "scheme": "s", "system_rep": "r",
                           "probe_rep": "r", "convention": "bogus"},
             "tasks[0].convention"),
            ({"frames": {"f": {
                "kind": "explicit", "effects": [[[0.5, 0], [0, 0.5]]] * 2,
                "cells": {"kind": "coset", "group": "z2", "subgroup": [0, 99]},
            }}, "groups": {"z2": {"kind": "cyclic", "n": 2}}}, {}, "frames.f.cells"),
            ({}, {"op": "desitter_condition", "intervals": [[0.0, 1.0]], "beta": -1},
             "tasks[0].beta"),
            ({}, {"op": "evaluate_condition", "terms": [[1, 0, 1]], "beta": 0},
             "tasks[0].beta"),
            ({}, {"op": "so3_partition", "energies": {"kind": "rotor"}, "beta": 1.0,
                  "target": -1},
             "tasks[0].target"),
            ({"frames": {"f": {"kind": "explicit", "effects": [[[0.5, 0], [0, 0.5]]] * 2}}},
             {"op": "smear", "frame": "f", "kernel": [[1, [0.5, 0.4]], [0, 1]]},
             "tasks[0].kernel[0][1]"),
        ],
        ids=[
            "tolerance-string", "tolerance-null", "tolerance-bool", "tolerance-negative",
            "tolerance-zero", "tolerance-inf", "seed-string", "name-list", "expect-list", "op-list",
            "expect-tol-negative", "expect-tol-nan", "expect-equals-null", "expect-equals-object",
            "expect-max-string", "steps-number", "step-short", "energies-number",
            "generators-number", "effects-number", "boundaries-number", "coset-without-identity",
            "circle-negative-bandwidth", "cyclic-zero", "symmetric-negative",
            "interval-overflow", "full-negative-dim", "diagonal-zero-dim", "kms-sign-unknown",
            "convention-unknown", "coset-index-out-of-range", "beta-negative", "beta-zero",
            "target-negative", "kernel-complex-entry",
        ],
    )
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, top, task, where):
        path = write_scenario(tmp_path, {"version": 1, **top, "tasks": [band_task(**task)]})
        self.assert_config_error(capsys, path, f"config error: {where}: ")

    @pytest.mark.parametrize(
        "group", [{"kind": "symmetric", "n": 3}, {"kind": "cyclic", "n": 6}],
        ids=["symmetric", "cyclic"],
    )
    def test_group_past_the_order_cap_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                        group):
        # the cap lowered to 5, so that nothing large is built if it is missed
        monkeypatch.setattr("qrflab.symmetry._MAX_ORDER", 5)
        path = write_scenario(tmp_path, {"version": 1, "groups": {"g": group},
                                         "tasks": [band_task()]})
        self.assert_config_error(capsys, path, "config error: groups.g: ", "above the 5")

    @pytest.mark.parametrize(
        "bad, error",
        [
            (desitter_task(1.0, {"integral": {"min": "x"}}),
             "tasks[1].expect.integral.min: expected a number"),
            (desitter_task(-1.0, {"integral": {"min": "x"}}),
             "tasks[1].expect.integral.min: expected a number"),
            # Neither is seen before the op runs, after the first task passed.
            (desitter_task(-1.0, {}), "tasks[1].beta: "),
            (band_task(name="window", expect={"integral": {"min": 0.0}}),
             "tasks[1].expect.integral: result has no field 'integral'"),
        ],
        ids=["op-passes", "op-raises", "op-argument", "result-field"],
    )
    def test_malformed_rule_is_reported_before_any_task_runs(self, tmp_path, capsys, bad, error):
        path = write_scenario(tmp_path, {"version": 1, "tasks": [band_task(name="ok"), bad]})
        code, out, err = run_cli(capsys, "run", str(path), "--verbose")
        assert code == 2
        assert err.startswith(f"config error: {error}")
        assert "PASS" not in out
        assert "value =" not in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_malformed_tolerance_flag_is_a_config_error(self, tmp_path, capsys, value):
        path = write_scenario(tmp_path, {"version": 1, "tasks": [band_task()]})
        report = tmp_path / "report"
        code, _, err = run_cli(capsys, "run", str(path), "--tolerance", value, "--report", str(report))
        assert code == 2
        assert err.startswith("config error: --tolerance: expected a finite number > 0")
        assert not report.exists()

    def test_expect_tol_of_zero_is_valid(self, tmp_path, capsys):
        exact = {"value": {"equals": 1.718281828459045, "tol": 0}}
        path = write_scenario(tmp_path, {"version": 1, "tasks": [band_task(expect=exact)]})
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        assert "1/1 tasks passed" in out


def test_schema_document_matches_the_runner():
    schema = json.loads((SCENARIO_DIR / "scenario.schema.json").read_text())
    documented = set(schema["properties"]["tasks"]["items"]["properties"]["op"]["enum"])
    assert documented == set(OPS)
