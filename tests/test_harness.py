"""Config handling, experiment dispatch, artifacts, CLI."""

import dataclasses
import json
import hashlib
import math

import numpy as np
import pytest

from fraclat.cli import build_config, main
from fraclat.harness import EXPERIMENTS, ExperimentConfig, fmt, run, self_test


class TestConfig:
    def test_roundtrip_byte_identical(self):
        cfg = ExperimentConfig(experiment="kernel-dump",
                               params={"s": 0.5, "h": 0.1, "radius": 12},
                               output_dir="/tmp/x", seed=7)
        text = cfg.serialize()
        again = ExperimentConfig.parse(text).serialize()
        assert text == again

    def test_float_roundtrip_formatting(self):
        assert fmt(0.1) == "0.1"
        assert float(fmt(4.0 / (3.0 * math.pi))) == 4.0 / (3.0 * math.pi)

    def test_validation_names_offending_fields(self):
        cfg = ExperimentConfig(experiment="kernel-dump", params={"s": 1.5, "h": -1.0})
        with pytest.raises(ValueError) as exc:
            run(cfg)
        assert "s:" in str(exc.value) and "h:" in str(exc.value)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run(ExperimentConfig(experiment="nonsense"))

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_misspelt_key_rejected(self, name, tmp_path, capsys):
        # a misspelt key is an error before anything is written, not a
        # silently ignored setting
        cfg = ExperimentConfig(experiment=name, params={"trunc_radus": 20},
                               output_dir=str(tmp_path))
        with pytest.raises(ValueError, match="trunc_radus"):
            run(cfg)
        assert main([name, "trunc_radus=20", "--out", str(tmp_path)]) == 2
        assert "trunc_radus" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_required_key(self, tmp_path):
        with pytest.raises(ValueError, match="file"):
            run(ExperimentConfig(experiment="apply", params={"s": 0.5},
                                 output_dir=str(tmp_path)))

    def test_values_take_the_type_of_the_default(self, tmp_path):
        cfg = ExperimentConfig(experiment="kernel-dump",
                               params={"s": "0.5", "h": 1, "radius": "3"},
                               output_dir=str(tmp_path))
        assert run(cfg).all_passed
        for bad in ("x", 2.5):
            with pytest.raises(ValueError, match="radius"):
                run(ExperimentConfig(experiment="kernel-dump", params={"radius": bad},
                                     output_dir=str(tmp_path)))

    def test_carleman_admissibility_reported_once(self, tmp_path, capsys):
        # delta0 is no key of the experiment; tau*h > 1/2 is reported by
        # CarlemanConfig's own message alone
        assert main(["carleman-commutator", "h=0.1", "tau=6", "delta0=1.0",
                     "--out", str(tmp_path)]) == 2
        assert "delta0" in capsys.readouterr().err
        assert main(["carleman-commutator", "h=0.1", "tau=6", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("tau*h") == 1 and "admissibility violated" in err


class TestKernelDump:
    def test_csv_and_manifest(self, tmp_path):
        cfg = ExperimentConfig(experiment="kernel-dump",
                               params={"s": 0.5, "h": 1.0, "d": 1, "radius": 10},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        csv = (tmp_path / "kernel.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "m_1,value,abs_err_est"
        assert len(lines) == 22  # header + 21 offsets
        row1 = dict(zip(("m", "v", "e"), lines[11 + 1].split(",")))
        assert float(row1["v"]) == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-13)
        manifest = (tmp_path / "manifest.txt").read_text()
        digest = hashlib.sha256(csv.encode()).hexdigest()
        assert f"{digest}  kernel.csv" in manifest

    def test_json_report_stable_keys(self, tmp_path):
        cfg = ExperimentConfig(experiment="kernel-dump",
                               params={"s": 0.5, "radius": 3},
                               output_dir=str(tmp_path))
        report = run(cfg)
        obj = json.loads(report.to_json())
        assert list(obj) == sorted(obj)

    def test_two_dimensional_dump(self, tmp_path):
        cfg = ExperimentConfig(experiment="kernel-dump",
                               params={"s": 0.5, "h": 1.0, "d": 2, "radius": 3},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        lines = (tmp_path / "kernel.csv").read_text().strip().split("\n")
        assert lines[0] == "m_1,m_2,value,abs_err_est"
        assert len(lines) == 1 + 49

    def test_artifacts_deterministic(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(experiment="inverse-sweep",
                                   params={"N": 16, "trials": 2,
                                           "eps": "1e-1;1e-3"},
                                   output_dir=str(tmp_path / sub), seed=5)
            report = run(cfg)
            digests.append([a["sha256"] for a in report.artifacts])
        assert digests[0] == digests[1]


class TestExperiments:
    def test_ucp_lattice(self, tmp_path):
        cfg = ExperimentConfig(experiment="ucp-lattice",
                               params={"s": 0.5, "h": 1.0, "X": "0"},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["passed"] is True
        assert cert["paper_claim"] == "global-ucp-failure-lattice"

    @pytest.mark.parametrize("name, fn_name, params", [
        ("ucp-lattice", "apply_frac_lattice", {"X": "0;3"}),
        ("ucp-torus", "apply_frac_torus_pointwise", {"N": 16, "X": "0;1;2"}),
        ("ucp-torus", "apply_frac_torus_pointwise", {"N": 6, "X": "0,0;1,0"}),
    ])
    def test_ucp_applies_operator_once(self, name, fn_name, params, tmp_path, monkeypatch):
        # the checks read the certificate's per-point residuals; the
        # harness does not apply the operator a second time
        import fraclat.lattice

        calls = []
        real = getattr(fraclat.lattice, fn_name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in ("lattice", "counterexamples", "harness"):
            monkeypatch.setattr(f"fraclat.{mod}.{fn_name}", counting, raising=False)
        report = run(ExperimentConfig(experiment=name, params=params,
                                      output_dir=str(tmp_path)))
        assert report.all_passed
        assert len(calls) == 1
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert [c.measured for c in report.checks] == cert["details"]["residuals"]
        assert max(cert["details"]["residuals"]) == cert["residual_sup"]

    def test_ucp_lattice_2d_points(self, tmp_path):
        cfg = ExperimentConfig(experiment="ucp-lattice",
                               params={"s": 0.4, "h": 1.0, "X": "0,0;1,-2"},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        assert len(report.checks) == 2
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["parameters"]["d"] == 2

    def test_ucp_torus_2d_points(self, tmp_path):
        # d is read from X; check names carry tuples, as ucp-lattice's do
        cfg = ExperimentConfig(experiment="ucp-torus", params={"N": 6, "X": "1,0;0,0;1,0"},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        assert [c.name for c in report.checks] == ["residual_at_(0, 0)", "residual_at_(1, 0)"]
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["details"]["residuals_spectral"]) == 2
        assert max(cert["details"]["residuals_spectral"]) <= cert["tolerance"]
        with pytest.raises(ValueError, match="not 2-dimensional"):
            run(ExperimentConfig(experiment="ucp-torus", params={"X": "0,0;1"},
                                 output_dir=str(tmp_path)))

    @pytest.mark.parametrize("name, fn_name", [
        ("kernel-dump", "build_kernel_table"),
        ("apply", "apply_frac_lattice"),
    ])
    def test_row_count_fails_on_a_short_array(self, name, fn_name, tmp_path, monkeypatch):
        # the check compares what the library returned with (2r+1)^d
        import dataclasses

        import fraclat.harness
        from fraclat.kernel import FracParams
        from fraclat.lattice import LatticeFunction

        real = getattr(fraclat.harness, fn_name)

        def short(*args, **kwargs):
            out = real(*args, **kwargs)
            if fn_name == "build_kernel_table":
                return dataclasses.replace(out, values=out.values[1:-1], err=out.err[1:-1])
            return out[1:-1]

        monkeypatch.setattr(fraclat.harness, fn_name, short)
        params = {"radius": 3}
        if name == "apply":
            src = tmp_path / "u.json"
            src.write_text(LatticeFunction(FracParams(0.5), {(0,): 1.0}).to_json())
            params["file"] = str(src)
        report = run(ExperimentConfig(experiment=name, params=params,
                                      output_dir=str(tmp_path)))
        row_count = report.checks[0]
        assert row_count.name == "row_count" and not row_count.passed
        assert (row_count.measured, row_count.threshold) == (5.0, 7.0)

    def test_apply_torus(self, tmp_path):
        from fraclat.lattice import TorusFunction

        rng = np.random.default_rng(0)
        v = TorusFunction(6, 1, rng.standard_normal(13))
        src = tmp_path / "v.json"
        src.write_text(v.to_json())
        cfg = ExperimentConfig(experiment="apply",
                               params={"s": 0.5, "file": str(src)},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        out = TorusFunction.from_json((tmp_path / "applied.json").read_text())
        assert out.N == 6

    def test_apply_lattice(self, tmp_path):
        from fraclat.kernel import FracParams, kernel_1d
        from fraclat.lattice import LatticeFunction

        u = LatticeFunction(FracParams(0.5, 1.0, 1), {(0,): 1.0})
        src = tmp_path / "u.json"
        src.write_text(u.to_json())
        cfg = ExperimentConfig(experiment="apply",
                               params={"s": 0.5, "file": str(src), "radius": 5},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        lines = (tmp_path / "applied.csv").read_text().strip().split("\n")
        assert lines[0] == "j_1,value"
        row = dict(line.split(",") for line in lines[1:])
        assert float(row["3"]) == pytest.approx(
            -kernel_1d(FracParams(0.5), 3), rel=1e-12)

    def test_apply_torus_parses_input_once(self, tmp_path, monkeypatch):
        # one json.loads of the input file, and the artifact of the input
        # read from its text
        from fraclat.lattice import TorusFunction, apply_frac_torus_spectral

        rng = np.random.default_rng(3)
        v = TorusFunction(5, 2, rng.standard_normal((11, 11)))
        src = tmp_path / "v.json"
        src.write_text(v.to_json())
        expected = apply_frac_torus_spectral(TorusFunction.from_json(src.read_text()),
                                             0.3).to_json()
        calls = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            calls.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        cfg = ExperimentConfig(experiment="apply", params={"s": 0.3, "file": str(src)},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        assert calls.count(src.read_text()) == 1
        assert (tmp_path / "applied.json").read_text() == expected

    def test_apply_lattice_step_profile_d2(self, tmp_path):
        # a d = 2 step profile is exact by kernel reduction: the values are
        # the one-dimensional step operator along its axis
        from fraclat.kernel import FracParams
        from fraclat.lattice import LatticeFunction, StepProfile, apply_frac_lattice

        u = LatticeFunction(FracParams(0.5, 1.0, 2), {}, StepProfile(0, 2, -1.0, 1.0))
        src = tmp_path / "u.json"
        src.write_text(u.to_json())
        cfg = ExperimentConfig(experiment="apply",
                               params={"s": 0.5, "file": str(src), "radius": 1},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        assert [c.name for c in report.checks] == ["row_count"]
        lines = (tmp_path / "applied.csv").read_text().strip().split("\n")
        assert lines[0] == "j_1,j_2,value" and len(lines) == 10
        step1 = LatticeFunction(FracParams(0.5), {}, StepProfile(0, 2, -1.0, 1.0))
        for line in lines[1:]:
            j1, _, val = line.split(",")
            assert float(val) == pytest.approx(apply_frac_lattice(step1, int(j1)), rel=1e-15)

    def test_carleman_probe_experiment(self, tmp_path):
        cfg = ExperimentConfig(experiment="carleman-probe",
                               params={"h": 0.05, "tau": 8.0},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        csv = (tmp_path / "carleman_probe.csv").read_text().strip().split("\n")
        assert csv[0] == "h,tau,c0,lhs,rhs,empirical_C"
        h, tau, c0, lhs, rhs, cval = (float(x) for x in csv[1].split(","))
        assert cval == pytest.approx(lhs / rhs, rel=1e-12)

    def test_inverse_sweep_experiment(self, tmp_path):
        cfg = ExperimentConfig(experiment="inverse-sweep",
                               params={"N": 16, "trials": 3},
                               output_dir=str(tmp_path), seed=2024)
        report = run(cfg)
        names = {c.name: c.passed for c in report.checks}
        assert names["noiseless_error"] and names["fitted_nu_positive"]
        csv = (tmp_path / "stability.csv").read_text().strip().split("\n")
        assert csv[0] == "eps,error_mean,error_std,data_ratio,lambda_chosen"
        assert len(csv) == 7
        summary = json.loads((tmp_path / "stability_summary.json").read_text())
        assert {"fitted_nu", "fitted_C", "N", "W", "Omega", "seed"} <= set(summary)

    def test_inverse_sweep_singular_values(self, tmp_path):
        # the F2 staircase: sigma_i of A L^{-1}, positive and descending
        cfg = ExperimentConfig(experiment="inverse-sweep",
                               params={"N": 16, "trials": 2, "eps": "1e-1;1e-3"},
                               output_dir=str(tmp_path), seed=2024)
        report = run(cfg)
        assert any(a["path"].endswith("singular_values.csv") for a in report.artifacts)
        csv = (tmp_path / "singular_values.csv").read_text().strip().split("\n")
        assert csv[0] == "index,sigma"
        sigma = np.array([float(line.split(",")[1]) for line in csv[1:]])
        assert sigma.size == 6
        assert (sigma > 0.0).all()
        assert (np.diff(sigma) < 0.0).all()

    def test_boundary_bulk_experiment(self, tmp_path):
        cfg = ExperimentConfig(experiment="boundary-bulk",
                               params={"N": 31, "r0": 0.5},
                               output_dir=str(tmp_path), seed=1)
        report = run(cfg)
        assert report.all_passed
        csv = (tmp_path / "boundary_bulk.csv").read_text()
        assert csv.startswith("h,r0,bulk_small,bulk_big,trace_data,fitted_alpha,holds")

    def test_transference_experiment(self, tmp_path):
        cfg = ExperimentConfig(experiment="transference",
                               params={"N": 4, "d": 1, "pairs": 2},
                               output_dir=str(tmp_path), seed=3)
        assert run(cfg).all_passed

    def test_transference_defect_above_tol_is_a_fail_line(self, tmp_path, capsys):
        # the library raises ToleranceError once the defect exceeds tol; the
        # experiment reports that defect as a FAIL check, with exit status 1
        assert main(["transference", "--out", str(tmp_path)]) == 0
        passed = capsys.readouterr().out.splitlines()
        assert main(["transference", "tol=1e-20", "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL transference_defect:")
        assert fails[0].split("measured=")[1].split()[0] == \
            passed[0].split("measured=")[1].split()[0]
        assert lines[-1].startswith("DONE transference ") and lines[-1].endswith(" FAILED")

    def test_carleman_commutator_experiment(self, tmp_path):
        cfg = ExperimentConfig(experiment="carleman-commutator",
                               params={"h": 0.1, "tau": 3.0, "d": 2},
                               output_dir=str(tmp_path))
        report = run(cfg)
        assert report.all_passed
        csv = (tmp_path / "commutator.csv").read_text()
        assert csv.startswith("h,tau,c0,lhs,rhs,defect")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_carleman_commutator_support_has_dimension_d(self, d, tmp_path, monkeypatch):
        # every d gets a d-dimensional support; d = 3 is not the 2-D box
        import fraclat.harness

        seen = []
        real = fraclat.harness.tangential_commutator_check

        def spy(cfg, v):
            seen.append({len(k) for k in v})
            return real(cfg, v)

        monkeypatch.setattr(fraclat.harness, "tangential_commutator_check", spy)
        cfg = ExperimentConfig(experiment="carleman-commutator", params={"d": d},
                               output_dir=str(tmp_path))
        assert run(cfg).all_passed
        assert seen == [{d}]


def _fail_lines(out):
    return {line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")}


class TestChecksCanFail:
    """Each check is seen to fail: the library call it reads is patched in
    fraclat.harness, not the check, to return a value about 10x past the
    threshold (a sign flip or a false flag where the threshold is 0 or a
    flag)."""

    FAULTS = [
        ("inverse-sweep", "noiseless_recovery_error", lambda err: 1e-2, "noiseless_error"),
        ("inverse-sweep", "stability_sweep",
         lambda c: dataclasses.replace(c, fitted_nu=-c.fitted_nu), "fitted_nu_positive"),
        ("boundary-bulk", "boundary_bulk_probe",
         lambda r: dataclasses.replace(r, holds=False), "inequality_holds"),
        ("boundary-bulk", "boundary_bulk_probe",
         lambda r: dataclasses.replace(r, fitted_alpha=10.0), "alpha_in_unit_interval"),
        ("extension-trace", "neumann_trace",
         lambda tr: tr.copy_with(tr.values * (1.0 + 1e-3)), "neumann_vs_spectral"),
    ]

    @pytest.mark.parametrize("name, fn_name, fault, check", FAULTS,
                             ids=[fault[-1] for fault in FAULTS])
    def test_fault_fails_its_check(self, name, fn_name, fault, check, tmp_path, monkeypatch,
                                   capsys):
        import fraclat.harness

        main([name, "--out", str(tmp_path / "clean")])
        before = _fail_lines(capsys.readouterr().out)
        assert f"FAIL {check}" not in before
        real = getattr(fraclat.harness, fn_name)
        monkeypatch.setattr(fraclat.harness, fn_name, lambda *a, **k: fault(real(*a, **k)))
        rc = main([name, "--out", str(tmp_path / "fault")])
        assert _fail_lines(capsys.readouterr().out) == before | {f"FAIL {check}"}
        assert rc == 1


class TestSelfTest:
    def test_all_pass_and_fast(self):
        report = self_test()
        assert report.all_passed
        assert report.wall_time < 30.0

    def test_fault_injection(self):
        report = self_test(corrupt_kernel_constant=True)
        assert not report.all_passed
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["kernel_closed_form_vs_quadrature"]

    def test_transference_defect_above_tol_fails_its_check(self, monkeypatch):
        import fraclat.harness
        from fraclat.kernel import ToleranceError

        def too_large(v, phi, tol):
            raise ToleranceError("transference defect above tolerance",
                                 achieved=2e-8, requested=tol)

        monkeypatch.setattr(fraclat.harness, "transference_check", too_large)
        report = self_test()
        failed = [(c.name, c.measured) for c in report.checks if not c.passed]
        assert failed == [("transference", 2e-8)]

    def test_deterministic_checks(self):
        a = self_test()
        b = self_test()
        assert [(c.name, c.passed, c.measured) for c in a.checks] == \
            [(c.name, c.passed, c.measured) for c in b.checks]


class TestCLI:
    def test_build_config_key_values(self):
        cfg = build_config(["kernel-dump", "s=0.5", "radius=4", "--out", "/tmp/o",
                            "--seed", "9"])
        assert cfg.experiment == "kernel-dump"
        assert cfg.params == {"s": 0.5, "radius": 4}
        assert cfg.seed == 9

    def test_main_exit_codes(self, tmp_path, capsys):
        rc = main(["kernel-dump", "s=0.5", "radius=3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "ARTIFACT" in out

    @pytest.mark.parametrize("argv, message", [
        (["ucp-lattice", "d=2"], "unknown key 'd'"),  # d is read from X
        (["inverse-sweep", "eps=0.001", "trials=2"], "at least two values"),
        (["ucp-lattice", "X=0,0;1"], "not 2-dimensional"),
        # no pair or trial checks nothing; a repeated point of W or Omega
        # makes the Gram matrix singular
        (["transference", "pairs=0"], "pairs: must be a positive integer"),
        (["inverse-sweep", "trials=0"], "trials must be at least 1"),
        (["inverse-sweep", "W=-3;-3;0"], "W contains repeated points"),
        (["inverse-sweep", "Omega=5;6;6"], "Omega contains repeated points"),
    ])
    def test_invalid_configs_exit_2(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_main_validation_error(self, tmp_path, capsys):
        rc = main(["kernel-dump", "s=1.5", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "s" in err

    def test_config_file(self, tmp_path):
        doc = ExperimentConfig(experiment="kernel-dump",
                               params={"s": 0.25, "radius": 3},
                               output_dir=str(tmp_path), seed=1).serialize()
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        cfg = build_config(["kernel-dump", "--config", str(path)])
        assert cfg.params["s"] == 0.25
        assert cfg.seed == 1
