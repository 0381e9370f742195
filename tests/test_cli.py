import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkrylov import cli, problems
from lrkrylov.cli import ConfigError, validate_config
from lrkrylov.report import SolveReport

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


# the opening of a config text, to be completed with its solvers and flags
STAR = '{"problem": {"type": "star", "n": 16}, '
STAR_LSQR = STAR + '"solvers": [{"name": "lsqr"}], '


def own_keys(name, values):
    """The entries of ``values`` whose keys solver ``name`` reads."""
    return {k: v for k, v in values.items() if k in cli.SOLVERS[name].keys}


def base_config(**overrides):
    config = {
        "problem": {"type": "star", "n": 16, "noise_level": 1e-3, "seed": 0},
        "solvers": [{"name": "gmres", "max_iter": 5}],
        "emit_images": False,
        "emit_spectra": False,
    }
    config.update(overrides)
    return config


class TestValidation:
    def test_missing_problem(self):
        with pytest.raises(ConfigError, match="problem"):
            validate_config({"solvers": [{"name": "gmres"}]})

    def test_empty_solver_list(self):
        with pytest.raises(ConfigError, match="empty"):
            validate_config({"problem": {}, "solvers": []})

    def test_unknown_solver(self):
        with pytest.raises(ConfigError, match="cgls"):
            validate_config({"problem": {},
                             "solvers": [{"name": "cgls"}]})

    def test_duplicate_solvers(self):
        with pytest.raises(ConfigError, match="duplicate"):
            validate_config({"problem": {},
                             "solvers": [{"name": "gmres"},
                                         {"name": "gmres"}]})

    def test_all_known_names_accepted(self):
        solvers = [{"name": n} for n in sorted(cli.SOLVERS)]
        validate_config({"problem": {}, "solvers": solvers})

    @pytest.mark.parametrize("kind", ["phantom", "inpainting"])
    @pytest.mark.parametrize("name", sorted(
        n for n, s in cli.SOLVERS.items() if s.square))
    def test_gmres_family_needs_square_problem(self, name, kind):
        with pytest.raises(ConfigError, match="square"):
            validate_config({"problem": {"type": kind, "n": 16},
                             "solvers": [{"name": name}]})

    @pytest.mark.parametrize("kind", ["phantom", "inpainting"])
    def test_lsqr_family_accepted_on_nonsquare_problems(self, kind):
        names = sorted(n for n, s in cli.SOLVERS.items() if not s.square)
        solvers = [dict(own_keys(n, {"kappa": 2, "kappa_B": 2}), name=n)
                   for n in names]
        validate_config({"problem": {"type": kind, "n": 16},
                         "solvers": solvers})

    @pytest.mark.parametrize("name,key", [
        ("rs-lr-gmres", "truncation_rank"), ("lr-fgmres", "kappa_B"),
        ("lr-fgmres", "kappa"), ("lr-flsqr", "kappa_B"),
        ("lr-flsqr", "kappa")])
    @pytest.mark.parametrize("rank", [0, -1, 17])
    def test_rank_outside_image_side(self, name, key, rank):
        spec = dict(own_keys(name, {"truncation_rank": 2, "kappa": 2,
                                    "kappa_B": 2}), name=name)
        spec[key] = rank
        with pytest.raises(ConfigError, match=key):
            validate_config({"problem": {"type": "star", "n": 16},
                             "solvers": [spec]})

    def test_rank_bounds_are_inclusive(self):
        spec = {"name": "lr-flsqr", "kappa": 1, "kappa_B": 16}
        validate_config({"problem": {"type": "star", "n": 16},
                         "solvers": [spec]})

    def test_default_rank_checked_against_image_side(self):
        # kappa_B and kappa default to 30, more than n = 16
        with pytest.raises(ConfigError, match="kappa"):
            validate_config({"problem": {"type": "star", "n": 16},
                             "solvers": [{"name": "lr-fgmres"}]})

    def test_inpainting_default_side_bounds_rank(self):
        problem = {"type": "inpainting"}  # n defaults to 64
        validate_config({"problem": problem, "solvers": [
            {"name": "lr-flsqr", "kappa": 64, "kappa_B": 64}]})
        with pytest.raises(ConfigError, match="kappa"):
            validate_config({"problem": problem, "solvers": [
                {"name": "lr-flsqr", "kappa": 65, "kappa_B": 64}]})

    def test_non_integer_rank(self):
        with pytest.raises(ConfigError, match="integer"):
            validate_config({"problem": {"type": "star", "n": 16},
                             "solvers": [{"name": "lr-flsqr",
                                          "kappa": "two", "kappa_B": 2}]})

    @pytest.mark.parametrize("name", [
        "lr-fgmres", "lr-flsqr", "fgmres-nnrp", "flsqr-nnrp",
        "fgmres-nnrp-v", "flsqr-nnrp-v"])
    def test_optimal_rule_rejected_for_flexible_solvers(self, name):
        # these solvers never project the exact solution, so "optimal"
        # would run them with lambda = 0 throughout
        spec = dict(own_keys(name, {"kappa": 2, "kappa_B": 2}), name=name)
        secant = own_keys(name, {"lambda_rule": "secant",
                                 "use_discrepancy": True})
        validate_config({"problem": {"type": "star", "n": 16},
                         "solvers": [dict(spec, **secant)]})
        with pytest.raises(ConfigError, match="lambda_rule"):
            validate_config({"problem": {"type": "star", "n": 16},
                             "solvers": [dict(spec, lambda_rule="optimal")]})

    @pytest.mark.parametrize("name", sorted(
        n for n, s in cli.SOLVERS.items()
        if "use_discrepancy" in s.keys and "secant" in s.rules))
    def test_secant_rule_needs_discrepancy_stop(self, name):
        # without a stop the secant rule never moves lambda off 0
        spec = dict(own_keys(name, {"kappa": 2, "kappa_B": 2}), name=name,
                    lambda_rule="secant")
        problem = {"type": "star", "n": 16}
        for flag in ({}, {"use_discrepancy": False}):
            with pytest.raises(ConfigError, match="use_discrepancy"):
                validate_config({"problem": problem,
                                 "solvers": [dict(spec, **flag)]})
        validate_config({"problem": problem,
                         "solvers": [dict(spec, use_discrepancy=True)]})

    def test_secant_rule_needs_discrepancy_level(self):
        # epsilon = 0 leaves the secant rule nothing to aim at
        spec = {"name": "irn-lsqr-nnrp", "lambda_rule": "secant"}
        problem = {"type": "star", "n": 16}
        for level in ({"use_noise_norm": False}, {"epsilon": 0.0},
                      {"epsilon": 0.0, "use_noise_norm": True}):
            with pytest.raises(ConfigError, match="discrepancy level"):
                validate_config({"problem": problem,
                                 "solvers": [dict(spec, **level)]})
        for level in ({}, {"epsilon": 0.1, "use_noise_norm": False}):
            validate_config({"problem": problem,
                             "solvers": [dict(spec, **level)]})

    @pytest.mark.parametrize("name", ["rs-lr-gmres", "svt"])
    @pytest.mark.parametrize("rule", ["fixed", "secant", "optimal"])
    def test_lambda_rule_rejected_for_solvers_without_lambda(self, name,
                                                             rule):
        spec = dict(own_keys(name, {"truncation_rank": 2}), name=name)
        validate_config({"problem": {"type": "star", "n": 16},
                         "solvers": [dict(spec, lambda_rule="zero")]})
        with pytest.raises(ConfigError, match="lambda_rule"):
            validate_config({"problem": {"type": "star", "n": 16},
                             "solvers": [dict(spec, lambda_rule=rule)]})

    @pytest.mark.parametrize("name", [
        "gmres", "lsqr", "irn-gmres-nnrp", "irn-lsqr-nnrp"])
    def test_optimal_rule_accepted(self, name):
        validate_config({"problem": {"type": "star", "n": 16},
                         "solvers": [{"name": name,
                                      "lambda_rule": "optimal"}]})

    @pytest.mark.parametrize("rule", ["Optimal", "", None, ["zero"]])
    def test_unknown_lambda_rule(self, rule):
        with pytest.raises(ConfigError, match="lambda_rule"):
            validate_config({"problem": {"type": "star", "n": 16},
                             "solvers": [{"name": "lsqr",
                                          "lambda_rule": rule}]})

    def test_problem_must_be_an_object(self):
        with pytest.raises(ConfigError, match="object"):
            validate_config({"problem": [], "solvers": [{"name": "lsqr"}]})


class TestExitCodes:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert cli.run(str(path)) == 1

    def test_missing_file(self, tmp_path):
        assert cli.run(str(tmp_path / "nope.json")) == 1

    def test_unknown_problem_type(self, tmp_path):
        cfg = base_config(problem={"type": "mystery"})
        path = write_config(tmp_path / "c.json", cfg)
        assert cli.run(path, out_dir=str(tmp_path)) == 1

    def test_bad_problem_parameter(self, tmp_path):
        cfg = base_config(problem={"type": "star", "n": 16, "wrong": 1})
        path = write_config(tmp_path / "c.json", cfg)
        assert cli.run(path, out_dir=str(tmp_path)) == 1

    def test_solver_failure_is_exit_2(self, tmp_path, monkeypatch):
        cfg = base_config()
        path = write_config(tmp_path / "c.json", cfg)
        monkeypatch.setattr(cli, "run_solver",
                            lambda spec, prob: 1 / 0)
        assert cli.run(path, out_dir=str(tmp_path / "o")) == 2

    def test_gmres_on_tomography_is_exit_1(self, tmp_path):
        cfg = base_config(problem={"type": "phantom", "n": 16,
                                   "n_angles": 4})
        cfg["solvers"] = [{"name": "lsqr", "max_iter": 3},
                          {"name": "gmres", "max_iter": 3}]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()

    def test_secant_without_discrepancy_is_exit_1(self, tmp_path):
        cfg = base_config()
        cfg["solvers"] = [{"name": "lsqr", "max_iter": 3,
                           "lambda_rule": "secant"}]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("name", sorted(
        n for n, s in cli.SOLVERS.items() if "secant" in s.rules))
    def test_secant_without_discrepancy_level_is_exit_1(self, tmp_path,
                                                        capsys, name):
        cfg = base_config()
        cfg["solvers"] = [dict(own_keys(name, {
            "max_iter": 3, "kappa": 2, "kappa_B": 2, "lambda_rule": "secant",
            "use_discrepancy": True, "use_noise_norm": False}), name=name)]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert "discrepancy level" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("spec", [
        {"name": "lsqr", "max_iter": 0},
        {"name": "lsqr", "max_iter": -3},
        {"name": "lsqr", "max_iter": "ten"},
        {"name": "lsqr", "max_iter": 2.7},
        {"name": "irn-lsqr-nnrp", "max_inner": 0},
        {"name": "irn-lsqr-nnrp", "p": 2.0},
        {"name": "irn-lsqr-nnrp", "gamma_decay": 0},
        {"name": "irn-lsqr-nnrp", "gamma0": 0, "gamma_min": 0},
        {"name": "lsqr", "use_discrepancy": True, "epsilon": -1},
        {"name": "gmres", "lambda_rule": "fixed", "lambda_value": -1},
        {"name": "gmres", "lambda_rule": "fixed", "lambda_value": np.nan},
        {"name": "lsqr", "use_discrepancy": True, "epsilon": np.nan},
        {"name": "svt", "tau": 0},
        {"name": "svt", "delta": -1},
        {"name": "rs-lr-gmres", "restart_len": 0},
        {"name": "irn-lsqr-nnrp", "tau_sigma": "x"},
        {"name": "irn-lsqr-nnrp", "tau_sigma": -1.0},
        {"name": "irn-lsqr-nnrp", "tau_sigma": np.nan},
        {"name": "lsqr", "max_iter": True},
        {"name": "irn-lsqr-nnrp", "max_outer": True},
        {"name": "irn-lsqr-nnrp", "max_inner": True},
        {"name": "lr-flsqr", "kappa": True, "kappa_B": 2},
        {"name": "lr-flsqr", "kappa_B": True, "kappa": 2},
        {"name": "rs-lr-gmres", "truncation_rank": True},
        {"name": "rs-lr-gmres", "restart_len": True},
        {"name": "irn-lsqr-nnrp", "tau_sigma": True},
        {"name": "irn-lsqr-nnrp", "p": True},
        {"name": "gmres", "lambda_rule": "fixed", "lambda_value": True},
        {"name": "lsqr", "use_discrepancy": True, "epsilon": True},
        {"name": "svt", "tau": True},
        {"name": "svt", "delta": True},
        {"name": "irn-lsqr-nnrp", "gamma0": True},
        {"name": "irn-lsqr-nnrp", "gamma_decay": True},
        {"name": "irn-lsqr-nnrp", "gamma_min": True},
        {"name": "fgmres-nnrp-v", "gamma0": 5.0},
        {"name": "fgmres-nnrp-v", "gamma_decay": 2.0},
        {"name": "fgmres-nnrp-v", "gamma_min": 1e-3},
        {"name": "flsqr-nnrp-v", "gamma0": 5.0},
        {"name": "flsqr-nnrp-v", "gamma_decay": 2.0},
        {"name": "flsqr-nnrp-v", "gamma_min": 1e-3},
        # json reads 1e400 as inf, and NaN and Infinity as they are
        {"name": "flsqr-nnrp", "gamma0": 1e400},
        {"name": "irn-lsqr-nnrp", "gamma_min": 1e400},
        {"name": "irn-lsqr-nnrp", "gamma_decay": math.inf},
        {"name": "irn-lsqr-nnrp", "tau_sigma": math.inf},
        {"name": "svt", "delta": 1e400},
        {"name": "svt", "tau": math.inf},
        {"name": "svt", "tau": math.nan},
        {"name": "gmres", "lambda_rule": "fixed", "lambda_value": math.inf},
        {"name": "lsqr", "use_discrepancy": True, "epsilon": math.inf},
        {"name": "lsqr", "theta": math.inf},
        # json reads 1 followed by 400 zeros as an int no float can hold
        pytest.param({"name": "lsqr", "epsilon": 10**400},
                     id="name=lsqr-epsilon=10**400"),
        # keys the solver never reads
        {"name": "lsqr", "max_iters": 7},
        {"name": "svt", "kappa": 3},
        {"name": "gmres", "gamma0": 5.0},
        {"name": "irn-lsqr-nnrp", "use_discrepancy": False},
        # flags that are not JSON booleans
        {"name": "lsqr", "use_discrepancy": "no"},
        {"name": "irn-lsqr-nnrp", "use_noise_norm": 0},
    ], ids=lambda spec: "-".join(f"{k}={v}" for k, v in spec.items()))
    def test_bad_solver_config_is_exit_1(self, tmp_path, capsys, monkeypatch,
                                         spec):
        def build(*args):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(cli, "build_problem", build)
        cfg = base_config()
        budget = {"max_iter": 3, "max_outer": 2, "max_inner": 3,
                  "truncation_rank": 2}
        cfg["solvers"] = [dict(own_keys(spec["name"], budget), **spec)]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()
        # the message names the solver and a key of the case, as
        # "<key> must ..." or "'<key>'"
        err = capsys.readouterr().err
        assert f"solver {spec['name']}: " in err
        assert any(f"{key} must" in err or f"'{key}'" in err
                   for key in spec if key != "name"), err

    @pytest.mark.parametrize("spec", [
        {"name": "svt", "tau": 10**400},
        {"name": "flsqr-nnrp", "gamma0": 10**400},
        {"name": "lsqr", "max_iter": 10**400},
    ], ids=["svt-tau", "flsqr-nnrp-gamma0", "lsqr-max_iter"])
    def test_integer_beyond_float_range_is_exit_1(self, tmp_path, capsys,
                                                  spec):
        # json reads 1 followed by 400 zeros as an int no float can hold
        cfg = base_config(solvers=[spec])
        path = write_config(tmp_path / "c.json", cfg)
        assert cli.run(path, out_dir=str(tmp_path / "o")) == 1
        key = list(spec)[1]
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("size, key", [
        ({"n": 16, "n_angles": True, "detector_count": True}, "n_angles"),
        ({"n": 0}, "n"),
        ({"n": 16, "detector_count": 1e9}, "detector_count"),
        ({"n": 16.0}, "n"),
        ({"n": 16, "n_angles": 0}, "n_angles"),
        ({"n": 16, "detector_count": -3}, "detector_count"),
    ], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items())
        if isinstance(v, dict) else v)
    def test_bad_phantom_size_is_exit_1(self, tmp_path, capsys, size, key):
        cfg = base_config(problem=dict({"type": "phantom"}, **size),
                          solvers=[{"name": "lsqr", "max_iter": 3}])
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()
        assert f"{key} must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("size, named", [
        ({"n": 16, "detector_count": 10**9}, "detector_count"),
        ({"n": 16, "n_angles": 10**9}, "n_angles"),
        ({"n": 10**8}, "n must be"),
    ], ids=["detector_count", "n_angles", "n"])
    def test_phantom_beyond_memory_is_exit_1(self, tmp_path, capsys,
                                             monkeypatch, size, named):
        # validated sizes that would ask for terabytes: nothing may be
        # built, not even by a version without the bound (the image comes
        # first, then the angles and the operator)
        def build(*args):
            raise AssertionError("built")

        monkeypatch.setattr(problems, "tomography_operator", build)
        monkeypatch.setattr(problems, "_bump_profile", build)
        cfg = base_config(problem=dict({"type": "phantom"}, **size),
                          solvers=[{"name": "lsqr", "max_iter": 3}])
        path = write_config(tmp_path / "c.json", cfg)
        assert cli.run(path, out_dir=str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "must be at most" in err
        assert named in err

    @pytest.mark.parametrize("kind, first_array", [
        ("star", "_gaussian_profile"), ("inpainting", "_peppers_texture")])
    def test_image_beyond_memory_is_exit_1(self, tmp_path, capsys,
                                           monkeypatch, kind, first_array):
        # validation passes these, since no step budget bounds a problem
        # past the cap; the builder must refuse an 80 GB image before it
        # builds its first array
        def build(*args):
            raise AssertionError("built")

        monkeypatch.setattr(problems, first_array, build)
        cfg = {"problem": {"type": kind, "n": 100000},
               "solvers": [{"name": "gmres" if kind == "star" else "lsqr"}]}
        path = write_config(tmp_path / "c.json", cfg)
        validate_config(cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()
        assert "problem: n must be at most 8192" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, key", [
        ({"type": "star", "n": 8}, "n"),
        ({"type": "star", "n": True}, "n"),
        ({"type": "star", "n": 16, "bandwidth": True}, "bandwidth"),
        ({"type": "star", "n": 16, "bandwidth": -1}, "bandwidth"),
        ({"type": "star", "n": 16, "bandwidth": 17}, "bandwidth"),
        ({"type": "inpainting", "n": 0}, "n"),
        ({"type": "inpainting", "n": 16, "rank_cap": True}, "rank_cap"),
        ({"type": "inpainting", "n": 16, "rank_cap": 0}, "rank_cap"),
        ({"type": "inpainting", "n": 16, "rank_cap": 8, "blur_steps": True},
         "blur_steps"),
        ({"type": "inpainting", "n": 16, "rank_cap": 8, "blur_steps": -3},
         "blur_steps"),
        ({"type": "inpainting", "n": 16, "rank_cap": 8,
          "missing_fraction": 1.5}, "missing_fraction"),
        # json reads 1e400 as inf, as it does the Infinity written here
        ({"type": "star", "n": 16, "sigma_blur": float("inf")}, "sigma_blur"),
        ({"type": "star", "n": 16, "sigma_blur": float("nan")}, "sigma_blur"),
        ({"type": "star", "n": 16, "sigma_blur": True}, "sigma_blur"),
        ({"type": "star", "n": 16, "sigma_blur": -1.0}, "sigma_blur"),
        # no open descriptor: an integer image was opened as one
        ({"type": "inpainting", "n": 16, "rank_cap": 8, "image": 10**6},
         "image"),
        ({"type": "phantom", "n": 16, "n_angles": 4,
          "angle_span_degrees": True}, "angle_span_degrees"),
    ], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items())
        if isinstance(v, dict) else v)
    def test_bad_star_or_inpainting_size_is_exit_1(self, tmp_path, capsys,
                                                   problem, key):
        # unchecked, these would run silently (rank 1, a 1-step identity
        # blur, one kept pixel) or blame another key
        cfg = base_config(problem=problem,
                          solvers=[{"name": "lsqr", "max_iter": 3}])
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()
        assert f"problem: {key} must be" in capsys.readouterr().err

    def test_secant_on_noise_free_data_is_exit_1(self, tmp_path):
        # the noise norm, and with it the discrepancy level, is 0
        cfg = base_config(problem={"type": "star", "n": 16, "seed": 0,
                                   "noise_level": 0.0})
        cfg["solvers"] = [{"name": "gmres", "max_iter": 3,
                           "lambda_rule": "secant", "use_discrepancy": True}]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()

    def test_rank_above_image_side_is_exit_1(self, tmp_path):
        cfg = base_config()
        cfg["solvers"] = [{"name": "lr-flsqr", "kappa_B": 17, "kappa": 2,
                           "max_iter": 3}]
        path = write_config(tmp_path / "c.json", cfg)
        assert cli.run(path, out_dir=str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), -1e-3,
                                       True])
    def test_bad_noise_level_is_exit_1(self, tmp_path, level):
        # json writes and reads these as NaN / Infinity / -0.001 / true
        cfg = base_config(problem={"type": "star", "n": 16, "seed": 0,
                                   "noise_level": level})
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()

    def test_non_finite_data_is_exit_1(self, tmp_path, monkeypatch):
        build = cli.build_problem

        def corrupt(spec, seed_override=None):
            problem = build(spec, seed_override)
            problem.b[3] = np.inf
            return problem

        monkeypatch.setattr(cli, "build_problem", corrupt)
        path = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "1.5"])
    def test_bad_thread_count_is_exit_1(self, tmp_path, monkeypatch, capsys,
                                        threads):
        monkeypatch.setenv("LRK_THREADS", threads)
        path = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert "config error: LRK_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '[1, 2]',
        STAR + '"solvers": ["lsqr"]}',
        STAR + '"solvers": {"name": "lsqr"}}',
        STAR + '"solvers": 5}',
        STAR + '"solvers": [{"name": ["lsqr"]}]}',
        STAR + '"solvers": [{"name": {"a": 1}}]}',
        STAR_LSQR + '"emit_images": "false"}',
        STAR_LSQR + '"cross_check_residuals": 1}',
        STAR_LSQR + '"emit_image": false}',
        STAR_LSQR + '"output_dir": 5}',
    ], ids=["list", "solver-string", "solvers-object", "solvers-number",
            "name-list", "name-object", "flag-string", "flag-number",
            "unknown-key", "output-dir-number"])
    def test_config_of_wrong_shape_is_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert cli.run(str(path), out_dir=str(out)) == 1
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem,solver,key", [
        ({"type": "star", "n": 256}, "gmres", "max_iter"),
        ({"type": "phantom", "n": 32, "n_angles": 1024, "detector_count": 64},
         "irn-lsqr-nnrp", "max_inner"),
        ({"type": "star", "n": 256}, "rs-lr-gmres", "restart_len"),
    ], ids=["max_iter", "max_inner", "restart_len"])
    def test_step_budget_bounded_by_basis_size(self, tmp_path, capsys,
                                               problem, solver, key):
        # the largest basis is (budget + 1) x 65536 entries in each case
        # (n^2 = 65536 for the star, 1024 angles x 64 detectors for the
        # phantom), so 1023 is the largest budget within 2^26 entries
        for budget, code in ((1024, 1), (1023, 0)):
            path = write_config(tmp_path / "c.json", {
                "problem": problem,
                "solvers": [{"name": solver, key: budget}]})
            assert cli.run(path, validate_only=True) == code
        err = capsys.readouterr().err
        assert f"solver {solver}: {key} must be at most 1023" in err

    def test_validate_only(self, tmp_path, capsys):
        cfg = base_config()
        path = write_config(tmp_path / "c.json", cfg)
        assert cli.run(path, validate_only=True) == 0
        assert "gmres" in capsys.readouterr().out
        assert not (tmp_path / "summary.json").exists()


class TestArtifacts:
    def test_outputs_written(self, tmp_path):
        cfg = base_config(emit_images=True, emit_spectra=True)
        cfg["solvers"].append(
            {"name": "irn-gmres-nnrp", "max_outer": 2, "max_inner": 5})
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        assert (out / "gmres_iterations.csv").exists()
        assert (out / "gmres_best.pgm").exists()
        assert (out / "irn-gmres-nnrp_iterations.csv").exists()
        assert (out / "irn-gmres-nnrp_spectrum_outer0.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"gmres", "irn-gmres-nnrp"}
        for entry in summary.values():
            assert entry["min_rel_error"] > 0
            assert entry["iterations_run"] >= 1

    def test_csv_layout(self, tmp_path):
        path = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        lines = (out / "gmres_iterations.csv").read_text().splitlines()
        assert lines[0] == "iter,outer,rel_error,residual,lambda_hat"
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert float(first[2]) > 0

    def test_deterministic_reruns(self, tmp_path):
        cfg = base_config(emit_spectra=True)
        cfg["solvers"] = [
            {"name": "gmres", "max_iter": 8},
            {"name": "flsqr-nnrp-v", "max_iter": 8},
        ]
        path = write_config(tmp_path / "c.json", cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run(path, out_dir=str(out1)) == 0
        assert cli.run(path, out_dir=str(out2)) == 0
        for name in ("gmres_iterations.csv", "flsqr-nnrp-v_iterations.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        path = write_config(tmp_path / "c.json", base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run(path, out_dir=str(out1)) == 0
        assert cli.run(path, out_dir=str(out2), seed_override=99) == 0
        assert (out1 / "gmres_iterations.csv").read_bytes() != \
            (out2 / "gmres_iterations.csv").read_bytes()

    @pytest.mark.parametrize("seed", [True, -1, 1.5])
    def test_bad_seed_is_exit_1(self, tmp_path, capsys, seed):
        cfg = base_config(problem={"type": "star", "n": 16, "seed": seed})
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 1
        assert not (out / "summary.json").exists()
        err = capsys.readouterr().err
        assert "problem: seed must be an integer >= 0" in err

    def test_negative_seed_override_is_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "o"
        assert cli.main(["run", path, "--out", str(out),
                         "--seed-override", "-1"]) == 1
        assert not (out / "summary.json").exists()
        err = capsys.readouterr().err
        assert "problem: seed must be an integer >= 0" in err

    def test_cross_check_residuals(self, tmp_path):
        cfg = base_config(cross_check_residuals=True)
        path = write_config(tmp_path / "c.json", cfg)
        assert cli.run(path, out_dir=str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("final_x", [None, np.zeros(256)],
                             ids=["no-iterate", "iterate-only"])
    def test_cross_check_skips_a_run_with_no_residual(self, final_x):
        problem = cli.build_problem(base_config()["problem"])
        report = SolveReport(solver="gmres", final_x=final_x)
        assert cli._cross_check_residuals(report, problem) is None

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_solver_keeps_other_results(self, tmp_path, monkeypatch,
                                               threads):
        # lr-flsqr records the residual of the untruncated iterate, so the
        # cross-check raises for it while gmres passes
        monkeypatch.setenv("LRK_THREADS", threads)
        cfg = base_config(cross_check_residuals=True)
        cfg["solvers"] = [{"name": "gmres", "max_iter": 5},
                          {"name": "lr-flsqr", "kappa_B": 4, "kappa": 4,
                           "max_iter": 10}]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "o"
        assert cli.run(path, out_dir=str(out)) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == ["gmres", "lr-flsqr"]
        assert summary["gmres"]["min_rel_error"] > 0
        assert summary["gmres"]["iterations_run"] == 5
        assert "status" not in summary["gmres"]
        failed = summary["lr-flsqr"]
        assert failed["status"] == "failed"
        assert "disagrees with true residual" in failed["error"]
        assert (out / "gmres_iterations.csv").exists()

    def test_threaded_runs_match_serial(self, tmp_path, monkeypatch):
        cfg = base_config()
        cfg["solvers"] = [{"name": "gmres", "max_iter": 5},
                          {"name": "lsqr", "max_iter": 5}]
        path = write_config(tmp_path / "c.json", cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run(path, out_dir=str(out1)) == 0
        monkeypatch.setenv("LRK_THREADS", "2")
        assert cli.run(path, out_dir=str(out2)) == 0
        for name in ("gmres_iterations.csv", "lsqr_iterations.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestSolverDispatch:
    @pytest.mark.parametrize("name", sorted(cli.SOLVERS))
    def test_every_solver_runs(self, name, tmp_path):
        cfg = base_config()
        spec = dict(own_keys(name, {
            "max_iter": 4, "max_outer": 2, "max_inner": 2, "restart_len": 3,
            "truncation_rank": 2, "kappa": 2, "kappa_B": 2, "tau": 0.5,
            "delta": 0.9}), name=name)
        cfg["solvers"] = [spec]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary[name]["iterations_run"] >= 1

    def test_fixed_lambda_forwarded(self, tmp_path):
        cfg = base_config()
        cfg["solvers"] = [{"name": "gmres", "max_iter": 5,
                           "lambda_rule": "fixed", "lambda_value": 0.5}]
        path = write_config(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert cli.run(path, out_dir=str(out)) == 0
        lines = (out / "gmres_iterations.csv").read_text().splitlines()
        assert all(line.rsplit(",", 1)[1] == "0.5" for line in lines[1:])


README_CLI = (ROOT / "README.md").read_text().split("\n## CLI\n")[1]


class TestConfigContract:
    """Every input is either valid or a ConfigError, and the configs that
    the benchmark and the README give are valid."""

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_benchmark_workloads_validate(self, name):
        for seed in range(20):
            validate_config(workloads.config(name, seed))
        validate_config(workloads.warmup_config(name))

    def test_readme_example_validates(self):
        example = README_CLI.split("```json\n")[1].split("```")[0]
        validate_config(json.loads(example))

    def test_readme_key_table_matches_solvers(self):
        table = README_CLI.split("| solvers | keys (default) |\n|---|---|\n")
        documented, common = {}, set()
        for row in table[1].split("\n\n")[0].splitlines():
            names, keys = row.strip("|").split("|")
            keys = set(re.findall(r"`(\w+)` \(", keys))
            common |= keys if "every solver" in names else set()
            documented.update(dict.fromkeys(re.findall(r"`([\w-]+)`", names),
                                            keys))
        assert {n: keys | common for n, keys in documented.items()} == {
            n: set(s.keys) for n, s in cli.SOLVERS.items()}


KEYS = sorted({"problem", "solvers", "output_dir", "emit_images",
               "emit_spectra", "cross_check_residuals", "name", "type", "n",
               "seed"}.union(*(s.keys for s in cli.SOLVERS.values())))
# valid keys and misspelled ones
key_names = st.sampled_from(KEYS) | st.sampled_from(KEYS).map(
    lambda k: k + "s") | st.sampled_from(KEYS).map(lambda k: k[1:])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10**400, -10**400, math.inf, -math.inf, math.nan])
    | st.text(max_size=6) | st.sampled_from(sorted(cli.SOLVERS)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(key_names, inner, max_size=3),
    max_leaves=8)
entries = st.dictionaries(key_names, json_values, max_size=4)
solver_specs = st.builds(
    lambda name, rest: dict(rest, name=name),
    st.sampled_from(sorted(cli.SOLVERS)) | json_values, entries)
problem_specs = st.builds(
    lambda kind, rest: dict(rest, type=kind),
    st.sampled_from(["star", "phantom", "inpainting"]) | json_values,
    entries)
configs = json_values | st.builds(
    lambda problem, solvers, rest: dict(rest, problem=problem,
                                        solvers=solvers),
    problem_specs | json_values,
    st.lists(solver_specs | json_values, max_size=3) | json_values,
    entries)


@given(configs)
@settings(max_examples=300, deadline=None)
def test_validate_config_accepts_or_raises_config_error(config):
    try:
        validate_config(config)
    except ConfigError:
        pass
