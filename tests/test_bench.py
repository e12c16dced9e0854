import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from toepcov import bench
from toepcov.bench import (
    ESTIMATORS,
    ExperimentConfig,
    config_from_sections,
    derive_seed,
    parse_config,
    run_benchmark,
    timing_benchmark,
    write_timing_csv,
)
from toepcov.cli import main
from toepcov.processes import ProcessSpec, sample

SMOKE_CFG = """
# smoke config
[grid]
dims = [10]
sample_counts = [8]
runs = 2
seed = 5

[process]
kind = "ar"
sigma2 = 0.64
points = [[0.5]]

[estimators]
names = ["scm", "avg", "circ", "pls"]

[outputs]
cm_nmse = true
icm_nmse = true
"""


def write_samples(path, p=10, n=8, seed=1):
    data = sample(ProcessSpec("ar", p, a=(0.5,), sigma2=0.64), n, seed)
    np.savetxt(path, data.samples, delimiter=",")
    return data


class TestConfigParsing:
    def test_smoke_config(self):
        cfg = config_from_sections(parse_config(SMOKE_CFG))
        assert cfg.dims == (10,)
        assert cfg.points == ((0.5,),)
        assert cfg.estimators == ("scm", "avg", "circ", "pls")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("[grid]\ndims = [4]\ntypo_key = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            parse_config("[wat]\nx = 1\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_config("dims = [4]\n")

    def test_unknown_estimator_rejected(self):
        bad = SMOKE_CFG.replace('"scm"', '"nope"')
        with pytest.raises(ValueError, match="unknown estimator"):
            config_from_sections(parse_config(bad))

    def test_every_key_parses(self):
        sections = parse_config(
            '[grid]\ndims = [6, 10]\nsample_counts = [4, 8]\nruns = 3\nseed = 11\n'
            '[process]\nkind = "arma"\nsigma2 = 2\npoints = [[0.7, 0.3], 0.5]\n'
            '[estimators]\nnames = ["pls", "em"]\n'
            '[outputs]\ncm_nmse = false\nicm_nmse = false\n'
            '[timing]\ndims = [8, 16]\nestimators = ["pls"]\nreps = 3\nsample_count = 12\nseed = 9\n'
        )
        assert config_from_sections(sections) == ExperimentConfig(
            kind="arma", points=((0.7, 0.3), (0.5,)), dims=(6, 10), sample_counts=(4, 8),
            estimators=("pls", "em"), sigma2=2.0, runs=3, seed=11, cm_nmse=False, icm_nmse=False,
        )
        timing = bench.section_args(sections, "timing")
        assert timing == {"dims": (8, 16), "estimator_names": ("pls",), "reps": 3, "n": 12, "seed": 9}
        inspect.signature(timing_benchmark).bind(**timing)

    def test_omitted_optional_keys_take_defaults(self):
        sections = parse_config(
            '[grid]\ndims = [4]\nsample_counts = [8]\n[process]\nkind = "ar"\npoints = [[0.5]]\n'
            '[estimators]\nnames = ["scm"]\n[timing]\n'
        )
        cfg = config_from_sections(sections)
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                    if f.default is not dataclasses.MISSING}
        assert set(defaults) == {"sigma2", "runs", "seed", "cm_nmse", "icm_nmse"}
        assert {name: getattr(cfg, name) for name in defaults} == defaults
        assert bench.section_args(sections, "timing") == {}

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing required"):
            config_from_sections(parse_config("[grid]\ndims = [4]\n"))


class TestSeedDerivation:
    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {
            derive_seed(1, (0.5,), p, n, r)
            for p in (8, 16)
            for n in (4, 8)
            for r in range(10)
        }
        assert len(seeds) == 40

    def test_stable_across_calls(self):
        assert derive_seed(7, (0.1, 0.2), 16, 8, 3) == derive_seed(7, (0.1, 0.2), 16, 8, 3)


class TestRunBenchmark:
    def test_single_cell_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            kind="ar", points=((0.5,),), sigma2=0.64, dims=(10,),
            sample_counts=(8,), estimators=("scm",), runs=1, seed=3,
        )
        rows = run_benchmark(cfg, str(tmp_path))
        assert len(rows) == 1
        assert rows[0]["nmse_c_mean"] >= 0.0
        assert os.path.exists(tmp_path / "results.csv")

    def test_deterministic_output(self, tmp_path):
        cfg = config_from_sections(parse_config(SMOKE_CFG))
        run_benchmark(cfg, str(tmp_path / "a"))
        run_benchmark(cfg, str(tmp_path / "b"))
        with open(tmp_path / "a" / "results.csv", "rb") as fa, open(
            tmp_path / "b" / "results.csv", "rb"
        ) as fb:
            assert fa.read() == fb.read()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = config_from_sections(parse_config(SMOKE_CFG))
        run_benchmark(cfg, str(tmp_path / "serial"), workers=1)
        try:
            run_benchmark(cfg, str(tmp_path / "parallel"), workers=2)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")
        with open(tmp_path / "serial" / "results.csv", "rb") as fa, open(
            tmp_path / "parallel" / "results.csv", "rb"
        ) as fb:
            assert fa.read() == fb.read()

    def test_icm_columns_only_for_capable_estimators(self, tmp_path):
        cfg = ExperimentConfig(
            kind="ar", points=((0.5,),), sigma2=0.64, dims=(10,),
            sample_counts=(8,), estimators=("scm", "avg", "banding", "circ", "pls"),
            runs=2, seed=1,
        )
        rows = run_benchmark(cfg, str(tmp_path))
        by_name = {r["estimator"]: r for r in rows}
        for name in ("scm", "avg", "banding"):
            assert by_name[name]["nmse_icm_count"] == 0
        for name in ("circ", "pls"):
            assert by_name[name]["nmse_icm_count"] == 2

    def test_failed_cells_are_counted_not_dropped(self, tmp_path):
        # banding needs at least 4 samples for cross validation
        cfg = ExperimentConfig(
            kind="ar", points=((0.5,),), sigma2=0.64, dims=(8,),
            sample_counts=(2,), estimators=("banding", "scm"), runs=2, seed=1,
        )
        rows = run_benchmark(cfg, str(tmp_path))
        by_name = {r["estimator"]: r for r in rows}
        assert by_name["banding"]["failures"] == 2
        assert by_name["banding"]["nmse_c_count"] == 0
        assert by_name["scm"]["failures"] == 0
        detail = json.loads((tmp_path / "results.json").read_text())
        banding_recs = [
            rec
            for cell in detail["cells"]
            if cell["estimator"] == "banding"
            for rec in cell["records"]
        ]
        assert all("error" in rec for rec in banding_recs)

    def test_svg_written(self, tmp_path):
        cfg = ExperimentConfig(
            kind="ar", points=((0.3,), (0.7,)), sigma2=0.64, dims=(8,),
            sample_counts=(8,), estimators=("scm", "pls"), runs=1, seed=1,
        )
        run_benchmark(cfg, str(tmp_path), svg=True)
        assert (tmp_path / "nmse_c_mean.svg").exists()
        text = (tmp_path / "nmse_c_mean.svg").read_text()
        assert "<svg" in text and "polyline" in text


    def test_multi_axis_svg_plots_every_cell(self, tmp_path):
        """With N and P both varying there is one chart per dimension, and
        every row with a finite mean is a point of its dimension's chart."""
        cfg = ExperimentConfig(
            kind="ar", points=((0.5,),), sigma2=0.64, dims=(8, 12),
            sample_counts=(4, 8, 16), estimators=("scm", "pls"), runs=1, seed=1,
        )
        rows = run_benchmark(cfg, str(tmp_path), svg=True)
        for metric in ("nmse_c_mean", "nmse_icm_mean"):
            names = {f"{metric}-dim{p}.svg": p for p in cfg.dims}
            assert {f.name for f in tmp_path.glob(f"{metric}*.svg")} == set(names)
            for name, p in names.items():
                finite = [r for r in rows if r["dim"] == p and r[metric] is not None
                          and np.isfinite(r[metric])]
                assert finite
                assert (tmp_path / name).read_text().count("<circle") == len(finite)


class TestTiming:
    def test_rows_and_csv(self, tmp_path):
        rows = timing_benchmark((8, 16), ("pls", "banding"), n=8, reps=2)
        assert len(rows) == 4
        for row in rows:
            assert row["median_ms"] > 0.0
        path = tmp_path / "timing.csv"
        write_timing_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,")
        assert len(lines) == 5


class TestCli:
    def test_list_estimators(self, capsys):
        assert main(["list-estimators"]) == 0
        out = capsys.readouterr().out
        for name in ESTIMATORS:
            assert name in out

    def test_estimate_report_roundtrip(self, tmp_path, capsys):
        samples = tmp_path / "x.csv"
        write_samples(samples)
        out = tmp_path / "report.json"
        code = main(
            ["estimate", "--input", str(samples), "--estimator", "pls",
             "--order", "auto", "--icm", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["estimator"] == "pls"
        assert report["alpha0"] > 0
        assert len(report["cm_first_col"]) == 10
        assert report["converged"] is True
        # serialization fidelity: the reported parameters reproduce the same
        # precision matrix, and inverting it gives back the covariance column
        from toepcov.toeplitz import GsParams, HermitianToeplitz, gs_assemble

        alpha = GsParams(report["alpha0"], np.asarray(report["alpha"]))
        icm = gs_assemble(alpha)
        assert np.allclose(icm, np.asarray(report["icm_dense"]), atol=1e-10)
        cov = HermitianToeplitz(np.asarray(report["cm_first_col"])).dense()
        assert np.allclose(icm @ cov, np.eye(10), atol=1e-8)

    def test_estimate_fixed_order(self, tmp_path):
        samples = tmp_path / "x.csv"
        write_samples(samples)
        out = tmp_path / "report.json"
        assert main(
            ["estimate", "--input", str(samples), "--estimator", "pgd",
             "--order", "2", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["order"] == 2

    def test_estimate_is_scale_free(self, tmp_path):
        """Samples x1e4 get the unit-scale order and family and c^2 times its
        precision scale (the absolute floor alpha_0 >= 1e-6 gave order 10)."""
        data = sample(ProcessSpec("ar", 16, a=(0.5,), sigma2=0.64), 32, 1)
        _, _, unit, fit = ESTIMATORS["pgd"].tuned(data)
        samples = tmp_path / "x.csv"
        np.savetxt(samples, 1e4 * data.samples, delimiter=",")
        out = tmp_path / "report.json"
        assert main(["estimate", "--input", str(samples), "--estimator", "pgd", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["order"], report["family_id"]) == (unit["order"], unit["family"]) == (1, "exp-0.6")
        assert report["alpha0"] * 1e8 == pytest.approx(fit.alpha.alpha0, rel=1e-8)

    def test_estimate_baseline(self, tmp_path):
        samples = tmp_path / "x.csv"
        write_samples(samples)
        out = tmp_path / "report.json"
        assert main(
            ["estimate", "--input", str(samples), "--estimator", "banding",
             "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert len(report["cm_first_col"]) == 10

    def test_capability_error(self, tmp_path, capsys):
        samples = tmp_path / "x.csv"
        write_samples(samples)
        code = main(["estimate", "--input", str(samples), "--estimator", "banding", "--icm"])
        assert code == 1
        assert "icm" in capsys.readouterr().err.lower()

    def test_unknown_estimator_is_usage_error(self, tmp_path):
        samples = tmp_path / "x.csv"
        write_samples(samples)
        assert main(["estimate", "--input", str(samples), "--estimator", "nope"]) == 1

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n1.0,oops\n")
        code = main(["estimate", "--input", str(bad), "--estimator", "scm"])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_header_and_comments_tolerated(self, tmp_path):
        path = tmp_path / "x.csv"
        data = sample(ProcessSpec("ar", 4, a=(0.5,), sigma2=0.64), 6, 2).samples
        body = "\n".join(",".join(f"{v:.8f}" for v in row) for row in data)
        path.write_text("# comment\ncol0,col1,col2,col3\n" + body + "\n")
        assert main(["estimate", "--input", path.as_posix(), "--estimator", "scm"]) == 0

    def test_benchmark_cli(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text(SMOKE_CFG)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()

    def test_timing_flags_override_config(self, tmp_path, monkeypatch, capsys):
        """``--runs`` and ``--seed`` win over the [timing] section, which wins
        over the defaults, as for ``benchmark``."""
        cfg = tmp_path / "timing.cfg"
        cfg.write_text('[timing]\ndims = [8]\nestimators = ["pls"]\nreps = 3\nsample_count = 8\nseed = 5\n')
        calls = []

        def recorded(*args, **kwargs):
            calls.append(inspect.signature(timing_benchmark).bind(*args, **kwargs).arguments)
            return timing_benchmark(*args, **kwargs)

        monkeypatch.setattr(bench, "timing_benchmark", recorded)
        out = tmp_path / "timing.csv"
        assert main(["timing", "--config", str(cfg), "--runs", "1", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2
        assert main(["timing", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        assert [(c["reps"], c["seed"]) for c in calls] == [(1, 5), (3, 7)]
        assert all(tuple(c["dims"]) == (8,) and tuple(c["estimator_names"]) == ("pls",)
                   and c["n"] == 8 for c in calls)
        assert "pls" in capsys.readouterr().out

    def test_benchmark_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text("[grid]\nbad_key = 1\n")
        assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_auto_order_single_sample_usage_error(self, tmp_path):
        path = tmp_path / "x.csv"
        data = sample(ProcessSpec("ar", 6, a=(0.5,), sigma2=0.64), 1, 2).samples
        np.savetxt(path, data, delimiter=",")
        assert main(["estimate", "--input", str(path), "--estimator", "pls"]) == 1

    def test_white_noise_selects_order_zero(self, tmp_path):
        path = tmp_path / "x.csv"
        x = np.random.default_rng(6).standard_normal((64, 8))
        np.savetxt(path, x, delimiter=",")
        out = tmp_path / "report.json"
        assert main(
            ["estimate", "--input", str(path), "--estimator", "pls", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["order"] == 0

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((4, 6)), delimiter=",")
        code = main(["estimate", "--input", str(path), "--estimator", "circ", "--icm"])
        assert code == 2
        assert "numerical" in capsys.readouterr().err.lower()

    def test_all_zero_samples_rejected(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        np.savetxt(path, np.zeros((4, 6)), delimiter=",")
        for name in ("scm", "pgd", "frob", "em"):
            code = main(["estimate", "--input", str(path), "--estimator", name])
            assert code == 2
            assert "samples are all zero" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_estimate_seed_flag_rejected(self, tmp_path, capsys):
        """Every estimate is a deterministic function of the samples; a seed would be ignored."""
        samples = tmp_path / "x.csv"
        write_samples(samples)
        assert main(["estimate", "--input", str(samples), "--estimator", "pls", "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, bad):
        path = tmp_path / "x.csv"
        path.write_text(f"1.0,2.0\n0.5,{bad}\n1.5,0.25\n")
        for name, extra in (("scm", []), ("circ", ["--icm"]), ("em", ["--icm"]), ("pls", [])):
            code = main(["estimate", "--input", str(path), "--estimator", name, *extra])
            assert code == 1
            assert f"{path}:2: non-finite value" in capsys.readouterr().err

    def test_integer_order_rejected_without_pinned_fit(self, tmp_path, capsys):
        samples = tmp_path / "x.csv"
        write_samples(samples)
        code = main(["estimate", "--input", str(samples), "--estimator", "em", "--order", "3"])
        assert code == 1
        assert "--order" in capsys.readouterr().err
        assert main(["estimate", "--input", str(samples), "--estimator", "em", "--order", "auto",
                     "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_registry_entry_drives_estimate_benchmark_and_timing(name, tmp_path):
    """Every registry entry runs through all three consumers of the table."""
    info = ESTIMATORS[name]
    samples = tmp_path / "x.csv"
    write_samples(samples, p=8, n=8)
    out = tmp_path / "report.json"
    argv = ["estimate", "--input", str(samples), "--estimator", name, "--out", str(out)]
    assert main(argv + (["--icm"] if info.supports_icm else [])) == 0
    report = json.loads(out.read_text())
    assert len(report["cm_first_col"]) == 8
    assert ("icm_dense" in report) == info.supports_icm
    assert (report["loglik"] is not None) == (info.kind == "proposed")
    if info.pinned is None:
        assert main(argv + ["--order", "2"]) == 1
    else:
        assert main(argv + ["--order", "2"]) == 0
        assert json.loads(out.read_text())["order"] == 2
    cfg = ExperimentConfig(
        kind="ar", points=((0.5,),), sigma2=0.64, dims=(8,),
        sample_counts=(8,), estimators=(name,), runs=1, seed=2,
    )
    (row,) = run_benchmark(cfg, str(tmp_path / "bench"))
    assert row["failures"] == 0 and row["nmse_c_count"] == 1
    assert row["nmse_icm_count"] == int(info.supports_icm)
    (timed,) = timing_benchmark((8,), (name,), n=8, reps=1)
    assert timed["median_ms"] >= 0.0 and timed["complexity"] == info.complexity


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimate_reports_the_registry_record(name, tmp_path):
    """``estimate`` carries the fit record of the registry's tuned (and, for GS
    estimators, order-2) fit of the same samples."""
    data = sample(ProcessSpec("arma", 10, a=(0.7,), b=(0.3,), sigma2=0.64), 16, 4)
    samples = tmp_path / "x.csv"
    np.savetxt(samples, data.samples, delimiter=",")
    info = ESTIMATORS[name]
    fits = [([], info.tuned(data))]
    if info.pinned is not None:
        fits.append((["--order", "2"], info.pinned(data, 2)))
    out = tmp_path / "report.json"
    for extra, (_, _, meta, _) in fits:
        argv = ["estimate", "--input", str(samples), "--estimator", name, "--out", str(out), *extra]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        expected = {
            "order": meta.get("order", meta.get("mask_k")), "family_id": meta.get("family"),
            "loglik": meta.get("loglik"), "iterations": meta.get("iterations"),
            "converged": meta.get("converged"),
        }
        assert {key: report[key] for key in expected} == expected


def test_em_reports_its_iterations(tmp_path):
    """em's iteration count and convergence reach the estimate JSON and results.json."""
    samples = tmp_path / "x.csv"
    write_samples(samples, p=8, n=8)
    out = tmp_path / "report.json"
    assert main(["estimate", "--input", str(samples), "--estimator", "em", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert isinstance(report["iterations"], int) and 1 <= report["iterations"] <= 200
    assert isinstance(report["converged"], bool)
    assert report["converged"] or report["iterations"] == 200  # stopping early means converged
    cfg = ExperimentConfig(
        kind="ar", points=((0.5,),), sigma2=0.64, dims=(8,),
        sample_counts=(8,), estimators=("em", "circ"), runs=2, seed=2,
    )
    run_benchmark(cfg, str(tmp_path / "bench"))
    detail = json.loads((tmp_path / "bench" / "results.json").read_text())
    by_name = {cell["estimator"]: cell["records"] for cell in detail["cells"]}
    for rec in by_name["em"]:
        assert isinstance(rec["iterations"], int) and isinstance(rec["converged"], bool)
    assert all("iterations" not in rec for rec in by_name["circ"])
