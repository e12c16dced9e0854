import dataclasses
import inspect
import json
import os
import re
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from toepcov import baselines, bench, estimators, likelihood
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
from toepcov import cli
from toepcov.cli import main
from toepcov.likelihood import SampleSet
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


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not strict JSON")


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

    def test_readme_shows_the_defaults(self):
        """README's two config blocks promise that an omitted optional key
        takes the default shown: every optional key they show holds the
        ``ExperimentConfig`` field default or the ``timing_benchmark``
        signature default."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        experiment, timing = (parse_config(b) for b in re.findall(r"```ini\n(.*?)```", readme, re.S))
        shown = bench.section_args(experiment, "grid", "process", "estimators", "outputs")
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                    if f.default is not dataclasses.MISSING}
        assert set(defaults) <= set(shown)
        assert {name: shown[name] for name in defaults} == defaults
        signature = inspect.signature(timing_benchmark).parameters
        assert bench.section_args(timing, "timing") == {k: v.default for k, v in signature.items()}

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="missing required"):
            config_from_sections(parse_config("[grid]\ndims = [4]\n"))

    @pytest.mark.parametrize("kind", ["AR", "fgn", ""])
    def test_unknown_process_kind_rejected(self, kind):
        """Any kind but ar, ma, arma and fbm is refused (``"AR"`` with point
        (0.7,) used to run fBm increments with H = 0.7)."""
        bad = SMOKE_CFG.replace('kind = "ar"', f'kind = "{kind}"')
        with pytest.raises(ValueError, match="unknown process kind.*known: ar, ma, arma, fbm"):
            config_from_sections(parse_config(bad))
        with pytest.raises(ValueError, match="unknown process kind"):
            ExperimentConfig(kind=kind, points=((0.7,),), dims=(8,), sample_counts=(8,),
                             estimators=("scm",))


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

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        """The CSV is byte-identical serial and with two workers, and so is
        results.json once the wall times, its one varying field, are
        dropped from every record."""
        cfg = config_from_sections(parse_config(SMOKE_CFG))
        cfg = dataclasses.replace(cfg, estimators=cfg.estimators + ("em",))
        monkeypatch.setenv("TOEPCOV_WORKERS", "1")
        run_benchmark(cfg, str(tmp_path / "serial"))
        monkeypatch.setenv("TOEPCOV_WORKERS", "2")
        try:
            run_benchmark(cfg, str(tmp_path / "parallel"))
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")

        def without_wall_times(run):
            detail = json.loads((tmp_path / run / "results.json").read_text())
            for cell in detail["cells"]:
                for rec in cell["records"]:
                    assert rec.pop("wall_ms") >= 0.0
            return detail

        serial, parallel = (tmp_path / run / "results.csv" for run in ("serial", "parallel"))
        assert serial.read_bytes() == parallel.read_bytes()
        assert without_wall_times("serial") == without_wall_times("parallel")

    @pytest.mark.parametrize("runs, pools", [(1, []), (3, [3])])
    def test_pool_is_capped_at_the_task_count(self, tmp_path, monkeypatch, runs, pools):
        """A fork pool starts every worker on its first task, so
        ``TOEPCOV_WORKERS=64`` asks for no more workers than there are
        tasks, and a single task runs without a pool.  The executor is a
        fake that records its size and starts no process."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
        monkeypatch.setenv("TOEPCOV_WORKERS", "64")
        cfg = ExperimentConfig(kind="ar", points=((0.5,),), dims=(6,), sample_counts=(8,),
                               estimators=("scm",), runs=runs, seed=1)
        (row,) = run_benchmark(cfg, str(tmp_path))
        assert sizes == pools and row["failures"] == 0

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", ""])
    def test_bad_worker_count_rejected(self, tmp_path, monkeypatch, capsys, raw):
        """A ``TOEPCOV_WORKERS`` that is not a positive integer is a usage
        error (exit 1), not a silent serial run."""
        monkeypatch.setenv("TOEPCOV_WORKERS", raw)
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: TOEPCOV_WORKERS must be a positive integer, got {raw!r}\n")
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("kind, points, dims, counts, message", [
        ("ar", "[[0.5], [1.5]]", "[8]", "[8]", r"ar point \[1\.5\] at dimension 8: reflection coefficient"),
        ("ar", "[[0.5]]", "[8, 1]", "[8]", r"ar point \[0\.5\] at dimension 1: AR order 1 too large"),
        ("fbm", "[[0.7], [0.2]]", "[8]", "[8]", r"fbm point \[0\.2\] at dimension 8: Hurst parameter"),
        ("ar", "[[0.5]]", "[8]", "[8, 0]", r"sample_counts must be at least 1"),
        ("fbm", "[[0.7], [1.0]]", "[8]", "[8]",
         r"fbm point \[1\.0\] at dimension 8: process covariance is not positive definite"),
    ], ids=["unstable-ar", "ar-order-above-dim", "fbm-hurst", "zero-samples", "fbm-singular"])
    def test_bad_grid_rejected_before_any_cell(self, tmp_path, monkeypatch, capsys,
                                               kind, points, dims, counts, message):
        """A grid point or dimension with no valid process, or a sample count
        below one, is a usage error (exit 1) raised before any cell runs.  An
        unstable AR point exited 2 as a numerical failure, and every bad grid
        failed only after the cells before it had run; fBm at H = 1, whose
        covariance has rank one, exited 2 from its first cell without naming
        the point and left an empty output directory."""
        def no_cell(*args):
            raise AssertionError("ran a cell of a bad grid")

        monkeypatch.setattr(bench, "_run_cell", no_cell)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[grid]\ndims = {dims}\nsample_counts = {counts}\nruns = 2\n"
                       f'[process]\nkind = "{kind}"\npoints = {points}\n[estimators]\nnames = ["scm"]\n')
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
        assert re.match(r"error: " + message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key, field", [("dims", "dims"), ("sample_counts", "sample_counts"),
                                            ("points", "points"), ("names", "estimators")])
    def test_empty_axis_rejected(self, tmp_path, capsys, key, field):
        """An empty grid axis is a usage error (exit 1) and nothing is
        written; it printed "wrote 0 aggregate rows" and wrote a header-only
        ``results.csv``, so a config typo read as a successful run."""
        text = re.sub(rf"^{key} = .*$", f"{key} = []", SMOKE_CFG, flags=re.M)
        assert text != SMOKE_CFG
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key} must not be empty\n"
        assert not out.exists()
        with pytest.raises(ValueError, match=f"{key} must not be empty"):
            ExperimentConfig(**{**dataclasses.asdict(config_from_sections(parse_config(SMOKE_CFG))),
                                field: ()})

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


    def test_zero_reps_rejected_before_any_fit(self, tmp_path, monkeypatch, capsys):
        """No repetition gives no median: ``--runs 0`` or ``reps = 0`` is a
        usage error, raised before any sample is drawn."""
        def no_sample(*args):
            raise AssertionError("sampled with zero repetitions")

        monkeypatch.setattr(bench, "sample", no_sample)
        with pytest.raises(ValueError, match="reps must be at least 1"):
            timing_benchmark((8,), ("pls",), n=8, reps=0)
        cfg = tmp_path / "timing.cfg"
        cfg.write_text("[timing]\nreps = 0\n")
        out = tmp_path / "timing.csv"
        for argv in (["--runs", "0"], ["--config", str(cfg)]):
            assert main(["timing", *argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: reps must be at least 1\n"
        assert not out.exists()


    def test_unknown_estimator_rejected_before_any_fit(self, tmp_path, monkeypatch, capsys):
        """An unknown name is refused, with the known ones, before any
        sample is drawn or any listed estimator is timed."""
        def no_sample(*args):
            raise AssertionError("sampled with an unknown estimator")

        monkeypatch.setattr(bench, "sample", no_sample)
        with pytest.raises(ValueError, match=r"unknown estimator 'nope'; known: .*pgd"):
            timing_benchmark((8,), ("pls", "nope"), n=8, reps=1)
        cfg = tmp_path / "timing.cfg"
        cfg.write_text('[timing]\nestimators = ["pls", "nope"]\n')
        out = tmp_path / "timing.csv"
        assert main(["timing", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: unknown estimator 'nope'; known: ")
        assert not out.exists()


    @pytest.mark.parametrize("key, arg", [("dims", "dims"), ("estimators", "estimator_names")])
    def test_empty_axis_rejected_before_any_fit(self, tmp_path, monkeypatch, capsys, key, arg):
        """No dimension or no estimator times nothing: a usage error raised
        before any sample is drawn, where it wrote a header-only
        ``timing.csv`` and exited 0."""
        def no_sample(*args):
            raise AssertionError("sampled for an empty timing axis")

        monkeypatch.setattr(bench, "sample", no_sample)
        with pytest.raises(ValueError, match=f"{key} must not be empty"):
            timing_benchmark(**{arg: ()}, n=8, reps=1)
        cfg = tmp_path / "timing.cfg"
        cfg.write_text(f"[timing]\n{key} = []\n")
        out = tmp_path / "timing.csv"
        assert main(["timing", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key} must not be empty\n"
        assert not out.exists()


    def test_gs_dimension_checked_against_the_pinned_order(self, tmp_path, monkeypatch, capsys):
        """GS timing fits at order ``TIMING_PIN`` = 6, so it needs P >= 7: a
        smaller dimension is refused before any sample is drawn, where P=64
        was timed first and P=4 then failed with "order must lie in [0, 3],
        got 6".  Baseline-only runs keep working at small P."""
        real_sample = bench.sample
        drawn = []

        def counted(*args):
            drawn.append(args)
            return real_sample(*args)

        monkeypatch.setattr(bench, "sample", counted)
        message = "GS timing fits at order 6, so it needs dimensions of at least 7; got 4"
        with pytest.raises(ValueError, match=message):
            timing_benchmark((64, 4), ("scm", "pls"), n=8, reps=1)
        cfg = tmp_path / "timing.cfg"
        cfg.write_text('[timing]\ndims = [64, 4]\nestimators = ["pls"]\n')
        out = tmp_path / "timing.csv"
        assert main(["timing", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and drawn == []
        rows = timing_benchmark((4,), ("scm", "banding"), n=8, reps=1)
        assert [row["dim"] for row in rows] == [4, 4] and len(drawn) == 1


class TestCli:
    def test_list_estimators(self, capsys):
        assert main(["list-estimators"]) == 0
        out = capsys.readouterr().out
        for name in ESTIMATORS:
            assert name in out

    def test_estimate_report_roundtrip(self, tmp_path, capsys, monkeypatch):
        samples = tmp_path / "x.csv"
        data = write_samples(samples)
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
        # every estimator's report is strict JSON (no NaN or infinity), also
        # for samples x1e-100 and x1e100, every float survives it bit for
        # bit, and stdout carries the same bytes as --out (wall_ms pinned by
        # a frozen clock)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        for scale in (1.0, 1e-100, 1e100):
            scaled = SampleSet(scale * data.samples)
            np.savetxt(samples, scaled.samples, delimiter=",")
            for name, info in sorted(ESTIMATORS.items()):
                cm, icm, _, _ = info.fit(scaled)
                argv = ["estimate", "--input", str(samples), "--estimator", name,
                        *(["--icm"] if info.supports_icm else [])]
                assert main([*argv, "--out", str(out)]) == 0
                text = out.read_text()
                report = json.loads(text, parse_constant=_refuse_constant)
                for key, expected in (("icm_dense", icm), ("cm_first_col", cm[:, 0])):
                    if expected is None:
                        assert key not in report
                        continue
                    got = np.asarray(report[key])
                    assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (name, key)
                capsys.readouterr()
                assert main(argv) == 0
                assert capsys.readouterr().out == text

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
        _, _, unit, fit = ESTIMATORS["pgd"].fit(data)
        samples = tmp_path / "x.csv"
        np.savetxt(samples, 1e4 * data.samples, delimiter=",")
        out = tmp_path / "report.json"
        assert main(["estimate", "--input", str(samples), "--estimator", "pgd", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["order"], report["family_id"]) == (unit["order"], unit["family"]) == (1, "exp-0.6")
        assert report["alpha0"] * 1e8 == pytest.approx(fit.alpha.alpha0, rel=1e-8)

    @pytest.mark.parametrize("scale", [1e-300, 1e155])
    def test_squares_out_of_float_range_rejected(self, tmp_path, capsys, scale):
        """Finite samples whose squares underflow (x1e-300: an all-zero SCM)
        or overflow (x1e155: an infinite one) exit 2 with one message for
        every estimator, and write no report; no RuntimeWarning (an error
        under the test settings).  Without :class:`SampleSet`'s check,
        ``scm`` and four other baselines exited 0 with a zero covariance at
        x1e-300, the rest failed with messages of their own, and x1e155
        leaked an overflow warning from the SCM product."""
        samples = tmp_path / "x.csv"
        data = sample(ProcessSpec("ar", 4, a=(0.5,), sigma2=0.64), 6, 0)
        np.savetxt(samples, scale * data.samples, delimiter=",")
        out = tmp_path / "report.json"
        for name in sorted(ESTIMATORS):
            assert main(["estimate", "--input", str(samples), "--estimator", name, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "numerical failure: the samples' squares leave the float range; rescale the samples\n")
            assert not out.exists()

    def test_subnormal_mean_power_rejected(self, tmp_path, capsys):
        """Gaussian samples x1e-160 have an SCM trace of about 1e-319:
        subnormal, so positive, but its reciprocal overflows.  Every
        estimator, with ``--icm`` where it has a precision, exits 2 with the
        range message and no RuntimeWarning (an error under the test
        settings).  Before the check, ``circ``, ``em`` and ``shrink_const
        --icm`` exited 0 with ``Infinity`` in ``icm_dense`` and leaked an
        overflow warning, and ``pgd`` exited 1 ("alpha0 must be positive,
        got inf")."""
        samples = tmp_path / "x.csv"
        x = 1e-160 * np.random.default_rng(3).standard_normal((8, 5))
        assert 0.0 < np.trace(baselines.sample_cov(x)) / 5 < np.finfo(float).tiny
        np.savetxt(samples, x, delimiter=",")
        out = tmp_path / "report.json"
        for name, info in sorted(ESTIMATORS.items()):
            argv = ["estimate", "--input", str(samples), "--estimator", name, "--out", str(out)]
            assert main(argv + (["--icm"] if info.supports_icm else [])) == 2
            assert capsys.readouterr().err == (
                "numerical failure: the samples' squares leave the float range; rescale the samples\n")
            assert not out.exists()

    def test_parser_built_once_keeps_no_state(self, tmp_path, monkeypatch):
        """One parser serves every call in a process, and a call's flags do
        not reach the next: ``--icm --order 3``, then no flags, then
        ``--order 3``, then ``--order auto`` write the same reports as the
        same calls each on a parser of its own (clock frozen for
        ``wall_ms``)."""
        samples = tmp_path / "x.csv"
        write_samples(samples)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        flags = [["--icm", "--order", "3"], [], ["--order", "3"], ["--order", "auto"]]

        def run(extra, out):
            argv = ["estimate", "--input", str(samples), "--estimator", "pgd", *extra, "--out", str(out)]
            assert main(argv) == 0
            return out.read_text()

        alone = []
        for i, extra in enumerate(flags):
            cli._build_parser.cache_clear()
            alone.append(run(extra, tmp_path / f"alone{i}.json"))
        parser = cli._build_parser()
        assert [run(extra, tmp_path / f"seq{i}.json") for i, extra in enumerate(flags)] == alone
        assert cli._build_parser() is parser
        reports = [json.loads(text) for text in alone]
        assert reports[0]["order"] == reports[2]["order"] == 3 != reports[1]["order"]
        assert reports[0]["icm_dense"] and "icm_dense" not in reports[1]
        assert alone[3] == alone[1]

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

    @pytest.mark.parametrize("name, code", [("frob", 0), ("eig", 0), ("pgd", 0), ("pls", 0)])
    def test_one_column_samples(self, tmp_path, capsys, name, code):
        """At P = 1 white noise is the only order: every tuned GS estimator,
        the boxed ``pgd`` and ``pls`` in the empty box too, reports order 0
        with the scale and likelihood of the pinned ``--order 0`` fit."""
        path = tmp_path / "x.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((8, 1)), delimiter=",")
        reports = []
        for pinned in ([], ["--order", "0"]):
            assert main(["estimate", "--input", str(path), "--estimator", name, *pinned]) == code
            reports.append(json.loads(capsys.readouterr().out))
        tuned, white = reports
        assert tuned["order"] == 0 and tuned["alpha"] == []
        assert (tuned["alpha0"], tuned["loglik"]) == (white["alpha0"], white["loglik"])

    @pytest.mark.parametrize("name", ["eig", "frob", "pgd", "pls"])
    def test_pinned_order_range(self, tmp_path, capsys, name):
        """Every GS estimator pins the orders 0..P-1 and names that range
        otherwise, also for one-column samples."""
        six = tmp_path / "six.csv"
        write_samples(six, p=6, n=8)
        one = tmp_path / "one.csv"
        np.savetxt(one, np.random.default_rng(3).standard_normal((8, 1)), delimiter=",")
        for path, order, top in ((six, -1, 5), (six, 6, 5), (one, 1, 0)):
            argv = ["estimate", "--input", str(path), "--estimator", name, "--order", str(order)]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: order must lie in [0, {top}], got {order}\n"
        for order in ("0", "5"):
            assert main(["estimate", "--input", str(six), "--estimator", name, "--order", order]) == 0
            assert json.loads(capsys.readouterr().out)["order"] == int(order)

    @pytest.mark.parametrize("command", ["estimate", "timing"])
    def test_unwritable_out_path(self, tmp_path, capsys, command):
        """An ``--out`` in a missing directory is a usage error, not a traceback."""
        out = tmp_path / "missing" / "r.json"
        if command == "estimate":
            samples = tmp_path / "x.csv"
            write_samples(samples)
            argv = ["estimate", "--input", str(samples), "--estimator", "pls"]
        else:
            cfg = tmp_path / "timing.cfg"
            cfg.write_text('[timing]\ndims = [8]\nestimators = ["pls"]\nreps = 1\nsample_count = 8\n')
            argv = ["timing", "--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

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

    @pytest.mark.parametrize("text, expected", [
        pytest.param("# comment\r\ncol0,col1\r\n\r\n1.5,2\r\n  # indented comment\r\n-3,4e-1\r\n",
                     [[1.5, 2.0], [-3.0, 0.4]], id="header-comments-blank-crlf"),
        pytest.param(" 1.0 ,\t2_5\n3 , 1_0 \n", [[1.0, 25.0], [3.0, 10.0]], id="padded-underscore"),
        pytest.param("1,2\n3,4\n5\n6,x\n", ":3: expected 2 columns, got 1", id="ragged"),
        pytest.param("a,b\n1,2,3\n", ":2: expected 2 columns, got 3", id="ragged-against-header"),
        pytest.param("1,2\n3\n4,5,6\n", ":2: expected 2 columns, got 1", id="ragged-same-count"),
        pytest.param("1.0,2.0\n1.0,oops\n", ":2: non-numeric value", id="non-numeric"),
        pytest.param("1,2\n\n# c\n3,,4\n", ":4: non-numeric value", id="empty-cell"),
        pytest.param("1,2\n3,4\nx\n", ":3: non-numeric value", id="non-numeric-before-width"),
        pytest.param("a,b\nc,d\n1,2\n", ":2: non-numeric value", id="second-header"),
        pytest.param("nan,1\n2,3\n", ":1: non-finite value", id="first-row-nan-is-no-header"),
        pytest.param("c0,c1\n# c\n1,2\n3,nan\n", ":4: non-finite value", id="nan"),
        pytest.param("c0,c1\n# c\n1,2\n-inf,3\n", ":4: non-finite value", id="inf"),
        pytest.param("c0,c1\n# c\n1,2\n3,1e400\n", ":4: non-finite value", id="overflow"),
        pytest.param("1,2\n3,inf,5\n", ":2: non-finite value", id="non-finite-before-width"),
        pytest.param("col0,col1,col2\n", ": no samples found", id="header-only"),
        pytest.param("# only a comment\n\n", ": no samples found", id="comments-only"),
    ])
    def test_csv_parse(self, tmp_path, capsys, monkeypatch, text, expected):
        """The sample CSV reads to these arrays, bit for bit, or fails with
        these messages at these lines (exit 1)."""
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        read = []
        monkeypatch.setattr(cli, "SampleSet", lambda x: read.append(x) or SampleSet(x))
        code = main(["estimate", "--input", str(path), "--estimator", "scm"])
        if isinstance(expected, str):
            assert code == 1 and not read
            assert capsys.readouterr().err == f"error: {path}{expected}\n"
        else:
            assert code == 0
            want = np.array(expected)
            assert read[0].shape == want.shape and read[0].tobytes() == want.tobytes()

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
    cfg = ExperimentConfig(
        kind="ar", points=((0.5,),), sigma2=0.64, dims=(8,),
        sample_counts=(8,), estimators=(name,), runs=1, seed=2,
    )
    (row,) = run_benchmark(cfg, str(tmp_path / "bench"))
    assert row["failures"] == 0 and row["nmse_c_count"] == 1
    assert row["nmse_icm_count"] == int(info.supports_icm)
    (timed,) = timing_benchmark((8,), (name,), n=8, reps=1)
    assert timed["median_ms"] >= 0.0 and timed["complexity"] == info.complexity


@pytest.mark.parametrize("name", sorted(n for n, info in ESTIMATORS.items() if info.kind == "baseline"))
def test_baseline_timing_measures_its_estimate(name):
    """A baseline's timed call computes, bit for bit, the estimate and record
    its fit returns; banding and tapering, whose bandwidth is tuned, time
    their estimate at bandwidth ``TIMING_PIN`` instead."""
    data = sample(ProcessSpec("arma", 12, a=(0.7,), b=(0.3,), sigma2=0.64), 16, 3)
    got = ESTIMATORS[name].timed(data)()
    if name in ("banding", "tapering"):
        want = baselines.band_estimate(data.scm, baselines.MaskSpec(name, bench.TIMING_PIN))
        assert np.array_equal(got.first_col, want.first_col)
    else:
        cm, _, meta, _ = ESTIMATORS[name].fit(data)
        assert np.array_equal(got[0], cm) and got[1] == meta


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_registry_fit_takes_an_order_exactly_when_proposed(name, tmp_path, capsys):
    """``fit(data, 2)`` fits at order 2 for a proposed estimator and refuses
    the order for a baseline, directly and through ``estimate --order 2``."""
    info = ESTIMATORS[name]
    samples = tmp_path / "x.csv"
    data = write_samples(samples, p=8, n=8)
    out = tmp_path / "report.json"
    argv = ["estimate", "--input", str(samples), "--estimator", name, "--order", "2", "--out", str(out)]
    message = f"estimator {name!r} has no AR order; --order must be 'auto'"
    if info.kind == "proposed":
        _, _, meta, rep = info.fit(data, 2)
        assert meta["order"] == rep.order == 2
        assert main(argv) == 0
        assert json.loads(out.read_text())["order"] == 2
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            info.fit(data, 2)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimate_reports_the_registry_record(name, tmp_path):
    """``estimate`` carries the fit record of the registry's tuned (and, for GS
    estimators, order-2) fit of the same samples."""
    data = sample(ProcessSpec("arma", 10, a=(0.7,), b=(0.3,), sigma2=0.64), 16, 4)
    samples = tmp_path / "x.csv"
    np.savetxt(samples, data.samples, delimiter=",")
    info = ESTIMATORS[name]
    fits = [([], info.fit(data))]
    if info.kind == "proposed":
        fits.append((["--order", "2"], info.fit(data, 2)))
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


@pytest.mark.parametrize("order", [[], ["--order", "2"]], ids=["tuned", "pinned"])
def test_estimate_report_has_no_truth_metrics(order, tmp_path):
    """``estimate`` has no true covariance to compare with, so its report
    carries no NMSE keys (they were always null)."""
    samples = tmp_path / "x.csv"
    write_samples(samples, p=8, n=8)
    out = tmp_path / "report.json"
    assert main(["estimate", "--input", str(samples), "--estimator", "pls", "--out", str(out), *order]) == 0
    report = json.loads(out.read_text())
    assert "order" in report and not {"nmse_c", "nmse_icm"} & set(report)


def _icm_cases(dims):
    """``(estimator, P)`` for every estimator with a precision at each of
    ``dims``; ``eig`` refuses dimensions above its limit."""
    return [(name, p) for name, info in sorted(ESTIMATORS.items()) for p in dims
            if info.supports_icm and not (name == "eig" and p > estimators.EIG_DIM_LIMIT)]


@pytest.mark.parametrize("name, p", _icm_cases((1, 128)))
def test_estimate_report_is_the_stdlib_text(name, p, tmp_path):
    """The ``estimate --icm`` report is byte for byte the stdlib's sorted-key
    JSON of itself, although ``icm_dense`` is written by the matrix writer."""
    samples = tmp_path / "x.csv"
    data = sample(ProcessSpec("arma", max(p, 2), a=(0.7,), b=(0.3,), sigma2=0.64), 64, 8)
    np.savetxt(samples, data.samples[:, :p], delimiter=",")
    out = tmp_path / "report.json"
    assert main(["estimate", "--input", str(samples), "--estimator", name, "--icm",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert np.shape(json.loads(text)["icm_dense"]) == (p, p)


@pytest.mark.parametrize("case", ["signed-zeros", "special-values", "one-by-one", "non-symmetric"])
def test_matrix_writer_matches_the_stdlib(case):
    """The matrix writer spells each value as ``json.dumps`` does, and puts
    every entry where ``tolist`` would, also where entries share a value or
    differ only in the sign of zero."""
    mat = {
        "signed-zeros": np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [1.0, -1.0, -0.0]]),
        "special-values": np.array([[5e-324, 1e16, 1e-5], [np.inf, np.nan, -np.inf],
                                    [-5e-324, 0.1, 1e16]]),
        "one-by-one": np.array([[2.5]]),
        "non-symmetric": np.random.default_rng(4).standard_normal((7, 5)),
    }[case]
    assert cli._json_matrix(mat) == json.dumps(mat.tolist())


@pytest.mark.parametrize("name, p", _icm_cases((2, 17, 128)))
def test_precision_is_exactly_symmetric(name, p):
    """Every precision the registry reports is symmetric bit for bit on real
    data, which is what halves the values the report writer formats."""
    data = sample(ProcessSpec("arma", p, a=(0.7,), b=(0.3,), sigma2=0.64), 64, 9)
    _, icm, _, _ = ESTIMATORS[name].fit(data)
    assert np.array_equal(icm, icm.T)


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


def test_scan_totals_reach_results_json(tmp_path, monkeypatch):
    """Each tuned GS record in results.json totals its order x family scan:
    fixed-order fits run, candidates reused from another family, candidates
    pruned by the likelihood bound (orders whose bound the scan read without
    fitting them), Newton iterations and unconverged fits, as counted by hand
    around the fits, the order scans and the bound.  results.csv is the same
    with or without them."""
    names = ("pgd", "pls", "frob")
    counts = []  # one Counter per tuned call, in call order

    def counted_fit(fn):
        def run(*args, **kwargs):
            rep = fn(*args, **kwargs)
            counts[-1].update(fits=1, iterations=rep.iterations, unconverged=int(not rep.converged))
            return rep
        return run

    real_tune_order = estimators.tune_order

    def tune_order(fit, ctx):
        def candidate(*args):
            counts[-1].update(candidates=1)
            return fit(*args)
        return real_tune_order(candidate, ctx)

    real_bound = likelihood.GsObjective.loglik_bound.func

    def bound(objective):
        counts[-1].update(visited=1)
        return real_bound(objective)

    def bracketed(info):
        def fit(data, order=None):
            counts.append(Counter())
            return info.fit(data, order)
        return dataclasses.replace(info, fit=fit)

    for fn in ("estimate_pgd", "estimate_pls", "estimate_frob"):
        monkeypatch.setattr(bench, fn, counted_fit(getattr(bench, fn)))
    for module in (estimators, bench):
        monkeypatch.setattr(module, "tune_order", tune_order)
    monkeypatch.setattr(likelihood.GsObjective, "loglik_bound", property(bound))
    for name in names:
        monkeypatch.setitem(ESTIMATORS, name, bracketed(ESTIMATORS[name]))
    cfg = ExperimentConfig(kind="ar", points=((0.5,),), sigma2=0.64, dims=(10,),
                           sample_counts=(16,), estimators=names, runs=3, seed=4)
    monkeypatch.setenv("TOEPCOV_WORKERS", "1")
    run_benchmark(cfg, str(tmp_path / "with"))
    detail = json.loads((tmp_path / "with" / "results.json").read_text())
    reused = pruned = 0
    for i, cell in enumerate(detail["cells"]):
        for run, rec in enumerate(cell["records"]):
            c = counts[run * len(names) + i]
            assert rec["scan"] == {"fits": c["fits"], "reused": c["candidates"] - c["fits"],
                                   "pruned": c["visited"] - c["candidates"],
                                   "iterations": c["iterations"], "unconverged": c["unconverged"]}
            assert rec["scan"]["fits"] > 0
            reused += rec["scan"]["reused"]
            pruned += rec["scan"]["pruned"]
    assert reused > 0 and pruned > 0

    def without_scan(r):
        cm, icm, meta, rep = real_gs_result(r)
        meta.pop("scan", None)
        return cm, icm, meta, rep

    real_gs_result = bench._gs_result
    monkeypatch.setattr(bench, "_gs_result", without_scan)
    run_benchmark(cfg, str(tmp_path / "without"))
    assert "scan" not in json.loads((tmp_path / "without" / "results.json").read_text())["cells"][0]["records"][0]
    assert (tmp_path / "with" / "results.csv").read_bytes() == (tmp_path / "without" / "results.csv").read_bytes()
