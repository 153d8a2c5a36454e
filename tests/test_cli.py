"""Tests for the ``python -m repro`` command line (``repro.exp.cli``)."""

from __future__ import annotations

import argparse

import pytest

from repro.exp.cli import (
    build_parser,
    main,
    parse_contention,
    parse_design_point,
    parse_shard_arg,
    parse_size,
)
from repro.exp.shard import Shard
from repro.exp.spec import ContentionSpec
from repro.sim.config import DesignPoint

KIB = 1024


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parse_size_accepts_suffixes_and_plain_bytes():
    assert parse_size("4096") == 4096
    assert parse_size("512KiB") == 512 * KIB
    assert parse_size("16MB") == 16 * KIB * KIB
    assert parse_size("1g") == KIB**3
    assert parse_size(" 2 MiB ") == 2 * KIB * KIB
    with pytest.raises(argparse.ArgumentTypeError):
        parse_size("twelve")


def test_parse_design_point_aliases():
    assert parse_design_point("base") is DesignPoint.BASELINE
    assert parse_design_point("Base+D+H+P") is DesignPoint.BASE_DHP
    assert parse_design_point("BASE_DH") is DesignPoint.BASE_DH
    assert parse_design_point("pim-mmu") is DesignPoint.BASE_DHP
    with pytest.raises(argparse.ArgumentTypeError):
        parse_design_point("turbo")


def test_parse_contention_forms():
    assert parse_contention("none") is None
    assert parse_contention("compute:8") == ContentionSpec("compute", 8)
    assert parse_contention("memory:4:high") == ContentionSpec("memory", 4, "high")
    for bad in ("compute", "memory:4", "compute:lots", "cpu:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_contention(bad)


def test_figures_arguments():
    args = build_parser().parse_args(
        ["figures", "fig15", "headline", "-j", "4", "--fast", "--no-cache"]
    )
    assert args.command == "figures"
    assert args.names == ["fig15", "headline"]
    assert args.jobs == 4
    assert args.fast is True
    assert args.no_cache is True
    assert args.config == "paper"


def test_sweep_arguments():
    args = build_parser().parse_args(
        [
            "sweep",
            "--design-point",
            "base",
            "--design-point",
            "base_dhp",
            "--direction",
            "d2p",
            "--size",
            "1MiB",
            "--contention",
            "compute:8",
            "--quantum-ns",
            "25000",
            "--config",
            "small",
        ]
    )
    assert args.design_points == [DesignPoint.BASELINE, DesignPoint.BASE_DHP]
    assert args.direction == "d2p"
    assert args.sizes == [KIB * KIB]
    assert args.contentions == [ContentionSpec("compute", 8)]
    assert args.quantum_ns == 25000.0
    assert args.config == "small"


def test_fleet_flags_parse():
    args = build_parser().parse_args(["figures", "--shard", "2/3"])
    assert args.shard == Shard(index=2, count=3)
    # sweep and scenarios carry the same flag.
    assert build_parser().parse_args(["sweep", "--shard", "1/2"]).shard.count == 2
    assert build_parser().parse_args(["scenarios", "--shard", "2/2"]).shard.index == 2


def test_fleet_flag_validation():
    assert parse_shard_arg("3/3") == Shard(index=3, count=3)
    for argv in (
        ["figures", "--shard", "0/3"],
        ["figures", "--shard", "4/3"],
        ["sweep", "--shard", "x"],
        ["scenarios", "--shard", "1/0"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_removed_resume_timeout_and_retry_flags_are_rejected(capsys):
    for argv in (
        ["figures", "--resume"],
        ["sweep", "--task-timeout", "5"],
        ["scenarios", "--retries", "1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_shard_excludes_check():
    args = build_parser().parse_args(["bench", "--shard", "1/2"])
    assert args.shard == Shard(index=1, count=2)
    assert main(["bench", "--shard", "1/2", "--check"]) == 2


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_jobs_must_be_positive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figures", "-j", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--jobs", "nope"])


# ---------------------------------------------------------------------------
# End-to-end commands (small config, cheap figures only)
# ---------------------------------------------------------------------------


def test_figures_list_prints_registry(capsys):
    assert main(["figures", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig15", "headline"):
        assert name in out


def test_figures_rejects_unknown_names(capsys):
    assert main(["figures", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figures_refuses_to_silently_drop_named_non_fast_figures(capsys):
    assert main(["figures", "table1", "fig13a", "--fast"]) == 2
    assert "not in the fast subset" in capsys.readouterr().err


def test_figures_small_config_refuses_default_results_dir(capsys):
    """The committed results/ tables are paper-config golden files; small-config
    output must go to an explicit directory."""
    assert main(["figures", "table1", "--config", "small"]) == 2
    assert "--results-dir" in capsys.readouterr().err


def test_figures_writes_selected_outputs(tmp_path, capsys):
    code = main(
        [
            "figures",
            "table1",
            "overhead",
            "--config",
            "small",
            "--results-dir",
            str(tmp_path / "results"),
        ]
    )
    assert code == 0
    assert (tmp_path / "results" / "table1_config.txt").exists()
    assert (tmp_path / "results" / "overhead_area.txt").exists()
    out = capsys.readouterr().out
    assert "simulations executed:" in out


def test_sweep_runs_and_caches(tmp_path, capsys):
    argv = [
        "sweep",
        "--config",
        "small",
        "--design-point",
        "base",
        "--direction",
        "d2p",
        "--size",
        "64KiB",
        "--sim-cap",
        "64KiB",
        "--results-dir",
        str(tmp_path / "results"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "Sweep: 1 transfer experiments" in first
    assert "simulations executed: 1" in first
    # Re-running the same sweep is served entirely from the on-disk cache.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "simulations executed: 0" in second
    assert "disk-cache hits: 1" in second
    # ... and clean-cache removes it again.
    assert main(["clean-cache", "--results-dir", str(tmp_path / "results")]) == 0
    assert not (tmp_path / "results" / ".cache").exists()
    assert main(argv) == 0
    third = capsys.readouterr().out  # swallow clean-cache output too
    assert "simulations executed: 1" in third


def test_figures_shards_cover_all_fast_figures(tmp_path, capsys):
    """Three shards of `figures --fast` jointly produce every fast figure,
    each exactly once (the CI figure-smoke matrix contract)."""
    from repro.exp.figures import FIGURES

    results_dir = tmp_path / "results"
    written = []
    for index in (1, 2, 3):
        assert (
            main(
                [
                    "figures",
                    "--fast",
                    "--shard",
                    f"{index}/3",
                    "--config",
                    "small",
                    "--results-dir",
                    str(results_dir / f"shard-{index}"),
                    "--no-cache",
                ]
            )
            == 0
        )
        shard_dir = results_dir / f"shard-{index}"
        written.append(
            sorted(p.name for p in shard_dir.glob("*.txt")) if shard_dir.exists() else []
        )
    capsys.readouterr()
    expected = sorted(f.filename for f in FIGURES.values() if f.fast)
    union = sorted(name for shard in written for name in shard)
    assert union == expected  # disjoint and exhaustive


def test_sweep_shard_tolerates_duplicate_flags(tmp_path, capsys):
    """Repeated identical flag values must dedupe, not crash the shard
    partition with a duplicate-key error."""
    assert (
        main(
            [
                "sweep",
                "--config",
                "small",
                "--design-point",
                "base",
                "--direction",
                "d2p",
                "--size",
                "64KiB",
                "--size",
                "64KiB",
                "--sim-cap",
                "64KiB",
                "--shard",
                "1/1",
                "--results-dir",
                str(tmp_path / "results"),
                "--no-cache",
            ]
        )
        == 0
    )
    assert "Sweep: 1 transfer experiments" in capsys.readouterr().out


def test_sweep_rerun_after_interrupt_serves_cache(tmp_path, capsys, monkeypatch):
    """Ctrl-C in a sweep's second spec: the first spec was cached the moment
    it finished, so rerunning the same sweep simulates only the second."""
    from repro.exp.spec import TransferSpec

    run = TransferSpec.run

    def interrupt_pim_mmu(spec, config):
        if spec.design_point is DesignPoint.BASE_DHP:
            raise KeyboardInterrupt
        return run(spec, config)

    argv = [
        "sweep",
        "--config",
        "small",
        "--design-point",
        "base",
        "--design-point",
        "pim-mmu",
        "--direction",
        "d2p",
        "--size",
        "64KiB",
        "--sim-cap",
        "64KiB",
        "--results-dir",
        str(tmp_path / "results"),
    ]
    monkeypatch.setattr(TransferSpec, "run", interrupt_pim_mmu)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    monkeypatch.undo()
    assert main(argv) == 0
    rerun = capsys.readouterr().out
    assert "Sweep: 2 transfer experiments" in rerun
    assert "simulations executed: 1" in rerun
    assert "disk-cache hits: 1" in rerun


def test_variant_flags_are_validated_at_parse_time(capsys):
    parser = build_parser()
    for argv in (
        ["figures", "--fabric", "torus:4x4"],
        ["sweep", "--fabric", "torus:4x4"],
        ["scenarios", "--fabric", "torus:4x4"],
        ["bench", "--fabric", "torus:4x4"],
        ["sweep", "--policy", "nope"],
        ["scenarios", "--policy", "frfcfs_cap:many"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        assert "argument --" in capsys.readouterr().err
    args = parser.parse_args(["bench", "--fabric", "mesh:4x4"])
    assert args.fabric == "mesh:4x4"
