"""Tests for the experiment runner, gallery, reports, and CLI."""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import prefid
from prefid import ConfigurationError, DomainError
from prefid.cli import main
from prefid.harness import (
    GALLERY_ITEMS,
    ConvergenceReport,
    ExperimentConfig,
    ReportRow,
    default_checkpoints,
    emit_report,
    generator_values,
    parse_report_csv,
    report_fingerprint,
    report_to_csv,
    report_to_json,
    run_convergence,
    run_gallery,
)

GRID3_DOC = {"kind": "euclidean_grid", "dims": 2, "resolution": 3, "bounds": [0.0, 1.0]}

BASE_CONFIG = {
    "space": GRID3_DOC,
    "generator": {"formula": "sum"},
    "mode": "strong",
    "policy": {"tag": "canonical", "monotone": "none"},
}


class TestGeneratorValues:
    def test_formulas(self, grid3):
        pts = grid3.points
        np.testing.assert_allclose(
            generator_values(grid3, {"formula": "sum"}), pts.sum(axis=1)
        )
        np.testing.assert_allclose(
            generator_values(grid3, {"formula": "product"}), pts.prod(axis=1)
        )
        np.testing.assert_allclose(
            generator_values(grid3, {"formula": "coordinate", "params": {"dim": 1}}),
            pts[:, 1],
        )
        np.testing.assert_allclose(
            generator_values(grid3, {"formula": "cobb_douglas_mix", "params": {"mix": 0.1}}),
            pts.prod(axis=1) + 0.1 * pts.sum(axis=1),
        )
        np.testing.assert_allclose(
            generator_values(grid3, {"formula": "linear_index", "params": {"index": [1.0, -1.0]}}),
            pts[:, 0] - pts[:, 1],
        )

    def test_unknown_formula_rejected(self, grid3):
        with pytest.raises(ConfigurationError):
            generator_values(grid3, {"formula": "mystery"})

    def test_bad_params_rejected(self, grid3):
        with pytest.raises(ConfigurationError):
            generator_values(grid3, {"formula": "coordinate", "params": {"dim": 5}})
        with pytest.raises(ConfigurationError):
            generator_values(grid3, {"formula": "linear_index", "params": {"index": [1.0]}})


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG))
        assert cfg.schedule == {"order": "diagonal", "seed": 0}
        assert cfg.tie_policy is None
        assert cfg.k_grid is None
        assert cfg.diameter is None
        assert cfg.utility_distance is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(dict(BASE_CONFIG, extra=1))

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"generator": {"formula": "sum"}})
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"space": GRID3_DOC})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(dict(BASE_CONFIG, mode="loud"))

    def test_bad_k_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(dict(BASE_CONFIG, k_grid=[4, 4, 8]))
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(dict(BASE_CONFIG, k_grid=[0, 4]))
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(dict(BASE_CONFIG, k_grid=[]))

    def test_from_json_text_and_path(self, tmp_path):
        # the file's JSON text, parsed, is the config its path names
        text = json.dumps(BASE_CONFIG)
        path = tmp_path / "config.json"
        path.write_text(text)
        from_path = ExperimentConfig.from_json(str(path))
        assert from_path.config_hash() == ExperimentConfig.from_dict(json.loads(text)).config_hash()

    def test_from_json_rejects_garbage(self, tmp_path):
        for name, text in (("broken.json", "{not json"), ("list.json", "[1, 2]")):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ConfigurationError):
                ExperimentConfig.from_json(str(path))

    def test_from_json_reads_only_a_path(self):
        # JSON text is not sniffed: it names no file
        with pytest.raises(FileNotFoundError):
            ExperimentConfig.from_json(json.dumps(BASE_CONFIG))

    def test_hash_is_stable_and_sensitive(self):
        cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG))
        assert cfg.config_hash() == "657aa41b2ef0a28a"
        other = ExperimentConfig.from_dict(dict(BASE_CONFIG, mode="weak"))
        assert other.config_hash() != cfg.config_hash()

    # hashes recorded before the section defaults moved into one table; a new default must not move them
    @pytest.mark.parametrize("change, digest", [
        pytest.param({}, "657aa41b2ef0a28a", id="every_section_absent"),
        pytest.param({"schedule": {"order": "shuffled", "seed": 4}}, "2bbba85dc9f0e518", id="schedule"),
        pytest.param({"mode": "weak"}, "f074ebf23ae2074c", id="mode"),
        pytest.param({"tie_policy": "first"}, "60a3ba4412f307aa", id="tie_policy"),
        pytest.param({"policy": {"tag": "adversarial_far", "target": "generator", "seed": 2, "budget": 30}},
                     "4b3f1bb85ba38405", id="policy"),
        pytest.param({"subset": {"stride": 2}}, "a375590c73414c4f", id="subset"),
        pytest.param({"k_grid": [1, 3, 9]}, "40762e9d4d770a0c", id="k_grid"),
        pytest.param({"diameter": {"num_samples": 20, "policy_class": "all", "seed": 1}}, "f9ea7124b7d9e59b",
                     id="diameter"),
        pytest.param({"diameter": None}, "657aa41b2ef0a28a", id="diameter_null"),
        pytest.param({"utility_distance": True}, "b2db59f863656225", id="utility_distance"),
        pytest.param({"output_dir": "out/run"}, "4ce146fad19f0d66", id="output_dir"),
        pytest.param({"schedule": {"seed": 3.0}, "policy": {"budget": 40.0, "seed": 1.0}, "subset": {"stride": 2.0},
                      "diameter": {"num_samples": 10.0, "seed": 0.0}, "k_grid": [1.0, 4.0]}, "ca4ce2d11b6615e8",
                     id="whole_floats"),
        # a section hashes as written: these run as the config with no sections, but hash apart from it
        pytest.param({"schedule": {}}, "60ddf47275a31a96", id="schedule_empty"),
        pytest.param({"policy": {}}, "596f98f210d44c31", id="policy_empty"),
        pytest.param({"policy": {"tag": "canonical", "monotone": "none", "seed": 0, "budget": 400}},
                     "13aacacfeeb67d43", id="policy_spelled_out"),
    ])
    def test_pinned_hash(self, change, digest):
        doc = {"space": GRID3_DOC, "generator": {"formula": "sum"}, **change}
        assert ExperimentConfig.from_dict(doc).config_hash() == digest

    @pytest.mark.parametrize("short, spelled", [
        pytest.param({}, {"schedule": {"order": "diagonal", "seed": 0}}, id="schedule"),
        pytest.param({}, {"policy": {"tag": "canonical", "monotone": "none", "seed": 0, "budget": 400}}, id="policy"),
        pytest.param({"policy": {"tag": "adversarial_far"}},
                     {"policy": {"tag": "adversarial_far", "monotone": "none", "seed": 0, "budget": 400,
                                 "target": "generator"}}, id="policy_adversarial_far"),
        pytest.param({}, {"subset": {"members": None, "stride": 1}}, id="subset"),
        pytest.param({"diameter": {}}, {"diameter": {"policy_class": "all", "num_samples": 200, "seed": 0}},
                     id="diameter"),
        pytest.param({"policy": {"monotone": "weak"}, "diameter": {}},
                     {"policy": {"monotone": "weak"},
                      "diameter": {"policy_class": "weak_monotone", "num_samples": 200, "seed": 0}},
                     id="diameter_class_of_policy"),
        pytest.param({"generator": {"formula": "coordinate"}},
                     {"generator": {"formula": "coordinate", "params": {"dim": 0}}}, id="params_dim"),
        pytest.param({"generator": {"formula": "cobb_douglas_mix"}},
                     {"generator": {"formula": "cobb_douglas_mix", "params": {"mix": 0.1}}}, id="params_mix"),
    ])
    def test_spelled_out_defaults_run_alike(self, short, spelled):
        # a section (or params) left out runs exactly as one with every default written
        base = {"space": GRID3_DOC, "generator": {"formula": "sum"}, "k_grid": [1, 4, 36]}
        reports = [run_convergence(ExperimentConfig.from_dict({**base, **change})) for change in (short, spelled)]
        rows = [[dataclasses.replace(row, wall_time_ms=0.0) for row in rep.rows] for rep in reports]
        assert rows[0] == rows[1]
        meta = [{key: value for key, value in rep.metadata.items() if key != "config_hash"} for rep in reports]
        assert meta[0] == meta[1]

    def test_policy_target_must_be_resolved(self):
        cfg = ExperimentConfig.from_dict(
            dict(BASE_CONFIG, policy={"tag": "adversarial_far", "target": "generator"})
        )
        with pytest.raises(ConfigurationError):
            cfg.rationalization_policy(None)


class TestDefaultCheckpoints:
    def test_powers_of_two_then_total(self):
        assert default_checkpoints(10) == (1, 2, 4, 8, 10)
        assert default_checkpoints(64) == (1, 2, 4, 8, 16, 32, 64)
        assert default_checkpoints(1) == (1,)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            default_checkpoints(0)


class TestRunConvergence:
    def test_canonical_sum_run(self):
        rep = run_convergence(ExperimentConfig.from_dict(dict(BASE_CONFIG)))
        ks = [row.k for row in rep.rows]
        assert ks == [1, 2, 4, 8, 16, 32, 36]
        assert all(row.consistent for row in rep.rows)
        assert [row.delta_c for row in rep.rows] == [0.5] * 6 + [0.0]
        assert rep.metadata["space_kind"] == "euclidean_grid"
        assert rep.metadata["total_pairs"] == 36
        assert rep.metadata["policy_tag"] == "canonical"

    def test_seeded_runs_are_identical(self):
        cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG))
        assert report_fingerprint(run_convergence(cfg)) == report_fingerprint(
            run_convergence(cfg)
        )

    def test_optional_columns(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE_CONFIG,
                policy={"tag": "canonical", "monotone": "weak"},
                k_grid=[4, 36],
                diameter={"num_samples": 40, "seed": 0},
                utility_distance=True,
            )
        )
        rep = run_convergence(cfg)
        first, last = rep.rows
        assert first.diameter == 0.5 and last.diameter == 0.0
        # partial weak-monotone extensions carry ties, so no utility column yet
        assert first.utility_dist is None
        assert last.utility_dist == 0.5

    def test_k_grid_beyond_data_rejected(self):
        cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG, k_grid=[4, 999]))
        with pytest.raises(ConfigurationError):
            run_convergence(cfg)

    def test_policy_generator_mismatch_rejected(self):
        cfg = ExperimentConfig.from_dict(
            dict(
                BASE_CONFIG,
                generator={"formula": "linear_index", "params": {"index": [-1.0, -1.0]}},
                policy={"tag": "canonical", "monotone": "weak"},
            )
        )
        with pytest.raises(ConfigurationError):
            run_convergence(cfg)

    @pytest.mark.parametrize("change, message", [
        pytest.param({"policy": {"tag": "adversarial_far", "target": "median"}}, "unknown policy target",
                     id="unknown_target"),
        # money alone: an earlier reward of the same money strictly dominates but is not strictly preferred
        pytest.param({"space": {"kind": "dated_rewards", "money_resolution": 3, "time_resolution": 3,
                                "bounds": [[0.0, 1.0], [0.0, 1.0]]},
                      "generator": {"formula": "coordinate"}, "policy": {"monotone": "strict"}},
                     "not strictly monotone", id="weakly_but_not_strictly_monotone_generator"),
        pytest.param({"subset": {"members": 3}}, "must be a list", id="members_not_a_list"),
        pytest.param({"generator": {"formula": "linear_index", "params": {"index": 1.0}}}, "must be a list",
                     id="index_not_a_list"),
    ])
    def test_refusals(self, change, message):
        with pytest.raises(ConfigurationError, match=message):
            run_convergence(ExperimentConfig.from_dict(dict(BASE_CONFIG, **change)))

    def test_eu_class_without_rationalization_gives_failure_rows(self, tmp_path):
        # ties in the generating index leave the linear-index fit without a
        # rationalization from some prefix on; those checkpoints become failure
        # rows and the run reaches the last pair
        cfg = ExperimentConfig.from_dict(dict(
            space={"kind": "lottery_simplex", "num_prizes": 3, "resolution": 5},
            generator={"formula": "linear_index", "params": {"index": [1.0, 0.0, -1.0]}},
            policy={"tag": "eu_class", "monotone": "none"},
        ))
        rep = run_convergence(cfg)
        assert tuple(row.k for row in rep.rows) == default_checkpoints(rep.metadata["total_pairs"])
        failed = [row for row in rep.rows if not row.consistent]
        assert failed and len(failed) < len(rep.rows)
        assert all((row.delta_c, row.diameter, row.utility_dist) == (None, None, None) for row in failed)
        emit_report(rep, ["csv"], str(tmp_path))
        back = parse_report_csv((tmp_path / "report.csv").read_text())
        assert [row.consistent for row in back] == [row.consistent for row in rep.rows]

    def test_relation_built_once_over_the_last_checkpoint(self, monkeypatch):
        built = []
        real = prefid.harness.revealed_relation

        def recording(e, c, *args, **kwargs):
            built.append(len(e))
            return real(e, c, *args, **kwargs)

        monkeypatch.setattr(prefid.harness, "revealed_relation", recording)
        rep = run_convergence(ExperimentConfig.from_dict(dict(BASE_CONFIG, k_grid=[1, 3, 5])))
        assert built == [5]
        assert [row.k for row in rep.rows] == [1, 3, 5]

    def test_shuffled_schedule(self):
        cfg = ExperimentConfig.from_dict(
            dict(BASE_CONFIG, schedule={"order": "shuffled", "seed": 5})
        )
        rep = run_convergence(cfg)
        assert rep.rows[-1].delta_c == 0.0
        assert rep.metadata["seed"] == 5


FAILURE_REPORT = ConvergenceReport(
    rows=(
        ReportRow(1, 0.5, None, None, True, 1.5),
        ReportRow(2, None, None, None, False, 0.5),
    ),
    metadata={"config_hash": "abc", "seed": 0},
)


class TestReportSerialization:
    def test_csv_round_trip_with_blank_cells(self):
        back = parse_report_csv(report_to_csv(FAILURE_REPORT))
        assert back[0].delta_c == 0.5
        assert back[0].diameter is None
        assert back[1].delta_c is None
        assert back[1].consistent is False

    def test_csv_cells(self):
        lines = report_to_csv(FAILURE_REPORT).strip().splitlines()
        assert lines[0] == "k,delta_c,diameter,utility_dist,consistent,wall_time_ms"
        assert lines[1] == "1,0.5,,,true,1.5"
        assert lines[2] == "2,,,,false,0.5"

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(DomainError):
            parse_report_csv("k,delta\n1,0.5\n")

    def test_json_document(self):
        doc = json.loads(report_to_json(FAILURE_REPORT))
        assert doc["metadata"]["config_hash"] == "abc"
        assert doc["rows"][1]["consistent"] is False
        assert doc["rows"][1]["delta_c"] is None

    def test_fingerprint_ignores_wall_time(self):
        slower = ConvergenceReport(
            rows=tuple(
                ReportRow(r.k, r.delta_c, r.diameter, r.utility_dist, r.consistent, r.wall_time_ms + 100.0)
                for r in FAILURE_REPORT.rows
            ),
            metadata=dict(FAILURE_REPORT.metadata),
        )
        assert report_fingerprint(slower) == report_fingerprint(FAILURE_REPORT)

    def test_fingerprint_tracks_values(self):
        other = ConvergenceReport(
            rows=(FAILURE_REPORT.rows[0],),
            metadata=dict(FAILURE_REPORT.metadata),
        )
        assert report_fingerprint(other) != report_fingerprint(FAILURE_REPORT)


class TestEmitReport:
    def test_writes_requested_formats(self, tmp_path):
        written = emit_report(FAILURE_REPORT, ("csv", "json", "svg_plot"), str(tmp_path))
        assert sorted(written) == ["csv", "json", "svg_plot"]
        for path in written.values():
            assert os.path.exists(path)
        svg = open(written["svg_plot"]).read()
        assert '<polyline class="series-delta_c"' in svg

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report(FAILURE_REPORT, ("pdf",), str(tmp_path))

    def test_unwritable_target_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_report(FAILURE_REPORT, ("csv",), str(tmp_path), stem="missing/file")


class TestGallery:
    @pytest.mark.parametrize("item", sorted(GALLERY_ITEMS))
    def test_item_passes_its_assertions(self, item):
        result = run_gallery(item)
        assert result["ok"] is True
        assert result["rows"]
        failed = [name for name, res in result["assertions"].items() if not res["passed"]]
        assert failed == []

    def test_unknown_item_rejected(self):
        with pytest.raises(ConfigurationError):
            run_gallery("missing_item")

    def test_artifacts_written(self, tmp_path):
        result = run_gallery("motivating_01", out_dir=str(tmp_path))
        assert sorted(os.path.basename(p) for p in result["artifacts"]) == [
            "motivating_01.csv",
            "motivating_01.json",
        ]
        doc = json.loads((tmp_path / "motivating_01.json").read_text())
        assert doc["ok"] is True


CSV_HEADER = "k,x_index,y_index,chose_x,chose_y\n"

# space descriptors with a wrongly typed, unknown or out-of-range field
BAD_DESCRIPTORS = [
    pytest.param({"kind": "euclidean_grid", "dims": "2", "resolution": 3, "bounds": [0.0, 1.0]},
                 id="dims_not_integer"),
    pytest.param({"kind": "lottery_simplex", "num_prizes": 3.5, "resolution": 2}, id="num_prizes_fractional"),
    pytest.param({"kind": "euclidean_grid", "dims": 1, "resolution": 5, "bounds": "x"}, id="bounds_not_numbers"),
    pytest.param({"kind": "euclidean_points", "points": [["a"], ["b"]]}, id="points_not_numbers"),
    pytest.param({"kind": "euclidean_points", "points": 0}, id="points_scalar"),
    pytest.param({"kind": "euclidean_points", "points": [[[0.0]], [[1.0]]]}, id="points_3d"),
    pytest.param({"kind": "euclidean_points", "points": [[], []]}, id="points_without_coordinates"),
    pytest.param({"kind": "euclidean_points", "points": [[0.0], [float("nan")]]}, id="points_nan"),
    pytest.param({"kind": "euclidean_points", "points": [0.0, float("inf")]}, id="points_infinite"),
    pytest.param({"kind": "euclidean_grid", "dims": 1, "resolution": 4, "bounds": [0, 1], "resolutoin": 9},
                 id="field_misspelled"),
    *[pytest.param({"kind": "euclidean_points", "points": [0.0, 1.0, 2.0], "chain": chain}, id=f"chain_{name}")
      for name, chain in (("past_end", [0, 9]), ("not_integer", [0.5, 2]), ("negative", [0, -1]))],
]


@pytest.fixture
def cli_space(tmp_path, line5):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(line5.descriptor))
    return str(path)


@pytest.fixture
def cli_choices(tmp_path):
    path = tmp_path / "choices.csv"
    path.write_text(
        "k,x_index,y_index,chose_x,chose_y\n"
        "1,0,1,0,1\n"
        "2,1,2,0,1\n"
        "3,2,3,0,1\n"
    )
    return str(path)


@pytest.fixture
def cli_cycle(tmp_path):
    path = tmp_path / "cycle.csv"
    path.write_text(
        "k,x_index,y_index,chose_x,chose_y\n"
        "1,0,1,1,0\n"
        "2,1,2,1,0\n"
        "3,2,0,1,0\n"
    )
    return str(path)


class TestCli:
    def test_check_consistent(self, cli_space, cli_choices, capsys):
        code = main(["check", "--data", cli_choices, "--space", cli_space, "--mode", "strong"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistent"] is True
        assert doc["ranks"] == [0, 1, 2, 3, 0]

    def test_check_inconsistent_exits_3(self, cli_space, cli_cycle, capsys):
        code = main(["check", "--data", cli_cycle, "--space", cli_space, "--mode", "strong"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistent"] is False
        assert doc["witness_cycle"] == [0, 1, 2, 0]

    @pytest.mark.parametrize("command, space_doc, csv_text", [
        pytest.param(["check"], None, None, id="missing_file"),
        pytest.param(["check"], {"kind": "euclidean_grid", "dims": 1, "resolution": 5}, CSV_HEADER + "1,0,1,0,1\n",
                     id="descriptor_without_bounds"),
        pytest.param(["check"], None, CSV_HEADER + "abc,0,1,0,1\n", id="k_not_integer"),
        pytest.param(["check"], None, CSV_HEADER + "1,0,1\n", id="short_row"),
        pytest.param(["diameter", "--samples", "-1"], None, CSV_HEADER + "1,0,1,0,1\n", id="negative_samples"),
        pytest.param(["diameter", "--policy-class", "weak_monotone", "--seed", "-1"], None, CSV_HEADER + "1,0,1,0,1\n",
                     id="negative_seed"),
        *[pytest.param([command], None, CSV_HEADER + row, id=f"{command}_{name}")
          for command in ("check", "diameter")
          for name, row in (("negative_index", "1,-1,0,1,0\n"), ("index_past_end", "1,0,5,1,0\n"),
                            ("self_pair", "1,2,2,1,0\n"), ("empty_choice", "1,0,1,0,0\n"),
                            ("flag_not_0_or_1", "1,0,1,5,0\n"))],
        *[pytest.param(["check"], *bad.values, CSV_HEADER + "1,0,1,0,1\n", id=bad.id) for bad in BAD_DESCRIPTORS],
    ])
    def test_check_missing_file_exits_2(self, cli_space, tmp_path, capsys, command, space_doc, csv_text):
        # malformed input exits 2 with an error line, never a traceback
        data = tmp_path / "choices.csv"
        if csv_text is not None:
            data.write_text(csv_text)
        if space_doc is not None:
            cli_space = str(tmp_path / "bad_space.json")
            with open(cli_space, "w", encoding="utf-8") as fh:
                json.dump(space_doc, fh)
        code = main([*command, "--data", str(data), "--space", cli_space, "--mode", "strong"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_check_non_finite_bounds_exits_2(self, cli_choices, tmp_path, capsys):
        # Python's JSON reader takes Infinity, so a descriptor can carry it
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"kind": "euclidean_grid", "dims": 1, "resolution": 5, "bounds": [0.0, math.inf]}))
        assert main(["check", "--data", cli_choices, "--space", str(space), "--mode", "strong"]) == 2
        assert "bounds must be finite" in capsys.readouterr().err

    def test_check_on_1500_prizes_exits_0(self, tmp_path, capsys):
        # 1,500 one-prize lotteries: the space builds without one recursion level per prize
        space = tmp_path / "lottery.json"
        space.write_text(json.dumps({"kind": "lottery_simplex", "num_prizes": 1500, "resolution": 1}))
        data = tmp_path / "choices.csv"
        data.write_text(CSV_HEADER + "1,0,1,0,1\n")
        code = main(["check", "--data", str(data), "--space", str(space), "--mode", "strong"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["ranks"]) == 1500 and doc["ranks"][:2] == [0, 1]

    def test_space_over_point_budget_exits_2(self, cli_space, cli_choices, capsys, monkeypatch):
        monkeypatch.setattr(prefid.spaces, "_POINT_BUDGET", 4)  # the line has 5 points
        code = main(["check", "--data", cli_choices, "--space", cli_space, "--mode", "strong"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_check_strict_monotone_witness_reads_the_whole_order(self, cli_space, tmp_path, capsys):
        # 0 and 2 revealed indifferent on the chain: the shortest cycle starts at the strict pair 2 > 0, which is
        # not a covering pair (2 > 1 > 0); started from the covers it would be (1, 0, 2, 1)
        data = tmp_path / "tie.csv"
        data.write_text(CSV_HEADER + "1,0,2,1,1\n")
        code = main(["check", "--data", str(data), "--space", cli_space, "--mode", "strong", "--monotone", "strict"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"policy": "canonical", "consistent": False, "witness_cycle": [2, 0, 2]}

    def test_check_monotone_flag(self, cli_space, cli_choices, capsys):
        code = main([
            "check", "--data", cli_choices, "--space", cli_space,
            "--mode", "strong", "--monotone", "none",
        ])
        assert code == 0
        capsys.readouterr()

    def test_run_writes_reports(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "k=36 delta_c=0 consistent=true" in stdout

    def test_run_missing_config_exits_2_naming_the_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "absent.json" in err and "JSON" not in err

    def test_run_repeated_subset_member_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, subset={"members": [0, 0, 1]})))
        assert main(["run", "--config", str(config)]) == 2
        assert "member 0 is repeated" in capsys.readouterr().err

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, extra=True)))
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        pytest.param({"diameter": {"num_samples": "abc"}}, id="num_samples_not_integer"),
        pytest.param({"diameter": {"num_samples": -3}}, id="negative_num_samples"),
        pytest.param({"k_grid": ["a"]}, id="k_grid_not_integer"),
        pytest.param({"policy": {"tag": "canonical", "monotone": "none", "budget": "x"}}, id="budget_not_integer"),
        pytest.param({"policy": {"monotone": "loose"}}, id="unknown_monotone_class"),
        pytest.param({"schedule": {"seed": "x"}}, id="seed_not_integer"),
        pytest.param({"subset": {"stride": 0}}, id="zero_stride"),
        pytest.param({"diameter": [1]}, id="diameter_not_object"),
        pytest.param({"generator": {"formula": "linear_index", "params": {"index": [-1.0, -0.5]}},
                      "diameter": {"policy_class": "strict_monotone"}}, id="diameter_class_excludes_generator"),
        pytest.param({"diameter": {"policy_class": ["all"]}}, id="diameter_class_not_string"),
        pytest.param({"generator": {"formula": ["sum"]}}, id="formula_not_string"),
        pytest.param({"output_dir": 5}, id="output_dir_not_path"),
        *[pytest.param({"utility_distance": flag}, id=f"utility_distance_{name}")
          for name, flag in (("string_false", "false"), ("string_no", "no"), ("list", [0]), ("integer", 1))],
        pytest.param({"generator": {"formula": "coordinate", "params": [1]}}, id="params_not_object"),
        pytest.param({"generator": {"formula": "coordinate", "params": {"dim": "x"}}}, id="dim_not_integer"),
        pytest.param({"generator": {"formula": "cobb_douglas_mix", "params": {"mix": "x"}}}, id="mix_not_number"),
        pytest.param({"generator": {"formula": "linear_index", "params": {"index": ["a", 1]}}},
                     id="index_not_numbers"),
        # a misspelled key is refused wherever it is, not run at its section's default
        pytest.param({"schedule": {"ordr": "shuffled"}}, id="schedule_misspelled"),
        pytest.param({"policy": {"tagg": "eu_class"}}, id="policy_misspelled"),
        pytest.param({"subset": {"strid": 2}}, id="subset_misspelled"),
        pytest.param({"diameter": {"num_sample": 5}}, id="diameter_misspelled"),
        pytest.param({"generator": {"formula": "sum", "parms": {}}}, id="generator_misspelled"),
        pytest.param({"generator": {"formula": "coordinate", "params": {"dimm": 1}}}, id="params_misspelled"),
        *[pytest.param({"space": bad.values[0]}, id=bad.id) for bad in BAD_DESCRIPTORS],
        pytest.param({"space": {"kind": "euclidean_grid", "dims": 1000000, "resolution": 2, "bounds": [0, 1]}},
                     id="space_of_a_million_dims"),
    ])
    def test_run_malformed_config_exits_2(self, tmp_path, capsys, change):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, **change)))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_policy_target_under_another_tag_exits_2(self, tmp_path, capsys):
        # only adversarial_far reads a target; the error names the field and the tag
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, policy={"tag": "canonical", "target": "generator"})))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "policy.target" in err and "'canonical'" in err

    def test_run_svg_format(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--out", str(out), "--formats", "svg_plot",
        ])
        assert code == 0
        assert (out / "report.svg").exists()
        capsys.readouterr()

    def test_diameter(self, cli_space, cli_choices, capsys):
        code = main([
            "diameter", "--data", cli_choices, "--space", cli_space,
            "--mode", "strong", "--samples", "20", "--seed", "1",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diameter"]["method"] == "exact"

    def test_diameter_inconsistent_exits_3(self, cli_space, cli_cycle, capsys):
        code = main([
            "diameter", "--data", cli_cycle, "--space", cli_space, "--mode", "strong",
        ])
        assert code == 3
        assert capsys.readouterr().err

    def test_gallery_command(self, tmp_path, capsys):
        code = main(["gallery", "motivating_01", "--out", str(tmp_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "[pass]" in stdout
        assert (tmp_path / "motivating_01.csv").exists()


README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_config_runs():
    # the README's config parses and runs, so its example cannot drift from the schema
    block = re.search(r"A config is one JSON object:\n\n```json\n(.*?)```", README, re.S).group(1)
    report = run_convergence(ExperimentConfig.from_dict(dict(json.loads(block), k_grid=[1, 8])))
    assert [row.k for row in report.rows] == [1, 8] and all(row.consistent for row in report.rows)


def test_readme_key_table_matches_schema():
    # the README's key table lists exactly the keys the schema accepts, each with the schema's default;
    # a default cell that is not JSON stands for a default the schema leaves to the run (None)
    cells = dict(re.findall(r"^\| `([\w.]+)` \| (.+?) \|", README, re.M))
    schema = {f"{section}.{key}": default for section, (defaults, _, _) in prefid.harness._SECTIONS.items()
              for key, default in defaults.items()}
    schema.update({f"generator.params.{key}": default for _, defaults, _ in prefid.harness.FORMULAS.values()
                   for key, default in defaults.items()})
    assert {key for key in cells if "." in key} == set(schema) | {"generator.formula"}
    assert {key.split(".")[0] for key in cells} == prefid.harness._CONFIG_KEYS
    for key, default in schema.items():
        try:
            assert json.loads(cells[key].strip("`")) == json.loads(json.dumps(default)), key
        except json.JSONDecodeError:
            assert default is None, key


def _nested_ints(depth: int):
    """Integers in -2..5, or lists of at most 3 such values nested at most `depth` deep."""
    leaf = st.integers(-2, 5)
    return leaf if depth == 0 else st.one_of(leaf, st.lists(_nested_ints(depth - 1), max_size=3))


# the fields each kind takes, so that draws reach its builder: a field of another
# kind exits 2 before any is built (BAD_DESCRIPTORS holds one such descriptor)
_SPACE_FIELDS = {
    "euclidean_grid": ("dims", "resolution", "bounds"),
    "lottery_simplex": ("num_prizes", "resolution"),
    "dated_rewards": ("money_resolution", "time_resolution", "bounds"),
    "aa_acts": ("num_states", "num_prizes", "resolution"),
    "euclidean_points": ("points", "chain"),
    "mystery": ("points",),
}
FUZZED_DESCRIPTORS = st.sampled_from(sorted(_SPACE_FIELDS)).flatmap(lambda kind: st.fixed_dictionaries(
    {"kind": st.just(kind)}, optional={key: _nested_ints(3) for key in _SPACE_FIELDS[kind]}
))


def _num_points(doc) -> int:
    """Points a grid or act-space descriptor asks for, when its sizes are positive integers; else 0."""
    keys = {"euclidean_grid": ("dims", "resolution"), "aa_acts": ("num_prizes", "resolution", "num_states")}
    sizes = [doc.get(key) for key in keys.get(doc["kind"], ())]
    if not sizes or not all(type(v) is int and v > 0 for v in sizes):
        return 0
    if doc["kind"] == "euclidean_grid":
        dims, res = sizes
        return res**dims
    prizes, res, states = sizes
    return math.comb(res + prizes - 1, prizes - 1) ** states


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(doc=FUZZED_DESCRIPTORS)
def test_fuzzed_descriptor_exits_cleanly(tmp_path_factory, doc):
    # any descriptor maps to exit 0, 2 or 3, never a traceback. Every builder
    # refuses spaces over the 4,096-point budget, but one near the budget still
    # builds (n, n) matrices (134 MB of distances at 4,096 points), so draws
    # beyond 256 points are skipped
    assume(_num_points(doc) <= 256)
    folder = tmp_path_factory.mktemp("fuzz")
    space, data = folder / "space.json", folder / "choices.csv"
    space.write_text(json.dumps(doc))
    data.write_text(CSV_HEADER + "1,0,1,0,1\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", "--data", str(data), "--space", str(space), "--mode", "strong"])
    assert code in (0, 2, 3)


_CSV_DEFECTS = ("none", "missing_column", "extra_column", "short_row", "long_row",
                "", "x", "1.5", "-1", "5", "99999999999999999999")  # the last six replace one cell


@st.composite
def _choice_csv(draw):
    """Choice CSV text over a 5-point space: the columns in any order, rows
    with self pairs, empty and double choices, and at most one defect: a
    column missing or extra, a row short or long, or one cell that is not
    an integer, negative, past the last point or beyond 64 bits."""
    columns = list(draw(st.permutations(CSV_HEADER.strip().split(","))))
    rows = []
    for k in range(1, draw(st.integers(0, 5)) + 1):
        chose_x, chose_y = draw(st.sampled_from([(1, 0), (0, 1), (1, 0), (0, 1), (1, 1), (0, 0)]))
        cells = {"k": k, "x_index": draw(st.integers(0, 4)), "y_index": draw(st.integers(0, 4)),
                 "chose_x": chose_x, "chose_y": chose_y}
        rows.append([str(cells[name]) for name in columns])
    defect = draw(st.sampled_from(_CSV_DEFECTS))
    if defect == "missing_column":
        dropped = draw(st.integers(0, 4))
        for line in [columns, *rows]:
            del line[dropped]
    elif defect == "extra_column":
        columns.append("note")
        for row in rows:
            row.append("n")
    elif rows and defect != "none":
        row = draw(st.sampled_from(rows))
        if defect == "short_row":
            row.pop()
        elif defect == "long_row":
            row.append("0")
        else:
            row[draw(st.integers(0, 4))] = defect
    return "\n".join(",".join(line) for line in [columns, *rows]) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_choice_csv())
def test_fuzzed_choice_csv_exits_cleanly(tmp_path_factory, text):
    # any choice CSV maps to exit 0, 2 or 3 in both commands that read one, never a traceback
    folder = tmp_path_factory.mktemp("fuzz")
    space, data = folder / "space.json", folder / "choices.csv"
    space.write_text(json.dumps({"kind": "euclidean_points", "points": [0.0, 0.1, 0.3, 0.7, 1.5]}))
    data.write_text(text)
    for command in ("check", "diameter"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--data", str(data), "--space", str(space), "--mode", "strong"])
        event(f"{command} exit {code}")
        assert code in (0, 2, 3)


# spaces of at most 16 points, with 7 and 8 points left out: there the exact
# diameter enumerates 7**7 or 8**8 preorders at every checkpoint, seconds each
_RUN_SPACES = [
    *({"kind": "euclidean_grid", "dims": 1, "resolution": r, "bounds": [0.0, 1.0]} for r in (2, 3, 5, 6)),
    *({"kind": "euclidean_grid", "dims": 2, "resolution": r, "bounds": [0.0, 1.0]} for r in (2, 3, 4)),
    *({"kind": "lottery_simplex", "num_prizes": 3, "resolution": r} for r in (1, 2, 3, 4)),
    {"kind": "dated_rewards", "money_resolution": 3, "time_resolution": 3, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
    {"kind": "dated_rewards", "money_resolution": 2, "time_resolution": 5, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
    {"kind": "euclidean_points", "points": [0.0, 0.1, 0.3, 0.7, 1.5]},
    {"kind": "euclidean_points", "points": [[0.0, 0.0], [0.1, 0.5], [0.3, 0.2], [0.7, 0.9], [1.5, 0.4]]},
]
_ODD_NUMBERS = st.one_of(st.sampled_from([0.0, 1.0, -0.5, 2.0]),
                         st.sampled_from([0.0, 1.0, -0.5, 2.0, float("nan"), float("inf"), "x", None]))
_SMALL_INTS = st.integers(-1, 4)


def _names(*names):
    """One of the given names, an unknown one, or a value that is not a string."""
    return st.sampled_from([*names, "mystery", ["x"], 5])


_PARAMS = {
    "dim": st.one_of(_SMALL_INTS, _ODD_NUMBERS),
    "mix": _ODD_NUMBERS,
    "index": st.one_of(st.lists(st.sampled_from([1.0, -1.0, 0.5, -0.5]), min_size=2, max_size=2),
                       st.lists(_ODD_NUMBERS, max_size=3)),
}


def _params_of(name) -> dict:
    """Strategies for the params a formula takes, or for every param when `name` is not a formula."""
    if isinstance(name, str) and name in prefid.harness.FORMULAS:
        return {key: _PARAMS[key] for key in prefid.harness.FORMULAS[name][1]}
    return _PARAMS


# (section, key): a misspelled key that `_with_typo` adds to that section, or to the generator's params
_TYPOS = [("schedule", "ordr"), ("policy", "tagg"), ("subset", "strid"), ("diameter", "num_sample"),
          ("generator", "formla"), ("params", "dimm")]


def _with_typo(doc: dict, typo) -> dict:
    """`doc` with the misspelled key of `typo` added (its section made when absent), or `doc` when typo is None."""
    if typo is None:
        return doc
    section, key = typo
    if section == "params":
        generator = doc["generator"]
        return dict(doc, generator=dict(generator, params={**generator.get("params", {}), key: 1}))
    return dict(doc, **{section: {**(doc.get(section) or {}), key: 1}})


_RUN_CONFIGS = st.fixed_dictionaries(
    {
        "space": st.sampled_from(_RUN_SPACES),
        "generator": _names(*sorted(prefid.harness.FORMULAS)).flatmap(lambda name: st.fixed_dictionaries(
            {"formula": st.just(name)},
            optional={"params": st.fixed_dictionaries({}, optional=_params_of(name))},
        )),
        "mode": _names("strong", "weak"),
    },
    optional={
        "tie_policy": st.one_of(st.none(), _names("both", "first", "random")),
        "policy": st.fixed_dictionaries({}, optional={
            "tag": _names("canonical", "adversarial_indifference", "adversarial_far", "eu_class"),
            "monotone": _names("none", "weak", "strict"),
            "target": _names("generator", "indifference"),
            "seed": _SMALL_INTS,
            "budget": st.integers(-1, 30),
        }),
        "schedule": st.fixed_dictionaries({}, optional={
            "order": _names("diagonal", "shuffled"),
            "seed": st.one_of(_SMALL_INTS, st.none()),
        }),
        "k_grid": st.one_of(st.none(), st.lists(st.integers(-1, 40), max_size=4)),
        "subset": st.fixed_dictionaries({}, optional={
            "stride": _SMALL_INTS,
            "members": st.one_of(st.none(), st.lists(st.integers(-1, 17), max_size=5)),
        }),
        "diameter": st.one_of(st.none(), st.fixed_dictionaries({"num_samples": st.integers(-1, 12)}, optional={
            "policy_class": _names("all", "weak_monotone", "strict_monotone"),
            "seed": _SMALL_INTS,
        })),
        "utility_distance": st.booleans(),
    },
)
# about one draw in five carries a misspelled key (hypothesis favours the leading Nones)
FUZZED_RUN_CONFIGS = st.builds(_with_typo, _RUN_CONFIGS, st.sampled_from([None] * len(_TYPOS) + _TYPOS))


@settings(max_examples=500, deadline=None)
@given(doc=FUZZED_RUN_CONFIGS)
def test_fuzzed_run_config_exits_cleanly(tmp_path_factory, doc):
    # any run config on a small space maps to exit 0 or 2, never a traceback
    folder = tmp_path_factory.mktemp("fuzz")
    config = folder / "config.json"
    config.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "--config", str(config), "--out", str(folder / "out")])
    event(f"run exit {code}")
    assert code in (0, 2)
