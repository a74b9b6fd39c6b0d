"""Tests for the command-line interface: generate / classify round trip,
the uniform work-shaping flags, and metrics snapshots."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "JP-ditl"])
        assert args.dataset == "JP-ditl"
        assert args.preset == "default"

    def test_classify_requires_inputs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify"])


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    output = tmp_path_factory.mktemp("cli")
    code = main(["generate", "B-post-ditl", "--preset", "tiny", "-o", str(output)])
    assert code == 0
    return output


class TestGenerate:
    def test_files_written(self, generated):
        names = {path.name for path in generated.iterdir()}
        assert names == {
            "B-post-ditl.log",
            "B-post-ditl.rbsc",
            "B-post-ditl.npz",
            "B-post-ditl.queriers.jsonl",
            "B-post-ditl.labels.json",
        }

    def test_text_and_binary_logs_agree(self, generated):
        from repro.datasets import read_log
        from repro.datasets.dnstap import read_frames

        text = read_log(generated / "B-post-ditl.log")
        binary = read_frames(generated / "B-post-ditl.rbsc")
        assert len(text) == len(binary)
        assert all(
            abs(a.timestamp - b.timestamp) < 1e-2
            and a.querier == b.querier
            and a.originator == b.originator
            for a, b in zip(text, binary)
        )

    def test_block_matches_binary_log(self, generated):
        from repro.datasets.dnstap import read_frames_block
        from repro.logstore import load_block

        block = load_block(generated / "B-post-ditl.npz")
        frames = read_frames_block(generated / "B-post-ditl.rbsc")
        assert len(block) == len(frames)
        # The .rbsc frames narrow addresses to u32; values are identical.
        assert block == frames

    def test_labels_valid_classes(self, generated):
        from repro.activity import APPLICATION_CLASSES

        labels = json.loads((generated / "B-post-ditl.labels.json").read_text())
        assert labels
        assert set(labels.values()) <= set(APPLICATION_CLASSES)


class TestClassify:
    def test_roundtrip(self, generated, capsys):
        code = main([
            "classify",
            "-l", str(generated / "B-post-ditl.log"),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "analyzable" in out
        assert "originator" in out

    def test_block_log_matches_binary(self, generated, capsys):
        """classify accepts .npz / .rbsc inputs and prints the same verdicts."""
        argv = [
            "classify",
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "5",
        ]
        code = main(argv + ["-l", str(generated / "B-post-ditl.rbsc")])
        assert code == 0
        binary_out = capsys.readouterr().out
        code = main(argv + ["-l", str(generated / "B-post-ditl.npz")])
        assert code == 0
        assert capsys.readouterr().out == binary_out

    def test_empty_log_fails_cleanly(self, tmp_path, generated):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        code = main([
            "classify",
            "-l", str(empty),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
        ])
        assert code == 1


class TestConvert:
    def test_roundtrip_through_every_format(self, generated, tmp_path, capsys):
        from repro.datasets.dnstap import read_frames_block
        from repro.logstore import load_block

        source = generated / "B-post-ditl.rbsc"
        npy = tmp_path / "log.npy"
        rbsc = tmp_path / "log.rbsc"
        assert main(["convert", str(source), "-o", str(npy)]) == 0
        assert main(["convert", str(npy), "-o", str(rbsc)]) == 0
        out = capsys.readouterr().out
        assert f"entries to {npy}" in out and f"entries to {rbsc}" in out
        original = read_frames_block(source)
        assert load_block(npy) == original
        assert read_frames_block(rbsc) == original

    def test_text_output_rounds_milliseconds(self, generated, tmp_path):
        from repro.datasets import read_log_block
        from repro.datasets.dnstap import read_frames_block

        text = tmp_path / "log.log"
        assert main(["convert", str(generated / "B-post-ditl.rbsc"), "-o", str(text)]) == 0
        original = read_frames_block(generated / "B-post-ditl.rbsc")
        converted = read_log_block(text)
        assert len(converted) == len(original)
        assert abs(converted.timestamps - original.timestamps).max() < 1e-2

    def test_unknown_output_suffix_is_an_error(self, generated, tmp_path, capsys):
        # Regression: ``out.np`` (a typo for .npy) used to fall through
        # to the text-format branch and silently write a .log.
        source = generated / "B-post-ditl.rbsc"
        bad = tmp_path / "out.np"
        assert main(["convert", str(source), "-o", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "unsupported output suffix" in err and "'.np'" in err
        assert not bad.exists()

    def test_output_equal_to_input_is_refused(self, generated, tmp_path, capsys):
        source = tmp_path / "log.npy"
        assert main(["convert", str(generated / "B-post-ditl.rbsc"), "-o", str(source)]) == 0
        capsys.readouterr()
        assert main(["convert", str(source), "-o", str(source)]) == 1
        assert "must not be the input" in capsys.readouterr().err


class TestFigures:
    def test_experiments_passthrough_list(self, capsys):
        code = main(["experiments", "--list"])
        assert code == 0
        assert "table3" in capsys.readouterr().out


class TestSharedFlags:
    """--metrics-out / --metrics-format are uniform across the
    work-running subcommands."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "-l", "x", "-d", "y", "-t", "z"],
            ["figures"],
            ["experiments", "--list"],
        ],
        ids=["classify", "figures", "experiments"],
    )
    def test_uniform_flags_accepted(self, argv):
        args = build_parser().parse_args(
            argv + ["--metrics-out", "m.prom", "--metrics-format", "prom"]
        )
        assert args.metrics_out == "m.prom"
        assert args.metrics_format == "prom"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["figures"])
        assert args.metrics_out is None
        assert args.metrics_format is None

    def test_metrics_format_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figures", "--metrics-out", "m", "--metrics-format", "xml"]
            )

    def test_metrics_every_only_on_classify(self):
        args = build_parser().parse_args(
            ["classify", "-l", "x", "-d", "y", "-t", "z", "--metrics-every", "3"]
        )
        assert args.metrics_every == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--metrics-every", "3"])


class TestMetricsSnapshots:
    def _classify_argv(self, generated, *extra):
        return [
            "classify",
            "-l", str(generated / "B-post-ditl.log"),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "2",
            *extra,
        ]

    def test_batch_prom_snapshot(self, generated, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(self._classify_argv(
            generated, "--metrics-out", str(out), "--metrics-format", "prom"
        ))
        assert code == 0
        assert f"wrote prom metrics to {out}" in capsys.readouterr().out
        text = out.read_text()
        for family in (
            "repro_stage_seconds",
            "repro_stage_items_total",
            "repro_span_seconds",
            "repro_enrichment_cache_hits_total",
        ):
            assert f"# TYPE {family}" in text, family
        # Every non-comment line is `name{labels} value` or `name value`.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part.startswith("repro_")
            float(value)  # parses

    def test_streaming_jsonl_snapshots(self, generated, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        code = main(self._classify_argv(
            generated,
            "--stream", "--window", "21600",
            "--metrics-out", str(out), "--metrics-every", "1",
        ))
        assert code == 0
        # Periodic snapshots plus the final one append to the same file.
        assert capsys.readouterr().out.count(f"wrote jsonl metrics to {out}") >= 2
        lines = out.read_text().splitlines()
        assert len(lines) > 0
        names = set()
        for line in lines:
            obj = json.loads(line)
            names.add(obj["name"])
        assert "repro_stream_windows_total" in names
        assert "repro_windows_sensed_total" in names

    def test_no_metrics_flag_writes_nothing(self, generated, tmp_path):
        code = main(self._classify_argv(generated))
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_experiments_flags_travel_as_env(self, tmp_path, capsys):
        saved = {
            key: os.environ.pop(key, None)
            for key in (
                "REPRO_METRICS_OUT",
                "REPRO_METRICS_FORMAT",
            )
        }
        try:
            out = tmp_path / "m.jsonl"
            code = main([
                "experiments", "--list",
                "--metrics-out", str(out),
                "--metrics-format", "jsonl",
            ])
            assert code == 0
            assert os.environ["REPRO_METRICS_OUT"] == str(out)
            assert os.environ["REPRO_METRICS_FORMAT"] == "jsonl"
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


class TestSketchFlags:
    def _classify_argv(self, generated, *extra):
        return [
            "classify",
            "-l", str(generated / "B-post-ditl.log"),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "2",
            *extra,
        ]

    def test_defaults_off(self):
        args = build_parser().parse_args(
            ["classify", "-l", "x", "-d", "y", "-t", "z"]
        )
        assert args.sketch is False
        assert args.sketch_width == 4096
        assert args.hll_precision == 6

    def test_batch_output_matches_exact(self, generated, capsys):
        code = main(self._classify_argv(generated))
        assert code == 0
        exact_out = capsys.readouterr().out
        code = main(self._classify_argv(generated, "--sketch"))
        assert code == 0
        sketch_out = capsys.readouterr().out
        # Batch sketch mode is two-pass with exact survivor features, so
        # the printed classifications are identical.
        assert sketch_out == exact_out

    def test_stream_accepts_sketch(self, generated, capsys):
        code = main(self._classify_argv(
            generated, "--sketch", "--stream",
            "--sketch-width", "1024", "--hll-precision", "7",
        ))
        assert code == 0
        assert "originators" in capsys.readouterr().out


class TestSketchEnvOverrides:
    def test_env_knobs_build_overrides(self):
        from repro.experiments.common import sketch_overrides

        saved = {
            key: os.environ.pop(key, None)
            for key in (
                "REPRO_SKETCH",
                "REPRO_SKETCH_WIDTH",
                "REPRO_SKETCH_DEPTH",
                "REPRO_SKETCH_HLL_PRECISION",
            )
        }
        try:
            assert sketch_overrides() == {}
            os.environ["REPRO_SKETCH"] = "1"
            os.environ["REPRO_SKETCH_WIDTH"] = "2048"
            assert sketch_overrides() == {
                "sketch_enabled": True,
                "sketch_width": 2048,
                "sketch_depth": 4,
                "hll_precision": 6,
            }
            os.environ["REPRO_SKETCH"] = "off"
            assert sketch_overrides() == {}
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
