import importlib.metadata
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import readpath
from readpath import epochs, exports, nullmodel, paths, surprise, topics
from readpath.cli import main

from conftest import build_demo, hide_cc, restamp

DEMO_SAMPLES = 50  # [null] samples in the build_demo config
STAGE_COMMANDS = ("ingest", "train", "surprise", "null", "puborder", "greedy", "ranks", "epochs")


def redate_manifest(root: Path, years: int) -> None:
    """Move every read date of ``root``'s demo manifest ``years`` later, in
    the same order: the counts, and so the model, stay valid, but the
    null's feasible orders and the corpus cache's bytes change."""
    manifest = root / "manifest.csv"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(re.sub(r"(\d{4})(-\d\d-\d\d)", lambda m: f"{int(m[1]) + years}{m[2]}", text),
                        encoding="utf-8")


class TestIngest:
    def test_ingest_writes_cache_and_stats(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "corpus.json").exists()
        stats = json.loads(capsys.readouterr().out)
        assert stats["documents"] == 12
        assert stats["tokens"] > 0 and stats["vocabulary"] > 0

    def test_missing_text_file_exit_1_names_id(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        (tmp_path / "texts" / "v003.txt").unlink()
        assert main(["ingest", "--config", str(cfg)]) == 1
        assert "v003" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = build_demo(tmp_path)
        cache = tmp_path / "out" / "corpus.json"
        assert main(["ingest", "--config", str(cfg)]) == 0
        first = cache.read_bytes()
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert cache.read_bytes() == first

    def test_cache_independent_of_input_location(self, tmp_path):
        caches = []
        for where in ("a", "b/nested"):
            (tmp_path / where).mkdir(parents=True)
            cfg = build_demo(tmp_path / where)
            assert main(["ingest", "--config", str(cfg)]) == 0
            caches.append((tmp_path / where / "out" / "corpus.json").read_bytes())
        assert caches[0] == caches[1]
        assert b'"text_path":"texts/v000.txt"' in caches[0]


class TestRun:
    def test_bundle_is_complete(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        kdir = tmp_path / "out" / "k2"
        manifest = json.loads((kdir / "manifest.json").read_text())
        assert manifest["files"]
        for name in manifest["files"]:
            assert (kdir / name).exists(), name
        summary = json.loads((kdir / "summary.json").read_text())
        assert summary["documents"] == 12
        for kind in ("T2T", "T2P"):
            block = summary["surprise"][kind]
            assert 0 <= block["p_value_below_null"] <= 1
            assert block["observed_bits_per_step"] >= 0

    def test_k_list_one_bundle_per_k(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--topics.k_list", "2,3"]) == 0
        assert (tmp_path / "out" / "k2" / "summary.json").exists()
        assert (tmp_path / "out" / "k3" / "summary.json").exists()

    def test_seed_rerun_identical_and_threads_invariant(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o3"), "--threads", "4"]) == 0
        ref = (tmp_path / "o1" / "k2" / "summary.json").read_bytes()
        assert (tmp_path / "o2" / "k2" / "summary.json").read_bytes() == ref
        assert (tmp_path / "o3" / "k2" / "summary.json").read_bytes() == ref

    def test_run_meta_records_stage_telemetry(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--topics.k_list", "2,3"]) == 0
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        stages = ["ingest", "train", "surprise", "null", "puborder", "greedy", "ranks", "epochs"]
        assert sorted(meta["stage_seconds"]) == sorted(stages)
        assert all(meta["stage_seconds"][s] > 0 for s in stages)
        assert meta["peak_rss_mb"] > 0
        # the peak RSS when each stage last ended: no stage exceeds the run's peak
        assert sorted(meta["stage_peak_rss_mb"]) == sorted(meta["stage_seconds"])
        assert all(0 < meta["stage_peak_rss_mb"][s] <= meta["peak_rss_mb"] for s in stages)
        assert meta["sweep_kernel"] == topics.sweep_kernel()
        assert meta["k_list"] == [2, 3] and meta["seed"] == 5

    def test_sidecars_record_the_kernel_flags(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--topics.k_list", "2,3"]) == 0
        flags = " ".join(topics.kernel_flags())
        assert flags.startswith("-O2 -ffp-contract=off")
        out = tmp_path / "out"
        for path in (out / "run_meta.json", out / "k2" / "model.meta.json", out / "k3" / "model.meta.json"):
            assert json.loads(path.read_text())["sweep_kernel_flags"] == flags, path

    def test_sidecars_record_the_numeric_stack(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--topics.k_list", "2,3"]) == 0
        found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        out = tmp_path / "out"
        for path in (out / "run_meta.json", out / "k2" / "model.meta.json", out / "k3" / "model.meta.json"):
            meta = json.loads(path.read_text())
            assert meta["numpy_version"] == np.__version__, path
            assert meta["scipy_version"] == importlib.metadata.version("scipy"), path
            assert meta["numpy_simd"] == list(found), path

    def test_override_flag_changes_k(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--k", "3"]) == 0
        assert (tmp_path / "out" / "k3").exists()
        assert not (tmp_path / "out" / "k2").exists()

    @pytest.mark.parametrize("k_flag", [["--topics.k", "3"], ["--topics.k=3"], ["--k", "3"]])
    def test_k_and_k_list_on_command_line_exit_1(self, tmp_path, capsys, k_flag):
        cfg = build_demo(tmp_path)
        assert main(["ingest", "--config", str(cfg), *k_flag, "--topics.k_list", "4,5"]) == 1
        assert "pick one" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_k_exit_1_names_k(self, tmp_path, capsys):
        # One bundle per k: a repeated k would train a second chain into it.
        cfg = build_demo(tmp_path)
        assert main(["ingest", "--config", str(cfg), "--topics.k_list", "3,4,3"]) == 1
        assert "k=3" in capsys.readouterr().err
        text = cfg.read_text(encoding="utf-8").replace("k = 2", "k_list = 4,2,4")
        cfg.write_text(text, encoding="utf-8")
        assert main(["ingest", "--config", str(cfg)]) == 1
        assert "k=4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_override_rejected(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--topics.nope", "1"]) == 1
        assert "topics.nope" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg), "--epochs.variance_floor", "1e-6"]) == 1
        assert "epochs.variance_floor" in capsys.readouterr().err

    def test_missing_cache_for_train_exit_1(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "corpus cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("override", "minimum", "fits"),
        [
            (["--epochs.n_max", "9"], "epochs.min_length = 3", 3),  # 11 positions
            (["--epochs.min_length", "none", "--epochs.min_years", "20"], "epochs.min_years = 20", 0),  # 11 years
        ],
        ids=["min_length", "min_years"],
    )
    def test_n_max_that_cannot_fit_exit_1_before_training(self, tmp_path, capsys, override, minimum, fits):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), *override]) == 1
        err = capsys.readouterr().err
        assert "epochs.n_max" in err and minimum in err
        assert f"the largest number of epochs that fits is {fits}" in err
        assert not list((tmp_path / "out").rglob("model.bin"))

    def test_staged_epochs_names_n_max(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["epochs", "--config", str(cfg), "--epochs.n_max", "9"]) == 1
        assert "epochs.n_max = 9 does not fit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "out"),
        [("run", "run.cfg"), ("ingest", "run.cfg/out"), ("train", "out/k2")],
        ids=["run_out_is_a_file", "run_out_under_a_file", "bundle_is_a_file"],
    )
    def test_file_in_the_way_of_an_output_directory_exit_1_names_run_out(self, tmp_path, capsys, command, out):
        cfg = build_demo(tmp_path)
        if command == "train":
            assert main(["ingest", "--config", str(cfg)]) == 0
            (tmp_path / out).write_text("", encoding="utf-8")
            out = "out"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 1
        assert "run.out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("before", "command", "export"),
        [
            ((), "ingest", "corpus.json"),
            (("ingest",), "train", "k2/model.bin"),
            (("ingest", "train"), "surprise", "k2/series_t2t.csv"),
        ],
    )
    def test_directory_in_the_way_of_an_export_exit_1_names_it(self, tmp_path, capsys, before, command, export):
        cfg = build_demo(tmp_path)
        for cmd in before:
            assert main([cmd, "--config", str(cfg)]) == 0
        (tmp_path / "out" / export).mkdir(parents=True)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "out" / export) in err and "run.out" in err

    def test_export_write_that_fails_midway_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "series_t2t.csv"
        path.write_bytes(b"old bytes\r\n")

        def rows():
            yield [1, 2.5]
            raise RuntimeError("cut short")

        with pytest.raises(RuntimeError, match="cut short"):
            exports._write_csv(path, ["position", "bits"], rows())
        assert path.read_bytes() == b"old bytes\r\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        exports._write_csv(path, ["position", "bits"], [[1, 2.5]])
        assert path.read_bytes() == b"position,bits\r\n1,2.5\r\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestWithoutCompiler:
    """Only `train` and `run` load the compiled sweep; without `cc` and
    without a cached build they exit 1, and every other stage still runs."""

    def test_train_and_run_exit_1_other_stages_exit_0(self, tmp_path, monkeypatch, capsys, kernel_cache):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        hide_cc(tmp_path, monkeypatch)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty-cache"))
        topics._load_kernel.cache_clear()
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "C compiler (cc)" in err[0]
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "rerun")]) == 1
        for command in ("ingest", "surprise", "null", "puborder", "greedy", "ranks", "epochs"):
            assert main([command, "--config", str(cfg)]) == 0, command


class TestStagedPipeline:
    @pytest.mark.parametrize("epoch_input", ["raw", "relative"])
    def test_stage_by_stage_matches_run(self, tmp_path, epoch_input):
        cfg = build_demo(tmp_path)
        out2 = tmp_path / "staged"
        flags = ["--config", str(cfg), "--epochs.input", epoch_input]
        for cmd in ("ingest", "train", "surprise", "null", "puborder", "greedy", "ranks", "epochs"):
            assert main([cmd, *flags, "--out", str(out2)]) == 0, cmd
        assert main(["run", *flags, "--out", str(tmp_path / "oneshot")]) == 0
        oneshot = tmp_path / "oneshot" / "k2"
        declared = json.loads((oneshot / "manifest.json").read_text())["files"]
        # run alone writes the summary; the model sidecar carries a timestamp,
        # and the manifest does not declare the null's lineage sidecar
        names = sorted(set(declared) - {"summary.json", "model.meta.json"})
        sidecars = ["model.meta.json", "null.meta.json"]
        assert sorted(p.name for p in (out2 / "k2").iterdir()) == sorted(names + sidecars)
        for name in names:
            assert (out2 / "k2" / name).read_bytes() == (oneshot / name).read_bytes(), name
        assert json.loads((oneshot / "epochs_t2t.json").read_text())["series_input"] == epoch_input

    def test_exported_matrix_parses_back_exactly(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg), "--run.export_matrix", "true"]) == 0
        kdir = tmp_path / "out" / "k2"
        assert "matrix.csv" in json.loads((kdir / "manifest.json").read_text())["files"]
        rows = (kdir / "matrix.csv").read_text(encoding="utf-8").splitlines()
        parsed = np.array([[float(x) for x in row.split(",")[1:]] for row in rows[1:]])
        records, _, _, fingerprint = exports.load_cache(tmp_path / "out")
        expected = paths.divergence_matrix(exports.load_model(kdir, len(records), fingerprint).theta)
        np.testing.assert_array_equal(parsed, expected)


class TestExportFormat:
    def test_every_json_and_csv_export_has_the_one_format(self, tmp_path):
        """JSON: sorted keys, indent 2, a trailing newline. CSV: a header row,
        \\r\\n row ends, a float as repr(float) and no non-finite cell."""
        cfg = build_demo(tmp_path)
        flags = ["--config", str(cfg), "--topics.k_list", "3,4", "--run.export_matrix", "true"]
        assert main(["run", *flags, "--out", str(tmp_path / "run")]) == 0
        for cmd in ("ingest", "train", "surprise", "null", "puborder", "greedy", "ranks", "epochs"):
            assert main([cmd, *flags, "--out", str(tmp_path / "staged")]) == 0, cmd
        exports = sorted((tmp_path / "run").rglob("*.*")) + sorted((tmp_path / "staged").rglob("*.*"))
        # corpus.json is the compact cache the stages reload, not an export
        exports = [p for p in exports if p.name != "corpus.json"]
        assert {p.suffix for p in exports} == {".json", ".csv", ".bin"}
        for path in exports:
            text = path.read_bytes().decode("utf-8") if path.suffix != ".bin" else ""
            if path.suffix == ".json":
                assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path
            elif path.suffix == ".csv":
                lines = text.split("\r\n")
                assert len(lines) > 2 and lines[-1] == "" and "\n" not in text.replace("\r\n", ""), path
                assert lines[0].split(",")[0].isidentifier(), path  # a header row
                for cell in (c for line in lines[1:-1] for c in line.split(",")):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert np.isfinite(value), (path, cell)
                    try:
                        int(cell)
                    except ValueError:
                        assert cell == repr(value), (path, cell)


class TestWorkPerK:
    def test_run_computes_each_intermediate_once_per_k(self, tmp_path, monkeypatch):
        cfg = build_demo(tmp_path)
        counts = Counter()

        def counting(name, fn, size=lambda result: 1):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += size(result)
                return result

            return counted

        sampler = nullmodel.ConstrainedPermutationSampler
        monkeypatch.setattr(sampler, "sample_batch", counting("permutations", sampler.sample_batch, len))
        for module, name in (
            (paths, "divergence_matrix"),
            (surprise, "t2t_series"),
            (surprise, "t2p_series"),
            (epochs, "evidence_prior"),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        suffix_dp = epochs._suffix_dp

        def counted_pass(score, *args):
            counts[score.func.__name__] += 1  # the segment score kind
            return suffix_dp(score, *args)

        monkeypatch.setattr(epochs, "_suffix_dp", counted_pass)
        assert main(["run", "--config", str(cfg), "--topics.k_list", "2,3"]) == 0
        # one ensemble per run; per k one matrix and one series of each
        # kind; per series one prior, one max and one evidence pass; one
        # placement-count pass per run, since every series shares its dates
        assert counts == {
            "permutations": DEMO_SAMPLES,
            "divergence_matrix": 2,
            "t2t_series": 2,
            "t2p_series": 2,
            "evidence_prior": 4,
            "_loglik_scores": 4,
            "_evidence_scores": 4,
            "_feasible_scores": 1,
        }

    @pytest.mark.parametrize("command", ["null", "ranks"])
    def test_stage_command_draws_one_ensemble(self, tmp_path, monkeypatch, command):
        cfg = build_demo(tmp_path)
        flags = ["--config", str(cfg), "--topics.k_list", "2,3"]
        for cmd in ("ingest", "train"):
            assert main([cmd, *flags]) == 0
        drawn = Counter()
        batch = nullmodel.ConstrainedPermutationSampler.sample_batch

        def counted(sampler, rngs):
            drawn["permutations"] += len(rngs)
            return batch(sampler, rngs)

        monkeypatch.setattr(nullmodel.ConstrainedPermutationSampler, "sample_batch", counted)
        assert main([command, *flags]) == 0
        # the ensemble does not depend on k: one draw of M serves both k
        assert drawn == {"permutations": DEMO_SAMPLES}


class TestArtifactChecks:
    @pytest.mark.parametrize("edit", ["truncated", "oversized"])
    def test_model_size_mismatch_exit_1(self, tmp_path, capsys, edit):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        model = tmp_path / "out" / "k2" / "model.bin"
        data = model.read_bytes()
        model.write_bytes(data[:-100] if edit == "truncated" else data + bytes(8))
        restamp(model)
        capsys.readouterr()
        assert main(["surprise", "--config", str(cfg)]) == 1
        assert "model.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["theta_exponent", "theta_nan"])
    def test_corrupted_model_body_exit_1_names_file(self, tmp_path, capsys, edit):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        model = tmp_path / "out" / "k2" / "model.bin"
        data = bytearray(model.read_bytes())
        theta = data.index(b"\n") + 1  # theta[0, 0], little-endian float64
        if edit == "theta_exponent":
            data[theta + 7] = 0x7F  # the row no longer sums to 1
        else:
            data[theta:theta + 8] = b"\xff" * 8  # NaN, which no comparison fails
        model.write_bytes(bytes(data))
        restamp(model)
        capsys.readouterr()
        assert main(["surprise", "--config", str(cfg)]) == 1
        assert "model.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["surprise", "report"])
    def test_unreadable_model_exit_1_names_file(self, tmp_path, capsys, command):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        kdir = tmp_path / "out" / "k2"
        (kdir / "model.bin").unlink()
        (kdir / "model.bin").mkdir()  # exists, but cannot be read as a file
        capsys.readouterr()
        assert main(["report", str(kdir)] if command == "report" else [command, "--config", str(cfg)]) == 1
        assert "model.bin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target,command",
        [
            ("out/corpus.json", "surprise"),
            ("manifest.csv", "ingest"),
            ("out/k2/null_t2t.csv", "epochs"),
            ("run.cfg", "surprise"),
            ("texts/v003.txt", "ingest"),
        ],
    )
    def test_non_utf8_byte_exit_1_names_file(self, tmp_path, capsys, target, command):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train", "null"):
            assert main([cmd, "--config", str(cfg)]) == 0
        path = tmp_path / target
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF  # never valid in UTF-8
        path.write_bytes(bytes(data))
        if path.name == "corpus.json":
            restamp(path)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        assert path.name in capsys.readouterr().err

    def test_stale_null_csv_exit_1_names_file(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train", "null"):
            assert main([cmd, "--config", str(cfg)]) == 0
        null_csv = tmp_path / "out" / "k2" / "null_t2t.csv"
        rows = null_csv.read_text(encoding="utf-8").splitlines()
        null_csv.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")  # D - 2 positions
        capsys.readouterr()
        assert main(["epochs", "--config", str(cfg)]) == 1
        assert "null_t2t.csv" in capsys.readouterr().err

    def test_null_of_redated_corpus_exit_1_names_file(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train", "null"):
            assert main([cmd, "--config", str(cfg)]) == 0
        redate_manifest(tmp_path, 6)
        assert main(["ingest", "--config", str(cfg)]) == 0
        capsys.readouterr()
        flags = ["--config", str(cfg), "--epochs.input", "relative"]
        assert main(["epochs", *flags]) == 1
        err = capsys.readouterr().err
        assert "null_t2t.csv" in err and "null.meta.json" in err and "readpath null" in err
        assert main(["null", "--config", str(cfg)]) == 0
        assert main(["epochs", *flags]) == 0

    @pytest.mark.parametrize("edit", ["sidecar_missing", "model_retrained"])
    def test_null_without_its_lineage_exit_1_names_file(self, tmp_path, capsys, edit):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train", "null"):
            assert main([cmd, "--config", str(cfg)]) == 0
        if edit == "sidecar_missing":
            (tmp_path / "out" / "k2" / "null.meta.json").unlink()
        else:
            assert main(["train", "--config", str(cfg), "--seed", "6"]) == 0
        capsys.readouterr()
        assert main(["epochs", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "null_t2t.csv" in err and "null.meta.json" in err and "readpath null" in err

    def test_model_for_another_corpus_exit_1(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        manifest = tmp_path / "manifest.csv"
        rows = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join(rows[:-1]) + "\n", encoding="utf-8")  # one volume fewer
        assert main(["ingest", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["surprise", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "model.bin" in err and "12 documents" in err and "11" in err

    @pytest.mark.parametrize("command", ["surprise", "null", "puborder", "greedy", "ranks", "epochs"])
    def test_model_of_refiltered_corpus_exit_1(self, tmp_path, capsys, command):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        # same documents, fewer words: only the corpus fingerprint tells
        assert main(["ingest", "--config", str(cfg), "--corpus.min_count", "40"]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "model.bin" in err and "readpath train" in err

    def test_null_csv_row_without_mean_exit_1_names_file(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train", "null"):
            assert main([cmd, "--config", str(cfg)]) == 0
        null_csv = tmp_path / "out" / "k2" / "null_t2t.csv"
        rows = null_csv.read_text(encoding="utf-8").splitlines()
        rows[-1] = rows[-1].split(",")[0]  # the position alone
        null_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["epochs", "--config", str(cfg)]) == 1
        assert "null_t2t.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch_input", ["raw", "relative"])
    @pytest.mark.parametrize("mean", ["nan", "inf", "-inf"])
    def test_null_csv_non_finite_mean_exit_1_names_file(self, tmp_path, capsys, epoch_input, mean):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train", "null"):
            assert main([cmd, "--config", str(cfg)]) == 0
        null_csv = tmp_path / "out" / "k2" / "null_t2t.csv"
        rows = null_csv.read_text(encoding="utf-8").splitlines()
        fields = rows[-1].split(",")
        rows[-1] = ",".join([fields[0], mean] + fields[2:])
        null_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["epochs", "--config", str(cfg), "--epochs.input", epoch_input]) == 1
        err = capsys.readouterr().err
        assert "null_t2t.csv" in err and "non-finite mean" in err
        assert not (tmp_path / "out" / "k2" / "epochs_t2t.json").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            "truncated",
            "not_an_object",
            "record_dropped",
            "pub_year_missing",
            "pub_year_null",
            "vocabulary_key_missing",
            "indptr_malformed",
        ],
    )
    def test_malformed_corpus_cache_exit_1_names_file(self, tmp_path, capsys, edit):
        cfg = build_demo(tmp_path)
        assert main(["ingest", "--config", str(cfg)]) == 0
        cache = tmp_path / "out" / "corpus.json"
        data = cache.read_bytes()
        if edit == "truncated":
            cache.write_bytes(data[: len(data) // 2])
        elif edit == "not_an_object":
            cache.write_text("[]", encoding="utf-8")
        else:
            payload = json.loads(data)
            if edit == "record_dropped":
                payload["records"].pop()
            elif edit == "pub_year_missing":
                del payload["records"][3]["pub_year"]
            elif edit == "pub_year_null":
                payload["records"][3]["pub_year"] = None
            elif edit == "vocabulary_key_missing":
                del payload["vocabulary"]["frequencies"]
            else:
                payload["documents"]["indptr"][-1] += 1
            cache.write_text(json.dumps(payload), encoding="utf-8")
        restamp(cache)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 1
        assert "corpus.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["read_date_out_of_order", "read_seq_mismatch"])
    @pytest.mark.parametrize("command", ["null", "ranks", "puborder", "epochs"])
    def test_corpus_cache_out_of_reading_order_exit_1_names_file(self, tmp_path, capsys, edit, command):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        cache = tmp_path / "out" / "corpus.json"
        payload = json.loads(cache.read_bytes())
        if edit == "read_date_out_of_order":
            payload["records"][5]["read_date"] = "1900-01-01"
        else:
            payload["records"][5]["read_seq"] = 6
        cache.write_text(json.dumps(payload), encoding="utf-8")
        restamp(cache)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "corpus.json" in err and "v005" in err

    @pytest.mark.parametrize("command", [*STAGE_COMMANDS[1:], "run"])
    def test_edited_corpus_cache_exit_1_names_file(self, tmp_path, capsys, command):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        cache = tmp_path / "out" / "corpus.json"
        data = cache.read_bytes()
        record = json.loads(data)["records"][5]
        old = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        new = old.replace(b'"pub_year":%d' % record["pub_year"], b'"pub_year":%d' % (record["pub_year"] - 30))
        assert data.count(old) == 1 and new != old
        cache.write_bytes(data.replace(old, new))  # still canonical, and every validator passes
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "corpus.json" in err and "corpus.meta.json" in err

    @pytest.mark.parametrize("edit", ["missing", "not_json", "sha_missing", "sha_not_a_string"])
    def test_bad_corpus_sidecar_exit_1_names_cache(self, tmp_path, capsys, edit):
        cfg = build_demo(tmp_path)
        assert main(["ingest", "--config", str(cfg)]) == 0
        meta = tmp_path / "out" / "corpus.meta.json"
        payload = json.loads(meta.read_text(encoding="utf-8"))
        if edit == "missing":
            meta.unlink()
        elif edit == "not_json":
            meta.write_text("{", encoding="utf-8")
        else:
            payload["corpus_sha256"] = 7
            if edit == "sha_missing":
                del payload["corpus_sha256"]
            meta.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["surprise", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "corpus.json" in err and "corpus.meta.json" in err

    @pytest.mark.parametrize("command", STAGE_COMMANDS[2:])
    def test_flipped_theta_low_bit_exit_1_names_file(self, tmp_path, capsys, command):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        model = tmp_path / "out" / "k2" / "model.bin"
        data = bytearray(model.read_bytes())
        data[data.index(b"\n") + 1] ^= 1  # the lowest bit of theta[0, 0]: rows still sum to 1 within 1e-9
        model.write_bytes(bytes(data))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "model.bin" in err and "model.meta.json" in err

    def test_missing_model_sidecar_exit_1_names_model(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg)]) == 0
        (tmp_path / "out" / "k2" / "model.meta.json").unlink()
        capsys.readouterr()
        assert main(["surprise", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "model.bin" in err and "model.meta.json" in err

    @pytest.mark.parametrize(
        "line,value", [("k = 2", "1"), ("iterations = 60", "0"), ("samples = 50", "0"), ("n_max = 2", "0")]
    )
    def test_config_value_a_stage_rejects_exit_1(self, tmp_path, capsys, line, value):
        cfg = build_demo(tmp_path)
        assert main(["ingest", "--config", str(cfg)]) == 0
        key = line.split(" = ")[0]
        good = cfg.read_text(encoding="utf-8")
        cfg.write_text(good.replace(line, f"{key} = {value}"), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "run.cfg" in err and "Traceback" not in err
        # the same value given as an override
        cfg.write_text(good, encoding="utf-8")
        section = {"k": "topics", "iterations": "topics", "samples": "null", "n_max": "epochs"}[key]
        assert main(["train", "--config", str(cfg), f"--{section}.{key}", value]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_min_years_a_stage_rejects_exit_1_beside_min_length(self, tmp_path, capsys):
        # min_length takes precedence in the search, yet a min_years that
        # EpochSearchConfig rejects is bad input all the same.
        cfg = build_demo(tmp_path)
        assert main(["ingest", "--config", str(cfg), "--epochs.min_length", "10", "--epochs.min_years", "-1"]) == 1
        err = capsys.readouterr().err
        assert "min_years" in err and "Traceback" not in err
        good = cfg.read_text(encoding="utf-8")
        cfg.write_text(good.replace("min_length = 3", "min_length = 3\nmin_years = 0"), encoding="utf-8")
        assert main(["ingest", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "run.cfg" in err and "min_years" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["surprise", "epochs"])
    def test_missing_model_of_the_default_k_names_the_config(self, tmp_path, capsys, command):
        # A config cut short before [topics] leaves k at its default; the
        # missing model's error says so and names the config file.
        cfg = build_demo(tmp_path)
        out = ["--out", str(tmp_path / "out")]
        for cmd in ("ingest", "train"):
            assert main([cmd, "--config", str(cfg), *out]) == 0
        cfg.write_text("[corpus]\nmanifest = manifest.cs", encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(cfg), *out]) == 1
        err = capsys.readouterr().err
        assert "k80" in err and "k=80 is the default topics.k_list" in err and str(cfg) in err

    def test_cli_import_leaves_out_scipy_stats(self):
        src = str(Path(readpath.__file__).resolve().parents[1])
        entries = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(entries))
        code = "import sys, readpath.cli; sys.exit('scipy.stats' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _python(*args: str) -> int:
    """Exit code of a new interpreter, run with ``args``, that imports
    readpath from the tested sources."""
    src = str(Path(readpath.__file__).resolve().parents[1])
    entries = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(entries))
    return subprocess.run([sys.executable, *args], env=env).returncode


def _fresh_interpreter(code: str, *args: str) -> int:
    """Exit code of ``code`` run in a new interpreter that imports readpath
    from the tested sources."""
    return _python("-c", code, *args)


LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        code = f"import sys, readpath, readpath.cli; loaded = {LOADED_SCIPY}; sys.exit(str(loaded) if loaded else 0)"
        assert _fresh_interpreter(code) == 0

    def test_only_ranks_and_epochs_load_scipy(self, tmp_path):
        cfg = build_demo(tmp_path)
        code = "\n".join(
            [
                "import sys",
                "from readpath.cli import main",
                "flags = ['--config', sys.argv[1]]",
                "for cmd in ('ingest', 'train', 'surprise', 'null', 'puborder', 'greedy'):",
                "    assert main([cmd, *flags]) == 0, cmd",
                f"loaded = {LOADED_SCIPY}",
                "assert not loaded, loaded",
                "for cmd in ('ranks', 'epochs'):",
                "    assert main([cmd, *flags]) == 0, cmd",
            ]
        )
        assert _fresh_interpreter(code, str(cfg)) == 0


# Run in a new interpreter by the tests below: wraps the rank bands, the step
# that loads scipy in `ranks`, and at its first call looks for a live D x D
# array. ndarrays are not GC-tracked, so they are found as the referents of
# the tracked objects and as the locals of every frame on the stack; a view
# counts as its base.
_BANDS_PROBE = """
import gc, sys
import numpy as np
from readpath import paths
from readpath.cli import main

config, d = sys.argv[1], int(sys.argv[2])
bands, seen = paths.rank_bands, []

def live_square_arrays():
    found = [o for o in gc.get_referents(*gc.get_objects()) if isinstance(o, np.ndarray)]
    frame = sys._getframe()
    while frame is not None:
        found += [v for v in frame.f_locals.values() if isinstance(v, np.ndarray)]
        frame = frame.f_back
    roots = []
    for a in found:
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots.append(a)
    return [a for a in roots if a.shape == (d, d)]

def checked_bands(counts):
    if not seen:
        seen.append(True)
        assert "scipy.special" not in sys.modules, "scipy.special loaded before the bands"
        assert not live_square_arrays(), "a D x D array is alive at the bands"
    return bands(counts)

paths.rank_bands = checked_bands
assert main(["run", "--config", config]) == 0
assert seen, "run never computed the bands"
"""


# Prepended to the probe by its negative control: every divergence matrix
# the program computes stays referenced from a list.
_KEEP_MATRICES = """
from readpath import paths
kept, matrix_of = [], paths.divergence_matrix

def kept_matrix(thetas):
    kept.append(matrix_of(thetas))
    return kept[-1]

paths.divergence_matrix = kept_matrix
"""


class TestRanksAfterMatrix:
    def test_run_frees_matrix_before_bands_load_scipy(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert _fresh_interpreter(_BANDS_PROBE, str(cfg), "12") == 0

    def test_staged_ranks_frees_matrix_before_bands_load_scipy(self, tmp_path):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        probe = _BANDS_PROBE.replace('main(["run"', 'main(["ranks"')
        assert _fresh_interpreter(probe, str(cfg), "12") == 0

    def test_probe_sees_a_live_matrix(self, tmp_path):
        """The probe itself: with every divergence matrix kept alive, the
        same check must fail."""
        cfg = build_demo(tmp_path)
        assert _fresh_interpreter(_KEEP_MATRICES + _BANDS_PROBE, str(cfg), "12") == 1


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


class TestTracedSpans:
    """perfbench's tracer wraps, after import, each module function that
    `cli` calls through a module alias. A step that held the function
    object itself would call past the wrapper, and its calls would drop
    out of the trace."""

    @pytest.mark.parametrize(
        ("command", "spans"),
        [
            ("run", {"nullmodel.null_permutations", "nullmodel.build_null", "paths.rank_counts",
                     "paths.rank_bands", "epochs.select_n"}),
            ("ranks", {"nullmodel.null_permutations", "paths.rank_counts", "paths.rank_bands"}),
        ],
    )
    def test_trace_holds_the_step_spans(self, tmp_path, command, spans):
        cfg = build_demo(tmp_path)
        if command != "run":
            assert main(["run", "--config", str(cfg)]) == 0
        trace = tmp_path / "trace.json"
        assert _python(str(TRACER), str(trace), command, "--config", str(cfg)) == 0
        traced = json.loads(trace.read_text(encoding="utf-8"))
        assert spans <= {span["name"] for span in traced["spans"]}
        assert traced["counts"]["nullmodel.permutations_drawn"] == DEMO_SAMPLES


class TestReport:
    def test_report_consistent_with_summary(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        kdir = tmp_path / "out" / "k2"
        assert main(["report", str(kdir)]) == 0
        out = capsys.readouterr().out
        summary = json.loads((kdir / "summary.json").read_text())
        observed = summary["surprise"]["T2T"]["observed_bits_per_step"]
        assert f"{observed:.4f}" in out
        assert "reading order" in out and "greedy shortest path" in out

    def test_report_missing_bundle(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["summary_truncated", "summary_epochs_missing", "manifest_truncated"])
    def test_report_malformed_bundle_file_exit_1_names_file(self, tmp_path, capsys, edit):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        kdir = tmp_path / "out" / "k2"
        name = "manifest.json" if edit == "manifest_truncated" else "summary.json"
        target = kdir / name
        if edit == "summary_epochs_missing":
            summary = json.loads(target.read_text(encoding="utf-8"))
            del summary["epochs"]
            target.write_text(json.dumps(summary), encoding="utf-8")
        else:
            target.write_bytes(target.read_bytes()[:100])
        capsys.readouterr()
        assert main(["report", str(kdir)]) == 1
        captured = capsys.readouterr()
        assert name in captured.err and captured.out == ""

    @pytest.mark.parametrize("name", ["series_t2t.meta.json", "puborder_t2p.meta.json", "null.meta.json"])
    def test_report_rejects_sidecar_of_another_model(self, tmp_path, capsys, name):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        kdir = tmp_path / "out" / "k2"
        meta = json.loads((kdir / name).read_text(encoding="utf-8"))
        meta["model_sha256"] = "0" * 64
        (kdir / name).write_text(json.dumps(meta), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(kdir)]) == 1
        captured = capsys.readouterr()
        assert name in captured.err and captured.out == ""

    @pytest.mark.parametrize("edit", ["retrained", "redated", "restaged", "model_byte"])
    def test_report_rejects_stale_or_damaged_bundle(self, tmp_path, capsys, edit):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        kdir = tmp_path / "out" / "k2"
        if edit == "model_byte":
            data = bytearray((kdir / "model.bin").read_bytes())
            data[len(data) // 2] ^= 1
            (kdir / "model.bin").write_bytes(bytes(data))
            names = ["model.bin", "model.meta.json", "readpath train"]
        elif edit == "redated":  # the model stays valid, the corpus cache changes
            redate_manifest(tmp_path, 6)
            assert main(["ingest", "--config", str(cfg)]) == 0
            names = ["series_t2t.csv", "series_t2t.meta.json", "corpus.meta.json"]
        else:
            assert main(["train", "--config", str(cfg), "--seed", "9"]) == 0
            names = ["series_t2t.csv", "series_t2t.meta.json", "model.meta.json"]
            if edit == "restaged":  # the staged steps refresh every sidecar but the summary's
                for command in STAGE_COMMANDS[2:]:
                    assert main([command, "--config", str(cfg)]) == 0
                names = ["summary.json", "summary.meta.json", "model.meta.json"]
        capsys.readouterr()
        assert main(["report", str(kdir)]) == 1
        captured = capsys.readouterr()
        assert all(name in captured.err for name in names), captured.err
        assert captured.out == ""

    def test_report_names_missing_artifact(self, tmp_path, capsys):
        cfg = build_demo(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        kdir = tmp_path / "out" / "k2"
        (kdir / "null_t2p.json").unlink()
        assert main(["report", str(kdir)]) == 1
        assert "null_t2p.json" in capsys.readouterr().err
