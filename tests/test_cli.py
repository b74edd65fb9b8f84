import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import newsrec.cli
from newsrec.cli import CliError, load_config, main
from newsrec.corpus import WordVectors
from newsrec.ranker import read_emissions
from newsrec.worlds import reference_pipeline, reference_world

REPO = Path(__file__).resolve().parent.parent
SMOKE = REPO / "configs" / "smoke.json"
SMOKE_CFG = json.loads(SMOKE.read_text())
HUGE_INT = 10 ** 400  # a JSON number no float can hold


def smoke_config(tmp_path, **overrides):
    cfg = json.loads(SMOKE.read_text())
    cfg["out"] = str(tmp_path / "run")
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full CLI chain on the smoke config."""
    tmp_path = tmp_path_factory.mktemp("chain")
    cfg = smoke_config(tmp_path)
    for cmd in ("generate", "train", "run", "evaluate", "compare"):
        assert run(cmd, "--config", str(cfg)) == 0, cmd
    return tmp_path / "run", cfg


class TestChain:
    def test_artifacts_exist_and_nonempty(self, chain):
        out, _ = chain
        expected = [
            "corpus/articles.jsonl", "corpus/events.jsonl", "corpus/vectors.txt",
            "models/schema.json", "emissions_baseline.jsonl",
            "emissions_dynamism.jsonl", "manual.jsonl",
            "reports/accuracy.json", "reports/accuracy.txt", "reports/metrics.csv",
            "reports/compare_ab.json", "reports/compare_manual.json",
        ]
        for rel in expected:
            path = out / rel
            assert path.exists() and path.stat().st_size > 0, rel
        assert list((out / "models").glob("model_*.json"))

    def test_reports_parse(self, chain):
        out, _ = chain
        acc = json.loads((out / "reports" / "accuracy.json").read_text())
        assert 0.0 <= acc["ndcg"] <= 1.0
        assert acc["n_user_days"] > 0
        ab = json.loads((out / "reports" / "compare_ab.json").read_text())
        assert any(r["metric"] == "dynamism" for r in ab)
        for r in ab:
            assert 0.0 <= r["p_value"] <= 1.0

    def test_run_single_treatment(self, chain, tmp_path):
        out, _ = chain
        copy = tmp_path / "run"
        for name in ("corpus", "models"):
            shutil.copytree(out / name, copy / name)
        cfg = smoke_config(tmp_path, treatments=["dynamism"])
        assert run("run", "--config", str(cfg)) == 0
        written = sorted(p.name for p in copy.iterdir() if p.is_file())
        assert written == ["emissions_dynamism.jsonl", "manual.jsonl"]
        for name in written:
            assert (copy / name).read_bytes() == (out / name).read_bytes()

    def test_run_treatments_in_either_order(self, chain, tmp_path):
        # one walk serves every configured treatment; its order changes no log
        out, _ = chain
        copy = tmp_path / "run"
        for name in ("corpus", "models"):
            shutil.copytree(out / name, copy / name)
        cfg = smoke_config(tmp_path, treatments=["dynamism", "baseline"])
        assert run("run", "--config", str(cfg)) == 0
        written = sorted(p.name for p in copy.iterdir() if p.is_file())
        assert written == ["emissions_baseline.jsonl", "emissions_dynamism.jsonl",
                           "manual.jsonl"]
        for name in written:
            assert (copy / name).read_bytes() == (out / name).read_bytes()

    def test_outputs_of_dropped_treatment_deleted(self, chain, tmp_path):
        out, _ = chain
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        cfg = smoke_config(tmp_path, treatments=["baseline"])
        for cmd in ("run", "compare"):
            assert run(cmd, "--config", str(cfg)) == 0, cmd
        assert not (copy / "emissions_dynamism.jsonl").exists()
        assert not (copy / "reports" / "compare_ab.json").exists()
        assert not (copy / "reports" / "compare_ab.txt").exists()
        for name in ("emissions_baseline.jsonl", "manual.jsonl", "reports/compare_manual.json",
                     "reports/compare_manual.txt"):
            assert (copy / name).read_bytes() == (out / name).read_bytes(), name

    def test_compare_variant_from_config(self, chain, tmp_path):
        out, _ = chain
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        cfg = smoke_config(tmp_path, variant="welch")
        assert run("compare", "--config", str(cfg)) == 0
        for name in ("compare_ab.json", "compare_manual.json"):
            assert {r["variant"] for r in json.loads((out / "reports" / name).read_text())
                    } == {"student"}
            assert {r["variant"] for r in json.loads((copy / "reports" / name).read_text())
                    } == {"welch"}

    def test_model_files_match_schema_file(self, chain):
        out, _ = chain
        schema = json.loads((out / "models" / "schema.json").read_text())
        assert schema["embedding_dim"] == WordVectors.from_file(out / "corpus" / "vectors.txt").dim
        assert schema["width"] == len(schema["features"])
        models = sorted((out / "models").glob("model_*.json"))
        assert models
        for path in models:
            assert json.loads(path.read_text())["n_features"] == schema["width"], path.name

    def test_evaluate_idempotent_byte_identical(self, chain):
        out, cfg = chain
        before = {p: p.read_bytes() for p in (out / "reports").glob("accuracy.*")}
        assert run("evaluate", "--config", str(cfg)) == 0
        for p, blob in before.items():
            assert p.read_bytes() == blob


    def test_compare_reads_each_log_once(self, chain, tmp_path, monkeypatch):
        out, _ = chain
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        cfg = smoke_config(tmp_path)
        read = []

        def counted(path, *args):
            read.append(Path(path).name)
            return read_emissions(path, *args)

        monkeypatch.setattr(newsrec.cli, "read_emissions", counted)
        assert run("compare", "--config", str(cfg)) == 0
        assert read == ["emissions_baseline.jsonl", "emissions_dynamism.jsonl", "manual.jsonl"]
        for name in ("compare_ab.json", "compare_manual.json"):
            assert (copy / "reports" / name).read_bytes() == (out / "reports" / name).read_bytes()


class TestErrors:
    def test_missing_upstream_artifact_named(self, tmp_path, capsys):
        cfg = smoke_config(tmp_path)
        assert run("train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "articles.jsonl" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("generate", "--config", str(tmp_path / "nope.json")) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert run("generate", "--config", str(cfg)) == 2
        assert "must hold a JSON object, not [1, 2]" in capsys.readouterr().err

    def test_config_integer_beyond_digit_limit_exit_2(self, tmp_path, capsys):
        # Python's int parsing refuses more than 4300 digits by default
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
        assert run("generate", "--config", str(cfg)) == 2
        assert f"{cfg}: Exceeds the limit" in capsys.readouterr().err

    def test_config_validation_lists_all_problems(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "world": {"n_users": 0},
            "corpus": {"articles": "a", "events": "e", "vectors": "v"},
            "treatments": ["nope"],
            "pipeline": {"lambda": 2},
        }), encoding="utf-8")
        with pytest.raises(CliError) as exc:
            load_config(bad)
        msg = str(exc.value)
        assert "exactly one" in msg
        assert "n_users" in msg
        assert "nope" in msg
        assert "'out'" in msg
        assert "invalid config: pipeline: lambda must be in [0, 1]" in msg

    def test_generate_requires_world(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "out": str(tmp_path / "o"),
            "corpus": {"articles": "a.jsonl", "events": "e.jsonl", "vectors": "v.txt"},
        }), encoding="utf-8")
        assert run("generate", "--config", str(cfg)) == 2
        assert "world" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_schema_mismatch_model_refused(self, chain, tmp_path, capsys, command):
        out, cfg = chain
        for key, message in (("schema_version", "version 99"),
                             ("n_features", "expects 99 features")):
            copy = tmp_path / key
            shutil.copytree(out, copy)
            model_file = sorted((copy / "models").glob("model_*.json"))[-1]
            payload = json.loads(model_file.read_text())
            payload[key] = 99
            model_file.write_text(json.dumps(payload), encoding="utf-8")
            assert run(command, "--config", str(cfg), "--out", str(copy)) == 2, key
            err = capsys.readouterr().err
            assert model_file.name in err and message in err, err

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_unloadable_model_file_exit_2(self, chain, tmp_path, capsys, command):
        out, cfg = chain

        def bad_feature(text):
            payload = json.loads(text)
            payload["trees"][0]["feature"][0] = 999
            return json.dumps(payload)

        for name, edit, message in (("json", lambda text: "{not json", "cannot load model"),
                                    ("tree", bad_feature, "tree 0 node 0: feature")):
            copy = tmp_path / name
            shutil.copytree(out, copy)
            model_file = sorted((copy / "models").glob("model_*.json"))[-1]
            model_file.write_text(edit(model_file.read_text()), encoding="utf-8")
            assert run(command, "--config", str(cfg), "--out", str(copy)) == 2, name
            err = capsys.readouterr().err
            assert model_file.name in err and message in err, err

    @pytest.mark.parametrize("command", ["run", "evaluate"])
    def test_misnamed_model_file_exit_2(self, chain, tmp_path, capsys, command):
        out, cfg = chain
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        models = copy / "models"
        latest = sorted(models.glob("model_*.json"))[-1]
        # Python 3.11's date.fromisoformat reads the last two names as
        # 2024-01-02; 3.10's does not
        for name in ("model_latest.json", "model_20240102.json", "model_2024-W01-2.json"):
            shutil.copy(latest, models / name)
            assert run(command, "--config", str(cfg), "--out", str(copy)) == 2, name
            err = capsys.readouterr().err
            assert f"{name}: a model file must be named model_YYYY-MM-DD.json" in err, err
            (models / name).unlink()

    def test_malformed_emissions_exit_2(self, chain, tmp_path, capsys):
        out, cfg = chain
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = copy / "emissions_baseline.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "{not json\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert run("compare", "--config", str(cfg), "--out", str(copy)) == 2
        assert "emissions_baseline.jsonl:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_manual_list_in_treatment_log_exit_2(self, chain, tmp_path, capsys, command):
        out, cfg = chain
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = copy / "emissions_dynamism.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = (copy / "manual.jsonl").read_text().splitlines(keepends=True)[0]
        path.write_text("".join(lines), encoding="utf-8")
        assert run(command, "--config", str(cfg), "--out", str(copy)) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: a manual list in a treatment's emission log" in err, err

    def test_treatment_log_as_manual_stream_exit_2(self, chain, tmp_path, capsys):
        """The baseline log copied over manual.jsonl would compare the
        recommender with itself."""
        out, cfg = chain
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        shutil.copy(copy / "emissions_baseline.jsonl", copy / "manual.jsonl")
        section = json.loads((copy / "manual.jsonl").read_text().splitlines()[0])["section"]
        assert run("compare", "--config", str(cfg), "--out", str(copy)) == 2
        err = capsys.readouterr().err
        assert f"manual.jsonl:1: a {section} list in the manual stream" in err, err

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("position", [0, 6])  # inside the top 5, past its cut
    def test_unknown_article_id_exit_2(self, chain, tmp_path, capsys, command, position):
        out, cfg = chain
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = copy / "emissions_baseline.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        line = next(i for i, rec in enumerate(records) if len(rec["ids"]) > position)
        records[line]["ids"][position] = "zz_unknown"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
        assert run(command, "--config", str(cfg), "--out", str(copy)) == 2
        err = capsys.readouterr().err
        assert f"{path}:{line + 1}: article id 'zz_unknown' is not in the corpus" in err, err

    def test_missing_emissions_evaluate_exit_2(self, chain, tmp_path, capsys):
        out, cfg = chain
        copy = tmp_path / "copy"
        for name in ("corpus", "models"):
            shutil.copytree(out / name, copy / name)
        shutil.copy(out / "emissions_baseline.jsonl", copy)
        assert run("evaluate", "--config", str(cfg), "--out", str(copy)) == 2
        err = capsys.readouterr().err
        assert f"missing upstream artifact {copy / 'emissions_dynamism.jsonl'}" in err, err
        assert "run 'newsrec run' first" in err, err
        assert not (copy / "reports").exists()

    def test_missing_manual_stream_compare_writes_no_report(self, chain, tmp_path, capsys):
        out, cfg = chain
        copy = tmp_path / "copy"
        for name in ("corpus", "models"):
            shutil.copytree(out / name, copy / name)
        for name in ("emissions_baseline.jsonl", "emissions_dynamism.jsonl"):
            shutil.copy(out / name, copy)
        assert run("compare", "--config", str(cfg), "--out", str(copy)) == 2
        err = capsys.readouterr().err
        assert f"missing upstream artifact {copy / 'manual.jsonl'}" in err, err
        assert not (copy / "reports").exists()

    def test_malformed_treatment_log_evaluate_writes_no_report(self, chain, tmp_path, capsys):
        out, cfg = chain
        copy = tmp_path / "copy"
        for name in ("corpus", "models"):
            shutil.copytree(out / name, copy / name)
        for name in ("emissions_baseline.jsonl", "emissions_dynamism.jsonl", "manual.jsonl"):
            shutil.copy(out / name, copy)
        path = copy / "emissions_dynamism.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "{not json\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert run("evaluate", "--config", str(cfg), "--out", str(copy)) == 2
        assert "emissions_dynamism.jsonl:2:" in capsys.readouterr().err
        assert not (copy / "reports").exists()

    def test_malformed_corpus_exit_2(self, chain, tmp_path, capsys):
        out, cfg = chain
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = copy / "corpus" / "articles.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = '{"id": "x"}\n'
        path.write_text("".join(lines), encoding="utf-8")
        assert run("train", "--config", str(cfg), "--out", str(copy)) == 2
        assert "articles.jsonl:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        ("articles", lambda rec: [1, 2], "expected a JSON object"),
        ("events", lambda rec: 42, "expected a JSON object"),
        ("articles", lambda rec: {**rec, "section": 5}, "section must be a string"),
        ("events", lambda rec: {**rec, "user_id": 7}, "user_id must be a string"),
        ("articles", lambda rec: {**rec, "tags": [""]}, "empty string in tags"),
        # Python 3.11's datetime.fromisoformat reads this; 3.10's does not
        ("events", lambda rec: {**rec, "at": "20240102T100000Z"}, "bad timestamp"),
    ], ids=["article-array", "event-number", "section", "user-id", "empty-tag",
            "compact-timestamp"])
    def test_bad_corpus_record_exit_2(self, chain, tmp_path, capsys, name, edit, message):
        out, cfg = chain
        copy = tmp_path / "copy"
        shutil.copytree(out / "corpus", copy / "corpus")
        path = copy / "corpus" / f"{name}.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = json.dumps(edit(json.loads(lines[1]))) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert run("train", "--config", str(cfg), "--out", str(copy)) == 2
        err = capsys.readouterr().err
        assert f"{name}.jsonl:2: " in err and message in err, err

    @pytest.mark.parametrize("command, overrides, message", [
        ("train", {"train": {"n_trees": 8, "rng_seed": 5}}, "train: "),
        # the feature layout is fixed (features.SECTION_BUCKETS, TOP_K)
        ("train", {"features": {"section_buckets": 0}}, "unknown top-level keys ['features']"),
        ("train", {"features": {"top_k": 3}}, "unknown top-level keys ['features']"),
        ("evaluate", {"eval_ks": [0]}, "eval_ks must be a list of integers >= 1"),
        # each user-day would be counted once per listing
        ("evaluate", {"eval_ks": [5, 5]}, "eval_ks: 5 is listed more than once"),
        ("run", {"manual_updates_per_day": [-3, -1]}, "manual_updates_per_day: must be"),
        ("run", {"manual_updates_per_day": 5}, "manual_updates_per_day: must be"),
        ("run", {"manual_updates_per_day": ["a", "b"]}, "manual_updates_per_day: must be"),
        ("run", {"manual_updates_per_day": [2.5, 4]}, "manual_updates_per_day: must be"),
        ("run", {"manual_updates_per_day": [True, 3]}, "manual_updates_per_day: must be"),
        ("run", {"manual_updates_per_day": [0, 0]}, "manual_updates_per_day: must be"),
        ("run", {"treatments": []}, "treatments must be a non-empty list"),
        ("compare", {"treatments": []}, "treatments must be a non-empty list"),
        ("run", {"treatments": ["baseline", "baseline"]},
         "treatments: 'baseline' is listed more than once"),
        ("compare", {"treatments": ["baseline", "dynamism", "baseline"]},
         "treatments: 'baseline' is listed more than once"),
        ("generate", {"seed": "x"}, "seed must be an integer, not 'x'"),
        ("generate", {"seed": 2.7}, "seed must be an integer, not 2.7"),
        ("generate", {"seed": True}, "seed must be an integer, not True"),
        ("generate", {"seed": -1}, "seed must be >= 0, not -1"),
        ("generate", {"world": {**SMOKE_CFG["world"], "seed": -1}},
         "world: seed must be >= 0, not -1"),
        ("generate", {"out": 5}, "'out' must be a string, not 5"),
        ("generate", {"world": {**SMOKE_CFG["world"], "n_users": 2.5}},
         "world: n_users must be an integer, not 2.5"),
        ("generate", {"world": {**SMOKE_CFG["world"], "zipf_exponent": "1.1"}},
         "world: zipf_exponent must be a number, not '1.1'"),
        ("generate", {"train": {"n_trees": 2.5}}, "train: n_trees must be an integer, not 2.5"),
        ("generate", {"corpus": 5}, "corpus must be a JSON object, not 5"),
        ("generate", {"pipeline": 5}, "pipeline must be a JSON object, not 5"),
        ("generate", {"pipeline": {**SMOKE_CFG["pipeline"], "lambda": 2}},
         "pipeline: lambda must be in [0, 1]"),
        ("generate", {"variantt": "welch"}, "unknown top-level keys ['variantt']"),
        ("generate", {"world": {**SMOKE_CFG["world"], "zipf_exponent": float("inf")}},
         "world: zipf_exponent must be finite, not inf"),
        ("generate",
         {"pipeline": {**SMOKE_CFG["pipeline"], "candidate_window_days": float("nan")}},
         "pipeline: candidate_window_days must be finite, not nan"),
        ("generate", {"pipeline": {**SMOKE_CFG["pipeline"], "lambda": HUGE_INT}},
         f"pipeline: lambda must be finite, not {HUGE_INT}"),
        # the start is set by start_day_offset alone
        ("generate", {"pipeline": {**SMOKE_CFG["pipeline"], "t_start": HUGE_INT}},
         "pipeline: unknown keys ['t_start']"),
        ("generate", {"world": {**SMOKE_CFG["world"], "zipf_exponent": HUGE_INT}},
         f"world: zipf_exponent must be finite, not {HUGE_INT}"),
    ], ids=["rng-seed", "section-buckets", "top-k", "eval-ks", "eval-ks-repeated",
            "updates-negative", "updates-int", "updates-strings", "updates-float", "updates-bool",
            "updates-zero", "treatments-run", "treatments-compare",
            "treatments-duplicate-run", "treatments-duplicate-compare", "seed-string",
            "seed-float", "seed-bool", "seed-negative", "world-seed-negative", "out-int", "world-int-float", "world-number-string",
            "train-int-float", "corpus-int", "pipeline-int", "generate-lambda",
            "unknown-top-level-key", "world-inf", "pipeline-nan", "lambda-huge-int",
            "t-start-huge-int", "world-huge-int"])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, command, overrides, message):
        cfg = smoke_config(tmp_path, **overrides)
        assert run(command, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and message in err, err

    @pytest.mark.parametrize("pipeline, message", [
        ({"lambda": 2}, "lambda must be in [0, 1]"),
        ({"candidate_window_days": -1}, "candidate_window must be > 0"),
        ({"mnpage_cap": 0}, "mnpage_cap must be an integer >= 1"),
        ({"mnpage_cap": -1}, "mnpage_cap must be an integer >= 1"),
        ({"lamda": 0.5}, "unknown keys ['lamda']"),
        ({"nightly_train_hour": 2.5}, "nightly_train_hour must be an integer, not 2.5"),
        ({"start_day_offset": 1.0}, "start_day_offset must be an integer, not 1.0"),
        ({"mnpage_cap": 10.0}, "mnpage_cap must be an integer, not 10.0"),
        ({"refresh_interval_hours": "3"}, "refresh_interval_hours must be a number, not '3'"),
        ({"lambda": True}, "lambda must be a number, not True"),
        ({"t_start": None}, "unknown keys ['t_start']"),
        # past the corpus end: nothing to train or serve, so refused up front
        ({"start_day_offset": 1000}, "start_day_offset 1000 starts the pipeline at "
                                     "2026-09-27T00:00:00+00:00, not before the corpus ends "
                                     "at 2024-01-"),
        # before the corpus's first day: lists served before anything was published
        ({"start_day_offset": -3}, "start_day_offset must be >= 0, not -3"),
    ], ids=["lambda", "window", "cap-0", "cap-minus-1", "unknown-key", "hour-float",
            "offset-float", "cap-float", "refresh-string", "lambda-bool", "t-start-null",
            "offset-past-end", "offset-negative"])
    def test_bad_pipeline_section_exit_2(self, chain, tmp_path, capsys, pipeline, message):
        out, _ = chain
        smoke = json.loads(SMOKE.read_text())
        cfg = smoke_config(tmp_path, pipeline={**smoke["pipeline"], **pipeline})
        shutil.copytree(out / "corpus", tmp_path / "run" / "corpus")
        assert run("train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "invalid config: pipeline: " in err and message in err, err

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_negative_seed_flag_exit_2(self, chain, tmp_path, capsys, command):
        out, cfg = chain
        copy = tmp_path / "copy"
        for name in ("corpus", "models"):
            shutil.copytree(out / name, copy / name)

        def files():
            return {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()}

        before = files()
        assert run(command, "--config", str(cfg), "--out", str(copy), "--seed", "-1") == 2
        assert "invalid config: --seed must be >= 0, not -1" in capsys.readouterr().err
        assert files() == before  # no emission log, corpus or model written

    @pytest.mark.parametrize("command, name, value", [
        ("run", "treatment", "dynamism"),
        ("run", "lambda", "0.3"),
        ("compare", "variant", "welch"),
    ], ids=["treatment", "lambda", "variant"])
    def test_removed_flag_exit_2(self, tmp_path, capsys, command, name, value):
        # the config's treatments, pipeline.lambda and variant are the only
        # home of these settings
        cfg = smoke_config(tmp_path)
        flag = f"--{name}"
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", str(cfg), flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def test_two_day_chain_leaves_untestable_coverage_out(tmp_path):
    # one manual day and one served day: coverage has n = 1 on each side
    cfg = smoke_config(tmp_path, world=dict(SMOKE_CFG["world"], n_days=2))
    for cmd in ("generate", "train", "run", "evaluate", "compare"):
        assert run(cmd, "--config", str(cfg)) == 0, cmd
    reports = json.loads((tmp_path / "run" / "reports" / "compare_manual.json").read_text())
    metrics = [r["metric"] for r in reports]
    assert "dynamism_all" in metrics
    assert not [m for m in metrics if m.startswith("coverage_")]


def test_reference_config_is_the_reference_study():
    cfg = load_config(REPO / "configs" / "reference.json")
    pipe = reference_pipeline(reference_world())
    assert cfg.world == reference_world()
    assert replace(cfg.pipeline, t_start=pipe.t_start) == pipe
    assert cfg.start_day_offset == 1


class TestSeedOverride:
    def test_seed_changes_generated_corpus(self, tmp_path):
        cfg = smoke_config(tmp_path)
        out = tmp_path / "run"
        assert run("generate", "--config", str(cfg)) == 0
        first = (out / "corpus" / "events.jsonl").read_bytes()
        assert run("generate", "--config", str(cfg), "--seed", "8") == 0
        assert (out / "corpus" / "events.jsonl").read_bytes() != first
        assert run("generate", "--config", str(cfg)) == 0
        assert (out / "corpus" / "events.jsonl").read_bytes() == first
