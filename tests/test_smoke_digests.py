"""`tools/smoke_digests.py` run on this checkout, on a checkout whose smoke
config is refused, and on two checkouts side by side."""

import importlib.util
import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PATH = REPO / "tools" / "smoke_digests.py"
spec = importlib.util.spec_from_file_location("smoke_digests", PATH)
smoke_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(smoke_digests)

ARTIFACTS = [
    "corpus/articles.jsonl", "corpus/events.jsonl", "corpus/vectors.txt",
    "emissions_baseline.jsonl", "emissions_dynamism.jsonl", "manual.jsonl",
    "models/model_2024-01-02.json", "models/model_2024-01-03.json",
    "models/model_2024-01-04.json", "models/model_2024-01-05.json", "models/schema.json",
    "reports/accuracy.json", "reports/accuracy.txt", "reports/compare_ab.json",
    "reports/compare_ab.txt", "reports/compare_manual.json", "reports/compare_manual.txt",
    "reports/metrics.csv",
]


def test_one_digest_per_smoke_artifact(capsys):
    assert smoke_digests.main([str(REPO)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ", 1)[1] for line in lines] == ARTIFACTS
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines


def smoke_checkout(tmp_path, **edits) -> Path:
    """A checkout sharing this one's `src`, whose smoke config has the
    top-level `edits`; a dict edit updates that section."""
    checkout = tmp_path / "checkout"
    (checkout / "configs").mkdir(parents=True)
    (checkout / "src").symlink_to(REPO / "src")
    config = json.loads((REPO / "configs" / "smoke.json").read_text())
    for key, value in edits.items():
        config[key] = {**config[key], **value} if isinstance(value, dict) else value
    (checkout / "configs" / "smoke.json").write_text(json.dumps(config))
    return checkout


def test_failed_command_exits_1(tmp_path, capsys):
    checkout = smoke_checkout(tmp_path, eval_ks=[5, 5])
    assert smoke_digests.main([str(checkout)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("newsrec generate exited 2: error: invalid config: eval_ks: k 5 is listed more "
            "than once") in captured.err


def test_checkout_against_itself_exits_0(capsys):
    assert smoke_digests.main([str(REPO), str(REPO)]) == 0
    assert capsys.readouterr().out == f"all {len(ARTIFACTS)} artifacts are byte-identical\n"


def test_changed_artifact_exits_1(tmp_path, capsys):
    checkout = smoke_checkout(tmp_path, pipeline={"lambda": 0.4})
    assert smoke_digests.main([str(REPO), str(checkout)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "differs  emissions_dynamism.jsonl" in lines
    assert "differs  emissions_baseline.jsonl" not in lines  # lambda blends dynamism alone


def test_differences_name_one_sided_paths():
    parent = {"a": "0", "b": "1", "c": "2"}
    change = {"b": "1", "c": "3", "d": "4"}
    assert smoke_digests.differences(parent, change) == [
        "only in PARENT  a", "differs  c", "only in CHANGE  d"]
