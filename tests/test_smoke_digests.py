"""`tools/smoke_digests.py` run on this checkout and on a checkout whose
smoke config is refused."""

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


def test_failed_command_exits_1(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "configs").mkdir(parents=True)
    (checkout / "src").symlink_to(REPO / "src")
    config = json.loads((REPO / "configs" / "smoke.json").read_text())
    config["eval_ks"] = [5, 5]
    (checkout / "configs" / "smoke.json").write_text(json.dumps(config))
    assert smoke_digests.main([str(checkout)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("newsrec generate exited 2: error: invalid config: eval_ks: 5 is listed more "
            "than once") in captured.err
