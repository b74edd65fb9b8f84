"""Command-line orchestration of end-to-end experiments.

Subcommands form a chain, each consuming the previous stage's artifacts
under the configured output directory:

    newsrec generate --config cfg.json     corpus/{articles,events}.jsonl + vectors.txt
    newsrec train    --config cfg.json     models/model_<day>.json + schema.json
    newsrec run      --config cfg.json     emissions_<treatment>.jsonl + manual.jsonl
    newsrec evaluate --config cfg.json     reports/accuracy.{json,txt} + metrics.csv
    newsrec compare  --config cfg.json     reports/compare_{ab,manual}.{json,txt}

Every stochastic choice is fixed by the config seed, so re-running a
command overwrites its outputs byte-identically. `train`, `run` and
`compare` delete the outputs of an earlier run that their config no longer
produces (models of other nights, other treatments' emission logs, an A/B
report with fewer than two treatments). `evaluate` and `compare` read and
check every input, each once, before they write any report.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .corpus import (DAY, Corpus, CorpusError, SyntheticWorldConfig, WordVectors,
                     _finite, _seed, date_start, day_start, generate_world, load_corpus,
                     save_corpus, utc_date, write_json)
from .evaluation import (ComparisonReport, TTestVariant, check_ks,
                         collect_metric_samples, compare_manual_recsys, compare_treatments,
                         format_accuracy_table, format_comparison_table, offline_eval,
                         scorers_from_schedule)
from .features import article_table, write_schema
from .gbdt import GbdtError, TrainConfig, TreeEnsemble
from .gbdt import load as load_model
from .gbdt import save as save_model
from .ranker import (PipelineConfig, RankedList, RankerError, Section, Treatment, _utc,
                     check_treatments, manual_lists, manual_updates_range, read_emissions,
                     serve_treatments, train_schedule, write_emissions)
from .usefulness import write_metric_samples


class CliError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked experiment config; its seed is `pipeline.rng_seed`, and
    `_pipeline_config` completes `pipeline` from the corpus."""

    out: Path
    world: Optional[SyntheticWorldConfig]
    corpus_files: Optional[dict[str, Path]]
    pipeline: PipelineConfig
    start_day_offset: int
    treatments: tuple[Treatment, ...]
    manual_updates: tuple[int, int]
    eval_ks: tuple[int, ...]
    variant: TTestVariant

    @property
    def corpus_dir(self) -> Path:
        return self.out / "corpus"

    @property
    def models_dir(self) -> Path:
        return self.out / "models"

    @property
    def reports_dir(self) -> Path:
        return self.out / "reports"

    def emissions_path(self, treatment: Treatment) -> Path:
        return self.out / f"emissions_{treatment.value}.jsonl"

    @property
    def manual_path(self) -> Path:
        return self.out / "manual.jsonl"


_TOP_LEVEL_KEYS = {"seed", "out", "world", "corpus", "pipeline", "train", "treatments",
                   "manual_updates_per_day", "eval_ks", "variant"}
_CORPUS_KEYS = {"articles": "str", "events": "str", "vectors": "str"}
_PIPELINE_KEYS = {"start_day_offset": "int",
                  "candidate_window_days": "float", "refresh_interval_hours": "float",
                  "nightly_train_hour": "int", "lambda": "float",
                  "rec_label_threshold": "float", "mnpage_cap": "int"}
_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "str": (str, "a string")}


def _field_kinds(cls) -> dict[str, str]:
    """Each field of dataclass `cls` with its annotation, a type name such as "int"."""
    return {f.name: f.type for f in fields(cls)}


def _section(name: str, section, kinds: dict[str, str], problems: list[str]) -> dict:
    """The entries of config section `name` whose key `kinds` knows and whose
    value is of that key's kind; every other key or value is a problem."""
    if not isinstance(section, dict):
        problems.append(f"{name} must be a JSON object, not {section!r}")
        return {}
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        problems.append(f"{name}: unknown keys {unknown}")
    valid = {}
    for key, value in section.items():
        if key in kinds:
            types, what = _KINDS[kinds[key]]
            if isinstance(value, bool) or not isinstance(value, types):  # JSON true/false
                problems.append(f"{name}: {key} must be {what}, not {value!r}")
            elif kinds[key] == "float" and not _finite(value):
                problems.append(f"{name}: {key} must be finite, not {value!r}")
            else:
                valid[key] = value
    return valid


def _checked(key: Optional[str], problems: list[str], check, *args, **kwargs):
    """`check(*args, **kwargs)`, or None with the ValueError it raises
    recorded as a problem: under config `key`, or as raised when `key` is None."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        problems.append(str(exc) if key is None else f"{key}: {exc}")
        return None


def load_config(path: str | Path, seed: Optional[int] = None,
                out: Optional[str | Path] = None) -> ExperimentConfig:
    """The config file at `path`, with every problem listed in one CliError;
    `seed` (the world's too) and `out` override the file's where given. Each
    value's rule is checked by the module that owns the value."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc.msg}")
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise CliError(f"{path}: {exc}")
    if not isinstance(raw, dict):
        raise CliError(f"invalid config: {path} must hold a JSON object, not {raw!r}")

    problems: list[str] = []
    unknown = sorted(set(raw) - _TOP_LEVEL_KEYS)
    if unknown:
        problems.append(f"unknown top-level keys {unknown}")
    if ("world" in raw) == ("corpus" in raw):
        problems.append("exactly one of 'world' or 'corpus' must be configured")
    # A refused seed is reported once, then replaced by a placeholder (the
    # config is refused) so that the world and pipeline built from it do not
    # report it again.
    config_seed = _checked(None, problems, _seed, raw.get("seed", 0), "seed") or 0
    if seed is not None:
        seed = _checked(None, problems, _seed, seed, "--seed") or 0
    world = None
    if "world" in raw:
        entries = _section("world", raw["world"], _field_kinds(SyntheticWorldConfig), problems)
        if seed is not None:
            entries["seed"] = seed
        world = _checked("world", problems, SyntheticWorldConfig, **entries)
    corpus_files = None
    if "corpus" in raw:
        files = _section("corpus", raw["corpus"], _CORPUS_KEYS, problems)
        if isinstance(raw["corpus"], dict):
            missing = [k for k in _CORPUS_KEYS if k not in raw["corpus"]]
            if missing:
                problems.append(f"corpus: missing keys {missing}")
        corpus_files = {k: Path(v) for k, v in files.items()}
    if "out" not in raw:
        problems.append("'out' directory is required")
    elif not isinstance(raw["out"], str):
        problems.append(f"'out' must be a string, not {raw['out']!r}")
    if seed is None:
        seed = config_seed
    train = _checked("train", problems, TrainConfig, **_section(
        "train", raw.get("train", {}), _field_kinds(TrainConfig), problems))
    pipe = _section("pipeline", raw.get("pipeline", {}), _PIPELINE_KEYS, problems)
    start_day_offset = pipe.get("start_day_offset", 1)
    if start_day_offset < 0:  # it would serve before the corpus starts
        problems.append(f"pipeline: start_day_offset must be >= 0, not {start_day_offset}")
    pipeline = _checked(
        "pipeline", problems, PipelineConfig,
        t_start=0.0,  # a placeholder: _pipeline_config sets it from the corpus
        candidate_window=float(pipe.get("candidate_window_days", 7.0)) * DAY,
        refresh_interval=float(pipe.get("refresh_interval_hours", 1.0)) * 3600.0,
        nightly_train_hour=pipe.get("nightly_train_hour", 2),
        blend_lambda=float(pipe.get("lambda", 0.5)),
        rec_label_threshold=float(pipe.get("rec_label_threshold", 0.5)),
        rng_seed=seed,
        train=train or TrainConfig(),
        mnpage_cap=pipe.get("mnpage_cap"))
    names = raw.get("treatments", ["baseline", "dynamism"])
    if not isinstance(names, list):
        problems.append(f"treatments must be a list, not {names!r}")
    else:
        unnamed = [name for name in names if name not in [t.value for t in Treatment]]
        problems += [f"treatments: unknown treatment {name!r}" for name in unnamed]
        if not unnamed:
            treatments = _checked("treatments", problems, check_treatments,
                                  map(Treatment, names))
    manual_updates = _checked("manual_updates_per_day", problems, manual_updates_range,
                              raw.get("manual_updates_per_day", [8, 16]))
    eval_ks = raw.get("eval_ks", [5, 10])
    if not isinstance(eval_ks, list):
        problems.append(f"eval_ks must be a list, not {eval_ks!r}")
    else:
        eval_ks = _checked("eval_ks", problems, check_ks, eval_ks)
    try:
        variant = TTestVariant(raw.get("variant", "student"))
    except ValueError:
        problems.append(f"variant: unknown variant {raw.get('variant')!r}")
    if problems:
        raise CliError("\n".join(f"invalid config: {p}" for p in problems))

    return ExperimentConfig(
        out=Path(raw["out"] if out is None else out),
        world=world,
        corpus_files=corpus_files,
        pipeline=pipeline,
        start_day_offset=start_day_offset,
        treatments=treatments,
        manual_updates=manual_updates,
        eval_ks=eval_ks,
        variant=variant,
    )


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise CliError(f"missing upstream artifact {path} (run '{produced_by}' first)")
    return path


def _corpus_paths(cfg: ExperimentConfig) -> dict[str, Path]:
    if cfg.corpus_files is not None:
        return cfg.corpus_files
    return {
        "articles": cfg.corpus_dir / "articles.jsonl",
        "events": cfg.corpus_dir / "events.jsonl",
        "vectors": cfg.corpus_dir / "vectors.txt",
    }


def _load_corpus(cfg: ExperimentConfig) -> Corpus:
    paths = _corpus_paths(cfg)
    for p in paths.values():
        _require(p, "newsrec generate")
    try:
        vectors = WordVectors.from_file(paths["vectors"])
        return load_corpus(paths["articles"], paths["events"], vectors)
    except CorpusError as exc:  # a malformed corpus file is bad input
        raise CliError(str(exc)) from exc


def _read_lists(path: Path, corpus: Corpus, manual: bool = False) -> list[RankedList]:
    """The lists of an emission log: the manual stream (`manual`), whose
    lists are all manual, or a treatment's log, which holds none. Every id
    must name an article of `corpus`."""
    def check(lst: RankedList) -> None:
        if (lst.section is Section.MANUAL) != manual:
            stream = "the manual stream" if manual else "a treatment's emission log"
            raise ValueError(f"a {lst.section.value} list in {stream}")
        for aid in lst.ids:
            if aid not in corpus.articles:
                raise ValueError(f"article id {aid!r} is not in the corpus")

    try:
        return read_emissions(path, check)
    except RankerError as exc:  # a malformed emission file is bad input
        raise CliError(str(exc)) from exc


def _pipeline_config(cfg: ExperimentConfig, corpus: Corpus) -> PipelineConfig:
    """The config's pipeline, starting `start_day_offset` (>= 0, checked by
    `load_config`) days after the corpus's first day and before its last
    instant."""
    first, last = corpus.time_span()
    t_start = day_start(first) + cfg.start_day_offset * DAY
    if t_start >= last:
        raise CliError(f"invalid config: pipeline: start_day_offset {cfg.start_day_offset} "
                       f"starts the pipeline at {_utc(t_start)}, not before the corpus "
                       f"ends at {_utc(last)}")
    return replace(cfg.pipeline, t_start=t_start)


def _model_day(path: Path) -> dt.date:
    """The day of a `model_YYYY-MM-DD.json` file; any other name is bad input."""
    rule = f"{path}: a model file must be named model_YYYY-MM-DD.json"
    match = re.fullmatch(r"model_([0-9]{4}-[0-9]{2}-[0-9]{2})\.json", path.name)
    if match is None:
        raise CliError(rule)
    try:
        return dt.date.fromisoformat(match[1])
    except ValueError as exc:  # a day that does not exist, such as 2024-02-30
        raise CliError(f"{rule} ({exc})") from exc


def _load_schedule(cfg: ExperimentConfig, pipe: PipelineConfig, corpus: Corpus
                   ) -> list[tuple[float, TreeEnsemble]]:
    _require(cfg.models_dir, "newsrec train")
    width = article_table(corpus).width
    files = sorted(cfg.models_dir.glob("model_*.json"))
    if not files:
        raise CliError(f"no model files under {cfg.models_dir} (run 'newsrec train' first)")
    schedule = []
    for f in files:
        ts = date_start(_model_day(f))
        try:
            model = load_model(f)
        except GbdtError as exc:  # a malformed model file is bad input
            raise CliError(str(exc)) from exc
        error = model.schema_error(width)
        if error:
            raise CliError(f"{f}: {error} (run 'newsrec train' again)")
        schedule.append((ts + pipe.nightly_train_hour * 3600.0, model))
    return schedule


def cmd_generate(cfg: ExperimentConfig) -> None:
    if cfg.world is None:
        raise CliError("generate requires a 'world' config (a file corpus is already generated)")
    corpus, truth = generate_world(cfg.world)
    cfg.corpus_dir.mkdir(parents=True, exist_ok=True)
    paths = _corpus_paths(cfg)
    save_corpus(corpus, paths["articles"], paths["events"])
    truth.word_vectors.save(paths["vectors"])
    print(f"generated {len(corpus.articles)} articles, {len(corpus.events)} events "
          f"under {cfg.corpus_dir}")


def cmd_train(cfg: ExperimentConfig) -> None:
    corpus = _load_corpus(cfg)
    pipe = _pipeline_config(cfg, corpus)
    schedule = train_schedule(corpus, pipe)
    cfg.models_dir.mkdir(parents=True, exist_ok=True)
    for old in cfg.models_dir.glob("model_*.json"):
        old.unlink()
    for ts, model in schedule:
        day = utc_date(ts)
        save_model(model, cfg.models_dir / f"model_{day.isoformat()}.json")
    write_schema(corpus.embedding_dim, cfg.models_dir / "schema.json")
    print(f"trained {len(schedule)} nightly models under {cfg.models_dir}")


def cmd_run(cfg: ExperimentConfig) -> None:
    corpus = _load_corpus(cfg)
    users = corpus.user_ids()
    pipe = _pipeline_config(cfg, corpus)
    # The nightly schedule does not depend on the treatment: load it once.
    schedule = _load_schedule(cfg, pipe, corpus)
    for stale in (t for t in Treatment if t not in cfg.treatments):
        cfg.emissions_path(stale).unlink(missing_ok=True)
    streams = serve_treatments(corpus, pipe, users, schedule, cfg.treatments)
    for treatment, emissions in streams.items():
        write_emissions(cfg.emissions_path(treatment), emissions)
        print(f"{treatment.value}: {len(emissions)} lists -> {cfg.emissions_path(treatment)}")
    manual = manual_lists(corpus, pipe.t_start, corpus.time_span()[1],
                          rng_seed=cfg.pipeline.rng_seed * 7919 + 11,
                          updates_range=cfg.manual_updates)
    write_emissions(cfg.manual_path, manual)
    print(f"manual: {len(manual)} lists -> {cfg.manual_path}")


def _treatment_logs(cfg: ExperimentConfig, corpus: Corpus,
                    treatments: Sequence[Treatment]) -> dict[Treatment, list[RankedList]]:
    """Each treatment's emission log, read and checked once."""
    return {t: _read_lists(_require(cfg.emissions_path(t), "newsrec run"), corpus)
            for t in treatments}


def cmd_evaluate(cfg: ExperimentConfig) -> None:
    corpus = _load_corpus(cfg)
    pipe = _pipeline_config(cfg, corpus)
    schedule = _load_schedule(cfg, pipe, corpus)
    streams = _treatment_logs(cfg, corpus, cfg.treatments)
    report = offline_eval(corpus, scorers_from_schedule(schedule, corpus), ks=cfg.eval_ks)
    samples = collect_metric_samples({t.value: lists for t, lists in streams.items()}, corpus)

    cfg.reports_dir.mkdir(parents=True, exist_ok=True)
    write_json(cfg.reports_dir / "accuracy.json", report.to_dict())
    (cfg.reports_dir / "accuracy.txt").write_text(
        format_accuracy_table(report) + "\n", encoding="utf-8")
    write_metric_samples(cfg.reports_dir / "metrics.csv", samples)
    print(format_accuracy_table(report))
    print(f"reports under {cfg.reports_dir}")


def _write_comparison(cfg: ExperimentConfig, name: str, reports: list[ComparisonReport],
                      label_a: str, label_b: str) -> None:
    write_json(cfg.reports_dir / f"{name}.json", [r.to_dict() for r in reports])
    table = format_comparison_table(reports, label_a, label_b)
    (cfg.reports_dir / f"{name}.txt").write_text(table + "\n", encoding="utf-8")
    print(table)


def cmd_compare(cfg: ExperimentConfig) -> None:
    corpus = _load_corpus(cfg)
    # Study 2 compares the first two treatments; Study 1 the first with the
    # manual stream
    streams = _treatment_logs(cfg, corpus, cfg.treatments[:2])
    manual = _read_lists(_require(cfg.manual_path, "newsrec run"), corpus, manual=True)
    ab = (compare_treatments(*streams.values(), corpus, variant=cfg.variant)
          if len(streams) == 2 else None)
    mr = compare_manual_recsys(manual, streams[cfg.treatments[0]], corpus,
                               variant=cfg.variant)

    cfg.reports_dir.mkdir(parents=True, exist_ok=True)
    if ab is None:  # an earlier run's A/B report does not describe this config
        for name in ("compare_ab.json", "compare_ab.txt"):
            (cfg.reports_dir / name).unlink(missing_ok=True)
    else:
        a, b = streams
        _write_comparison(cfg, "compare_ab", ab, a.value, b.value)
    _write_comparison(cfg, "compare_manual", mr, "manual", "recsys")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsrec",
        description="Content-based news recommendation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "train", "run", "evaluate", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out)
        cfg.out.mkdir(parents=True, exist_ok=True)
        if args.command == "generate":
            cmd_generate(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "run":
            cmd_run(cfg)
        elif args.command == "evaluate":
            cmd_evaluate(cfg)
        elif args.command == "compare":
            cmd_compare(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations surface as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
