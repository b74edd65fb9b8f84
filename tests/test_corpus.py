import datetime as dt
import json
import math
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from newsrec.corpus import (DAY, Article, Corpus, CorpusError, Kind,
                            SyntheticWorldConfig, WordVectors, compute_embedding,
                            date_start, day_start, generate_world, load_corpus,
                            save_corpus, text_stats, tokenize, utc_date)
from newsrec.gbdt import TrainConfig
from newsrec.ranker import PipelineConfig

from conftest import T0, impression, make_article, make_provider


def write_lines(path, lines):
    path.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")


EVENT = {"user_id": "u1", "article_id": "a1", "at": T0, "kind": "click",
         "context": "other"}


def article_line(id="a1", body="alpha beta.", **over):
    line = {"id": id, "published_at": T0, "section": "news", "tags": ["t1"],
            "authors": ["au1"], "title": "t", "body": body}
    line.update(over)
    return line


class TestTokenize:
    def test_lowercases_and_splits_on_non_alnum(self):
        assert tokenize("Hello, World! foo-bar_baz 42x") == \
            ["hello", "world", "foo", "bar", "baz", "42x"]

    def test_unicode(self):
        assert tokenize("Crème brûlée!") == ["crème", "brûlée"]


def test_utc_day_conversions():
    at = T0 + 2 * DAY + 5 * 3600.0  # 2024-01-03T05:00:00Z
    assert utc_date(at) == utc_date(day_start(at)) == dt.date(2024, 1, 3)
    assert date_start(dt.date(2024, 1, 3)) == day_start(at) == T0 + 2 * DAY


class TestTextStats:
    def test_hand_counted_example(self):
        # oracle: tokenize and count by hand
        wc, _, _, _, hapax, dis = text_stats("a b a c")
        counts = Counter(["a", "b", "a", "c"])
        assert wc == 4
        assert hapax == sum(1 for v in counts.values() if v == 1) == 2
        assert dis == sum(1 for v in counts.values() if v == 2) == 1

    def test_sentences_and_paragraphs(self):
        body = "One two. Three!\n\nFour five? Six."
        _, sentences, paragraphs, chars, _, _ = text_stats(body)
        assert sentences == 4
        assert paragraphs == 2
        assert chars == len(body)


class TestComputeEmbedding:
    def test_single_known_word(self):
        provider = make_provider()
        vec = compute_embedding("alpha", provider)
        assert np.array_equal(vec, provider.vector("alpha"))

    def test_repeated_word_is_mean_of_identical(self):
        provider = make_provider()
        vec = compute_embedding("alpha alpha", provider)
        assert np.allclose(vec, provider.vector("alpha"))

    def test_two_words_coordinatewise_mean(self):
        provider = make_provider()
        vec = compute_embedding("alpha beta", provider)
        v1, v2 = provider.vector("alpha"), provider.vector("beta")
        for i in range(provider.dim):  # brute-force per-coordinate oracle
            assert vec[i] == pytest.approx((v1[i] + v2[i]) / 2, abs=1e-15)

    def test_unknown_words_excluded(self):
        provider = make_provider()
        assert np.allclose(compute_embedding("alpha zzz", provider),
                           provider.vector("alpha"))

    def test_all_unknown_gives_zero_vector(self):
        provider = make_provider()
        assert np.array_equal(compute_embedding("zzz qqq", provider),
                              np.zeros(provider.dim))


class TestLoadCorpus:
    def test_one_article_empty_events(self, tmp_path):
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        write_lines(arts, [article_line()])
        evts.write_text("", encoding="utf-8")
        corpus = load_corpus(arts, evts, make_provider())
        assert len(corpus.articles) == 1
        assert corpus.events == []

    def test_derived_fields_computed(self, tmp_path):
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        write_lines(arts, [article_line(body="alpha beta alpha gamma")])
        evts.write_text("", encoding="utf-8")
        corpus = load_corpus(arts, evts, make_provider())
        art = corpus.articles["a1"]
        assert art.word_count == 4
        assert art.hapax_count == 2
        assert art.dis_count == 1

    def test_duplicate_id_error_names_id(self, tmp_path):
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        write_lines(arts, [article_line(), article_line()])
        evts.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="a1"):
            load_corpus(arts, evts, make_provider())

    def test_malformed_line_carries_line_number(self, tmp_path):
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        arts.write_text(json.dumps(article_line()) + "\n{broken\n", encoding="utf-8")
        evts.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match=r":2"):
            load_corpus(arts, evts, make_provider())

    def test_event_with_unknown_article_lists_ids(self, tmp_path):
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        write_lines(arts, [article_line()])
        write_lines(evts, [
            {"user_id": "u1", "article_id": "ghost1", "at": T0, "kind": "click",
             "context": "other"},
            {"user_id": "u1", "article_id": "ghost2", "at": T0, "kind": "impression",
             "context": "other"},
        ])
        with pytest.raises(CorpusError, match="ghost1, ghost2"):
            load_corpus(arts, evts, make_provider())

    def test_iso_and_epoch_timestamps(self, tmp_path):
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        write_lines(arts, [article_line(id="a1", published_at="2024-01-01T00:00:00Z"),
                           article_line(id="a2", published_at=T0)])
        evts.write_text("", encoding="utf-8")
        corpus = load_corpus(arts, evts, make_provider())
        assert corpus.articles["a1"].published_at == corpus.articles["a2"].published_at == T0

    def test_events_sorted_and_deduplicated(self, tmp_path):
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        write_lines(arts, [article_line()])
        ev = {"user_id": "u1", "article_id": "a1", "at": T0 + 60, "kind": "click",
              "context": "other"}
        earlier = dict(ev, at=T0, kind="impression")
        write_lines(evts, [ev, ev, earlier])
        corpus = load_corpus(arts, evts, make_provider())
        assert [e.kind for e in corpus.events] == [Kind.IMPRESSION, Kind.CLICK]


    @pytest.mark.parametrize("name, line, message", [
        ("articles", "[1, 2]", "expected a JSON object"),
        ("events", "42", "expected a JSON object"),
        ("articles", json.dumps(article_line(id="a2", section=5)), "section must be a string"),
        ("articles", json.dumps(article_line(id="a2", tags=["t1", ""])),
         "article a2: empty string in tags/authors"),
        ("articles", json.dumps(article_line(id="a2", authors="au1")),
         "authors must be a list of strings"),
        ("articles", json.dumps(article_line(id="a2", published_at="noon")),
         "bad timestamp 'noon'"),
        ("events", json.dumps({**EVENT, "user_id": 7}), "user_id must be a string"),
        ("events", json.dumps({**EVENT, "kind": "view"}), "'view' is not a valid Kind"),
        ("events", json.dumps({**EVENT, "at": float("nan")}), "bad timestamp nan"),
        ("events", json.dumps({**EVENT, "at": 10 ** 400}), "int too large to convert to float"),
        ("events", json.dumps({k: v for k, v in EVENT.items() if k != "at"}),
         "missing field 'at'"),
    ], ids=["article-array", "event-number", "section", "empty-tag", "authors",
            "published-at", "user-id", "kind", "nan-at", "huge-at", "missing-at"])
    def test_bad_record_names_path_and_line(self, tmp_path, name, line, message):
        arts, evts = tmp_path / "articles.jsonl", tmp_path / "events.jsonl"
        write_lines(arts, [article_line()])
        write_lines(evts, [EVENT])
        path = arts if name == "articles" else evts
        path.write_text(path.read_text() + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as exc:
            load_corpus(arts, evts, make_provider())
        assert str(exc.value) == f"{path}:3: {message}"


# For each Article field, a value other than `make_article`'s default.
OTHER_VALUE = {
    "id": "a2", "published_at": T0 + 1.0, "section": "sport",
    "tags": frozenset({"t2"}), "authors": frozenset({"au2"}), "title": "other",
    "body": "alpha.", "word_count": 101, "sentence_count": 6, "paragraph_count": 3,
    "char_length": 501, "hapax_count": 11, "dis_count": 6,
    "embedding": np.array([1.0, 0.0, 0.0, 1e-12]),
}


class TestArticleEquality:
    def base(self):
        return make_article("a1", tags=("t1",), authors=("au1",), embedding=[1, 0, 0, 0])

    def test_equal_copies(self):
        base = self.base()
        assert replace(base, embedding=base.embedding.copy()) == base

    @pytest.mark.parametrize("name", [f.name for f in fields(Article)])
    def test_one_differing_field_unequal(self, name):
        base = self.base()
        other = replace(base, **{name: OTHER_VALUE[name]})
        assert other != base and base != other


class TestRoundTrip:
    def test_save_load_equal(self, tmp_path, tiny_world):
        _, corpus, truth = tiny_world
        arts, evts = tmp_path / "a.jsonl", tmp_path / "e.jsonl"
        save_corpus(corpus, arts, evts)
        reloaded = load_corpus(arts, evts, truth.word_vectors)
        assert reloaded == corpus

    def test_word_vectors_file_roundtrip(self, tmp_path):
        provider = make_provider()
        provider.save(tmp_path / "v.txt")
        again = WordVectors.from_file(tmp_path / "v.txt")
        assert again.dim == provider.dim
        for w in provider.words():
            assert np.array_equal(again.vector(w), provider.vector(w))


class TestGenerateWorld:
    def test_deterministic(self, tmp_path):
        cfg = SyntheticWorldConfig(seed=5, n_users=5, n_days=2, articles_per_day=4,
                                   embedding_dim=8, user_affinity_dim=4,
                                   vocab_size=100, n_tags=10, n_authors=5,
                                   n_sections=3, n_personas=2)
        c1, _ = generate_world(cfg)
        c2, _ = generate_world(cfg)
        assert c1 == c2
        # byte-identical serialization
        for corpus, name in ((c1, "1"), (c2, "2")):
            save_corpus(corpus, tmp_path / f"a{name}.jsonl", tmp_path / f"e{name}.jsonl")
        assert (tmp_path / "a1.jsonl").read_bytes() == (tmp_path / "a2.jsonl").read_bytes()
        assert (tmp_path / "e1.jsonl").read_bytes() == (tmp_path / "e2.jsonl").read_bytes()

    def test_different_seeds_differ(self):
        base = dict(n_users=5, n_days=2, articles_per_day=4, embedding_dim=8,
                    user_affinity_dim=4, vocab_size=100, n_tags=10, n_authors=5,
                    n_sections=3, n_personas=2)
        c1, _ = generate_world(SyntheticWorldConfig(seed=5, **base))
        c2, _ = generate_world(SyntheticWorldConfig(seed=6, **base))
        assert c1.events != c2.events

    def test_negative_seed_refused(self):
        # numpy's default_rng would refuse it only when the world is generated
        with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
            SyntheticWorldConfig(seed=-1)

    def test_article_counts_and_day_bounds(self):
        cfg = SyntheticWorldConfig(seed=1, n_users=2, n_days=3, articles_per_day=70,
                                   embedding_dim=8, user_affinity_dim=4,
                                   vocab_size=100, n_tags=10, n_authors=5,
                                   n_sections=3, n_personas=2,
                                   impressions_per_session=3)
        corpus, _ = generate_world(cfg)
        assert len(corpus.articles) == 210
        for art in corpus.articles.values():
            day_index = (art.published_at - cfg.start) // DAY
            assert 0 <= day_index < 3
            assert cfg.start + day_index * DAY <= art.published_at < cfg.start + (day_index + 1) * DAY

    def test_zero_noise_clicks_above_threshold(self, tiny_world):
        _, corpus, truth = tiny_world
        clicks = [e for e in corpus.events if e.kind is Kind.CLICK]
        assert clicks
        for ev in clicks:
            assert truth.click_prob(ev.user_id, ev.article_id) >= truth.click_threshold

    def test_hapax_dis_invariant(self, tiny_world):
        _, corpus, _ = tiny_world
        for art in corpus.articles.values():
            assert 0 <= art.hapax_count + 2 * art.dis_count <= art.word_count

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError, match="n_users"):
            SyntheticWorldConfig(n_users=0)
        with pytest.raises(ValueError, match="zipf"):
            SyntheticWorldConfig(zipf_exponent=0.0)
        with pytest.raises(ValueError, match="click_noise"):
            SyntheticWorldConfig(click_noise=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["zipf_exponent", "click_noise", "click_threshold",
                                       "start"])
    def test_non_finite_config_value_refused(self, field, bad):
        # a NaN click_threshold generated a world without clicks, and a NaN
        # zipf_exponent failed inside numpy without naming the field
        with pytest.raises(ValueError, match=f"{field} must be finite, not {bad!r}"):
            SyntheticWorldConfig(**{field: bad})


# each library config, with the arguments it requires
CONFIGS = {"world": (SyntheticWorldConfig, {}), "train": (TrainConfig, {}),
           "pipeline": (PipelineConfig, {"t_start": 0.0})}
INT_FIELDS = [(name, f.name) for name, (cls, _) in CONFIGS.items()
              for f in fields(cls) if f.type in ("int", "Optional[int]")]


@pytest.mark.parametrize("bad", [2.5, math.nan, True], ids=["float", "nan", "bool"])
@pytest.mark.parametrize("config, field", INT_FIELDS,
                         ids=[f"{c}.{f}" for c, f in INT_FIELDS])
def test_non_integer_config_field_refused(config, field, bad):
    # a float count used to fail inside numpy without naming the field, and
    # NaN passed every `<` check
    cls, required = CONFIGS[config]
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        cls(**required, **{field: bad})


class TestArticleCache:
    def test_embedding_norm_is_per_vector(self):
        arts = [make_article("z"), make_article("a", embedding=[3, 4, 0, 0]),
                make_article("b", embedding=[0.1, -0.7, 2.3, 1e-9])]
        for a in arts:
            assert type(a.embedding_norm) is float
            assert a.embedding_norm == float(np.linalg.norm(a.embedding))

    def test_section_set(self):
        a = make_article("a", section="s1")
        assert a.section_set == frozenset({"s1"})
        assert a.section_set is a.section_set  # made once

    @pytest.mark.parametrize("field", ["id", "section", "tags", "embedding"])
    def test_fields_cannot_be_reassigned(self, field):
        a = make_article("a", embedding=[3, 4, 0, 0])
        assert a.embedding_norm == 5.0
        with pytest.raises(FrozenInstanceError):
            setattr(a, field, getattr(make_article("b", section="s9"), field))
        assert a.embedding_norm == 5.0 and a.section_set == frozenset({"news"})


class TestInvariants:
    def test_articles_read_only(self):
        art = Article.from_content("a1", T0, "news", ["t"], ["au"], "t",
                                   "alpha beta", make_provider())
        corpus = Corpus([art], [], 4)
        with pytest.raises(TypeError):
            corpus.articles["a1"] = art
        with pytest.raises(TypeError):
            corpus.articles["a2"] = art
        with pytest.raises(TypeError):
            del corpus.articles["a1"]
        assert list(corpus.articles) == ["a1"] and corpus.articles["a1"] is art

    def test_duplicate_article_rejected_in_constructor(self):
        art = Article.from_content("a1", T0, "news", ["t"], ["au"], "t",
                                   "alpha beta", make_provider())
        with pytest.raises(CorpusError, match="a1"):
            Corpus([art, art], [], 4)

    def test_embedding_dim_checked(self):
        art = Article.from_content("a1", T0, "news", ["t"], ["au"], "t",
                                   "alpha beta", make_provider(dim=4))
        with pytest.raises(CorpusError, match="dim"):
            Corpus([art], [], 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_word_vector_rejected(self, bad):
        with pytest.raises(CorpusError, match="'beta'.*not finite"):
            WordVectors({"alpha": np.zeros(2), "beta": np.array([0.0, bad])}, 2)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_word_vector_file_names_the_line(self, tmp_path, bad):
        path = tmp_path / "v.txt"
        path.write_text(f"2 2\nalpha 0.0 1.0\nbeta 0.5 {bad}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"v.txt:3: vector for 'beta' is not finite"):
            WordVectors.from_file(path)

    def test_repeated_word_vector_names_the_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\nalpha 0.0 1.0\nbeta 0.5 0.5\nalpha 1.0 0.0\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="v.txt:4: word 'alpha' repeats"):
            WordVectors.from_file(path)

    @pytest.mark.parametrize("header", ["x 16", "2", "2 2 2", "2 0", "-1 2", ""])
    def test_bad_word_vector_header_names_line_1(self, tmp_path, header):
        path = tmp_path / "v.txt"
        path.write_text(f"{header}\nalpha 0.0 1.0\nbeta 0.5 0.5\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="v.txt:1: "):
            WordVectors.from_file(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_embedding_rejected(self, bad):
        good = Article.from_content("a1", T0, "news", ["t"], ["au"], "t",
                                    "alpha beta", make_provider())
        embedding = good.embedding.copy()
        embedding[2] = bad
        art = replace(good, embedding=embedding)
        with pytest.raises(CorpusError, match="a1: embedding is not finite"):
            art.validate(4)
        with pytest.raises(CorpusError, match="a1: embedding is not finite"):
            Corpus([art], [], 4)

    def test_embedding_is_read_only(self):
        # its norm is cached when the article is made
        art = make_article("a1", embedding=[3, 4, 0, 0])
        with pytest.raises(ValueError, match="read-only"):
            art.embedding[0] = 0.0
        assert art.embedding_norm == 5.0

    def test_events_between_half_open(self):
        provider = make_provider()
        art = Article.from_content("a1", T0, "news", ["t"], ["au"], "t",
                                   "alpha", provider)
        events = [impression("u1", "a1", T0 + i) for i in range(5)]
        corpus = Corpus([art], events, 4)
        got = corpus.events_between(T0 + 1, T0 + 3)
        assert [e.at for e in got] == [T0 + 1, T0 + 2]
