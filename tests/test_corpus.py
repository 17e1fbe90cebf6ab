"""Parsers, tokenization, vocabulary, canonical format, batching."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import documents_equal, reference_to_documents, reference_tokenize
from topicdrift import corpus
from topicdrift.corpus import (
    Document,
    RawDocument,
    TokenizerConfig,
    batch_iter,
    build_vocabulary,
    check_words,
    corpus_statistics,
    parse_bbc,
    parse_reuters,
    parse_timestamp,
    read_canonical,
    read_vocabulary,
    to_documents,
    tokenize,
    tokenize_corpus,
    write_canonical,
    write_vocabulary,
)
from topicdrift.errors import (
    ConfigurationError,
    CorpusParseError,
    ParameterError,
    TimestampParseError,
)
from topicdrift.stopwords import STOPWORDS
from topicdrift.synthetic import uniform_stream

FIXTURES = Path(__file__).parent / "fixtures"

# frozen from an independent calendar.timegm oracle
REUTERS_EPOCH = 541350061.79
BBC_EPOCH = 1281369113.0


def load_reuters():
    return parse_reuters((FIXTURES / "sample_reuters.sgm").read_bytes())


def load_bbc():
    with open(FIXTURES / "sample_bbc.txt", encoding="utf-8") as f:
        return parse_bbc(f)


class TestReutersParser:
    def test_three_records_in_file_order(self):
        result = load_reuters()
        assert len(result.documents) == 3
        assert [d.id for d in result.documents] == ["1", "2", "5"]
        assert result.skipped == 0

    def test_date_text_preserved_verbatim(self):
        assert load_reuters().documents[0].timestamp_text == "26-FEB-1987 15:01:01.79"

    def test_entities_decoded(self):
        docs = load_reuters().documents
        assert "&amp;" not in docs[0].body and "&" in docs[0].body
        assert docs[1].title == "STANDARD OIL <SRD> TO FORM FINANCIAL UNIT"

    def test_empty_body_skipped_and_counted(self):
        text = (
            '<REUTERS NEWID="1"><DATE>26-FEB-1987 15:01:01.79</DATE>'
            "<TEXT><BODY>real content here</BODY></TEXT></REUTERS>"
            '<REUTERS NEWID="2"><DATE>26-FEB-1987 15:02:00.00</DATE>'
            "<TEXT><BODY>   </BODY></TEXT></REUTERS>"
            '<REUTERS NEWID="3"><TEXT><BODY>no date on this one</BODY></TEXT></REUTERS>'
        )
        result = parse_reuters(text.encode("latin-1"))
        assert len(result.documents) == 1
        assert result.skipped == 2
        assert len(result.documents) + result.skipped == 3

    def test_unclosed_record_raises_with_offset(self):
        text = '<REUTERS NEWID="1"><DATE>26-FEB-1987 15:01:01.79</DATE><BODY>x</BODY>'
        with pytest.raises(CorpusParseError) as err:
            parse_reuters(text.encode("latin-1"))
        assert err.value.offset == 0


class TestBbcParser:
    def test_dates_and_order(self):
        result = load_bbc()
        assert len(result.documents) == 3
        assert result.documents[0].timestamp_text == "2010/08/09 15:51:53"

    def test_related_collected_in_order(self):
        docs = load_bbc().documents
        assert len(docs[0].related_ids) == 1
        assert docs[1].related_ids == (
            "http://www.bbc.co.uk/news/world-europe-10916011",
            "http://www.bbc.co.uk/news/world-europe-10912658",
        )
        assert docs[2].related_ids == ()

    def test_missing_id_or_date_skipped(self):
        lines = [
            "id1\t2010/08/09 15:51:53\ttitle\tbody",
            "\t2010/08/09 15:51:53\ttitle\tbody",
            "id3\t\ttitle\tbody",
            "id4",
        ]
        result = parse_bbc(lines)
        assert len(result.documents) == 1
        assert result.skipped == 3


class TestTimestamps:
    def test_newswire_format_matches_calendar_oracle(self):
        assert parse_timestamp("26-FEB-1987 15:01:01.79", "reuters") == REUTERS_EPOCH

    def test_line_record_format_matches_calendar_oracle(self):
        assert parse_timestamp("2010/08/09 15:51:53", "bbc") == BBC_EPOCH

    def test_deterministic(self):
        text = "26-FEB-1987 15:01:01.79"
        assert parse_timestamp(text, "reuters") == parse_timestamp(text, "reuters")

    def test_unparseable_names_the_text(self):
        with pytest.raises(TimestampParseError) as err:
            parse_timestamp("yesterday at noon", "reuters")
        assert "yesterday at noon" in str(err.value)


class TestTokenize:
    def test_stopwords_and_aggregation(self):
        counts = tokenize("Showers continued throughout the week")
        assert counts == {"showers": 1, "continued": 1, "week": 1}

    def test_empty_text(self):
        assert tokenize("") == {}

    def test_case_folding(self):
        assert tokenize("Aa aa AA") == {"aa": 3}

    def test_idempotent_on_own_output(self):
        counts = tokenize("Prices rallied as traders weighed crop reports, crop futures!")
        again = tokenize(" ".join(counts))
        assert set(again) == set(counts)

    def test_min_length_filter(self):
        cfg = TokenizerConfig(min_token_length=5)
        assert tokenize("tiny word lengthy tokens", cfg) == {"lengthy": 1, "tokens": 1}

    @settings(derandomize=True, deadline=None)
    @given(
        words=st.lists(st.one_of(st.sampled_from(sorted(STOPWORDS)[:30] + ["Crop", "crop", "x1", "2010", "I"]),
                                 st.text(max_size=12)), max_size=30),
        min_length=st.integers(1, 5),
    )
    def test_filtering_after_counting_matches_filtering_each_token(self, words, min_length):
        text = " ".join(words)
        new = tokenize(text, TokenizerConfig(min_token_length=min_length))
        assert list(new.items()) == list(reference_tokenize(text, min_length).items())  # key order too


def raw(body, doc_id="d1", ts="2010/08/09 15:51:53", title=""):
    return RawDocument(id=doc_id, timestamp_text=ts, title=title, body=body)


def vocabulary(docs, min_doc_freq):
    return build_vocabulary(tokenize_corpus(docs), min_doc_freq=min_doc_freq)


def normalize(docs, min_doc_freq=1, format_hint="bbc"):
    """The vocabulary and documents of one tokenizing pass over raw records; ``raw()`` stamps are "bbc"."""
    tokenized = tokenize_corpus(docs)
    vocab = build_vocabulary(tokenized, min_doc_freq=min_doc_freq)
    return vocab, to_documents(tokenized, vocab, format_hint=format_hint)


class TestVocabulary:
    def test_union_at_min_freq_one(self):
        docs = [raw("alpha bravo"), raw("charlie delta", "d2")]
        vocab = vocabulary(docs, min_doc_freq=1)
        assert set(vocab.index_to_term) == {"alpha", "bravo", "charlie", "delta"}

    def test_shared_terms_only_at_min_freq_two(self):
        docs = [raw("alpha bravo"), raw("alpha charlie", "d2")]
        vocab = vocabulary(docs, min_doc_freq=2)
        assert vocab.index_to_term == ["alpha"]

    def test_empty_vocabulary_is_config_error(self):
        with pytest.raises(ConfigurationError):
            vocabulary([raw("alpha"), raw("bravo", "d2")], min_doc_freq=2)

    @pytest.mark.parametrize("min_doc_freq", [0, -4])
    def test_min_doc_freq_below_one_is_config_error(self, min_doc_freq):
        with pytest.raises(ConfigurationError, match=f"min_doc_freq must be >= 1, got {min_doc_freq}"):
            vocabulary([raw("alpha"), raw("bravo", "d2")], min_doc_freq=min_doc_freq)

    def test_mean_unique_terms_matches_recount(self):
        rng = random.Random(0)
        terms = [f"term{i}" for i in range(30)]
        docs = [
            raw(" ".join(rng.choices(terms, k=rng.randint(5, 25))), f"d{i}")
            for i in range(100)
        ]
        vocab, out = normalize(docs)
        stats = corpus_statistics(out, vocab, len(docs))
        recount = [len({t for t in tokenize(d.body) if t in vocab.term_to_index}) for d in docs]
        assert stats["mean_unique_terms"] == pytest.approx(sum(recount) / 100, abs=1e-12)
        assert stats["vocabulary_size"] == vocab.size


class TestToDocuments:
    def test_stopword_only_document_dropped(self):
        docs = [raw("the and of"), raw("alpha bravo alpha", "d2")]
        _, out = normalize(docs)
        assert [d.id for d in out] == ["d2"]
        assert out[0].counts.sum() == 3

    def test_equal_timestamps_break_ties_by_id(self):
        docs = [raw("alpha", "zz"), raw("alpha", "aa")]
        _, out = normalize(docs)
        assert [d.id for d in out] == ["aa", "zz"]

    def test_shuffled_input_sorted_by_timestamp(self):
        rng = random.Random(1)
        stamps = [f"2010/08/{d:02d} 0{h}:00:00" for d in range(1, 11) for h in range(3)]
        docs = [raw("alpha", f"d{i}", ts) for i, ts in enumerate(stamps)]
        rng.shuffle(docs)
        _, out = normalize(docs)
        oracle = sorted((d.timestamp, d.id) for d in out)
        assert [(d.timestamp, d.id) for d in out] == oracle

    def test_oov_tokens_dropped(self):
        docs = [raw("alpha bravo"), raw("alpha zulu", "d2")]
        vocab, out = normalize(docs, min_doc_freq=2)  # only alpha survives
        assert all(d.words.tolist() == [vocab.term_to_index["alpha"]] for d in out)

    def test_dropped_record_with_a_bad_timestamp_is_rejected(self):
        docs = [raw("alpha"), raw("alpha", "d2"), raw("zulu", "d3", ts="yesterday")]
        with pytest.raises(TimestampParseError):
            normalize(docs, min_doc_freq=2)

    def test_each_distinct_timestamp_text_is_parsed_once(self, monkeypatch):
        texts = []
        parse = corpus.parse_timestamp
        monkeypatch.setattr(corpus, "parse_timestamp", lambda text, hint: texts.append(text) or parse(text, hint))
        stamps = ["2010/08/09 00:00:00", "2010/08/10 00:00:00"]
        _, out = normalize([raw("alpha", f"d{i}", stamps[i % 2]) for i in range(6)])
        assert sorted(texts) == stamps
        assert [d.timestamp for d in out] == [parse(stamps[0], "bbc")] * 3 + [parse(stamps[1], "bbc")] * 3

    def test_each_record_keeps_its_own_title(self):
        docs = [raw("alpha", "a1", title="First"), raw("alpha", "a1", "2010/08/10 00:00:00", "Second")]
        assert [d.title for d in normalize(docs)[1]] == ["First", "Second"]

    def test_matches_the_per_record_build(self):
        """Each document's words, ascending np.intp, and float counts are those of a per-record dict build."""
        rng = random.Random(2)
        terms = [f"term{i}" for i in range(40)]
        records = [raw(" ".join(rng.choices(terms, k=rng.randint(1, 30))), f"d{i}") for i in range(200)]
        records += load_bbc().documents
        vocab, out = normalize(records, min_doc_freq=3)
        want = reference_to_documents(records, vocab, 2, "bbc")
        assert len(out) == len(want) and vocab.size < 45
        assert all(d.words.dtype == np.intp and d.counts.dtype == np.float64 for d in out)
        assert all((np.diff(d.words) > 0).all() for d in out)
        for got, ref in zip(out, want):
            assert (got.id, got.timestamp, got.related) == (ref.id, ref.timestamp, ref.related)
            assert got.words.tolist() == ref.words.tolist() and got.counts.tolist() == ref.counts.tolist()

    def test_bags_are_released_once_normalized(self):
        tokenized = tokenize_corpus([raw("alpha bravo"), raw("the", "d2")])
        assert tokenized.terms == ["alpha", "bravo"]
        assert tokenized.bags == [{0: 1, 1: 1}, {}]
        to_documents(tokenized, build_vocabulary(tokenized, min_doc_freq=1), "bbc")
        assert tokenized.bags == [None, None]


def check_words_oracle(docs, vocab_size):
    """The id of the first document that ``check_words`` must reject, one document at a time, or None."""
    for doc in docs:
        words = doc.words.tolist()
        if (not words or doc.counts.shape != doc.words.shape or words != sorted(set(words))
                or words[0] < 0 or words[-1] >= vocab_size):
            return doc.id
    return None


class TestCheckWords:
    @pytest.mark.parametrize("words, counts, shown", [
        ([3, 3], [1.0, 1.0], r"\[3 3\] with 2 counts"),
        ([5, 2], [1.0, 1.0], r"\[5 2\] with 2 counts"),
        ([1, 2], [1.0], r"\[1 2\] with 1 counts"),
        ([-1, 2], [1.0, 1.0], r"\[-1  2\] with 2 counts"),
        ([4, 10], [1.0, 1.0], r"\[ 4 10\] with 2 counts"),
        ([], [], None),
    ])
    def test_first_failing_document_is_named(self, words, counts, shown):
        docs = [Document.from_counts("a", 0.0, {7: 1, 9: 2}), Document("b", 0.0, np.array(words, np.intp),
                np.array(counts)), Document("c", 0.0, np.array([3, 3]), np.ones(2))]
        message = (r"needs words in \[0, 10\), strictly ascending, with one count each, not " + shown if shown
                   else r"has no words; it needs words in \[0, 10\)")
        with pytest.raises(ParameterError, match=f"^document 'b' {message}$"):
            check_words(docs, 10)

    def test_a_document_may_start_below_the_last_word_of_the_one_before(self):
        check_words([Document.from_counts("a", 0.0, {8: 1, 9: 1}), Document.from_counts("b", 0.0, {0: 1})], 10)
        check_words([], 10)

    def test_matches_a_per_document_check(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            docs = []
            for i in range(int(rng.integers(1, 6))):
                words = np.sort(rng.choice(12, int(rng.integers(0, 5)), replace=False)) - int(rng.integers(0, 2))
                counts = np.ones(words.size + int(rng.random() < 0.05))
                if words.size > 1 and rng.random() < 0.1:
                    words[1] = words[0]  # a repeated word
                docs.append(Document(f"d{i}", 0.0, words.astype(np.intp), counts))
            want = check_words_oracle(docs, 10)
            if want is None:
                check_words(docs, 10)
            else:
                with pytest.raises(ParameterError, match=f"document '{want}'"):
                    check_words(docs, 10)


class TestBatchIter:
    def test_sizes(self):
        docs = list(range(10))
        assert [len(b) for b in batch_iter(docs, 4)] == [4, 4, 2]

    def test_single_batch_when_large(self):
        docs = list(range(5))
        assert [len(b) for b in batch_iter(docs, 99)] == [5]

    def test_concatenation_round_trip(self):
        docs = list(range(23))
        flat = [x for b in batch_iter(docs, 7) for x in b]
        assert flat == docs

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            list(batch_iter([1], 0))


class TestCanonicalFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        docs = [
            Document.from_counts("1", REUTERS_EPOCH, {0: 2, 7: 1}, related=("5",)),
            Document.from_counts("5", BBC_EPOCH, {3: 4}),
            Document.from_counts("x", 1281369113.25, {1: 1, 2: 2, 3: 3}),
        ]
        path = tmp_path / "corpus.jsonl"
        write_canonical(docs, path)
        loaded = read_canonical(path)
        assert documents_equal(loaded, docs)

    def test_full_pipeline_round_trip(self, tmp_path):
        _, docs = normalize(load_reuters().documents, format_hint="reuters")
        assert docs[0].timestamp == REUTERS_EPOCH
        path = tmp_path / "corpus.jsonl"
        write_canonical(docs, path)
        assert documents_equal(read_canonical(path), docs)

    def test_keys_that_sort_apart_as_strings_read_back_ascending(self, tmp_path):
        """"2" < "10" < "100" as integers but not as strings: the words are ascending integers, and
        writing them back gives the file's bytes, whose keys JSON sorts as strings."""
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"body_counts": {"10": 2, "100": 1, "2": 3}, "id": "a", "related": [], "title": "",'
                        ' "ts": 1.0}\n', encoding="utf-8")
        (doc,) = read_canonical(path)
        assert doc.words.tolist() == [2, 10, 100] and doc.counts.tolist() == [3.0, 2.0, 1.0]
        assert doc.words.dtype == np.intp and doc.counts.dtype == np.float64
        again = tmp_path / "again.jsonl"
        write_canonical([doc], again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_corpus_holds_under_1600_bytes_per_document(self, tmp_path):
        """Traced memory of the documents ``read_canonical`` returns, 30-60 tokens
        and about 45 distinct words each.  Measured: 1,250 B per document; the
        former {word: count} dicts held 3,208 B."""
        path = tmp_path / "corpus.jsonl"
        write_canonical(uniform_stream(512, 8000, seed=0), path)
        tracemalloc.start()
        try:
            docs = read_canonical(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(docs) == 512 and held / len(docs) < 1600

    def test_vocabulary_file_round_trip(self, tmp_path):
        vocab = vocabulary(load_bbc().documents, min_doc_freq=1)
        path = tmp_path / "vocab.txt"
        write_vocabulary(vocab, path)
        loaded = read_vocabulary(path)
        assert loaded.index_to_term == vocab.index_to_term
        assert loaded.term_to_index == vocab.term_to_index
