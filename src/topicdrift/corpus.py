"""Corpus ingestion: newswire parsers, tokenization, vocabulary, batching.

Two input layouts are supported:

* SGML-style newswire files: records wrapped in ``<REUTERS ...>`` /
  ``</REUTERS>`` with ``<DATE>``, ``<TITLE>`` and ``<BODY>`` elements;
  timestamps look like ``26-FEB-1987 15:01:01.79``.
* Line-record news files: one story per line, tab-separated positional
  fields ``ID  Date  Title  Body  [Related ...]``; timestamps look like
  ``2010/08/09 15:51:53``.

Normalized documents are timestamped sparse bags of words over a fixed
vocabulary, written to a line-delimited JSON canonical format that
round-trips bit-exactly.
"""

import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, count

import numpy as np

from .errors import (
    ConfigurationError,
    CorpusParseError,
    ParameterError,
    TimestampParseError,
)
from .stopwords import STOPWORDS


@dataclass(frozen=True)
class RawDocument:
    id: str
    timestamp_text: str
    title: str
    body: str
    related_ids: tuple = ()


@dataclass(frozen=True)
class Document:
    """Timestamped sparse bag of words over vocabulary indices."""

    id: str
    timestamp: float
    counts: dict  # word index -> count
    related: tuple = ()
    title: str = ""


@dataclass
class Vocabulary:
    term_to_index: dict
    index_to_term: list

    @property
    def size(self):
        return len(self.index_to_term)


@dataclass(frozen=True)
class TokenizerConfig:
    min_token_length: int = 2

    def __post_init__(self):
        if self.min_token_length < 1:
            raise ConfigurationError("min_token_length must be >= 1")


@dataclass
class ParseResult:
    documents: list
    skipped: int = 0


_REUTERS_OPEN = re.compile(r"<REUTERS\b[^>]*>")
_NEWID = re.compile(r'NEWID="([^"]*)"')
_TOKEN = re.compile(r"[a-z0-9]+")

_REUTERS_TS = re.compile(
    r"\s*(\d{1,2})-([A-Za-z]{3})-(\d{4})\s+(\d{1,2}):(\d{2}):(\d{2})(\.\d+)?\s*$"
)
_BBC_TS = re.compile(r"\s*(\d{4})/(\d{1,2})/(\d{1,2})\s+(\d{1,2}):(\d{2}):(\d{2})\s*$")

_MONTHS = {
    "JAN": 1, "FEB": 2, "MAR": 3, "APR": 4, "MAY": 5, "JUN": 6,
    "JUL": 7, "AUG": 8, "SEP": 9, "OCT": 10, "NOV": 11, "DEC": 12,
}


def _decode_entities(text):
    # &amp; last so it never re-expands
    return text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def _element(record, name):
    start = record.find(f"<{name}>")
    if start < 0:
        return None
    end = record.find(f"</{name}>", start)
    if end < 0:
        return None
    return record[start + len(name) + 2 : end]


def parse_reuters(sgml_bytes):
    """Parse SGML newswire records; keeps only Date, Title and Body.

    Records missing a date or carrying an empty body are counted as
    skipped.  An opening record tag without its closing tag raises
    ``CorpusParseError`` with the byte offset of the offending tag.
    """
    text = sgml_bytes.decode("latin-1") if isinstance(sgml_bytes, (bytes, bytearray)) else sgml_bytes
    docs = []
    skipped = 0
    opens = list(_REUTERS_OPEN.finditer(text))
    for i, open_match in enumerate(opens):
        limit = opens[i + 1].start() if i + 1 < len(opens) else len(text)
        close = text.find("</REUTERS>", open_match.end(), limit)
        if close < 0:
            raise CorpusParseError(
                f"record opened at byte {open_match.start()} never closes",
                offset=open_match.start(),
            )
        record = text[open_match.end() : close]
        date = _element(record, "DATE")
        body = _element(record, "BODY")
        if date is None or body is None or not body.strip():
            skipped += 1
            continue
        title = _element(record, "TITLE") or ""
        newid = _NEWID.search(open_match.group(0))
        doc_id = newid.group(1) if newid else str(len(docs) + skipped + 1)
        docs.append(
            RawDocument(
                id=doc_id,
                timestamp_text=date.strip(),
                title=_decode_entities(title.strip()),
                body=_decode_entities(body.strip()),
            )
        )
    return ParseResult(docs, skipped)


def parse_bbc(record_lines):
    """Parse line records: ID, Date, Title, Body, then zero or more Related ids.

    Lines missing ID or Date are counted as skipped; blank lines are
    ignored entirely.
    """
    docs = []
    skipped = 0
    for line in record_lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) < 2 or not fields[0].strip() or not fields[1].strip():
            skipped += 1
            continue
        doc_id = fields[0].strip()
        date = fields[1].strip()
        title = fields[2] if len(fields) > 2 else ""
        body = fields[3] if len(fields) > 3 else ""
        related = tuple(f.strip() for f in fields[4:] if f.strip())
        docs.append(RawDocument(doc_id, date, title, body, related))
    return ParseResult(docs, skipped)


def parse_timestamp(text, format_hint):
    """UTC epoch seconds (fraction retained) for a hinted timestamp format."""
    if format_hint == "reuters":
        m = _REUTERS_TS.match(text)
        if not m:
            raise TimestampParseError(f"not a newswire timestamp: {text!r}")
        day, mon, year, hh, mm, ss, frac = m.groups()
        month = _MONTHS.get(mon.upper())
        if month is None:
            raise TimestampParseError(f"unknown month in {text!r}")
        dt = datetime(int(year), month, int(day), int(hh), int(mm), int(ss), tzinfo=timezone.utc)
        return dt.timestamp() + (float(frac) if frac else 0.0)
    if format_hint == "bbc":
        m = _BBC_TS.match(text)
        if not m:
            raise TimestampParseError(f"not a line-record timestamp: {text!r}")
        year, month, day, hh, mm, ss = (int(g) for g in m.groups())
        return datetime(year, month, day, hh, mm, ss, tzinfo=timezone.utc).timestamp()
    raise TimestampParseError(f"unknown format hint {format_hint!r}")


def tokenize(body, cfg=TokenizerConfig()):
    """Bag-of-words counts of the lowercased ``[a-z0-9]+`` tokens that are long enough and not stopwords.

    Tokens are counted before they are filtered, so the filter runs once
    per distinct token; the keys keep their order of first appearance.
    """
    n = cfg.min_token_length
    counts = Counter(_TOKEN.findall(body.lower()))
    return {t: c for t, c in counts.items() if len(t) >= n and t not in STOPWORDS}


@dataclass
class TokenizedCorpus:
    """Parsed records, each tokenized once into a bag over one term table that all bags share."""

    records: list  # RawDocument
    terms: list  # term id -> term, in order of first appearance
    bags: list  # per record {term id: count}; to_documents releases each one


def tokenize_corpus(records, cfg=TokenizerConfig()):
    """The one tokenizing pass of ingest; the vocabulary, documents and statistics derive from it."""
    term_ids = defaultdict(count().__next__)  # a term seen for the first time gets the next id
    bags = [{term_ids[t]: c for t, c in tokenize(record.body, cfg).items()} for record in records]
    return TokenizedCorpus(records, list(term_ids), bags)


def build_vocabulary(tokenized, min_doc_freq):
    """Dense term indices, in term order, for all terms reaching the document-frequency floor."""
    if min_doc_freq < 1:
        raise ConfigurationError(f"min_doc_freq must be >= 1, got {min_doc_freq}")
    if not tokenized.records:
        raise ParameterError("docs must be nonempty")
    df = Counter(chain.from_iterable(tokenized.bags))
    kept = sorted(tokenized.terms[t] for t, f in df.items() if f >= min_doc_freq)
    if not kept:
        raise ConfigurationError(
            f"no term reaches document frequency {min_doc_freq}; lower min_doc_freq"
        )
    return Vocabulary(
        term_to_index={t: i for i, t in enumerate(kept)},
        index_to_term=kept,
    )


def to_documents(tokenized, vocab, format_hint):
    """Normalize tokenized records onto the vocabulary, sorted by (timestamp, id).

    Every timestamp is parsed in ``format_hint``'s format, "reuters" or
    "bbc".  Out-of-vocabulary terms are dropped; records left with no
    in-vocabulary terms are excluded, but their timestamps are still
    checked.  Each distinct timestamp text is parsed once.  Each bag is
    released as soon as its document is built, so ``tokenized`` can be
    normalized only once.
    """
    index = [vocab.term_to_index.get(t) for t in tokenized.terms]
    bags = tokenized.bags
    stamps = {}
    out = []
    for i, record in enumerate(tokenized.records):
        text = record.timestamp_text
        ts = stamps.get(text)
        if ts is None:
            ts = stamps[text] = parse_timestamp(text, format_hint)
        counts = {index[t]: c for t, c in bags[i].items() if index[t] is not None}
        bags[i] = None
        if counts:
            out.append(Document(record.id, ts, counts, tuple(record.related_ids), record.title))
    out.sort(key=lambda d: (d.timestamp, d.id))
    return out


def corpus_statistics(docs, vocab, n_records):
    """Summary statistics of the normalized documents of ``n_records`` parsed records.

    ``mean_unique_terms`` averages over every parsed record: one that
    ``to_documents`` dropped counts as 0 terms.
    """
    return {
        "vocabulary_size": vocab.size,
        "mean_unique_terms": sum(len(d.counts) for d in docs) / n_records if n_records else 0.0,
    }


def doc_words(doc):
    """The document's distinct word indices, ascending, and their counts as floats."""
    words = sorted(doc.counts)
    n = np.array([doc.counts[w] for w in words], dtype=float)
    return words, n


def check_words(docs, vocab_size):
    """Every document needs at least one word, and every word index must lie in [0, vocab_size)."""
    for doc in docs:
        if not doc.counts:
            raise ParameterError(f"document {doc.id!r} has no words; it needs words in [0, {vocab_size})")
        for w in (min(doc.counts), max(doc.counts)):
            if not 0 <= w < vocab_size:
                raise ParameterError(f"document {doc.id!r} needs words in [0, {vocab_size}), not {w}")


def vocab_words(docs, vocab_size):
    """``doc_words`` of each document, after ``check_words``."""
    check_words(docs, vocab_size)
    return [doc_words(doc) for doc in docs]


def batch_iter(docs, batch_size):
    """Consecutive, order-preserving batches; the last one may be short."""
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    for start in range(0, len(docs), batch_size):
        yield docs[start : start + batch_size]


def write_canonical(docs, path):
    """Write documents as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            record = {
                "id": doc.id,
                "ts": doc.timestamp,
                "title": doc.title,
                "body_counts": {str(k): v for k, v in doc.counts.items()},  # sort_keys orders them
                "related": list(doc.related),
            }
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_canonical(path):
    """The documents of a canonical corpus file, in file order.

    Every non-blank line must be an object with a string ``id``, a finite
    number ``ts`` and ``body_counts`` mapping integer keys to positive
    integer counts, and, where present, a list of strings ``related`` and
    a string ``title``; any other line raises CorpusParseError naming it.
    """
    docs = []
    with open(path, "r", encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                ts = record["ts"]
                counts = {int(k): v for k, v in record["body_counts"].items()}
                related, title = record.get("related", []), record.get("title", "")
                if (type(record["id"]) is not str or type(ts) not in (int, float) or not math.isfinite(ts)
                        or not all(type(v) is int and v > 0 for v in counts.values())
                        or type(related) is not list or not all(type(r) is str for r in related)
                        or type(title) is not str):
                    raise ValueError
                docs.append(Document(record["id"], float(ts), counts, tuple(related), title))
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
                raise CorpusParseError(
                    f"{path} line {number} is not a document: it needs a string id, a finite number ts"
                    " and body_counts mapping integer keys to positive integer counts; related, if present,"
                    " must be a list of strings and title a string"
                ) from None
    return docs


def write_vocabulary(vocab, path):
    """One term per line; the line number is the term index."""
    with open(path, "w", encoding="utf-8") as f:
        for term in vocab.index_to_term:
            f.write(term + "\n")


def read_vocabulary(path):
    with open(path, "r", encoding="utf-8") as f:
        terms = [line.rstrip("\n") for line in f if line.strip()]
    return Vocabulary(
        term_to_index={t: i for i, t in enumerate(terms)},
        index_to_term=terms,
    )
