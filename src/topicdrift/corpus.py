"""Corpus ingestion: newswire parsers, tokenization, vocabulary, batching.

Two input layouts are supported:

* SGML-style newswire files: records wrapped in ``<REUTERS ...>`` /
  ``</REUTERS>`` with ``<DATE>``, ``<TITLE>`` and ``<BODY>`` elements;
  timestamps look like ``26-FEB-1987 15:01:01.79``.
* Line-record news files: one story per line, tab-separated positional
  fields ``ID  Date  Title  Body  [Related ...]``; timestamps look like
  ``2010/08/09 15:51:53``.

Normalized documents are timestamped sparse bags of words over a fixed
vocabulary, held as arrays of ascending word indices and their counts,
which only this module builds; they are written to a line-delimited JSON
canonical format that round-trips bit-exactly.

Tokenizing, normalizing, writing and reading all work a chunk of
``CHUNK_SIZE`` records, documents or lines at a time: each chunk's
arrays are built with a few vectorized calls, so the per-record Python
work is one regex scan, one JSON line and one decode, and the memory
beyond the documents themselves is one chunk's, at any corpus size.
"""

import json
import math
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice

import numpy as np

from .errors import (
    ConfigurationError,
    CorpusParseError,
    ParameterError,
    TimestampParseError,
)
from .stopwords import STOPWORDS

CHUNK_SIZE = 64  # records, documents or lines handled together by each pass below


@dataclass(frozen=True)
class RawDocument:
    id: str
    timestamp_text: str
    title: str
    body: str
    related_ids: tuple = ()


@dataclass(frozen=True, slots=True)
class Document:
    """Timestamped bag of words: its distinct vocabulary indices ``words``, ascending, and their ``counts``."""

    id: str
    timestamp: float
    words: np.ndarray  # (M,) np.intp
    counts: np.ndarray  # (M,) float64
    related: tuple = ()
    title: str = ""

    @classmethod
    def from_counts(cls, id, timestamp, counts, related=(), title=""):
        """The document of a {word index: count} mapping."""
        words = np.array(sorted(counts), np.intp)
        return cls(id, timestamp, words, np.array([counts[w] for w in words.tolist()], float), tuple(related), title)


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


class _TermIds(dict):
    """token -> term id, filled on first lookup: a token the tokenizer keeps gets the next id, any other -1."""

    def __init__(self, cfg):
        super().__init__()
        self.min_length = cfg.min_token_length
        self.terms = []  # term id -> term

    def __missing__(self, token):
        kept = len(token) >= self.min_length and token not in STOPWORDS
        term_id = self[token] = len(self.terms) if kept else -1
        if kept:
            self.terms.append(token)
        return term_id


@dataclass
class TokenizedCorpus:
    """Parsed records, tokenized once over one term table, as one (sizes, terms, counts) triple per chunk.

    Chunk ``i`` covers the ``sizes.size`` records after those of the
    chunks before it: record ``r`` of the chunk has ``sizes[r]`` distinct
    kept terms, which are its run of ``terms`` (ascending term ids) and
    ``counts`` (occurrences in its body).  ``to_documents`` releases each
    chunk once it has built that chunk's documents.
    """

    records: list  # RawDocument
    terms: list  # term id -> term, in order of first appearance
    chunks: list  # (sizes, terms, counts) np.int32 arrays per chunk, or None once released


def tokenize_corpus(records, cfg=TokenizerConfig()):
    """The one tokenizing pass of ingest; the vocabulary, documents and statistics derive from it.

    Each body is lowercased and its maximal ``[a-z0-9]+`` runs are its
    tokens; those shorter than ``cfg.min_token_length`` and stopwords are
    dropped.  The keep rule runs once per distinct token of the corpus,
    and one ``np.unique`` per chunk counts each (record, term) pair.
    """
    term_ids, sizes, chunks = _TermIds(cfg), [], []

    def token_ids(record):  # its token strings are freed before the next record's are made
        tokens = _TOKEN.findall(record.body.lower())
        sizes.append(len(tokens))
        return map(term_ids.__getitem__, tokens)

    for start in range(0, len(records), CHUNK_SIZE):
        sizes.clear()
        ids = np.fromiter(chain.from_iterable(map(token_ids, records[start : start + CHUNK_SIZE])), np.intp)
        kept = ids >= 0
        width = max(len(term_ids.terms), 1)
        pairs, counts = np.unique(np.repeat(np.arange(len(sizes)), sizes)[kept] * width + ids[kept],
                                  return_counts=True)  # record * width + term, ascending
        record, terms = np.divmod(pairs, width)
        chunks.append((np.bincount(record, minlength=len(sizes)).astype(np.int32), terms.astype(np.int32),
                       counts.astype(np.int32)))
    return TokenizedCorpus(records, term_ids.terms, chunks)


def build_vocabulary(tokenized, min_doc_freq):
    """Dense term indices, in term order, for all terms reaching the document-frequency floor."""
    if min_doc_freq < 1:
        raise ConfigurationError(f"min_doc_freq must be >= 1, got {min_doc_freq}")
    if not tokenized.records:
        raise ParameterError("docs must be nonempty")
    df = np.zeros(len(tokenized.terms), np.intp)
    for _, terms, _ in tokenized.chunks:
        df += np.bincount(terms, minlength=df.size)
    kept = sorted(tokenized.terms[t] for t in np.flatnonzero(df >= min_doc_freq).tolist())
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
    checked.  Each distinct timestamp text is parsed once.  Each chunk's
    arrays are built in one pass and the chunk released, so ``tokenized``
    can be normalized only once; each document holds slices of its
    chunk's arrays.
    """
    index = np.array([vocab.term_to_index.get(t, -1) for t in tokenized.terms], dtype=np.intp)
    stamps, out, start = {}, [], 0
    for i, (sizes, terms, counts) in enumerate(tokenized.chunks):
        tokenized.chunks[i] = None
        words = index[terms]
        owner = np.repeat(np.arange(sizes.size), sizes)
        kept = np.flatnonzero(words >= 0)
        kept = kept[np.argsort(owner[kept] * vocab.size + words[kept])]  # by record, then word
        words, counts = words[kept], counts[kept].astype(float)
        bounds = np.searchsorted(owner[kept], np.arange(sizes.size + 1)).tolist()
        for record, lo, hi in zip(tokenized.records[start : start + sizes.size], bounds, bounds[1:]):
            text = record.timestamp_text
            ts = stamps.get(text)
            if ts is None:
                ts = stamps[text] = parse_timestamp(text, format_hint)
            if lo < hi:
                out.append(Document(record.id, ts, words[lo:hi], counts[lo:hi], tuple(record.related_ids),
                                    record.title))
        start += sizes.size
    out.sort(key=lambda d: (d.timestamp, d.id))
    return out


def corpus_statistics(docs, vocab, n_records):
    """Summary statistics of the normalized documents of ``n_records`` parsed records.

    ``mean_unique_terms`` averages over every parsed record: one that
    ``to_documents`` dropped counts as 0 terms.
    """
    return {
        "vocabulary_size": vocab.size,
        "mean_unique_terms": sum(d.words.size for d in docs) / n_records if n_records else 0.0,
    }


def check_words(docs, vocab_size):
    """Every document needs words, strictly ascending in [0, vocab_size), and one count per word.

    All the documents are checked in one vectorized pass; the first that fails raises ParameterError.
    """
    sizes = np.array([doc.words.size for doc in docs], dtype=np.intp)
    words = np.concatenate([np.empty(0, np.intp), *(doc.words for doc in docs)])
    owner = np.repeat(np.arange(sizes.size), sizes)
    bad = (words < 0) | (words >= vocab_size)
    bad[1:] |= (words[1:] <= words[:-1]) & (owner[1:] == owner[:-1])  # not above the word before it
    failed = (sizes == 0) | np.array([doc.counts.shape != doc.words.shape for doc in docs], dtype=bool)
    failed[owner[bad]] = True
    if failed.any():
        doc = docs[int(failed.argmax())]
        if not doc.words.size:
            raise ParameterError(f"document {doc.id!r} has no words; it needs words in [0, {vocab_size})")
        raise ParameterError(f"document {doc.id!r} needs words in [0, {vocab_size}), strictly ascending, with one"
                             f" count each, not {doc.words} with {doc.counts.size} counts")


def batch_iter(docs, batch_size):
    """Consecutive, order-preserving batches; the last one may be short."""
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    for start in range(0, len(docs), batch_size):
        yield docs[start : start + batch_size]


_string = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it


def write_canonical(docs, path):
    """Write documents as line-delimited JSON records with sorted keys, a chunk of documents at a time.

    A document that would not read back as itself raises ParameterError
    naming it: one whose ``ts`` is not finite, whose counts are not one
    per word, or whose ``body_counts`` would hold a count that is not an
    integer in [1, 2**53] or a word index given twice.  A document with
    no words, or with word indices that ``check_words`` rejects, is
    written as it is, since ``read_canonical`` accepts it.
    """
    docs = iter(docs)
    with open(path, "w", encoding="utf-8") as f:
        while chunk := list(islice(docs, CHUNK_SIZE)):
            f.writelines(_canonical_lines(chunk))


def _canonical_lines(docs):
    """The line ``json.dumps(record, sort_keys=True)`` writes for each document, all checked before the first."""
    for doc in docs:
        if doc.counts.shape != doc.words.shape:
            raise ParameterError(f"document {doc.id!r} has {doc.counts.size} counts for {doc.words.size} words;"
                                 " the canonical corpus needs one count per word")
    sizes = np.array([doc.words.size for doc in docs], dtype=np.intp)
    owner = np.repeat(np.arange(sizes.size), sizes)
    words, word_of = np.unique(np.concatenate([np.empty(0, np.intp), *(doc.words for doc in docs)]),
                               return_inverse=True)
    keys = np.array(['"%d": ' % w for w in words.tolist()], dtype=object)
    rank = np.empty(keys.size, np.intp)
    rank[np.argsort(keys)] = np.arange(keys.size)  # sort_keys orders the words as strings, and '"' < '-' < '0'
    order = np.argsort(owner * keys.size + rank[word_of])
    word_of, counts = word_of[order], np.concatenate([np.empty(0, np.int64), *(doc.counts for doc in docs)])[order]
    bad = (counts < 1) | (counts > 2**53) | (counts != np.floor(counts))  # nan fails the last
    bad[1:] |= (word_of[1:] == word_of[:-1]) & (owner[1:] == owner[:-1])  # a word index given twice
    failed = ~np.isfinite(np.array([doc.timestamp for doc in docs], dtype=float))
    failed[owner[bad]] = True
    if failed.any():
        doc = docs[int(failed.argmax())]
        raise ParameterError(f"document {doc.id!r} would not read back as itself: the canonical corpus needs a finite"
                             " ts and, for each word index given once, an integer count in [1, 2**53]")
    values, value_of = np.unique(counts.astype(np.int64), return_inverse=True)
    entries = (keys[word_of] + np.array(list(map(str, values.tolist())), dtype=object)[value_of]).tolist()
    ends = np.cumsum(sizes).tolist()
    for doc, lo, hi in zip(docs, [0, *ends], ends):
        ts = doc.timestamp
        yield (f'{{"body_counts": {{{", ".join(entries[lo:hi])}}}, "id": {_string(doc.id)},'
               f' "related": [{", ".join(map(_string, doc.related))}], "title": {_string(doc.title)},'
               f' "ts": {float.__repr__(ts) if isinstance(ts, float) else json.dumps(ts)}}}\n')


def _unique_keys(pairs):
    """A JSON object's dict; a key given twice raises ValueError, where json.loads would keep the last value."""
    record = dict(pairs)
    if len(record) != len(pairs):
        raise ValueError("duplicate key")
    return record


def _parse_lines(path, lines, decode):
    """The documents of consecutive numbered corpus lines; see ``read_canonical``.

    One pass checks the chunk: each line is decoded, its record checked
    and its keys converted, then the counts and repeated word indices of
    all the lines are checked together.  Every check is a property of one
    line, so if any fails, each line is parsed again on its own, as a
    one-line chunk, and the first bad one in file order raises
    CorpusParseError naming it.
    """
    lines = [(number, line) for number, line in lines if line.strip()]
    records, sizes, values, words = [], [], [], array("q")
    try:
        for _, line in lines:
            record = decode(line)
            ts, body = record["ts"], record["body_counts"]
            related, title = record.get("related", []), record.get("title", "")
            if (type(record["id"]) is not str or type(ts) not in (int, float) or not math.isfinite(ts)
                    or type(related) is not list or not all(type(r) is str for r in related)
                    or type(title) is not str):
                raise ValueError
            values.extend(body.values())
            words.extend(map(int, body))
            records.append((record["id"], float(ts), tuple(related), title))
            sizes.append(len(body))
        if not set(map(type, values)) <= {int}:
            raise TypeError
        counts = np.array(values, np.int64)  # OverflowError outside int64's range
        del values
        owner = np.repeat(np.arange(len(sizes)), sizes)
        words = np.frombuffer(words, np.int64).astype(np.intp, copy=False)
        order = np.lexsort((words, owner))  # each line's words ascending
        words = words[order]  # one array at a time, and order dropped, to keep the chunk's peak low
        counts = counts[order]
        del order
        bad = (counts < 1) | (counts > 2**53)
        bad[1:] |= (words[1:] == words[:-1]) & (owner[1:] == owner[:-1])  # one word index under two keys
        if bad.any():
            raise ValueError
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
        if len(lines) > 1:  # the first line that fails alone raises
            for line in lines:
                _parse_lines(path, [line], decode)
        raise CorpusParseError(
            f"{path} line {lines[0][0]} is not a document: it needs a string id, a finite number ts"
            " and body_counts mapping integer keys, no two naming the same word index, to integer"
            " counts in [1, 2**53]; related, if present,"
            " must be a list of strings and title a string"
        ) from None
    bounds = np.cumsum([0, *sizes]).tolist()
    counts = counts.astype(float)
    return [Document(id, ts, words[lo:hi], counts[lo:hi], related, title)
            for (id, ts, related, title), lo, hi in zip(records, bounds, bounds[1:])]


def _read_chunks(path):
    """The documents of a canonical corpus file, as one list per chunk of lines, in file order."""
    decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
    with open(path, "r", encoding="utf-8") as f:
        numbered = enumerate(f, 1)
        for first in numbered:
            yield _parse_lines(path, chain([first], islice(numbered, CHUNK_SIZE - 1)), decode)


def read_canonical(path):
    """The documents of a canonical corpus file, in file order.

    Every non-blank line must be an object with a string ``id``, a finite
    number ``ts`` and ``body_counts`` mapping integer keys, no two of
    which name the same word index (as "1" and "01" do, or "1" given
    twice), to integer counts in [1, 2**53], which float64 holds exactly,
    and, where present, a list of strings ``related`` and a string
    ``title``; any other line raises CorpusParseError naming it.  The
    file is read a chunk of lines at a time; each document holds slices
    of its chunk's arrays.
    """
    return list(chain.from_iterable(_read_chunks(path)))


def write_vocabulary(vocab, path):
    """One term per line; the line number is the term index."""
    with open(path, "w", encoding="utf-8") as f:
        for term in vocab.index_to_term:
            f.write(term + "\n")


def read_vocabulary(path):
    """The vocabulary of a file of one term per line, the line number being the term index.

    Trailing blank lines are ignored; a blank line before the last term,
    or a term listed twice, raises ConfigurationError naming the line.
    """
    with open(path, "r", encoding="utf-8") as f:
        terms = [line.rstrip("\n") for line in f]
    while terms and not terms[-1].strip():
        terms.pop()
    if not all(map(str.strip, terms)):
        number = 1 + next(i for i, term in enumerate(terms) if not term.strip())
        raise ConfigurationError(f"{path} line {number} is blank; the line number of each term is its index")
    term_to_index = {t: i for i, t in enumerate(terms)}
    if len(term_to_index) != len(terms):
        first = {}
        for number, term in enumerate(terms, 1):
            if first.setdefault(term, number) != number:
                raise ConfigurationError(f"{path} lines {first[term]} and {number}: term {term!r} is listed twice")
    return Vocabulary(term_to_index=term_to_index, index_to_term=terms)
