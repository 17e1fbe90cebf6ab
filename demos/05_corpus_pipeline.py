"""From raw newswire files to the canonical streaming corpus.

Parses the bundled SGML and line-record fixtures, tokenizes each record
once, builds a vocabulary, normalizes documents, and round-trips them through the canonical
format.
"""

import tempfile
from pathlib import Path

from topicdrift.corpus import (
    build_vocabulary,
    corpus_statistics,
    parse_bbc,
    parse_reuters,
    read_canonical,
    to_documents,
    tokenize_corpus,
    write_canonical,
)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

print("== SGML newswire ==")
parsed = parse_reuters((FIXTURES / "sample_reuters.sgm").read_bytes())
print(f"records: {len(parsed.documents)} parsed, {parsed.skipped} skipped")
first = parsed.documents[0]
print(f"first record: id={first.id!r} date={first.timestamp_text!r}")
print(f"title: {first.title!r}")

tokenized = tokenize_corpus(parsed.documents)  # the one tokenizing pass
print(f"tokenized: {len(tokenized.terms)} distinct terms")

vocab = build_vocabulary(tokenized, min_doc_freq=1)
docs = to_documents(tokenized, vocab, format_hint="reuters")
print(f"normalized: {len(docs)} documents, first timestamp {docs[0].timestamp}")

stats = corpus_statistics(docs, vocab, len(parsed.documents))
print(f"vocabulary: {stats['vocabulary_size']} terms, "
      f"mean unique terms/doc {stats['mean_unique_terms']:.1f}")

with tempfile.TemporaryDirectory() as tmp:
    out, again = Path(tmp) / "corpus.jsonl", Path(tmp) / "again.jsonl"
    write_canonical(docs, out)
    write_canonical(read_canonical(out), again)
    assert again.read_bytes() == out.read_bytes()
print(f"canonical round-trip through {out.name}: exact")

print("\n== line records ==")
with open(FIXTURES / "sample_bbc.txt", encoding="utf-8") as f:
    parsed = parse_bbc(f)
for doc in parsed.documents:
    print(f"  {doc.timestamp_text}  related={len(doc.related_ids)}  {doc.title[:40]}...")
