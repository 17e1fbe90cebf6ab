"""``topicdrift ingest`` tokenizes each record once and writes what the three-pass ingest wrote.

The reference is ``helpers.reference_ingest``, the ingest that tokenized
every record in the vocabulary, the documents and the statistics pass.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from helpers import documents_equal, reference_ingest, reference_read_canonical
from topicdrift import corpus
from topicdrift.cli import main
from topicdrift.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"
ARCHIVE = Path(__file__).resolve().parents[1] / "benchmarks" / "archive.py"
OPTIONS = ([], ["--min-doc-freq", "1"], ["--min-doc-freq", "3"], ["--min-token-length", "1"],
           ["--min-token-length", "3"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(format, path) of both fixtures and of the benchmark's daily and hourly archives."""
    spec = importlib.util.spec_from_file_location("bench_archive", ARCHIVE)
    archive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(archive)
    work = tmp_path_factory.mktemp("archives")
    archive.write_line_records(work / "daily.txt", 7, 512, 16)
    archive.write_sgml(work / "hourly.sgm", 7, 256)
    return {
        "reuters-fixture": ("reuters", FIXTURES / "sample_reuters.sgm"),
        "bbc-fixture": ("bbc", FIXTURES / "sample_bbc.txt"),
        "daily-archive": ("bbc", work / "daily.txt"),
        "hourly-archive": ("reuters", work / "hourly.sgm"),
    }


def ingest(fmt, path, out, options=()):
    return main(["ingest", "--format", fmt, "--input", str(path), "--out-corpus", str(out / "corpus.jsonl"),
                 "--out-vocab", str(out / "vocab.txt"), *options])


def assert_matches_reference(fmt, path, tmp_path, capsys, options=()):
    """Both ingests refuse, or both write the same bytes and print the same text, which is returned."""
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    flags = dict(zip(options[::2], options[1::2]))
    try:
        expected = reference_ingest(fmt, path, ref / "corpus.jsonl", ref / "vocab.txt",
                                    min_doc_freq=int(flags.get("--min-doc-freq", 2)),
                                    min_token_length=int(flags.get("--min-token-length", 2)))
    except ConfigurationError:  # no term reaches the floor: ingest must refuse too
        assert ingest(fmt, path, new, options) == 2
        return None
    assert ingest(fmt, path, new, options) == 0
    assert capsys.readouterr().out == expected
    for name in ("corpus.jsonl", "vocab.txt"):
        assert (new / name).read_bytes() == (ref / name).read_bytes()
    return expected


@pytest.mark.parametrize("options", OPTIONS, ids=lambda o: "-".join(o).strip("-") or "defaults")
@pytest.mark.parametrize("name", ["reuters-fixture", "bbc-fixture", "daily-archive", "hourly-archive"])
def test_outputs_match_the_three_pass_ingest(inputs, name, options, tmp_path, capsys):
    fmt, path = inputs[name]
    assert_matches_reference(fmt, path, tmp_path, capsys, options)


def test_record_with_no_vocabulary_word_counts_in_the_mean(tmp_path, capsys):
    path = tmp_path / "records.txt"
    path.write_text(
        "a1\t2010/08/09 15:51:53\tOne\talpha bravo\n"
        "a2\t2010/08/10 15:51:53\tTwo\talpha bravo charlie\n"
        "a3\t2010/08/11 15:51:53\tThree\tzulu yankee\n"
    )
    printed = assert_matches_reference("bbc", path, tmp_path, capsys)
    assert printed.startswith("documents\t2\n")
    assert printed.endswith("mean_unique_terms\t1.3333\n")  # (2 + 2 + 0) / 3 parsed records


class CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def findall(self, text):
        self.calls += 1
        return self.pattern.findall(text)


@pytest.mark.parametrize("name", ["reuters-fixture", "daily-archive"])
def test_each_parsed_record_is_tokenized_once(inputs, name, tmp_path, monkeypatch):
    fmt, path = inputs[name]
    if fmt == "reuters":
        parsed = corpus.parse_reuters(path.read_bytes())
    else:
        with open(path, encoding="utf-8") as f:
            parsed = corpus.parse_bbc(f)
    pattern = CountingPattern(corpus._TOKEN)
    monkeypatch.setattr(corpus, "_TOKEN", pattern)
    assert ingest(fmt, path, tmp_path, ["--min-doc-freq", "1"]) == 0
    assert pattern.calls == len(parsed.documents)


@pytest.mark.parametrize("name", ["reuters-fixture", "bbc-fixture", "daily-archive", "hourly-archive"])
def test_outputs_match_at_every_chunk_size(inputs, name, chunk, tmp_path, capsys):
    fmt, path = inputs[name]
    assert_matches_reference(fmt, path, tmp_path, capsys)
    written = tmp_path / "new" / "corpus.jsonl"
    docs = corpus.read_canonical(written)
    assert documents_equal(docs, reference_read_canonical(written))
    corpus.write_canonical(docs, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == written.read_bytes()


def traced_peak(call):
    """Peak traced bytes of ``call()``, after one untraced call has filled every cache."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_and_read_peaks_stay_under_the_per_record_versions(inputs, tmp_path, capsys):
    """The 512-record line archive.  With Python 3.11 and numpy 2.4 the per-record ingest peaked at 1.32 MB
    and its reader at 0.55 MB; chunks of 64 peak at 1.14 MB and 0.51 MB."""
    fmt, path = inputs["daily-archive"]
    assert traced_peak(lambda: ingest(fmt, path, tmp_path)) < 1.29e6
    assert traced_peak(lambda: corpus.read_canonical(tmp_path / "corpus.jsonl")) < 0.54e6
