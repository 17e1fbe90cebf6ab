"""``topicdrift ingest`` tokenizes each record once and writes what the three-pass ingest wrote.

The reference is ``helpers.reference_ingest``, the ingest that tokenized
every record in the vocabulary, the documents and the statistics pass.
"""

import importlib.util
from pathlib import Path

import pytest

from helpers import reference_ingest
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
