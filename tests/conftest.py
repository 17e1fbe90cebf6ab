"""Fixtures shared by the corpus and ingest tests."""

import pytest

from topicdrift import corpus


@pytest.fixture(params=[1, 2, 3, corpus.CHUNK_SIZE], ids=lambda size: f"chunk{size}")
def chunk(request, monkeypatch):
    """``corpus.CHUNK_SIZE`` set to 1, 2 and 3, which put a chunk boundary between every pair of records
    somewhere, and to its default."""
    monkeypatch.setattr(corpus, "CHUNK_SIZE", request.param)
    return request.param
