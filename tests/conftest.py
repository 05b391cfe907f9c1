import os
import sys
from functools import lru_cache

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def held_records(monkeypatch):
    """Each class's records generated once per n for the length of the
    test that asks for it, for a test that lists one class on n vertices
    under several degree filters.  The listings themselves hold nothing
    between calls: every filter still reads its degrees off the records."""
    import sumconn.enumeration as enumeration

    for graph_class, records in list(enumeration._RECORDS.items()):
        held = lru_cache(maxsize=None)(lambda n, records=records: tuple(records(n)))
        monkeypatch.setitem(enumeration._RECORDS, graph_class, held)
