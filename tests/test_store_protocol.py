"""The store over PVP: store/ingest, store/query, view/openQuery."""

from __future__ import annotations

import pytest

from repro.core import serialize
from repro.ide import protocol as pvp
from repro.ide.session import ViewerSession


@pytest.fixture
def session():
    return ViewerSession()


def _request(session, method, req_id=1, **params):
    return session.handle(pvp.Request(method=method, id=req_id,
                                      params=params))


@pytest.fixture
def populated(tmp_path, session, simple_profile):
    """A store directory with two profiles ingested over PVP."""
    root = str(tmp_path / "store")
    for i in (1, 2):
        profile_path = str(tmp_path / ("p%d.ezvw" % i))
        profile = simple_profile
        profile.meta.time_nanos = 1_700_000_000_000_000_000 + i
        serialize.dump(profile, profile_path)
        response = _request(session, pvp.STORE_INGEST, req_id=i,
                            store=root, path=profile_path, service="api",
                            labels={"run": str(i)})
        assert response.ok, response.error
    return root


class TestStoreIngest:
    def test_ingest_result_shape(self, populated, session):
        response = _request(session, pvp.STORE_QUERY, store=populated,
                            query="service=api")
        assert response.ok
        assert response.result["count"] == 2
        record = response.result["records"][0]
        assert record["service"] == "api"
        assert record["type"] == "cpu"
        assert record["seq"] == 2  # newest first

    def test_ingest_requires_path(self, session, tmp_path):
        response = _request(session, pvp.STORE_INGEST,
                            store=str(tmp_path / "s"))
        assert not response.ok
        assert "path" in response.error["message"]

    def test_ingest_rejects_non_string_path(self, session, tmp_path):
        response = _request(session, pvp.STORE_INGEST,
                            store=str(tmp_path / "s"), path=42)
        assert not response.ok


class TestStoreQuery:
    def test_label_filter(self, populated, session):
        response = _request(session, pvp.STORE_QUERY, store=populated,
                            query="label.run=1")
        assert response.result["count"] == 1
        assert response.result["records"][0]["labels"] == {"run": "1"}

    def test_bad_query_is_an_error_response(self, populated, session):
        response = _request(session, pvp.STORE_QUERY, store=populated,
                            query="bogus=1")
        assert not response.ok
        assert "unknown query key" in response.error["message"]


class TestOpenQuery:
    def test_opened_view_answers_view_requests(self, populated, session):
        response = _request(session, pvp.VIEW_OPEN_QUERY, store=populated,
                            query="service=api")
        assert response.ok, response.error
        profile_id = response.result["profileId"]
        assert "cpu:sum" in response.result["metrics"]
        summary = _request(session, pvp.VIEW_SUMMARY, profileId=profile_id)
        assert summary.ok
        assert "Hottest" in summary.result["body"]

    def test_no_match_is_an_error(self, populated, session):
        response = _request(session, pvp.VIEW_OPEN_QUERY, store=populated,
                            query="service=nobody")
        assert not response.ok
        assert "matched no records" in response.error["message"]

    def test_store_instance_is_cached_per_root(self, populated, session):
        assert session.store(populated) is session.store(populated)

    def test_repeat_is_a_lookup(self, populated, session, monkeypatch):
        from repro.store import ProfileStore
        loads = []
        original = ProfileStore.load

        def counting(store, entry):
            loads.append(entry.seq)
            return original(store, entry)

        monkeypatch.setattr(ProfileStore, "load", counting)
        first = _request(session, pvp.VIEW_OPEN_QUERY, store=populated,
                         query="service=api")
        assert first.ok, first.error
        assert len(loads) == 3  # both records for the merge, then seq 2
        del loads[:]
        again = _request(session, pvp.VIEW_OPEN_QUERY, store=populated,
                         query="service=api", req_id=2)
        assert again.ok, again.error
        # Only the opened profile's own record (the newest) is loaded.
        assert loads == [2]
        ids = first.result.pop("profileId"), again.result.pop("profileId")
        assert ids[0] != ids[1]
        assert again.result == first.result
        views = [session._profiles[i].views["top_down"] for i in ids]
        assert views[0] is views[1]
