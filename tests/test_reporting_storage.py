"""Report serialization discipline and the digest-checked disk cache."""

import json

import pytest

from mbgram import reporting
from mbgram.gram import GramVariant, get_det, get_gram
from mbgram.reporting import Report, render_table
from mbgram.storage import cache_read, cache_write, payload_digest, resolve_cache_dir


class TestReport:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            Report(claim="x", tag="t", status="FAIL")
        Report(claim="x", tag="t", status="FAIL", witness={"got": "1"})

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            Report(claim="x", tag="t", status="MAYBE")

    def test_canonical_form_drops_duration(self):
        a = Report(claim="c", tag="t", status="PASS", params={"n": 2}, duration_s=1.25)
        b = Report(claim="c", tag="t", status="PASS", params={"n": 2}, duration_s=9.75)
        assert a.canonical_json() == b.canonical_json()
        assert a.to_json_line() != b.to_json_line()
        assert "duration_s" in json.loads(a.to_json_line())
        assert "duration_s" not in json.loads(a.canonical_json())

    def test_canonical_form_drops_every_volatile_field(self, monkeypatch):
        r = Report(claim="c", tag="t", status="PASS", seed=5, duration_s=1.5)
        assert set(json.loads(r.to_json_line())) - set(json.loads(r.canonical_json())) == {
            "duration_s"}
        monkeypatch.setattr(reporting, "VOLATILE_FIELDS", ("duration_s", "seed"))
        assert set(json.loads(r.to_json_line())) - set(json.loads(r.canonical_json())) == {
            "duration_s", "seed"}

    def test_json_line_is_sorted_and_compact(self):
        r = Report(claim="c", tag="t", status="PASS", seed=5)
        obj = json.loads(r.to_json_line())
        assert list(obj) == sorted(obj)

    def test_render_table(self):
        rows = render_table([Report(claim="a", tag="t", status="PASS",
                                    params={"n": 3}, duration_s=0.5)])
        assert "CLAIM" in rows and "PASS" in rows and "n=3" in rows


class TestCache:
    def test_roundtrip(self, tmp_path):
        payload = {"hello": [1, 2, 3]}
        cache_write(tmp_path, "k", "fmt/1", payload)
        assert cache_read(tmp_path, "k", "fmt/1") == payload

    def test_written_bytes_are_sorted_dumps(self, tmp_path):
        payload = {"det": {"terms": [[-3, 2, 0, 1, 0, 0]], "format": "p/1"}, "n": 3, "b": "x"}
        path = cache_write(tmp_path, "k", "fmt/1", payload)
        envelope = {"format": "fmt/1", "digest": payload_digest(payload), "payload": payload}
        assert path.read_bytes() == json.dumps(envelope, sort_keys=True).encode()

    def test_cold_cache_miss(self, tmp_path):
        assert cache_read(tmp_path, "absent", "fmt/1") is None

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache_write(tmp_path, "k", "fmt/1", {"v": 1})
        assert cache_read(tmp_path, "k", "fmt/2") is None

    def test_digest_mismatch_is_miss(self, tmp_path):
        cache_write(tmp_path, "k", "fmt/1", {"v": 1})
        path = tmp_path / "k.json"
        envelope = json.loads(path.read_text())
        envelope["payload"]["v"] = 2  # tamper without updating the digest
        path.write_text(json.dumps(envelope))
        assert cache_read(tmp_path, "k", "fmt/1") is None

    def test_truncated_file_is_miss(self, tmp_path):
        cache_write(tmp_path, "k", "fmt/1", {"v": 1})
        path = tmp_path / "k.json"
        path.write_text(path.read_text()[:20])
        assert cache_read(tmp_path, "k", "fmt/1") is None

    @pytest.mark.parametrize("kind, get", [("det", get_det), ("gram", get_gram)])
    def test_file_not_utf8_is_recomputed(self, tmp_path, kind, get):
        # a miss for cache_read; get_det and get_gram rewrite it as a cold run does
        key = f"{kind}_tilde_2"
        get(2, GramVariant.MBN1_TILDE, cache_dir=tmp_path / "cold")
        warm = tmp_path / "warm"
        warm.mkdir()
        (warm / f"{key}.json").write_bytes(b"\xff\xfe{garbage")
        assert cache_read(warm, key, "fmt/1") is None
        get(2, GramVariant.MBN1_TILDE, cache_dir=warm)
        assert (warm / f"{key}.json").read_bytes() == (tmp_path / "cold" / f"{key}.json").read_bytes()

    def test_digest_is_order_insensitive(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})

    def test_resolve_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MBGRAM_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"
        assert resolve_cache_dir(None) == tmp_path / "env"
        monkeypatch.delenv("MBGRAM_CACHE_DIR")
        assert str(resolve_cache_dir(None)) == "cache"
