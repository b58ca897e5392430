"""Tests for repro.web.http: URLs, headers, requests, responses."""

import copy
import pickle

import pytest

from repro.web.http import Headers, Request, Response, Url


class TestUrlParsing:
    def test_parse_full_url(self):
        url = Url.parse("https://top.gg.sim:8443/bot/12?page=2&x=1#frag")
        assert url.scheme == "https"
        assert url.host == "top.gg.sim"
        assert url.port == 8443
        assert url.path == "/bot/12"
        assert url.query == "page=2&x=1"
        assert url.fragment == "frag"

    def test_parse_defaults_path_to_root(self):
        assert Url.parse("https://example.sim").path == "/"

    def test_parse_bare_path_is_relative(self):
        url = Url.parse("/bots/1?x=2")
        assert not url.is_absolute
        assert url.path == "/bots/1"
        assert url.query == "x=2"

    def test_str_roundtrip(self):
        raw = "https://example.sim/a/b?k=v#f"
        assert str(Url.parse(raw)) == raw

    def test_str_omits_default_port(self):
        assert str(Url.parse("https://example.sim/x")) == "https://example.sim/x"

    def test_equality_with_string(self):
        assert Url.parse("https://a.sim/x") == "https://a.sim/x"

    def test_hashable(self):
        assert len({Url.parse("https://a.sim/"), Url.parse("https://a.sim/")}) == 1


class TestUrlImmutable:
    FIELDS = ("scheme", "host", "port", "path", "query", "fragment")

    @pytest.mark.parametrize("name", FIELDS + ("_text", "_params", "extra"))
    def test_assignment_raises(self, name):
        url = Url.parse("https://a.sim:8443/x?k=v#f")
        with pytest.raises(AttributeError):
            setattr(url, name, "changed")
        assert str(url) == "https://a.sim:8443/x?k=v#f"

    def test_deletion_raises(self):
        url = Url.parse("https://a.sim/x")
        with pytest.raises(AttributeError):
            del url.path
        assert url.path == "/x"

    def test_parse_shares_one_instance_per_string(self):
        assert Url.parse("https://a.sim/shared") is Url.parse("https://a.sim/shared")

    def test_copies_and_pickles_keep_every_field(self):
        url = Url.parse("https://a.sim:8443/x?k=v#f")
        for clone in (copy.copy(url), copy.deepcopy(url), pickle.loads(pickle.dumps(url))):
            assert clone == url
            assert tuple(getattr(clone, name) for name in self.FIELDS) == (
                "https", "a.sim", 8443, "/x", "k=v", "f",
            )


class TestUrlJoin:
    def test_join_absolute_reference_replaces(self):
        base = Url.parse("https://a.sim/x/y")
        assert str(base.join("https://b.sim/z")) == "https://b.sim/z"

    def test_join_root_relative(self):
        base = Url.parse("https://a.sim/x/y")
        assert str(base.join("/z")) == "https://a.sim/z"

    def test_join_sibling_relative(self):
        base = Url.parse("https://a.sim/x/y")
        assert str(base.join("z")) == "https://a.sim/x/z"

    def test_join_keeps_host_for_query_only(self):
        base = Url.parse("https://a.sim/x")
        joined = base.join("?page=2")
        assert joined.host == "a.sim"
        assert joined.query == "page=2"


class TestUrlQuery:
    def test_query_params_decoding(self):
        url = Url.parse("https://a.sim/?a=1&b=two&empty=")
        assert url.query_params() == {"a": "1", "b": "two", "empty": ""}

    def test_each_query_params_call_returns_its_own_dict(self):
        url = Url.parse("https://a.sim/?a=1&b=2")
        first = url.query_params()
        first["a"] = "changed"
        first["c"] = "added"
        assert url.query_params() == {"a": "1", "b": "2"}
        assert Url.parse("https://a.sim/?a=1&b=2").query_params() == {"a": "1", "b": "2"}

    def test_with_params_merges(self):
        url = Url.parse("https://a.sim/?a=1")
        merged = url.with_params(b="2")
        assert merged.query_params() == {"a": "1", "b": "2"}

    def test_with_params_overrides(self):
        url = Url.parse("https://a.sim/?a=1")
        assert url.with_params(a="9").query_params()["a"] == "9"

    def test_origin(self):
        assert Url.parse("https://a.sim:444/x").origin() == "https://a.sim:444"


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers({"Content-Type": "text/html"})
        assert headers["content-type"] == "text/html"
        assert headers.get("CONTENT-TYPE") == "text/html"

    def test_set_preserves_last_casing(self):
        headers = Headers()
        headers["X-Thing"] = "1"
        headers["x-thing"] = "2"
        assert headers["X-THING"] == "2"
        assert len(headers) == 1

    def test_contains_and_delete(self):
        headers = Headers({"A": "1"})
        assert "a" in headers
        del headers["A"]
        assert "a" not in headers

    def test_built_from_a_mapping_as_by_assignment(self):
        mapping = {"Content-Type": "text/html", "X-Count": 3, "x-count": 4, "Host": "a.sim"}
        assigned = Headers()
        for key, value in mapping.items():
            assigned[key] = value
        built = Headers(mapping)
        assert list(built.items()) == list(assigned.items()) == [
            ("Content-Type", "text/html"), ("x-count", "4"), ("Host", "a.sim"),
        ]
        assert list(Headers(built).items()) == list(built.items())

    def test_copy_is_independent(self):
        headers = Headers({"A": "1"})
        clone = headers.copy()
        clone["A"] = "2"
        assert headers["A"] == "1"

    def test_get_default(self):
        assert Headers().get("missing", "x") == "x"


class TestRequest:
    def test_param_reads_query(self):
        request = Request("GET", Url.parse("https://a.sim/?page=3"))
        assert request.param("page") == "3"
        assert request.param("missing", "1") == "1"

    def test_cookie_parsing(self):
        request = Request("GET", Url.parse("https://a.sim/"), headers=Headers({"Cookie": "a=1; b=2"}))
        assert request.cookie("a") == "1"
        assert request.cookie("b") == "2"
        assert request.cookie("c") is None


class TestResponse:
    def test_ok_range(self):
        assert Response(200).ok
        assert Response(204).ok
        assert not Response(404).ok

    def test_redirect_requires_location(self):
        assert not Response(302).is_redirect
        assert Response.redirect("/x").is_redirect

    def test_html_helper_sets_content_type(self):
        assert Response.html("<p>x</p>").content_type == "text/html"

    def test_reason_phrases(self):
        assert Response(429).reason == "Too Many Requests"
        assert Response(599).reason == "Unknown"

    def test_set_cookie(self):
        response = Response.text("x")
        response.set_cookie("session", "abc")
        assert response.headers["Set-Cookie"] == "session=abc"

    @pytest.mark.parametrize(
        "build",
        [lambda: Response.html("x"), lambda: Response.text("x"), lambda: Response.json("{}"),
         lambda: Response.redirect("/next"), lambda: Response.not_found()],
        ids=["html", "text", "json", "redirect", "not_found"],
    )
    def test_each_response_owns_its_headers(self, build):
        first = build()
        expected = dict(first.headers.items())
        first.headers["X-Stamp"] = "yes"
        first.headers["Content-Type"] = "changed"
        del first.headers["Content-Type"]
        second = build()
        assert dict(second.headers.items()) == expected
        assert "X-Stamp" not in second.headers
