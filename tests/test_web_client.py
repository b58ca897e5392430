"""Tests for the HTTP client: redirects, timeouts, cookies."""

import pytest

from repro.web.client import CookieJar, HttpClient, RequestTimeoutError, TooManyRedirectsError
from repro.web.http import Headers, Response, Url
from repro.web.network import HostConditions
from repro.web.server import VirtualHost


@pytest.fixture
def host(internet):
    host = VirtualHost("a")
    host.add_route("/", lambda request: Response.text("home"))
    host.add_route("/hop1", lambda request: Response.redirect("/hop2"))
    host.add_route("/hop2", lambda request: Response.redirect("/final"))
    host.add_route("/final", lambda request: Response.text("landed"))
    host.add_route("/loop", lambda request: Response.redirect("/loop"))
    host.add_route("/setcookie", lambda request: _with_cookie())
    host.add_route("/readcookie", lambda request: Response.text(request.cookie("sid") or "none"))
    host.add_route("/echo", lambda request: Response.text(request.body), method="POST")
    internet.register("a.sim", host)
    return host


def _with_cookie() -> Response:
    response = Response.text("ok")
    response.set_cookie("sid", "s3cr3t")
    return response


class TestBasics:
    def test_get(self, internet, host):
        client = HttpClient(internet)
        response = client.get("https://a.sim/")
        assert response.body == "home"
        assert str(response.url) == "https://a.sim/"

    def test_relative_url_rejected(self, internet, host):
        with pytest.raises(ValueError):
            HttpClient(internet).get("/relative")
        with pytest.raises(ValueError):
            HttpClient(internet).get(Url.parse("/relative"))

    def test_a_url_is_sent_as_it_is(self, internet, host):
        url = Url.parse("https://a.sim/").join("/seen?x=1")
        seen = []
        host.add_route("/seen", lambda request: seen.append(request.url) or Response.text("seen"))
        response = HttpClient(internet).get(url)
        assert seen == [url] and seen[0] is url
        assert response.url is url

    def test_each_request_gets_its_own_headers(self, internet, host):
        seen = []
        host.add_route("/headers", lambda request: seen.append(dict(request.headers.items())) or Response.text(""))
        client = HttpClient(internet, user_agent="probe/2")
        client.get("https://a.sim/headers", headers=Headers({"X-Extra": "1", "user-agent": "override"}))
        client.get("https://a.sim/setcookie")
        client.get("https://a.sim/headers")
        assert seen == [
            {"user-agent": "override", "Host": "a.sim", "X-Extra": "1"},
            {"User-Agent": "probe/2", "Host": "a.sim", "Cookie": "sid=s3cr3t"},
        ]

    def test_post_body(self, internet, host):
        client = HttpClient(internet)
        assert client.post("https://a.sim/echo", body="data").body == "data"

    def test_requests_sent_counter(self, internet, host):
        client = HttpClient(internet)
        client.get("https://a.sim/")
        client.get("https://a.sim/hop1")  # +3 exchanges for the chain
        assert client.requests_sent == 4


class TestRedirects:
    def test_follows_chain_and_reports_final_url(self, internet, host):
        client = HttpClient(internet)
        response = client.get("https://a.sim/hop1")
        assert response.body == "landed"
        assert str(response.url) == "https://a.sim/final"

    def test_redirects_can_be_disabled(self, internet, host):
        client = HttpClient(internet)
        response = client.get("https://a.sim/hop1", follow_redirects=False)
        assert response.status == 302
        assert response.headers["Location"] == "/hop2"

    def test_redirect_loop_raises(self, internet, host):
        client = HttpClient(internet, max_redirects=5, default_timeout=1e9)
        with pytest.raises(TooManyRedirectsError):
            client.get("https://a.sim/loop")


class TestTimeouts:
    def test_slow_host_times_out(self, internet, host):
        internet.register("slow.sim", _slow_host(), HostConditions(base_latency=20.0))
        client = HttpClient(internet)
        with pytest.raises(RequestTimeoutError):
            client.get("https://slow.sim/", timeout=10.0)

    def test_budget_covers_whole_redirect_chain(self, internet, host):
        # Each hop costs 4s; three requests = 12s > 10s budget.
        slow = VirtualHost("s")
        slow.add_route("/a", lambda request: Response.redirect("/b"))
        slow.add_route("/b", lambda request: Response.redirect("/c"))
        slow.add_route("/c", lambda request: Response.text("done"))
        internet.register("s.sim", slow, HostConditions(base_latency=4.0))
        client = HttpClient(internet)
        with pytest.raises(RequestTimeoutError):
            client.get("https://s.sim/a", timeout=10.0)

    def test_fast_chain_within_budget(self, internet, host):
        client = HttpClient(internet)
        assert client.get("https://a.sim/hop1", timeout=10.0).body == "landed"


def _slow_host() -> VirtualHost:
    host = VirtualHost("slow")
    host.add_route("/", lambda request: Response.text("late"))
    return host


class TestCookies:
    def test_cookie_stored_and_replayed(self, internet, host):
        client = HttpClient(internet)
        client.get("https://a.sim/setcookie")
        assert client.cookies.get("a.sim", "sid") == "s3cr3t"
        assert client.get("https://a.sim/readcookie").body == "s3cr3t"

    def test_cookies_are_per_host(self, internet, host):
        other = VirtualHost("b")
        other.add_route("/readcookie", lambda request: Response.text(request.cookie("sid") or "none"))
        internet.register("b.sim", other)
        client = HttpClient(internet)
        client.get("https://a.sim/setcookie")
        assert client.get("https://b.sim/readcookie").body == "none"

    def test_a_host_without_cookies_gets_no_header(self):
        jar = CookieJar()
        assert jar.header_for("a.sim") == ""
        jar.store("a.sim", "sid=1; Path=/")
        jar.store("a.sim", "lang=en")
        assert jar.header_for("a.sim") == "lang=en; sid=1"
        assert jar.header_for("b.sim") == ""
