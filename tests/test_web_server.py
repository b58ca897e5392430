"""Tests for virtual host routing and middleware."""

import gc
import weakref

import pytest

from repro.web.http import Request, Response, Url
from repro.web.server import Route, VirtualHost


def _request(path: str, method: str = "GET") -> Request:
    return Request(method, Url.parse(f"https://h.sim{path}"))


def _request_for(path: str) -> Request:
    """A request for ``path`` exactly: parsing would delete a tab, CR or LF."""
    return Request("GET", Url(host="h.sim", path=path))


class TestRouteCompile:
    def test_static_match(self):
        route = Route.compile("GET", "/about", lambda request: Response.text("x"))
        assert route.match("GET", "/about") == {}
        assert route.match("GET", "/other") is None

    def test_param_capture(self):
        route = Route.compile("GET", "/bot/{bot_id}", lambda request, bot_id: Response.text(bot_id))
        assert route.match("GET", "/bot/42") == {"bot_id": "42"}

    def test_param_does_not_cross_segments(self):
        route = Route.compile("GET", "/bot/{bot_id}", lambda request, bot_id: Response.text(bot_id))
        assert route.match("GET", "/bot/42/extra") is None

    def test_wildcard_param_crosses_segments(self):
        route = Route.compile("GET", "/raw/{*path}", lambda request, path: Response.text(path))
        assert route.match("GET", "/raw/a/b/c.js") == {"path": "a/b/c.js"}

    def test_method_mismatch(self):
        route = Route.compile("POST", "/x", lambda request: Response.text(""))
        assert route.match("GET", "/x") is None

    def test_multiple_params(self):
        route = Route.compile("GET", "/{owner}/{repo}", lambda request, owner, repo: Response.text(""))
        assert route.match("GET", "/alice/bot") == {"owner": "alice", "repo": "bot"}

    @pytest.mark.parametrize(
        ("pattern", "path"),
        [("/about", "/about\n"), ("/bot/{bot_id}/vote", "/bot/7/vote\n"), ("/raw/{*path}", "/raw/a\n")],
    )
    def test_a_route_matches_the_whole_path_not_up_to_a_trailing_newline(self, pattern, path):
        route = Route.compile("GET", pattern, lambda request, **params: Response.text("x"))
        assert route.match("GET", path) is None
        host = VirtualHost()
        host.add_route(pattern, lambda request, **params: Response.text("served"))
        assert host.handle(_request_for(path)).status == 404

    def test_only_a_pattern_without_params_is_static(self):
        handler = lambda request, **params: Response.text("")  # noqa: E731
        static = Route.compile("GET", "/robots.txt", handler)
        assert static.regex is None
        assert static.match("GET", "/robots.txt") == {}
        assert static.match("GET", "/robotsxtxt") is None
        assert Route.compile("GET", "/bot/{bot_id}", handler).regex is not None
        assert Route.compile("GET", "/raw/{*path}", handler).regex is not None


class TestDispatch:
    def test_handler_receives_params(self):
        host = VirtualHost()

        @host.route("/bot/{bot_id}")
        def page(request, bot_id):
            return Response.text(f"bot {bot_id}")

        assert host.handle(_request("/bot/7")).body == "bot 7"

    def test_404_for_unknown_path(self):
        host = VirtualHost("store")
        response = host.handle(_request("/missing"))
        assert response.status == 404
        assert "store" in response.body

    def test_first_matching_route_wins(self):
        host = VirtualHost()
        host.add_route("/a", lambda request: Response.text("first"))
        host.add_route("/{anything}", lambda request, anything: Response.text("second"))
        assert host.handle(_request("/a")).body == "first"
        assert host.handle(_request("/b")).body == "second"

    def test_a_param_route_registered_before_a_static_one_wins(self):
        host = VirtualHost()
        host.add_route("/{page}", lambda request, page: Response.text(f"param {page}"))
        host.add_route("/about", lambda request: Response.text("static"))
        assert host.handle(_request("/about")).body == "param about"

    def test_a_route_added_after_requests_is_served(self):
        host = VirtualHost()
        host.add_route("/", lambda request: Response.text("home"))
        assert host.handle(_request("/late")).status == 404
        host.add_route("/late", lambda request: Response.text("late"))
        assert host.handle(_request("/late")).body == "late"

    def test_the_method_is_matched_in_any_case(self):
        host = VirtualHost()
        host.add_route("/submit", lambda request: Response.text("posted"), method="post")
        assert host.handle(_request("/submit", method="Post")).body == "posted"
        assert host.handle(_request("/submit")).status == 404

    def test_post_route(self):
        host = VirtualHost()
        host.add_route("/submit", lambda request: Response.text(request.body), method="POST")
        request = Request("POST", Url.parse("https://h.sim/submit"), body="payload")
        assert host.handle(request).body == "payload"

    def test_requests_served_counter(self):
        host = VirtualHost()
        host.add_route("/", lambda request: Response.text(""))
        host.handle(_request("/"))
        host.handle(_request("/"))
        assert host.requests_served == 2


class TestMiddleware:
    def test_middleware_can_short_circuit(self):
        host = VirtualHost()
        host.add_route("/", lambda request: Response.text("inner"))
        host.add_middleware(lambda request, next_handler: Response.text("blocked", status=403))
        assert host.handle(_request("/")).status == 403

    def test_middleware_order_first_added_outermost(self):
        calls = []
        host = VirtualHost()
        host.add_route("/", lambda request: Response.text("inner"))

        def outer(request, next_handler):
            calls.append("outer")
            return next_handler(request)

        def inner(request, next_handler):
            calls.append("inner")
            return next_handler(request)

        host.add_middleware(outer)
        host.add_middleware(inner)
        host.handle(_request("/"))
        assert calls == ["outer", "inner"]

    def test_middleware_can_mutate_response(self):
        host = VirtualHost()
        host.add_route("/", lambda request: Response.text("x"))

        def stamp(request, next_handler):
            response = next_handler(request)
            response.headers["X-Stamp"] = "yes"
            return response

        host.add_middleware(stamp)
        assert host.handle(_request("/")).headers["X-Stamp"] == "yes"

    def test_middleware_added_after_requests_runs_from_the_next_request(self):
        host = VirtualHost()
        host.add_route("/", lambda request: Response.text("inner"))
        assert host.handle(_request("/")).body == "inner"
        host.add_middleware(lambda request, next_handler: Response.text("blocked", status=403))
        assert host.handle(_request("/")).status == 403
        assert host.requests_served == 2


def _stamp(request, next_handler):
    response = next_handler(request)
    response.headers["X-Stamp"] = "yes"
    return response


class TestHostLifetime:
    """A host is freed by reference counting: its middleware chain does not hold it."""

    @pytest.mark.parametrize("middleware", [[], [_stamp], [_stamp, _stamp]], ids=["none", "one", "two"])
    def test_a_host_is_freed_without_the_collector(self, middleware, collector):
        gc.disable()
        host = VirtualHost()
        host.add_route("/", lambda request: Response.text("x"))
        for entry in middleware:
            host.add_middleware(entry)
        assert host.handle(_request("/")).status == 200
        alive = weakref.ref(host)
        del host
        assert alive() is None
