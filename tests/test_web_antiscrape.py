"""Tests for anti-scraping middleware: rate limits and the captcha wall."""

import pytest

from repro.web.antiscrape import (
    CAPTCHA_CLEARANCE_COOKIE,
    CaptchaWallMiddleware,
    RateLimitMiddleware,
)
from repro.web.captcha import CaptchaService, TwoCaptchaClient
from repro.web.dom import parse_html
from repro.web.http import Request, Response, Url
from repro.web.server import VirtualHost


def _host_with(*middleware) -> VirtualHost:
    host = VirtualHost("store")
    host.add_route("/", lambda request: Response.text("content"))
    host.add_route("/page", lambda request: Response.text("content"))
    for item in middleware:
        host.add_middleware(item)
    return host


def _get(host: VirtualHost, path: str = "/", client: str = "c", url_extra: str = "") -> Response:
    return host.handle(Request("GET", Url.parse(f"https://store.sim{path}{url_extra}"), client_id=client))


class TestRateLimit:
    def test_allows_under_limit(self, clock):
        host = _host_with(RateLimitMiddleware(clock, max_requests=3, window=10.0))
        assert all(_get(host).status == 200 for _ in range(3))

    def test_rejects_over_limit_with_retry_after(self, clock):
        host = _host_with(RateLimitMiddleware(clock, max_requests=2, window=10.0))
        _get(host)
        _get(host)
        response = _get(host)
        assert response.status == 429
        assert float(response.headers["Retry-After"]) > 0

    def test_window_slides(self, clock):
        limiter = RateLimitMiddleware(clock, max_requests=1, window=5.0)
        host = _host_with(limiter)
        assert _get(host).status == 200
        assert _get(host).status == 429
        clock.advance(6.0)
        assert _get(host).status == 200

    def test_limits_are_per_client(self, clock):
        host = _host_with(RateLimitMiddleware(clock, max_requests=1, window=10.0))
        assert _get(host, client="a").status == 200
        assert _get(host, client="b").status == 200
        assert _get(host, client="a").status == 429

    def test_invalid_config(self, clock):
        with pytest.raises(ValueError):
            RateLimitMiddleware(clock, max_requests=0, window=1.0)


class TestCaptchaWall:
    def _solve_and_retry(self, host, response, clock, path="/", client="c"):
        page = parse_html(response.body)
        element = page.select_one("#captcha-challenge")
        challenge_id = element.get("data-challenge-id")
        prompt = element.select_one("p.prompt").text
        answer = TwoCaptchaClient(clock, accuracy=1.0).solve(prompt)
        return _get(host, path, client=client, url_extra=f"?captcha_id={challenge_id}&captcha_answer={answer}")

    def test_first_request_challenged(self, clock):
        service = CaptchaService(clock)
        host = _host_with(CaptchaWallMiddleware(service, challenge_every=10, clearance_requests=5))
        response = _get(host)
        assert response.status == 403
        assert "captcha-challenge" in response.body

    def test_solving_grants_clearance(self, clock):
        service = CaptchaService(clock)
        host = _host_with(CaptchaWallMiddleware(service, challenge_every=10, clearance_requests=3))
        challenged = _get(host)
        cleared = self._solve_and_retry(host, challenged, clock)
        assert cleared.status == 200
        assert CAPTCHA_CLEARANCE_COOKIE in (cleared.headers.get("Set-Cookie") or "")
        # Clearance covers the next requests without re-challenge.
        assert _get(host).status == 200

    def test_wrong_answer_rechallenged(self, clock):
        service = CaptchaService(clock)
        host = _host_with(CaptchaWallMiddleware(service))
        challenged = _get(host)
        page = parse_html(challenged.body)
        challenge_id = page.select_one("#captcha-challenge").get("data-challenge-id")
        response = _get(host, url_extra=f"?captcha_id={challenge_id}&captcha_answer=0")
        assert response.status == 403

    def test_clearance_expires_after_budget(self, clock):
        service = CaptchaService(clock)
        wall = CaptchaWallMiddleware(service, challenge_every=1000, clearance_requests=2)
        host = _host_with(wall)
        challenged = _get(host)
        self._solve_and_retry(host, challenged, clock)
        assert _get(host).status == 200
        assert _get(host).status == 200
        # Budget exhausted: counting resumes; next challenge arrives periodically.
        statuses = [_get(host).status for _ in range(1000)]
        assert 403 in statuses
