"""Anti-scraping middleware for virtual hosts.

The methodology section lists the defences the measurement scraper had to
overcome: request-rate limits, captchas, and page structures that vary or
drop elements unexpectedly.  The first two are middleware that can be
attached to any :class:`~repro.web.server.VirtualHost`; the sites render
the varying structures, and transient 5xx come from chaos error bursts
(:mod:`repro.web.chaos`).
"""

from __future__ import annotations

from typing import Callable

from repro.web.captcha import CaptchaService, challenge_page
from repro.web.http import Request, Response
from repro.web.network import VirtualClock

Next = Callable[[Request], Response]

#: Cookie the captcha wall sets on clearance (public so scrapers/tests can reference it).
CAPTCHA_CLEARANCE_COOKIE = "cf_clearance"


class RateLimitMiddleware:
    """Sliding-window per-client rate limiting.

    Clients exceeding ``max_requests`` in ``window`` seconds receive a 429
    with ``Retry-After`` — the signal that tells a polite scraper to slow
    down, per the paper's "we limit the rate at which we generate requests".
    """

    def __init__(self, clock: VirtualClock, max_requests: int, window: float) -> None:
        if max_requests < 1 or window <= 0:
            raise ValueError("max_requests must be >= 1 and window positive")
        self.clock = clock
        self.max_requests = max_requests
        self.window = window
        self._history: dict[str, list[float]] = {}
        self.rejections = 0

    def __call__(self, request: Request, next_handler: Next) -> Response:
        if request.path == "/robots.txt":
            return next_handler(request)  # robots must stay reachable
        now = self.clock.now()
        history = self._history.setdefault(request.client_id, [])
        cutoff = now - self.window
        while history and history[0] < cutoff:
            history.pop(0)
        if len(history) >= self.max_requests:
            self.rejections += 1
            retry_after = max(self.window - (now - history[0]), 0.0)
            response = Response.text("rate limit exceeded", status=429)
            response.headers["Retry-After"] = f"{retry_after:.2f}"
            return response
        history.append(now)
        return next_handler(request)

    def state_dict(self) -> dict:
        return {
            "history": {client: list(times) for client, times in self._history.items()},
            "rejections": self.rejections,
        }

    def restore_state(self, state: dict) -> None:
        self._history = {client: list(times) for client, times in state["history"].items()}
        self.rejections = state["rejections"]


class CaptchaWallMiddleware:
    """Interpose a captcha challenge every ``challenge_every`` requests.

    A client without a valid clearance cookie is served a 403 page embedding
    a challenge (``#captcha-challenge`` with ``data-challenge-id``).  The
    client solves it and retries the original URL with ``captcha_id`` and
    ``captcha_answer`` query parameters; on success a clearance cookie good
    for ``clearance_requests`` further requests is set and the request
    proceeds.
    """

    def __init__(
        self,
        service: CaptchaService,
        challenge_every: int = 25,
        clearance_requests: int = 25,
    ) -> None:
        self.service = service
        self.challenge_every = challenge_every
        self.clearance_requests = clearance_requests
        self._request_counts: dict[str, int] = {}
        self._clearances: dict[str, int] = {}
        self.challenges_served = 0

    def __call__(self, request: Request, next_handler: Next) -> Response:
        if request.path == "/robots.txt":
            return next_handler(request)  # robots must stay reachable
        client = request.client_id
        # An in-flight solve attempt?
        challenge_id = request.param("captcha_id")
        answer = request.param("captcha_answer")
        if challenge_id and answer is not None:
            if self.service.verify(challenge_id, answer):
                self._clearances[client] = self.clearance_requests
                response = next_handler(request)
                response.set_cookie(CAPTCHA_CLEARANCE_COOKIE, f"ok-{client}")
                return response
            return self._challenge_response()

        remaining = self._clearances.get(client, 0)
        if remaining > 0:
            self._clearances[client] = remaining - 1
            return next_handler(request)

        count = self._request_counts.get(client, 0) + 1
        self._request_counts[client] = count
        if count % self.challenge_every == 0 or count == 1:
            return self._challenge_response()
        return next_handler(request)

    def state_dict(self) -> dict:
        return {
            "counts": dict(self._request_counts),
            "clearances": dict(self._clearances),
            "served": self.challenges_served,
        }

    def restore_state(self, state: dict) -> None:
        self._request_counts = dict(state["counts"])
        self._clearances = dict(state["clearances"])
        self.challenges_served = state["served"]

    def _challenge_response(self) -> Response:
        self.challenges_served += 1
        return challenge_page(self.service)
