"""Anti-scraping middleware for virtual hosts.

The methodology section lists the defences the measurement scraper had to
overcome: request-rate limits, captchas, and page structures that vary or
drop elements unexpectedly.  Each defence is a middleware that can be
attached to any :class:`~repro.web.server.VirtualHost`.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.web.captcha import CaptchaService
from repro.web.http import Request, Response
from repro.web.network import VirtualClock, restore_rng, rng_state

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
        challenge = self.service.issue()
        self.challenges_served += 1
        body = (
            "<html><head><title>Security check</title></head><body>"
            "<h1>Please verify you are human</h1>"
            f'<div id="captcha-challenge" data-challenge-id="{challenge.challenge_id}">'
            f"<p class='prompt'>{challenge.prompt}</p></div>"
            "</body></html>"
        )
        return Response.html(body, status=403)


class FlakyMiddleware:
    """Randomly serve transient 5xx errors (elements "become unavailable")."""

    def __init__(self, failure_rate: float, seed: int = 0) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        self.failure_rate = failure_rate
        self._rng = random.Random(seed)
        self.failures_injected = 0

    def __call__(self, request: Request, next_handler: Next) -> Response:
        if self._rng.random() < self.failure_rate:
            self.failures_injected += 1
            return Response.text("temporarily unavailable", status=503)
        return next_handler(request)

    def state_dict(self) -> dict:
        return {"rng": rng_state(self._rng), "failures": self.failures_injected}

    def restore_state(self, state: dict) -> None:
        restore_rng(self._rng, state["rng"])
        self.failures_injected = state["failures"]
