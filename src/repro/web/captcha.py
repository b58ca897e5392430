"""Captcha challenges and a paid solving service.

The paper's scraper meets two captcha deployments: the bot repository's
anti-scraping wall and Google reCAPTCHA on Discord's bot-install flow.  Both
were defeated with the commercial "2Captcha" service chosen for "its
affordability and quick solving time".  We model captchas as small arithmetic
challenges — enough structure for a solver to be genuinely *solving*
something — and a :class:`TwoCaptchaClient` that charges per solve, takes
simulated time, and occasionally fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.web.http import Response
from repro.web.network import VirtualClock, restore_rng, rng_state


class CaptchaError(Exception):
    """Base class for captcha failures."""


class CaptchaSolveError(CaptchaError):
    """The solving service returned a wrong answer or gave up."""


class InsufficientBalanceError(CaptchaError):
    """The solving-service account ran out of funds."""


@dataclass
class CaptchaChallenge:
    """One issued challenge. ``prompt`` is what a page embeds."""

    challenge_id: str
    prompt: str
    answer: str
    issued_at: float


@dataclass
class CaptchaStats:
    issued: int = 0
    verified: int = 0
    rejected: int = 0


class CaptchaService:
    """Issues and verifies arithmetic challenges (server side).

    Challenges are single-use: verification consumes them, so replaying a
    solved captcha does not grant a second clearance.
    """

    _OPERATORS = (("+", lambda a, b: a + b), ("-", lambda a, b: a - b), ("*", lambda a, b: a * b))

    def __init__(self, clock: VirtualClock, seed: int = 0) -> None:
        self.clock = clock
        self._rng = random.Random(seed)
        self._pending: dict[str, CaptchaChallenge] = {}
        self._counter = 0
        self.stats = CaptchaStats()

    def issue(self) -> CaptchaChallenge:
        self._counter += 1
        a, b = self._rng.randint(2, 19), self._rng.randint(2, 9)
        symbol, operation = self._rng.choice(self._OPERATORS)
        challenge = CaptchaChallenge(
            challenge_id=f"ch-{self._counter:08d}",
            prompt=f"What is {a} {symbol} {b}?",
            answer=str(operation(a, b)),
            issued_at=self.clock.now(),
        )
        self._pending[challenge.challenge_id] = challenge
        self.stats.issued += 1
        return challenge

    def verify(self, challenge_id: str, answer: str) -> bool:
        challenge = self._pending.pop(challenge_id, None)
        if challenge is not None and challenge.answer == str(answer).strip():
            self.stats.verified += 1
            return True
        self.stats.rejected += 1
        return False

    def state_dict(self) -> dict:
        return {
            "rng": rng_state(self._rng),
            "counter": self._counter,
            "pending": [vars(challenge).copy() for challenge in self._pending.values()],
            "stats": vars(self.stats).copy(),
        }

    def restore_state(self, state: dict) -> None:
        restore_rng(self._rng, state["rng"])
        self._counter = state["counter"]
        self._pending = {
            payload["challenge_id"]: CaptchaChallenge(**payload) for payload in state["pending"]
        }
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)  # in place: callers may hold a reference


def challenge_page(service: CaptchaService) -> Response:
    """Issue a challenge and render the 403 wall page that embeds it.

    Scrapers find the challenge at ``#captcha-challenge[data-challenge-id]``
    and its prompt in ``p.prompt``.
    """
    challenge = service.issue()
    body = (
        "<html><head><title>Security check</title></head><body>"
        "<h1>Please verify you are human</h1>"
        f'<div id="captcha-challenge" data-challenge-id="{challenge.challenge_id}">'
        f"<p class='prompt'>{challenge.prompt}</p></div>"
        "</body></html>"
    )
    return Response.html(body, status=403)


@dataclass
class SolveRecord:
    prompt: str
    answer: str
    cost: float
    duration: float
    succeeded: bool


class TwoCaptchaClient:
    """Client for a commercial captcha-solving service.

    Solving costs money (``price_per_solve``) and simulated time
    (``solve_time`` seconds on the virtual clock).  With probability
    ``1 - accuracy`` the human worker misreads the challenge and the client
    raises :class:`CaptchaSolveError` after still charging the account —
    exactly the economics a measurement team budgets for.
    """

    def __init__(
        self,
        clock: VirtualClock,
        balance: float = 50.0,
        price_per_solve: float = 0.003,
        solve_time: float = 8.0,
        accuracy: float = 0.98,
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.balance = balance
        self.price_per_solve = price_per_solve
        self.solve_time = solve_time
        self.accuracy = accuracy
        self._rng = random.Random(seed)
        self.history: list[SolveRecord] = []

    @property
    def total_spent(self) -> float:
        return sum(record.cost for record in self.history)

    def state_dict(self, include_history: bool = False) -> dict:
        """Account state; solve ``history`` only on request — per-unit
        journal records carry history as appended deltas instead."""
        state = {"balance": self.balance, "rng": rng_state(self._rng)}
        if include_history:
            state["history"] = [vars(record).copy() for record in self.history]
        return state

    def restore_state(self, state: dict) -> None:
        self.balance = state["balance"]
        restore_rng(self._rng, state["rng"])
        if "history" in state:
            self.history = [SolveRecord(**payload) for payload in state["history"]]

    @property
    def solves_attempted(self) -> int:
        return len(self.history)

    def solve(self, prompt: str) -> str:
        """Return the answer for an arithmetic ``prompt``.

        Raises :class:`InsufficientBalanceError` when funds run out and
        :class:`CaptchaSolveError` on a (charged) failed solve.
        """
        if self.balance < self.price_per_solve:
            raise InsufficientBalanceError(f"balance {self.balance:.3f} below price {self.price_per_solve:.3f}")
        self.balance -= self.price_per_solve
        self.clock.sleep(self.solve_time)
        answer = self._read_prompt(prompt)
        succeeded = self._rng.random() < self.accuracy and answer is not None
        self.history.append(
            SolveRecord(
                prompt=prompt,
                answer=answer or "",
                cost=self.price_per_solve,
                duration=self.solve_time,
                succeeded=succeeded,
            )
        )
        if not succeeded:
            raise CaptchaSolveError(f"worker failed to solve: {prompt!r}")
        assert answer is not None
        return answer

    def solve_with_retries(self, prompt: str, attempts: int = 3, policy: "object | None" = None) -> str:
        """Retry failed solves; each attempt is charged.

        :class:`InsufficientBalanceError` propagates immediately — retrying
        cannot refill the account.  With a
        :class:`repro.core.resilience.RetryPolicy` as ``policy``, failed
        solves back off on the virtual clock between attempts and the
        policy's ``max_attempts`` replaces ``attempts``.
        """
        if policy is not None:
            attempts = policy.max_attempts
        for attempt in range(attempts - 1):
            try:
                return self.solve(prompt)
            except CaptchaSolveError:
                if policy is not None:
                    self.clock.sleep(policy.delay(attempt))
        # The last attempt's error propagates as raised.  Kept in a local,
        # it would form a cycle with this frame, which its traceback holds,
        # and every failed solve would leave that cycle to the collector.
        return self.solve(prompt)

    @staticmethod
    def _read_prompt(prompt: str) -> str | None:
        import re

        match = re.search(r"(-?\d+)\s*([+\-*])\s*(-?\d+)", prompt)
        if not match:
            return None
        a, symbol, b = int(match.group(1)), match.group(2), int(match.group(3))
        if symbol == "+":
            return str(a + b)
        if symbol == "-":
            return str(a - b)
        return str(a * b)
