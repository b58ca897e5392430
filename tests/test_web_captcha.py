"""Tests for captcha challenges and the 2Captcha-like solver."""

import gc

import pytest

from repro.core.resilience import RetryPolicy
from repro.web.captcha import (
    CaptchaService,
    CaptchaSolveError,
    InsufficientBalanceError,
    TwoCaptchaClient,
)


class TestCaptchaService:
    def test_issue_unique_ids(self, clock):
        service = CaptchaService(clock)
        ids = {service.issue().challenge_id for _ in range(50)}
        assert len(ids) == 50

    def test_verify_correct_answer(self, clock):
        service = CaptchaService(clock)
        challenge = service.issue()
        assert service.verify(challenge.challenge_id, challenge.answer)

    def test_challenges_are_single_use(self, clock):
        service = CaptchaService(clock)
        challenge = service.issue()
        assert service.verify(challenge.challenge_id, challenge.answer)
        assert not service.verify(challenge.challenge_id, challenge.answer)

    def test_wrong_answer_rejected_and_consumed(self, clock):
        service = CaptchaService(clock)
        challenge = service.issue()
        assert not service.verify(challenge.challenge_id, "999999")
        assert not service.verify(challenge.challenge_id, challenge.answer)

    def test_unknown_id_rejected(self, clock):
        assert not CaptchaService(clock).verify("nope", "1")

    def test_stats_counts(self, clock):
        service = CaptchaService(clock)
        challenge = service.issue()
        service.verify(challenge.challenge_id, challenge.answer)
        service.verify("ghost", "1")
        assert service.stats.issued == 1
        assert service.stats.verified == 1
        assert service.stats.rejected == 1

    def test_prompt_is_solvable_arithmetic(self, clock):
        service = CaptchaService(clock)
        for _ in range(20):
            challenge = service.issue()
            assert TwoCaptchaClient._read_prompt(challenge.prompt) == challenge.answer


class TestTwoCaptchaClient:
    def test_solve_charges_and_takes_time(self, clock):
        client = TwoCaptchaClient(clock, balance=1.0, price_per_solve=0.1, solve_time=5.0, accuracy=1.0)
        answer = client.solve("What is 3 + 4?")
        assert answer == "7"
        assert client.balance == pytest.approx(0.9)
        assert clock.now() == pytest.approx(5.0)
        assert client.total_spent == pytest.approx(0.1)

    def test_insufficient_balance(self, clock):
        client = TwoCaptchaClient(clock, balance=0.0)
        with pytest.raises(InsufficientBalanceError):
            client.solve("What is 1 + 1?")

    def test_failed_solve_still_charged(self, clock):
        client = TwoCaptchaClient(clock, balance=1.0, price_per_solve=0.1, accuracy=0.0)
        with pytest.raises(CaptchaSolveError):
            client.solve("What is 2 + 2?")
        assert client.balance == pytest.approx(0.9)

    def test_solve_with_retries_eventually_raises(self, clock):
        client = TwoCaptchaClient(clock, balance=10.0, accuracy=0.0)
        with pytest.raises(CaptchaSolveError):
            client.solve_with_retries("What is 2 + 2?", attempts=3)
        assert client.solves_attempted == 3

    def test_retries_under_a_policy_back_off_between_charged_attempts(self, clock):
        client = TwoCaptchaClient(clock, balance=1.0, price_per_solve=0.1, solve_time=8.0, accuracy=0.0)
        with pytest.raises(CaptchaSolveError, match="worker failed to solve"):
            client.solve_with_retries("What is 2 + 2?", policy=RetryPolicy(max_attempts=3, base_delay=1.0))
        assert client.solves_attempted == 3
        assert client.balance == pytest.approx(0.7)
        assert clock.now() == pytest.approx(3 * 8.0 + 1.0 + 2.0)  # no back-off after the last attempt

    def test_a_failed_solve_leaves_no_cycle_for_the_collector(self, clock, collector):
        client = TwoCaptchaClient(clock, balance=10.0, accuracy=0.0)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        for policy in (None, RetryPolicy(max_attempts=2)):
            try:
                client.solve_with_retries("What is 2 + 2?", policy=policy)
            except CaptchaSolveError:
                pass
        gc.collect()
        assert [type(obj).__name__ for obj in gc.garbage] == []

    def test_unparseable_prompt_fails(self, clock):
        client = TwoCaptchaClient(clock, accuracy=1.0)
        with pytest.raises(CaptchaSolveError):
            client.solve("select all traffic lights")

    def test_subtraction_and_multiplication(self, clock):
        client = TwoCaptchaClient(clock, accuracy=1.0)
        assert client.solve("What is 9 - 4?") == "5"
        assert client.solve("What is 6 * 3?") == "18"

    def test_history_records(self, clock):
        client = TwoCaptchaClient(clock, accuracy=1.0)
        client.solve("What is 1 + 1?")
        assert len(client.history) == 1
        assert client.history[0].succeeded
