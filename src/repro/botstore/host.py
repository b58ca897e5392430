"""Assemble the repository site host with its anti-scraping defences."""

from __future__ import annotations

from dataclasses import dataclass

from repro.botstore.listings import ListingStore
from repro.botstore.site import TOPGG_HOSTNAME, TopGGSite
from repro.ecosystem.generator import Ecosystem
from repro.web.antiscrape import CaptchaWallMiddleware, RateLimitMiddleware
from repro.web.captcha import CaptchaService
from repro.web.network import VirtualInternet
from repro.web.server import VirtualHost

#: Seed of the listing site's captcha challenges.
CAPTCHA_SEED = 17


@dataclass
class StoreDefenses:
    """Anti-scraping configuration for the listing site.

    Defaults approximate a real listing site: a generous rate limit and a
    captcha wall that re-challenges periodically.  Transient 5xx come from
    chaos error bursts (:mod:`repro.web.chaos`), not from the store.
    """

    rate_limit_requests: int = 120
    rate_limit_window: float = 60.0
    captcha_enabled: bool = True
    captcha_every: int = 500
    captcha_clearance: int = 500


def build_store_host(
    ecosystem: Ecosystem,
    internet: VirtualInternet,
    defenses: StoreDefenses | None = None,
) -> tuple[TopGGSite, CaptchaService]:
    """Build the listing site, attach defences, register on the internet.

    Returns the site plus the captcha service (tests inspect its stats).
    """
    defenses = defenses or StoreDefenses()
    store = ListingStore(ecosystem)
    site = TopGGSite(store)
    host: VirtualHost = site.host
    captcha_service = CaptchaService(internet.clock, seed=CAPTCHA_SEED)
    host.add_middleware(
        RateLimitMiddleware(internet.clock, defenses.rate_limit_requests, defenses.rate_limit_window)
    )
    if defenses.captcha_enabled:
        host.add_middleware(
            CaptchaWallMiddleware(
                captcha_service,
                challenge_every=defenses.captcha_every,
                clearance_requests=defenses.captcha_clearance,
            )
        )
    internet.register(TOPGG_HOSTNAME, host)
    return site, captcha_service
