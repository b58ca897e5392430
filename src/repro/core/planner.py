"""Campaign planning: estimate cost and duration before running.

A real measurement campaign has budgets — captcha dollars, crawl days,
account-verification labour.  The planner turns a
:class:`~repro.core.config.PipelineConfig` into order-of-magnitude
estimates (request volume, captcha spend, virtual duration) so a team can
size a study before committing; the accompanying tests validate the
estimates against actual simulated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.botstore.site import PAGE_SIZE
from repro.core.config import PipelineConfig
from repro.ecosystem.distributions import DEFAULT_TARGETS
from repro.honeypot.experiment import FEED_MESSAGES, OBSERVATION_WINDOW

#: Mean think time of the default scraper configuration (uniform 0.4-1.6s).
_MEAN_THINK = 1.0
#: The listing site's robots.txt crawl delay dominates store pacing.
_STORE_DELAY = 2.0
#: Default 2Captcha economics (mirrors TwoCaptchaClient defaults).
_CAPTCHA_SECONDS = 8.0
_CAPTCHA_PRICE = 0.003
#: Mean feed pacing (uniform 0.5-8s).
_MEAN_FEED_DELAY = 4.25


@dataclass
class CampaignEstimate:
    """Planner output (all values are expectations, not bounds)."""

    listing_pages: int
    total_requests: int
    captcha_solves: int
    captcha_dollars: float
    virtual_hours: float

    def summary(self) -> str:
        return (
            f"~{self.listing_pages} listing pages, ~{self.total_requests:,} requests, "
            f"~{self.captcha_solves} captcha solves (${self.captcha_dollars:.2f}), "
            f"~{self.virtual_hours:.1f} virtual hours"
        )


def estimate_campaign(config: PipelineConfig) -> CampaignEstimate:
    """Estimate one full pipeline run under ``config``."""
    n = config.n_bots
    targets = DEFAULT_TARGETS
    active = n * targets.population.valid_permission_fraction

    listing_pages = math.ceil(n / PAGE_SIZE) + 1  # + the terminating 404
    detail_requests = n
    invite_requests = n if config.resolve_permissions else 0

    website_requests = 0.0
    if config.run_traceability:
        with_site = active * targets.traceability.website_fraction
        # homepage + (policy page when advertised) + occasional legal hop.
        website_requests = with_site * (1.0 + targets.traceability.policy_link_given_website * 1.5)

    github_requests = 0.0
    if config.run_code_analysis:
        links = active * targets.code.github_link_fraction
        valid = links * targets.code.valid_repo_given_link
        # repo page for every link + ~6 raw files for repos with source.
        github_requests = links + valid * 6.0

    honeypot_requests = 0.0
    honeypot_solves = 0
    honeypot_seconds = 0.0
    if config.run_honeypot:
        sample = config.honeypot_sample_size
        installable = sample * targets.population.valid_permission_fraction
        honeypot_solves = math.ceil(installable)
        per_guild_feed = FEED_MESSAGES * _MEAN_FEED_DELAY
        honeypot_seconds = installable * (per_guild_feed + _CAPTCHA_SECONDS) + OBSERVATION_WINDOW
        honeypot_requests = installable * 3  # triggers/exfil beacons, rough

    store_requests = listing_pages + detail_requests
    crawl_requests = store_requests + invite_requests + website_requests + github_requests
    # Store requests pace at the crawl delay; everything else at think time.
    crawl_seconds = (
        store_requests * _STORE_DELAY
        + (invite_requests + website_requests + github_requests) * _MEAN_THINK
    )
    store_captchas = math.ceil(store_requests / 500)  # wall cadence

    total_solves = store_captchas + honeypot_solves
    total_requests = int(crawl_requests + honeypot_requests)
    virtual_seconds = crawl_seconds + honeypot_seconds + total_solves * _CAPTCHA_SECONDS
    return CampaignEstimate(
        listing_pages=listing_pages,
        total_requests=total_requests,
        captcha_solves=total_solves,
        captcha_dollars=total_solves * _CAPTCHA_PRICE,
        virtual_hours=virtual_seconds / 3600.0,
    )
