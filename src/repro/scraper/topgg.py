"""Listing-site crawler: the "top chatbot" traversal.

Walks every page of the top list, opens every bot's detail page, extracts
the metadata tuple the paper records (ID, name, URL, tags, permissions,
guild count, description, GitHub link) and resolves each invite link to a
consent page to read the requested permissions — classifying invalid
invites exactly as the paper does (bad links, removed bots, slow-redirect
timeouts).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.discordsim.permissions import Permissions, permission_from_name
from repro.scraper.base import CaptchaBudgetExhaustedError, PoliteScraper, try_locators
from repro.web.browser import By, NoSuchElementException, TimeoutException, WebDriverException
from repro.web.network import NetworkError

TOPGG_BASE = "https://top.gg.sim"
TOPGG_HOST = "top.gg.sim"

#: Degradation callback: ``on_fault(host, error, bots_skipped, detail)``;
#: ``error`` is an exception or an error-class string for non-exception
#: losses (e.g. a page mangled beyond parsing).
CrawlFaultSink = Callable[[str, "BaseException | str", int, str], None]

_NUMBER_PATTERN = re.compile(r"\d[\d,]*")


class PermissionStatus(Enum):
    """Outcome of resolving one invite link."""

    VALID = "valid"
    INVALID_LINK = "invalid_link"
    REMOVED = "removed"
    TIMEOUT = "timeout"

    @property
    def is_valid(self) -> bool:
        return self is PermissionStatus.VALID


@dataclass
class ScrapedBot:
    """One bot's scraped metadata (the unit of all downstream analysis)."""

    listing_id: int
    name: str
    developer_tag: str
    tags: tuple[str, ...]
    description: str
    guild_count: int
    votes: int
    invite_url: str | None
    website_url: str | None
    github_url: str | None
    built_with: str | None
    permission_status: PermissionStatus = PermissionStatus.INVALID_LINK
    permission_names: tuple[str, ...] = ()
    scope_names: tuple[str, ...] = ()
    #: ``(names, parsed)``: the last ``permission_names`` tuple parsed and
    #: its value.  Keyed by the tuple's identity, so reassigning the names
    #: (as invite resolution does) re-parses; derived, so out of ``repr``,
    #: equality and the codecs.
    _parsed: tuple = field(default=((), Permissions.none()), init=False, repr=False, compare=False)

    @property
    def permissions(self) -> Permissions:
        names, value = self._parsed
        if names is not self.permission_names:
            value = Permissions.from_names(self.permission_names)
            self._parsed = (self.permission_names, value)
        return value

    @property
    def has_valid_permissions(self) -> bool:
        return self.permission_status.is_valid


def scraped_bot_to_dict(bot: ScrapedBot) -> dict:
    return {
        "listing_id": bot.listing_id,
        "name": bot.name,
        "developer_tag": bot.developer_tag,
        "tags": list(bot.tags),
        "description": bot.description,
        "guild_count": bot.guild_count,
        "votes": bot.votes,
        "invite_url": bot.invite_url,
        "website_url": bot.website_url,
        "github_url": bot.github_url,
        "built_with": bot.built_with,
        "permission_status": bot.permission_status.value,
        "permission_names": list(bot.permission_names),
        "scope_names": list(bot.scope_names),
    }


def scraped_bot_from_dict(payload: dict) -> ScrapedBot:
    return ScrapedBot(
        listing_id=payload["listing_id"],
        name=payload["name"],
        developer_tag=payload["developer_tag"],
        tags=tuple(payload["tags"]),
        description=payload["description"],
        guild_count=payload["guild_count"],
        votes=payload["votes"],
        invite_url=payload["invite_url"],
        website_url=payload["website_url"],
        github_url=payload["github_url"],
        built_with=payload["built_with"],
        permission_status=PermissionStatus(payload["permission_status"]),
        permission_names=tuple(payload["permission_names"]),
        scope_names=tuple(payload.get("scope_names", ())),
    )


class ActiveBots:
    """Lazy ``has_valid_permissions`` filter over a spilled bot sequence.

    Iteration re-reads the backing store each pass (streamed runs re-walk
    it once per stage); the count is taken on first ``len()`` and cached —
    the crawl is over by then, so the filtered population is final.  A
    caller that already counted it passes ``count`` and spares that walk.
    """

    def __init__(self, bots, count: int | None = None) -> None:
        self._bots = bots
        self._count = count

    def __iter__(self):
        for bot in self._bots:
            if bot.has_valid_permissions:
                yield bot

    def __len__(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self)
        return self._count


@dataclass
class CrawlResult:
    bots: list[ScrapedBot] = field(default_factory=list)
    pages_traversed: int = 0
    _active: "ActiveBots | None" = field(default=None, init=False, repr=False, compare=False)

    def with_valid_permissions(self, count: int | None = None) -> "list[ScrapedBot] | ActiveBots":
        """The bots whose invites resolved (the stage 2–4 input).

        A plain list for materialized crawls; a cached lazy view when
        ``bots`` is a disk spill, so a streamed run never materializes the
        active population either.  ``count``, when the caller has already
        counted the active bots, becomes the view's length without a walk.
        """
        if isinstance(self.bots, list):
            return [bot for bot in self.bots if bot.has_valid_permissions]
        if self._active is None:
            self._active = ActiveBots(self.bots, count)
        return self._active


class _ListPageUnreachable(Exception):
    """A list page failed again after its host's open circuit was waited out."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(str(error))
        self.error = error


class TopGGScraper(PoliteScraper):
    """Crawl the listing site end to end."""

    def crawl(
        self,
        max_pages: int | None = None,
        resolve_permissions: bool = True,
        on_fault: CrawlFaultSink | None = None,
        recorder=None,
        bots: list | None = None,
    ) -> CrawlResult:
        """Traverse the top list; optionally resolve invite permissions.

        With ``on_fault``, the crawl degrades instead of crashing: a bot
        whose detail page dies is skipped (reported with ``bots_skipped=1``),
        a list page still unreachable after its host's circuit cooled down
        is skipped like a malformed one (its bots are lost), a list page
        that cannot be loaded otherwise (its host still down after a second
        cool-down, its retries spent or refused) ends pagination (remaining
        bots unknown), and captcha budget exhaustion aborts the crawl —
        each reported through the callback.  Without it, exceptions propagate
        as before.  List-page retries are described in
        :meth:`_scrape_list_page_retrying`.

        With a ``recorder`` (a :class:`~repro.core.journal.StageRecorder`),
        every page iteration the loop *advances past* — parsed pages and
        skipped (malformed or unreachable) pages alike — commits one
        write-ahead record, and a resumed crawl replays those records
        instead of re-fetching.  Iterations that end the crawl (pagination
        404, abandonment, captcha exhaustion) are never journaled: they
        re-execute deterministically against the replayed world state.
        """
        from repro.core.crashpoints import crashpoint

        result = CrawlResult()
        if bots is not None:
            # Caller-provided accumulator (a disk spill for streamed runs);
            # the crawl only ever appends/extends, so any list-alike works.
            result.bots = bots
        page_number = 1
        known: set[int] = set()
        while True:
            if max_pages is not None and page_number > max_pages:
                break
            if recorder is not None:
                replayed, payload = recorder.try_replay(f"page-{page_number}")
                if replayed:
                    page_bots = [scraped_bot_from_dict(entry) for entry in payload["bots"]]
                    result.bots.extend(page_bots)
                    known.update(bot.listing_id for bot in page_bots)
                    result.pages_traversed += payload["traversed"]
                    page_number += 1
                    continue
                recorder.begin_unit()
            lost = ("MalformedPage", "unparseable")  # why a skipped page's bots are lost
            try:
                listing_ids = self._scrape_list_page_retrying(page_number)
            except CaptchaBudgetExhaustedError as error:
                if on_fault is None:
                    raise
                on_fault(TOPGG_HOST, error, 0, f"captcha budget exhausted on list page {page_number}; crawl aborted")
                break
            except _ListPageUnreachable as unreachable:
                if on_fault is None:
                    raise unreachable.error
                listing_ids = []
                lost = (unreachable.error, "unreachable after its host's circuit cooled down")
            except (WebDriverException, NetworkError) as error:
                if on_fault is None:
                    raise
                on_fault(TOPGG_HOST, error, 0, f"list page {page_number} unreachable; pagination abandoned")
                break
            if listing_ids is None:
                break
            if not listing_ids:
                # A status-200 page with no parseable bot links (mangled
                # HTML), or one the transport never delivered.
                if on_fault is None:
                    break
                error, reason = lost
                on_fault(TOPGG_HOST, error, 0, f"list page {page_number} {reason}; its bots are lost")
                if recorder is not None:
                    # The loop advances past a skipped page, so it must be
                    # journaled (with its fault delta) or resumed keys drift.
                    recorder.commit(f"page-{page_number}", {"bots": [], "traversed": 0})
                    crashpoint("crawl.after_page")
                page_number += 1
                continue
            result.pages_traversed += 1
            page_bots: list[ScrapedBot] = []
            aborted = False
            for listing_id in listing_ids:
                if listing_id in known:
                    # Already collected: a live listing can re-serve a bot
                    # on a later page (its rank shifted mid-crawl).
                    continue
                try:
                    bot = self.scrape_bot(listing_id)
                    if bot is None:
                        if on_fault is not None:
                            on_fault(TOPGG_HOST, "MalformedPage", 1, f"bot {listing_id} page unusable")
                        continue
                    if resolve_permissions:
                        self.resolve_permissions(bot)
                except CaptchaBudgetExhaustedError as error:
                    if on_fault is None:
                        raise
                    on_fault(TOPGG_HOST, error, 1, f"captcha budget exhausted at bot {listing_id}; crawl aborted")
                    aborted = True
                    break
                except (WebDriverException, NetworkError) as error:
                    if on_fault is None:
                        raise
                    on_fault(TOPGG_HOST, error, 1, f"bot {listing_id} skipped")
                    continue
                page_bots.append(bot)
                known.add(bot.listing_id)
            result.bots.extend(page_bots)
            if aborted:
                # Terminal iteration: not journaled; a resume re-executes it
                # against the replayed world and aborts identically.
                break
            if recorder is not None:
                recorder.commit(
                    f"page-{page_number}",
                    {"bots": [scraped_bot_to_dict(bot) for bot in page_bots], "traversed": 1},
                )
                crashpoint("crawl.after_page")
            page_number += 1
        return result

    # -- list pages -------------------------------------------------------------

    def _scrape_list_page_retrying(self, page_number: int) -> list[int] | None:
        """:meth:`_scrape_list_page`, retried through transport faults.

        Each retry is paid from the stage retry budget and backed off with
        the retry policy.  A failure the host's circuit breaker counts is
        retried until the breaker opens; :meth:`fetch` then waits out its
        cool-down, and if the attempt after that wait fails too the page
        raises :class:`_ListPageUnreachable` (the crawl skips it).  If the
        breaker was already open when the page began (the previous page's
        failed probe, or its detail pages, opened it), that cool-down was
        the host's second chance and the attempt's own error propagates:
        the crawl ends pagination, so a dead host costs at most one
        skipped page.  A failure the breaker cannot count (a timeout, a
        robots refusal) is retried only as often as the retry policy
        allows.  The error also propagates when the budget refuses a
        retry, or the scraper has no budget to pay one from.
        """
        from repro.core.resilience import CircuitOpenError

        attempt = 0
        while True:
            # An open breaker: this attempt's fetch first waits out its cool-down.
            after_cool_down = self.breakers is not None and TOPGG_HOST in self.breakers.open_hosts()
            counted_before = self.stats.faults_absorbed
            try:
                return self._scrape_list_page(page_number)
            except CaptchaBudgetExhaustedError:
                raise
            except (WebDriverException, NetworkError) as error:
                if isinstance(error, CircuitOpenError):
                    raise  # the budget refused to wait out the open circuit
                if after_cool_down:
                    if attempt == 0:
                        raise  # open before this page: a second cool-down lost
                    raise _ListPageUnreachable(error) from error
                # Counted: the attempt noted a transport failure on the breaker.
                counted = self.breakers is not None and self.stats.faults_absorbed > counted_before
                retries = self.breakers.failure_threshold if counted else self.retry_policy.max_attempts
                if self.retry_budget is None or attempt >= retries or not self._spend_retry():
                    raise
            self.internet.clock.sleep(self.retry_policy.delay(attempt, self._rng))
            attempt += 1

    def _scrape_list_page(self, page_number: int) -> list[int] | None:
        """Return listing ids on one page.

        ``None`` means pagination genuinely ended (404); an empty list means
        the page loaded but had no parseable bot links (mangled HTML) —
        callers decide whether that ends the crawl or just loses the page.
        """
        response = self.fetch(f"{TOPGG_BASE}/list/top?page={page_number}")
        if response.status == 404:
            return None
        ids: list[int] = []
        # Variant A: <a class="bot-link" href="/bot/{id}">
        for element in self.browser.find_elements(By.CSS_SELECTOR, "a.bot-link"):
            href = element.get_attribute("href") or ""
            match = re.search(r"/bot/(\d+)", href)
            if match:
                ids.append(int(match.group(1)))
        # Variant B: <a data-bot-id="{id}">
        for element in self.browser.find_elements(By.CSS_SELECTOR, "a[data-bot-id]"):
            value = element.get_attribute("data-bot-id")
            if value and value.isdigit():
                ids.append(int(value))
        if not ids:
            self.stats.element_misses += 1
            return []
        return ids

    # -- detail pages --------------------------------------------------------------

    def scrape_bot(self, listing_id: int) -> ScrapedBot | None:
        """Extract one bot's metadata from its detail page."""
        response = self.fetch(f"{TOPGG_BASE}/bot/{listing_id}")
        if response.status != 200:
            return None
        browser = self.browser
        try:
            name = browser.find_element(By.CSS_SELECTOR, "h1.bot-title").text
        except NoSuchElementException:
            self.stats.element_misses += 1
            return None
        developer = try_locators(browser, [(By.CSS_SELECTOR, "span.dev-tag")])
        description = try_locators(browser, [(By.CSS_SELECTOR, "p.description")])
        guilds = try_locators(
            browser,
            [(By.ID, "guild-count"), (By.CSS_SELECTOR, "span.stat-guilds")],
        )
        votes = try_locators(
            browser,
            [(By.ID, "votes"), (By.CSS_SELECTOR, "span.stat-votes")],
        )
        invite = try_locators(
            browser,
            [(By.ID, "invite-button"), (By.CSS_SELECTOR, "a.invite-link")],
        )
        website = try_locators(browser, [(By.ID, "website-link"), (By.CSS_SELECTOR, "a[rel=website]")])
        github = try_locators(browser, [(By.ID, "github-link"), (By.CSS_SELECTOR, "a[rel=github]")])
        built_with = try_locators(browser, [(By.CSS_SELECTOR, "p.built-with")])
        tags = tuple(element.text for element in browser.find_elements(By.CSS_SELECTOR, "span.tag"))
        return ScrapedBot(
            listing_id=listing_id,
            name=name,
            developer_tag=developer.text if developer else "",
            tags=tags,
            description=description.text if description else "",
            guild_count=_parse_number(guilds.text if guilds else ""),
            votes=_parse_number(votes.text if votes else ""),
            invite_url=invite.get_attribute("href") if invite else None,
            website_url=website.get_attribute("href") if website else None,
            github_url=github.get_attribute("href") if github else None,
            built_with=_parse_built_with(built_with.text if built_with else ""),
        )

    # -- invite resolution ------------------------------------------------------------

    def resolve_permissions(self, bot: ScrapedBot) -> PermissionStatus:
        """Follow the invite link and read permissions off the consent page."""
        if not bot.invite_url:
            bot.permission_status = PermissionStatus.INVALID_LINK
            return bot.permission_status
        try:
            response = self.fetch(bot.invite_url)
        except TimeoutException:
            bot.permission_status = PermissionStatus.TIMEOUT
            return bot.permission_status
        if response.status == 404:
            bot.permission_status = PermissionStatus.REMOVED
            return bot.permission_status
        if response.status != 200:
            bot.permission_status = PermissionStatus.INVALID_LINK
            return bot.permission_status
        items = self.browser.find_elements(By.CSS_SELECTOR, "ul#permission-list li.permission-item")
        names = []
        for item in items:
            text = item.text
            try:
                permission_from_name(text)
            except KeyError:
                # A token cut mid-word (truncated body) would poison every
                # later Permissions.from_names() — drop it at the boundary.
                self.stats.element_misses += 1
                continue
            names.append(text)
        bot.permission_names = tuple(names)
        bot.scope_names = self._parse_scopes()
        bot.permission_status = PermissionStatus.VALID
        return bot.permission_status

    def _parse_scopes(self) -> tuple[str, ...]:
        """Read the OAuth scopes off the consent page ("Scopes: bot, ...")."""
        element = try_locators(self.browser, [(By.CSS_SELECTOR, "p.scopes")])
        if element is None:
            return ()
        text = element.text
        _, _, listing = text.partition(":")
        return tuple(scope.strip() for scope in listing.split(",") if scope.strip())


def _parse_number(text: str) -> int:
    match = _NUMBER_PATTERN.search(text)
    return int(match.group(0).replace(",", "")) if match else 0


def _parse_built_with(text: str) -> str | None:
    prefix = "Built with "
    if text.startswith(prefix):
        return text[len(prefix):]
    return text or None
