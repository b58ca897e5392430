"""A Selenium-like driver over the virtual internet.

The paper's scraper is written against Selenium WebDriver: element locators,
explicit waits, and reacting to ``NoSuchElementException`` /
``TimeoutException`` when "elements unexpectedly become unavailable" or "a
command takes more than the wait time".  This module reproduces exactly that
API surface so the measurement code reads like the original.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.web.client import HttpClient, RequestTimeoutError
from repro.web.dom import Element, parse_html
from repro.web.http import Response, Url
from repro.web.network import NetworkError, VirtualInternet

T = TypeVar("T")


class WebDriverException(Exception):
    """Base class for driver-level failures."""


class NoSuchElementException(WebDriverException):
    """No element matched the locator on the current page."""


class TimeoutException(WebDriverException):
    """An explicit wait expired before its condition held."""


class StaleElementReferenceException(WebDriverException):
    """The element belongs to a page the browser has navigated away from."""


class By:
    """Locator strategies (the subset the paper's scraper uses)."""

    CSS_SELECTOR = "css selector"
    ID = "id"
    CLASS_NAME = "class name"
    TAG_NAME = "tag name"
    LINK_TEXT = "link text"
    PARTIAL_LINK_TEXT = "partial link text"


def _locator_to_css(by: str, value: str) -> str | None:
    if by == By.CSS_SELECTOR:
        return value
    if by == By.ID:
        return f"#{value}"
    if by == By.CLASS_NAME:
        return f".{value}"
    if by == By.TAG_NAME:
        return value
    return None


class WebElement:
    """A located element, pinned to the page generation it came from."""

    def __init__(self, browser: "Browser", element: Element, generation: int) -> None:
        self._browser = browser
        self._element = element
        self._generation = generation

    def _live(self) -> Element:
        if self._generation != self._browser._generation:
            raise StaleElementReferenceException("page has changed since this element was located")
        return self._element

    @property
    def text(self) -> str:
        return self._live().text

    @property
    def tag_name(self) -> str:
        return self._live().tag

    def get_attribute(self, name: str) -> str | None:
        return self._live().get(name)

    def find_element(self, by: str, value: str) -> "WebElement":
        return self._browser._find(self._live(), by, value, require=True)[0]

    def find_elements(self, by: str, value: str) -> list["WebElement"]:
        return self._browser._find(self._live(), by, value, require=False)

    def click(self) -> None:
        """Follow an anchor's ``href`` (the only click the scraper performs)."""
        element = self._live()
        href = element.get("href")
        if element.tag != "a" or not href:
            raise WebDriverException(f"cannot click non-link element {element!r}")
        self._browser.get(str(self._browser.current_url.join(href)))

    def __repr__(self) -> str:
        return f"WebElement({self._element!r})"


class Browser:
    """Headless browser: fetch, parse, locate.

    ``page_load_timeout`` mirrors Selenium's setting; fetches that exceed it
    surface as :class:`TimeoutException`, which is what the paper's scraper
    catches around slow redirect chains.

    A page the browser leaves is released: navigation empties its parsed
    document, so reference counting frees it without the cycle collector.
    Every :class:`WebElement` located on it raises
    :class:`StaleElementReferenceException` from then on.
    """

    def __init__(
        self,
        internet: VirtualInternet,
        client_id: str = "scraper",
        page_load_timeout: float = 10.0,
    ) -> None:
        self.client = HttpClient(internet, client_id=client_id, default_timeout=page_load_timeout)
        self.internet = internet
        self.page_load_timeout = page_load_timeout
        self._generation = 0
        self._dom: Element | None = None
        self._response: Response | None = None
        self.current_url: Url = Url.parse("about:blank")
        self.pages_loaded = 0

    # -- navigation ----------------------------------------------------------

    def get(self, url: str | Url) -> Response:
        """Navigate to ``url``; network failures surface as driver exceptions."""
        try:
            response = self.client.get(url, timeout=self.page_load_timeout)
        except RequestTimeoutError as error:
            raise TimeoutException(str(error)) from error
        except NetworkError as error:
            raise WebDriverException(f"navigation failed: {error}") from error
        self._install_page(response)
        return response

    def _install_page(self, response: Response) -> None:
        self._generation += 1
        if self._dom is not None:
            # A parsed page is a reference cycle: each element holds the node
            # list that holds it.  Emptying the list of the page being left,
            # whose WebElements just went stale, lets reference counting free
            # it now instead of the cycle collector later.
            self._dom._nodes.clear()
        self._response = response
        self._dom = parse_html(response.body) if "html" in response.content_type else parse_html("")
        self.current_url = response.url or self.current_url
        self.pages_loaded += 1

    # -- inspection ------------------------------------------------------------

    @property
    def page_source(self) -> str:
        return self._response.body if self._response else ""

    @property
    def status_code(self) -> int:
        return self._response.status if self._response else 0

    @property
    def title(self) -> str:
        if self._dom is None:
            return ""
        node = self._dom.select_one("title")
        return node.text if node else ""

    # -- location ----------------------------------------------------------------

    def find_element(self, by: str, value: str) -> WebElement:
        if self._dom is None:
            raise NoSuchElementException("no page loaded")
        return self._find(self._dom, by, value, require=True)[0]

    def find_elements(self, by: str, value: str) -> list[WebElement]:
        if self._dom is None:
            return []
        return self._find(self._dom, by, value, require=False)

    def _find(self, root: Element, by: str, value: str, require: bool) -> list[WebElement]:
        css = _locator_to_css(by, value)
        if css is not None:
            nodes = root.select(css)
        elif by == By.LINK_TEXT:
            nodes = [node for node in root.find_all("a") if node.text == value]
        elif by == By.PARTIAL_LINK_TEXT:
            nodes = [node for node in root.find_all("a") if value in node.text]
        else:
            raise WebDriverException(f"unsupported locator strategy: {by}")
        if require and not nodes:
            raise NoSuchElementException(f"no element for {by}={value!r} on {self.current_url}")
        return [WebElement(self, node, self._generation) for node in nodes]


class WebDriverWait:
    """Explicit wait: poll a condition on the virtual clock."""

    def __init__(self, browser: Browser, timeout: float, poll_frequency: float = 0.5) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.browser = browser
        self.timeout = timeout
        self.poll_frequency = max(poll_frequency, 1e-3)

    def until(self, condition: Callable[[Browser], T]) -> T:
        """Return the condition's first truthy result, else raise TimeoutException."""
        clock = self.browser.internet.clock
        deadline = clock.now() + self.timeout
        while True:
            try:
                result = condition(self.browser)
            except NoSuchElementException:
                result = None  # type: ignore[assignment]
            if result:
                return result
            if clock.now() >= deadline:
                raise TimeoutException(f"condition not met within {self.timeout:.1f}s")
            clock.sleep(self.poll_frequency)


def presence_of_element_located(by: str, value: str) -> Callable[[Browser], WebElement | None]:
    """Expected-condition helper mirroring Selenium's."""

    def probe(browser: Browser) -> WebElement | None:
        try:
            return browser.find_element(by, value)
        except NoSuchElementException:
            return None

    return probe
