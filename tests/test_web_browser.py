"""Tests for the Selenium-like browser: locators, waits, exceptions, page lifetime."""

import gc

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.web.browser import (
    Browser,
    By,
    NoSuchElementException,
    StaleElementReferenceException,
    TimeoutException,
    WebDriverException,
    WebDriverWait,
    presence_of_element_located,
)
from repro.web.dom import Element
from repro.web.http import Response
from repro.web.network import HostConditions
from repro.web.server import VirtualHost


@pytest.fixture
def browser(internet):
    host = VirtualHost("site")
    host.add_route(
        "/",
        lambda request: Response.html(
            "<html><head><title>Home</title></head><body>"
            '<a id="next" href="/second">Go to second page</a>'
            '<p class="note">first</p></body></html>'
        ),
    )
    host.add_route(
        "/second",
        lambda request: Response.html(
            "<html><head><title>Second</title></head><body>"
            '<h1 class="headline">Arrived</h1></body></html>'
        ),
    )
    internet.register("site.sim", host)
    internet.register("slow.sim", _slow(), HostConditions(base_latency=30.0))
    return Browser(internet, client_id="tester")


def _slow() -> VirtualHost:
    host = VirtualHost("slow")
    host.add_route("/", lambda request: Response.html("<html></html>"))
    return host


class TestNavigation:
    def test_get_sets_state(self, browser):
        browser.get("https://site.sim/")
        assert browser.title == "Home"
        assert browser.status_code == 200
        assert str(browser.current_url) == "https://site.sim/"
        assert "first" in browser.page_source

    def test_timeout_maps_to_selenium_exception(self, browser):
        with pytest.raises(TimeoutException):
            browser.get("https://slow.sim/")

    def test_unknown_host_maps_to_webdriver_exception(self, browser):
        with pytest.raises(WebDriverException):
            browser.get("https://missing.sim/")

    def test_pages_loaded_counter(self, browser):
        browser.get("https://site.sim/")
        browser.get("https://site.sim/second")
        assert browser.pages_loaded == 2


class TestLocators:
    def test_css_selector(self, browser):
        browser.get("https://site.sim/")
        assert browser.find_element(By.CSS_SELECTOR, "p.note").text == "first"

    def test_id_locator(self, browser):
        browser.get("https://site.sim/")
        assert browser.find_element(By.ID, "next").tag_name == "a"

    def test_class_name_locator(self, browser):
        browser.get("https://site.sim/")
        assert browser.find_element(By.CLASS_NAME, "note").text == "first"

    def test_tag_name_locator(self, browser):
        browser.get("https://site.sim/")
        assert browser.find_element(By.TAG_NAME, "a").get_attribute("id") == "next"

    def test_link_text_exact(self, browser):
        browser.get("https://site.sim/")
        element = browser.find_element(By.LINK_TEXT, "Go to second page")
        assert element.get_attribute("href") == "/second"

    def test_partial_link_text(self, browser):
        browser.get("https://site.sim/")
        assert browser.find_element(By.PARTIAL_LINK_TEXT, "second").tag_name == "a"

    def test_missing_element_raises(self, browser):
        browser.get("https://site.sim/")
        with pytest.raises(NoSuchElementException):
            browser.find_element(By.ID, "ghost")

    def test_find_elements_empty_ok(self, browser):
        browser.get("https://site.sim/")
        assert browser.find_elements(By.CSS_SELECTOR, ".ghost") == []

    def test_nested_find(self, browser):
        browser.get("https://site.sim/")
        body = browser.find_element(By.TAG_NAME, "body")
        assert body.find_element(By.ID, "next").tag_name == "a"


#: Each ``WebElement`` accessor: the first page's element it applies to, and the call.
ACCESSORS = {
    "text": ("a#next", lambda element: element.text),
    "tag_name": ("a#next", lambda element: element.tag_name),
    "get_attribute": ("a#next", lambda element: element.get_attribute("href")),
    "find_element": ("body", lambda element: element.find_element(By.ID, "next")),
    "find_elements": ("body", lambda element: element.find_elements(By.CSS_SELECTOR, "p")),
    "click": ("a#next", lambda element: element.click()),
}


class TestClickAndStaleness:
    def test_click_navigates(self, browser):
        browser.get("https://site.sim/")
        browser.find_element(By.ID, "next").click()
        assert browser.title == "Second"
        assert str(browser.current_url) == "https://site.sim/second"

    @pytest.mark.parametrize("scope", ["page", "element"])
    @pytest.mark.parametrize("accessor", list(ACCESSORS))
    def test_element_goes_stale_after_navigation(self, browser, accessor, scope):
        """Every accessor checks its page first: a left page never answers, even emptily."""
        browser.get("https://site.sim/")
        selector, use = ACCESSORS[accessor]
        locator = browser if scope == "page" else browser.find_element(By.TAG_NAME, "html")
        element = locator.find_element(By.CSS_SELECTOR, selector)
        browser.get("https://site.sim/second")
        with pytest.raises(StaleElementReferenceException):
            use(element)

    def test_click_non_link_raises(self, browser):
        browser.get("https://site.sim/")
        with pytest.raises(WebDriverException):
            browser.find_element(By.CSS_SELECTOR, "p.note").click()


class TestWaits:
    def test_wait_returns_immediately_when_present(self, browser, clock):
        browser.get("https://site.sim/")
        start = clock.now()
        element = WebDriverWait(browser, 5.0).until(presence_of_element_located(By.ID, "next"))
        assert element.tag_name == "a"
        assert clock.now() == start

    def test_wait_times_out(self, browser, clock):
        browser.get("https://site.sim/")
        with pytest.raises(TimeoutException):
            WebDriverWait(browser, 2.0, poll_frequency=0.5).until(
                presence_of_element_located(By.ID, "never")
            )
        assert clock.now() >= 2.0

    def test_wait_rejects_nonpositive_timeout(self, browser):
        with pytest.raises(ValueError):
            WebDriverWait(browser, 0)

    def test_wait_custom_condition(self, browser):
        browser.get("https://site.sim/")
        result = WebDriverWait(browser, 1.0).until(lambda b: b.title == "Home" and "yes")
        assert result == "yes"


def _elements() -> list[Element]:
    return [obj for obj in gc.get_objects() if type(obj) is Element]


class TestPageLifetime:
    """A page the browser leaves is freed by reference counting, not the cycle collector."""

    def test_only_the_current_page_stays_alive_without_the_collector(self, browser, collector):
        gc.collect()
        before = _elements()  # held, so no new element can reuse their ids
        known = {id(element) for element in before}
        gc.disable()
        for _ in range(50):
            browser.get("https://site.sim/")
            browser.get("https://site.sim/second")
        alive = [element for element in _elements() if id(element) not in known]
        assert browser.title == "Second"
        assert sorted(map(id, alive)) == sorted(map(id, browser._dom.iter()))

    def test_a_run_leaves_the_collector_only_each_browsers_last_page(self, collector, monkeypatch):
        current: set[int] = set()  # the document root each browser shows
        install = Browser._install_page

        def tracked(browser, response):
            if browser._dom is not None:
                current.discard(id(browser._dom))
            install(browser, response)
            current.add(id(browser._dom))

        monkeypatch.setattr(Browser, "_install_page", tracked)
        config = PipelineConfig(n_bots=200, seed=1, honeypot_sample_size=10)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert AssessmentPipeline(config).run().bots_collected == 200
        gc.collect()
        # The run's object graph is unreachable now, so the collector has
        # saved each cycle it built; the only pages among them must be the
        # ones the browsers were still showing.
        left = [obj for obj in gc.garbage if type(obj) is Element]
        documents = {id(element._nodes[0]) if element._nodes else None for element in left}
        assert current and documents <= current
