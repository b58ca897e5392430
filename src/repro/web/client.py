"""HTTP client for the virtual internet.

Implements the behaviours the paper's scraper depends on: timeouts (slow
redirect links "timed out"), bounded redirect following (invalid invite
links) and per-host cookies (captcha clearance tokens are delivered as
cookies by the anti-scraping middleware).  Retries with backoff are the
callers' own: the scraper and the vetting service each run a loop on
:class:`repro.core.resilience.RetryPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.web.http import Headers, Request, Response, Url
from repro.web.network import NetworkError, TouchedKeys, VirtualInternet


class RequestTimeoutError(NetworkError):
    """The exchange took longer than the caller's timeout budget."""

    def __init__(self, url: str, timeout: float) -> None:
        super().__init__(f"timed out after {timeout:.2f}s fetching {url}")
        self.url = url
        self.timeout = timeout


class TooManyRedirectsError(NetworkError):
    """Redirect chain exceeded ``max_redirects``."""

    def __init__(self, url: str, limit: int) -> None:
        super().__init__(f"more than {limit} redirects fetching {url}")
        self.url = url
        self.limit = limit


@dataclass
class CookieJar(TouchedKeys):
    """Per-host cookie storage (name -> value).

    Its touched keys are the hosts whose cookies were set.
    """

    _cookies: dict[str, dict[str, str]] = field(default_factory=dict)

    def store(self, host: str, set_cookie: str) -> None:
        name, _, value = set_cookie.split(";")[0].partition("=")
        if name:
            self.set(host, name.strip(), value.strip())

    def header_for(self, host: str) -> str:
        cookies = self._cookies.get(host)
        if not cookies:
            return ""
        return "; ".join(f"{name}={value}" for name, value in sorted(cookies.items()))

    def get(self, host: str, name: str) -> str | None:
        return self._cookies.get(host, {}).get(name)

    def set(self, host: str, name: str, value: str) -> None:
        self._cookies.setdefault(host, {})[name] = value
        if self._touched is not None:
            self._touched.add(host)

    def state_dict(self, keys=None) -> dict:
        """Every host's cookies, or only those of the hosts in ``keys``."""
        hosts = self._cookies if keys is None else [host for host in keys if host in self._cookies]
        return {host: dict(self._cookies[host]) for host in hosts}

    def restore_state(self, state: dict) -> None:
        """Restore the hosts in ``state``; other hosts keep their cookies."""
        for host, cookies in state.items():
            self._cookies[host] = dict(cookies)


class HttpClient:
    """A cookie-aware HTTP client bound to one ``client_id``.

    ``client_id`` plays the role of the scraper's source IP: the
    anti-scraping middleware keys rate limits and captcha state on it.
    """

    def __init__(
        self,
        internet: VirtualInternet,
        client_id: str = "scraper",
        default_timeout: float = 10.0,
        max_redirects: int = 10,
        user_agent: str = "repro-scraper/1.0",
    ) -> None:
        self.internet = internet
        self.client_id = client_id
        self.default_timeout = default_timeout
        self.max_redirects = max_redirects
        #: Each request's headers start as a copy of these (``Host`` and
        #: ``Cookie`` are added per request).
        self._headers = Headers({"User-Agent": user_agent})
        self.cookies = CookieJar()
        self.requests_sent = 0

    # -- public API ----------------------------------------------------------

    def get(
        self,
        url: str | Url,
        timeout: float | None = None,
        follow_redirects: bool = True,
        headers: Headers | None = None,
    ) -> Response:
        return self.request("GET", url, timeout=timeout, follow_redirects=follow_redirects, headers=headers)

    def post(
        self,
        url: str | Url,
        body: str = "",
        timeout: float | None = None,
        headers: Headers | None = None,
    ) -> Response:
        return self.request("POST", url, body=body, timeout=timeout, headers=headers)

    def request(
        self,
        method: str,
        url: str | Url,
        body: str = "",
        timeout: float | None = None,
        follow_redirects: bool = True,
        headers: Headers | None = None,
    ) -> Response:
        """Issue a request, following redirects within the timeout budget.

        The timeout budget covers the *whole* chain, which is how the paper's
        scraper classified slow invite redirect chains as invalid.
        """
        budget = timeout if timeout is not None else self.default_timeout
        # A Url is immutable, and parsing its text gives back its fields.
        current = url if isinstance(url, Url) else Url.parse(url)
        if not current.is_absolute:
            raise ValueError(f"relative URL given to client: {url!r}")
        spent = 0.0
        for _ in range(self.max_redirects + 1):
            response, latency = self._exchange(method, current, body, headers)
            spent += latency
            if spent > budget:
                raise RequestTimeoutError(str(current), budget)
            response.url = current
            if follow_redirects and response.is_redirect:
                current = current.join(response.headers["Location"])
                method, body = "GET", ""
                continue
            return response
        raise TooManyRedirectsError(str(url), self.max_redirects)

    # -- internals -----------------------------------------------------------

    def _exchange(self, method: str, url: Url, body: str, extra: Headers | None) -> tuple[Response, float]:
        request_headers = self._headers.copy()
        request_headers["Host"] = url.host
        cookie_header = self.cookies.header_for(url.host)
        if cookie_header:
            request_headers["Cookie"] = cookie_header
        if extra:
            for key, value in extra.items():
                request_headers[key] = value
        request = Request(method=method, url=url, headers=request_headers, body=body, client_id=self.client_id)
        self.requests_sent += 1
        response, latency = self.internet.exchange(request)
        set_cookie = response.headers.get("Set-Cookie")
        if set_cookie:
            self.cookies.store(url.host, set_cookie)
        return response, latency
