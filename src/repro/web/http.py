"""HTTP primitives for the virtual internet.

These mirror the subset of HTTP semantics the measurement pipeline relies on:
URL parsing/joining, case-insensitive headers, request/response records and
the status codes used by the simulated sites (200, 3xx redirects, 403 captcha
walls, 404, 429 rate limits, 5xx failures).
"""

from __future__ import annotations

import functools
import re
import urllib.parse
from dataclasses import dataclass, field
from typing import Iterator, Mapping

#: Reason phrases for the status codes the simulation uses.
REASON_PHRASES: dict[int, str] = {
    200: "OK",
    201: "Created",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    303: "See Other",
    307: "Temporary Redirect",
    308: "Permanent Redirect",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})

#: What an absolute reference starts with in each scheme whose references
#: :meth:`Url.join` may parse without ``urljoin``.
_ABSOLUTE_PREFIXES = {"http": "http://", "https": "https://"}

#: A plain absolute URL, which :func:`_parse` splits without ``urlsplit``:
#: a lower-case ``http`` or ``https`` scheme; a host of ``[a-z0-9.-]`` only,
#: so no port, userinfo or brackets; then a path that is empty or starts
#: with ``/``, a query and a fragment; and no tab, CR or LF anywhere, which
#: ``urlsplit`` would delete.  ``urlsplit`` splits such a string at the
#: same places, and its ``hostname`` is the host as it is.
_PLAIN_URL = re.compile(r"(https?)://([a-z0-9.-]+)(/[^?#\t\r\n]*)?(?:\?([^#\t\r\n]*))?(?:#([^\t\r\n]*))?")


class Url:
    """A parsed URL, immutable once built.

    Only ``http``/``https`` URLs appear on the virtual internet; the scheme is
    carried through but does not change routing behaviour.  The text is
    composed once per instance and the query string decoded once, on first
    use; :meth:`parse` hands equal strings one shared instance, which is
    why no attribute can be assigned.
    """

    __slots__ = ("scheme", "host", "port", "path", "query", "fragment", "_text", "_params")

    def __init__(
        self,
        scheme: str = "https",
        host: str = "",
        port: int | None = None,
        path: str = "/",
        query: str = "",
        fragment: str = "",
    ) -> None:
        path = path or "/"
        assign = object.__setattr__
        assign(self, "scheme", scheme)
        assign(self, "host", host)
        assign(self, "port", port)
        assign(self, "path", path)
        assign(self, "query", query)
        assign(self, "fragment", fragment)
        port_text = f":{port}" if port else ""
        query_text = f"?{query}" if query else ""
        fragment_text = f"#{fragment}" if fragment else ""
        scheme_text = f"{scheme}://" if scheme else ""
        assign(self, "_text", f"{scheme_text}{host}{port_text}{path}{query_text}{fragment_text}")
        assign(self, "_params", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Url is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Url is immutable")

    def __reduce__(self):
        # Rebuild through ``__init__``, as the slot-state restore would
        # assign through the ``__setattr__`` that refuses every write.
        return (Url, (self.scheme, self.host, self.port, self.path, self.query, self.fragment))

    @classmethod
    def parse(cls, raw: str) -> "Url":
        """Parse an absolute or scheme-relative URL string (memoized)."""
        return _parse(raw)

    def join(self, reference: str) -> "Url":
        """Resolve ``reference`` against this URL (RFC 3986 resolution).

        An absolute reference in this URL's scheme, ``http`` or ``https``,
        with a non-empty authority resolves to itself, so it is parsed as
        it is: ``urljoin`` would parse this URL and the reference and
        rebuild the reference's text first.  A reference whose text that
        rebuild can change goes through ``urljoin``, as every other does:
        one holding a tab, CR or LF (``urlsplit`` deletes them) or a ``;``
        (``urlparse`` splits path parameters off and drops an empty one).
        """
        prefix = _ABSOLUTE_PREFIXES.get(self.scheme)
        if (
            prefix is not None
            and reference.startswith(prefix)
            # "" (the end of the string) is in "/?#" too: no authority.
            and reference[len(prefix) : len(prefix) + 1] not in "/?#"
            and "\t" not in reference
            and "\r" not in reference
            and "\n" not in reference
            and ";" not in reference
        ):
            return _parse(reference)
        return _parse(urllib.parse.urljoin(self._text, reference))

    @property
    def is_absolute(self) -> bool:
        return bool(self.host)

    def query_params(self) -> dict[str, str]:
        """Decode the query string into a flat ``dict`` (last value wins).

        Decoded once per instance; every call returns a dict of its own,
        which the caller may change (:meth:`with_params` does).
        """
        return dict(self._decoded())

    def param(self, name: str, default: str | None = None) -> str | None:
        """Return one query parameter, read from the decoded query in place."""
        return self._decoded().get(name, default)

    def _decoded(self) -> dict[str, str]:
        params = self._params
        if params is None:
            params = _decode_query(self.query)
            object.__setattr__(self, "_params", params)
        return params

    def with_params(self, **params: str) -> "Url":
        """Return a copy with ``params`` merged into the query string."""
        merged = self.query_params()
        merged.update({key: str(value) for key, value in params.items()})
        return Url(
            scheme=self.scheme,
            host=self.host,
            port=self.port,
            path=self.path,
            query=urllib.parse.urlencode(merged),
            fragment=self.fragment,
        )

    def origin(self) -> str:
        """Return ``scheme://host[:port]`` for same-origin comparisons."""
        port = f":{self.port}" if self.port else ""
        return f"{self.scheme}://{self.host}{port}"

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Url({self._text!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Url):
            return self._text == other._text
        if isinstance(other, str):
            return self._text == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._text)


@functools.lru_cache(maxsize=4096)
def _parse(raw: str) -> Url:
    """Parse ``raw`` once: :class:`Url` is immutable, so equal strings share it.

    A vetting service answering 10^4 requests asks for about 4,100 distinct
    URLs, and a crawl asks again for a URL within a few hundred requests of
    its first, so 4,096 entries keep nearly every repeat.  A plain absolute
    URL (:data:`_PLAIN_URL`) is read with one match; every other string
    goes through ``urlsplit``.
    """
    plain = _PLAIN_URL.fullmatch(raw)
    if plain is not None:
        scheme, host, path, query, fragment = plain.groups()
        return Url(scheme, host, None, path or "/", query or "", fragment or "")
    parts = urllib.parse.urlsplit(raw)
    if not parts.netloc and not parts.scheme:
        # A bare path such as "/bots/1" — host resolved at join time.
        return Url(scheme="", host="", path=parts.path, query=parts.query, fragment=parts.fragment)
    return Url(
        scheme=parts.scheme or "https",
        host=parts.hostname or "",
        port=parts.port,
        path=parts.path or "/",
        query=parts.query,
        fragment=parts.fragment,
    )


def _decode_query(query: str) -> dict[str, str]:
    """``dict(parse_qsl(query, keep_blank_values=True))``, unquoting only what needs it.

    Same fields, values and key order: empty fields are skipped, a field
    without ``=`` has an empty value, the last value of a name wins in the
    order names first appear, and a name or value is decoded as
    ``unquote_plus`` decodes it.  ``unquote`` leaves a string without ``%``
    as it is, so only one holding ``%`` or ``+`` pays for the call.
    """
    params: dict[str, str] = {}
    for field_text in query.split("&"):
        if field_text:
            name, _, value = field_text.partition("=")
            if "%" in name or "+" in name:
                name = urllib.parse.unquote(name.replace("+", " "))
            if "%" in value or "+" in value:
                value = urllib.parse.unquote(value.replace("+", " "))
            params[name] = value
    return params


class Headers:
    """Case-insensitive header map (single-valued, like the scraper needs)."""

    def __init__(self, initial: Mapping[str, str] | None = None) -> None:
        self._items: dict[str, tuple[str, str]] = (
            {key.lower(): (key, str(value)) for key, value in initial.items()} if initial else {}
        )

    def __getitem__(self, key: str) -> str:
        return self._items[key.lower()][1]

    def __setitem__(self, key: str, value: str) -> None:
        self._items[key.lower()] = (key, str(value))

    def __delitem__(self, key: str) -> None:
        del self._items[key.lower()]

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and key.lower() in self._items

    def __iter__(self) -> Iterator[str]:
        return (original for original, _ in self._items.values())

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: str, default: str | None = None) -> str | None:
        entry = self._items.get(key.lower())
        return entry[1] if entry else default

    def items(self) -> Iterator[tuple[str, str]]:
        return ((original, value) for original, value in self._items.values())

    def copy(self) -> "Headers":
        clone = Headers()
        clone._items = self._items.copy()
        return clone

    def __repr__(self) -> str:
        return f"Headers({dict(self.items())!r})"


#: What :meth:`Response.html`, ``text`` and ``json`` copy into each response.
_HTML_HEADERS = Headers({"Content-Type": "text/html; charset=utf-8"})
_TEXT_HEADERS = Headers({"Content-Type": "text/plain; charset=utf-8"})
_JSON_HEADERS = Headers({"Content-Type": "application/json"})


@dataclass
class Request:
    """An HTTP request on the virtual internet.

    ``client_id`` identifies the requesting agent (an IP-address stand-in)
    and is what the anti-scraping middleware keys rate limits and captcha
    state on.
    """

    method: str
    url: Url
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    client_id: str = "anonymous"

    @property
    def path(self) -> str:
        return self.url.path

    def param(self, name: str, default: str | None = None) -> str | None:
        """Return a query-string parameter, read in place (see :meth:`Url.param`)."""
        return self.url.param(name, default)

    def cookie(self, name: str, default: str | None = None) -> str | None:
        """Return a cookie value from the ``Cookie`` header."""
        raw = self.headers.get("Cookie", "")
        for chunk in raw.split(";"):
            key, _, value = chunk.strip().partition("=")
            if key == name:
                return value
        return default


@dataclass
class Response:
    """An HTTP response.

    ``url`` is filled in by the client with the *final* URL after redirects,
    which is how the scraper detects slow/invalid invite redirects.
    """

    status: int
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    url: Url | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        return self.status in REDIRECT_STATUSES and "Location" in self.headers

    @property
    def reason(self) -> str:
        return REASON_PHRASES.get(self.status, "Unknown")

    @property
    def content_type(self) -> str:
        return (self.headers.get("Content-Type") or "").split(";")[0].strip()

    def set_cookie(self, name: str, value: str) -> None:
        """Attach a ``Set-Cookie`` header (one cookie per response suffices)."""
        self.headers["Set-Cookie"] = f"{name}={value}"

    # The helpers copy a prebuilt map (redirect builds its one entry), so
    # every response owns a map that its middleware may change.

    @classmethod
    def html(cls, body: str, status: int = 200) -> "Response":
        return cls(status, _HTML_HEADERS.copy(), body)

    @classmethod
    def text(cls, body: str, status: int = 200) -> "Response":
        return cls(status, _TEXT_HEADERS.copy(), body)

    @classmethod
    def json(cls, body: str, status: int = 200) -> "Response":
        return cls(status, _JSON_HEADERS.copy(), body)

    @classmethod
    def redirect(cls, location: str, status: int = 302) -> "Response":
        return cls(status, Headers({"Location": location}))

    @classmethod
    def not_found(cls, message: str = "Not Found") -> "Response":
        return cls.text(message, status=404)
