"""Virtual HTTP hosts: routing and middleware.

A :class:`VirtualHost` is what gets registered on the
:class:`~repro.web.network.VirtualInternet`.  Routes use ``{param}`` path
segments and match the whole path; middleware wraps the route table and
is how :mod:`repro.web.antiscrape` injects rate limits and captcha walls.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from repro.web.http import Request, Response

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.web.network import VirtualInternet

Handler = Callable[..., Response]


class Middleware(Protocol):
    """Middleware signature: may short-circuit or call ``next_handler``."""

    def __call__(self, request: Request, next_handler: Callable[[Request], Response]) -> Response: ...


@dataclass
class Route:
    """A compiled route: method + ``{param}`` pattern + handler.

    A route matches the whole path.  A pattern without ``{param}`` is
    static: it has no ``regex`` and matches its own text, compared as a
    string.
    """

    method: str
    pattern: str
    handler: Handler
    regex: re.Pattern[str] | None

    @classmethod
    def compile(cls, method: str, pattern: str, handler: Handler) -> "Route":
        """Compile a pattern.  ``{name}`` matches one segment; ``{*name}``
        matches the rest of the path (slashes included)."""
        segments = re.split(r"(\{\*?[a-zA-Z_][a-zA-Z0-9_]*\})", pattern)
        if len(segments) == 1:
            return cls(method.upper(), pattern, handler, None)
        parts: list[str] = []
        for segment in segments:
            if segment.startswith("{*") and segment.endswith("}"):
                parts.append(f"(?P<{segment[2:-1]}>.+)")
            elif segment.startswith("{") and segment.endswith("}"):
                parts.append(f"(?P<{segment[1:-1]}>[^/]+)")
            else:
                parts.append(re.escape(segment))
        return cls(method.upper(), pattern, handler, re.compile("".join(parts)))

    def match(self, method: str, path: str) -> dict[str, str] | None:
        if method.upper() != self.method:
            return None
        if self.regex is None:
            return {} if path == self.pattern else None
        found = self.regex.fullmatch(path)
        return found.groupdict() if found else None


class VirtualHost:
    """A routable HTTP host with a middleware chain.

    Subclasses (or callers) register handlers with :meth:`route`; handlers
    receive ``(request, **path_params)`` and return a
    :class:`~repro.web.http.Response`.
    """

    #: The middleware around the route table, built when middleware is
    #: added.  It holds the host's route list (a route added later is seen)
    #: and name, never the host: a host that held itself would wait for the
    #: cycle collector instead of being freed when its last reference goes.
    #: ``None`` (no middleware): :meth:`handle` dispatches directly.
    _chain: Callable[[Request], Response] | None = None

    def __init__(self, name: str = "host") -> None:
        self.name = name
        self._routes: list[Route] = []
        self._middleware: list[Middleware] = []
        self.requests_served = 0

    # -- configuration -----------------------------------------------------

    def route(self, pattern: str, method: str = "GET") -> Callable[[Handler], Handler]:
        """Decorator form: ``@host.route("/bots/{bot_id}")``."""

        def register(handler: Handler) -> Handler:
            self.add_route(pattern, handler, method=method)
            return handler

        return register

    def add_route(self, pattern: str, handler: Handler, method: str = "GET") -> None:
        self._routes.append(Route.compile(method, pattern, handler))

    def add_middleware(self, middleware: Middleware) -> None:
        """Append middleware; the first added runs outermost."""
        self._middleware.append(middleware)
        chain: Callable[[Request], Response] = functools.partial(_dispatch, self._routes, self.name)
        for entry in reversed(self._middleware):
            chain = _wrap(entry, chain)
        self._chain = chain

    # -- resume support ------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable host state: request counter plus any stateful
        middleware (keyed by position and class so restore can't mismatch)."""
        state: dict = {"requests_served": self.requests_served}
        middleware = {
            f"{index}:{type(entry).__name__}": entry.state_dict()
            for index, entry in enumerate(self._middleware)
            if hasattr(entry, "state_dict")
        }
        if middleware:
            state["middleware"] = middleware
        return state

    def restore_state(self, state: dict) -> None:
        self.requests_served = state.get("requests_served", self.requests_served)
        stored = state.get("middleware", {})
        for index, entry in enumerate(self._middleware):
            key = f"{index}:{type(entry).__name__}"
            if key in stored and hasattr(entry, "restore_state"):
                entry.restore_state(stored[key])

    # -- dispatch ------------------------------------------------------------

    def handle(self, request: Request, internet: "VirtualInternet | None" = None) -> Response:
        """Run the middleware chain and dispatch to the matching route."""
        self.requests_served += 1
        if self._chain is None:
            return _dispatch(self._routes, self.name, request)
        return self._chain(request)


def _dispatch(routes: list[Route], name: str, request: Request) -> Response:
    """Hand ``request`` to the first of ``routes``, in registration order, that matches."""
    method, path = request.method, request.path
    for route in routes:
        params = route.match(method, path)
        if params is not None:
            return route.handler(request, **params)
    return Response.not_found(f"{name}: no route for {method} {path}")


def _wrap(middleware: Middleware, inner: Callable[[Request], Response]) -> Callable[[Request], Response]:
    def wrapped(request: Request) -> Response:
        return middleware(request, inner)

    return wrapped
