"""Minimal robots.txt support for the polite scraper.

The paper's ethics section commits to crawling "at a rate that does not
create any disruption to other service users"; honouring each host's
published ``Crawl-delay`` (and ``Disallow`` rules) is the mechanical form
of that commitment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.web.network import TouchedKeys


@dataclass
class RobotsPolicy:
    """Parsed rules for the wildcard user-agent."""

    crawl_delay: float = 0.0
    disallowed_prefixes: tuple[str, ...] = ()
    fetched: bool = False

    def allows(self, path: str) -> bool:
        return not any(path.startswith(prefix) for prefix in self.disallowed_prefixes if prefix)


def parse_robots_txt(body: str) -> RobotsPolicy:
    """Parse the ``User-agent: *`` group of a robots.txt body.

    Only the directives the scraper acts on are kept: ``Crawl-delay`` and
    ``Disallow``.  Groups for specific user agents are ignored (the
    measurement scraper does not advertise a special identity).
    """
    crawl_delay = 0.0
    disallowed: list[str] = []
    applies = False
    for raw_line in body.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        directive, _, value = line.partition(":")
        directive = directive.strip().lower()
        value = value.strip()
        if directive == "user-agent":
            applies = value == "*"
        elif applies and directive == "crawl-delay":
            try:
                crawl_delay = max(crawl_delay, float(value))
            except ValueError:
                continue
        elif applies and directive == "disallow":
            if value:
                disallowed.append(value)
    return RobotsPolicy(crawl_delay=crawl_delay, disallowed_prefixes=tuple(disallowed), fetched=True)


@dataclass
class RobotsCache(TouchedKeys):
    """Per-host robots policies, fetched lazily through an HTTP client.

    Its touched keys are the hosts whose policy was cached.
    """

    _policies: dict[str, RobotsPolicy] = field(default_factory=dict)

    def state_dict(self, keys=None) -> dict:
        """Every cached policy, or only those of the hosts in ``keys``."""
        hosts = self._policies if keys is None else [host for host in keys if host in self._policies]
        return {
            host: {
                "crawl_delay": self._policies[host].crawl_delay,
                "disallowed": list(self._policies[host].disallowed_prefixes),
                "fetched": self._policies[host].fetched,
            }
            for host in hosts
        }

    def restore_state(self, state: dict) -> None:
        """Restore the policies in ``state``; other hosts keep theirs."""
        for host, payload in state.items():
            self._policies[host] = RobotsPolicy(
                crawl_delay=payload["crawl_delay"],
                disallowed_prefixes=tuple(payload["disallowed"]),
                fetched=payload["fetched"],
            )

    def policy_for(self, client, host: str) -> RobotsPolicy:
        """Return (fetching once if needed) the policy for ``host``."""
        cached = self._policies.get(host)
        if cached is not None:
            return cached
        from repro.web.network import NetworkError

        try:
            response = client.get(f"https://{host}/robots.txt", timeout=5.0)
        except NetworkError:
            policy = RobotsPolicy(fetched=False)
        else:
            policy = parse_robots_txt(response.body) if response.ok else RobotsPolicy(fetched=True)
        self._policies[host] = policy
        if self._touched is not None:
            self._touched.add(host)
        return policy
