"""``github.sim`` — the source-hosting site the code analysis crawls.

Serves, per repository: a repo page with a *code section* (file list) and a
language bar; raw file contents; and user-profile pages for links that do
not point at a repository at all (the paper's invalid-link classes).
"""

from __future__ import annotations

from collections import defaultdict

from repro.ecosystem.generator import Ecosystem
from repro.ecosystem.repos import RepoKind, RepoSpec
from repro.ecosystem.stream import owner_block_of, rank_suffix_of
from repro.web.http import Request, Response
from repro.web.network import VirtualInternet
from repro.web.server import VirtualHost

GITHUB_HOSTNAME = "github.sim"

_REPO_KINDS = (RepoKind.VALID_CODE, RepoKind.README_ONLY)
_PROFILE_KINDS = (RepoKind.USER_PROFILE, RepoKind.NO_REPOSITORIES, RepoKind.NO_PUBLIC_REPOSITORIES)


class GitHubSite:
    """Builds and registers the ``github.sim`` host for an ecosystem.

    A materialized ecosystem is indexed up front.  A streaming one is
    decoded per request instead: repo names end with their bot's rank, and
    owner tags encode their developer block and index, so a repo page reads
    one bot and a profile page only the owner's bots — never the rest of
    the population.
    """

    def __init__(self, ecosystem: Ecosystem) -> None:
        self.ecosystem = ecosystem
        self._streaming = getattr(ecosystem, "stream", None) is not None
        self._repos: dict[tuple[str, str], RepoSpec] = {}
        self._profiles: dict[str, list[RepoSpec]] = defaultdict(list)
        self._profile_kinds: dict[str, RepoKind] = {}
        if not self._streaming:
            for bot in ecosystem.bots:
                spec = bot.github
                if spec is None:
                    continue
                if spec.kind in _REPO_KINDS:
                    self._repos[(spec.owner, spec.name)] = spec
                    self._profiles[spec.owner].append(spec)
                elif spec.kind in _PROFILE_KINDS:
                    self._profile_kinds.setdefault(spec.owner, spec.kind)
        self.host = VirtualHost(GITHUB_HOSTNAME)
        self.host.add_route("/{owner}/{repo}/raw/main/{*path}", self._raw_file)
        self.host.add_route("/{owner}/{repo}", self._repo_page)
        self.host.add_route("/{owner}", self._profile_page)

    def register(self, internet: VirtualInternet) -> None:
        internet.register(GITHUB_HOSTNAME, self.host)

    # -- lazy lookups ------------------------------------------------------

    def _lookup_repo(self, owner: str, repo: str) -> RepoSpec | None:
        if not self._streaming:
            return self._repos.get((owner, repo))
        rank = rank_suffix_of(repo)
        if rank is None or not 0 <= rank < len(self.ecosystem.bots):
            return None
        spec = self.ecosystem.bots[rank].github
        if spec is None or spec.kind not in _REPO_KINDS:
            return None
        if spec.owner != owner or spec.name != repo:
            return None
        return spec

    def _lookup_profile(self, owner: str) -> tuple[list[RepoSpec], RepoKind | None]:
        if not self._streaming:
            return self._profiles.get(owner) or [], self._profile_kinds.get(owner)
        decoded = owner_block_of(owner)
        if decoded is None:
            return [], None
        block, index = decoded
        developers, _ = self.ecosystem.stream.block(block)
        if index >= len(developers) or developers[index].tag.split("#")[0] != owner:
            # A misspelled owner still decodes to a block and an index.
            return [], None
        repos: list[RepoSpec] = []
        kind: RepoKind | None = None
        # Only the owner's own bots, already in rank order: the page reads
        # a handful of profiles, not its whole block's.
        for rank in developers[index].bot_indices:
            spec = self.ecosystem.bots[rank].github
            if spec is None or spec.owner != owner:
                continue
            if spec.kind in _REPO_KINDS:
                repos.append(spec)
            elif spec.kind in _PROFILE_KINDS and kind is None:
                kind = spec.kind
        return repos, kind

    # -- routes -----------------------------------------------------------

    def _repo_page(self, request: Request, owner: str, repo: str) -> Response:
        spec = self._lookup_repo(owner, repo)
        if spec is None:
            return Response.html(_not_found_page(), status=404)
        file_rows = "".join(
            f'<div class="file-row"><a class="file-link" href="/{owner}/{repo}/raw/main/{path}">{path}</a></div>'
            for path in sorted(spec.files)
        )
        language_rows = ""
        if spec.language_breakdown:
            ordered = sorted(spec.language_breakdown.items(), key=lambda item: item[1], reverse=True)
            language_rows = "".join(
                f'<li class="language"><span class="language-name">{language}</span>'
                f'<span class="language-percent">{share * 100:.1f}%</span></li>'
                for language, share in ordered
            )
        languages_section = (
            f'<div id="languages"><h2>Languages</h2><ul>{language_rows}</ul></div>' if language_rows else ""
        )
        body = (
            f"<html><head><title>{owner}/{repo}</title></head><body>"
            f'<h1 id="repo-title">{owner}/{repo}</h1>'
            f'<div id="code-section"><h2>Files</h2>{file_rows}</div>'
            f"{languages_section}"
            "</body></html>"
        )
        return Response.html(body)

    def _raw_file(self, request: Request, owner: str, repo: str, path: str) -> Response:
        spec = self._lookup_repo(owner, repo)
        if spec is None or path not in spec.files:
            return Response.text("404: Not Found", status=404)
        return Response.text(spec.files[path])

    def _profile_page(self, request: Request, owner: str) -> Response:
        repos, kind = self._lookup_profile(owner)
        if repos:
            rows = "".join(
                f'<li class="repo"><a class="repo-link" href="/{spec.owner}/{spec.name}">{spec.name}</a></li>'
                for spec in repos
            )
            body = (
                f"<html><head><title>{owner}</title></head><body>"
                f'<h1 class="profile-name">{owner}</h1><ul id="repo-list">{rows}</ul></body></html>'
            )
            return Response.html(body)
        if kind is RepoKind.NO_PUBLIC_REPOSITORIES:
            message = f"{owner} has no public repositories."
        elif kind is RepoKind.NO_REPOSITORIES:
            message = f"{owner} doesn't have any repositories yet."
        elif kind is RepoKind.USER_PROFILE:
            message = f"{owner} — just a profile."
        else:
            return Response.html(_not_found_page(), status=404)
        body = (
            f"<html><head><title>{owner}</title></head><body>"
            f'<h1 class="profile-name">{owner}</h1><p class="empty-profile">{message}</p></body></html>'
        )
        return Response.html(body)


def _not_found_page() -> str:
    return "<html><head><title>Page not found</title></head><body><h1>404</h1></body></html>"
