"""Reference DOM engine: the differential oracle for :mod:`repro.web.dom`.

A linked tree (each :class:`Element` holds its ``children`` and text
chunks) and a set-at-a-time selector walk that re-derives document order
over the whole tree on every call.  It is deliberately the obvious
implementation, kept only so the tests can check the flat, compiled
engine in ``src/`` against it: same elements in the same order, the same
``.text`` and the same ``ValueError`` for every markup and selector.

The selector subset is the one :mod:`repro.web.dom` documents:

- type selectors (``a``, ``div``), universal ``*``
- ``#id``, ``.class``, attribute ``[href]``, ``[rel=value]``,
  ``[class~=word]``, ``[href^=prefix]``, ``[href*=substring]``,
  ``[href$=suffix]``, ``[lang|=en]``
- compound selectors (``a.bot-link[data-id]``)
- descendant (whitespace) and child (``>``) combinators
- selector groups separated by commas
"""

from __future__ import annotations

import re
from html.parser import HTMLParser
from typing import Iterator

#: Elements that never have a closing tag.
VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source", "track", "wbr"}
)


class Element:
    """One node of the parsed document tree."""

    __slots__ = ("tag", "attrs", "children", "parent", "_text_chunks")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None, parent: "Element | None" = None) -> None:
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element] = []
        self.parent = parent
        self._text_chunks: list[str] = []

    # -- content --------------------------------------------------------------

    def append_text(self, chunk: str) -> None:
        if chunk:
            self._text_chunks.append(chunk)

    @property
    def own_text(self) -> str:
        """Text directly inside this element (not descendants)."""
        return "".join(self._text_chunks)

    @property
    def text(self) -> str:
        """All descendant text, whitespace-normalised."""
        chunks: list[str] = []
        self._collect_text(chunks)
        return re.sub(r"\s+", " ", "".join(chunks)).strip()

    def _collect_text(self, into: list[str]) -> None:
        into.append(self.own_text)
        for child in self.children:
            into.append(" ")
            child._collect_text(into)

    # -- attributes -------------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        return self.attrs.get(name, default)

    @property
    def id(self) -> str | None:
        return self.attrs.get("id")

    @property
    def classes(self) -> frozenset[str]:
        return frozenset((self.attrs.get("class") or "").split())

    # -- traversal ---------------------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    def descendants(self) -> Iterator["Element"]:
        for child in self.children:
            yield from child.iter()

    def find_all(self, tag: str) -> list["Element"]:
        return [node for node in self.descendants() if node.tag == tag]

    def select(self, selector: str) -> list["Element"]:
        return select(self, selector)

    def select_one(self, selector: str) -> "Element | None":
        matches = select(self, selector)
        return matches[0] if matches else None

    def links(self) -> list[str]:
        """All non-empty ``href`` attributes below this element."""
        return [anchor.attrs["href"] for anchor in self.find_all("a") if anchor.attrs.get("href")]

    def __repr__(self) -> str:
        ident = f"#{self.id}" if self.id else ""
        cls = "." + ".".join(sorted(self.classes)) if self.classes else ""
        return f"<Element {self.tag}{ident}{cls}>"


class _TreeBuilder(HTMLParser):
    """Builds the Element tree, tolerating unclosed tags like a browser."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("document")
        self._stack: list[Element] = [self.root]

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        element = Element(tag, {name: (value or "") for name, value in attrs}, parent=self._stack[-1])
        self._stack[-1].children.append(element)
        if tag not in VOID_TAGS:
            self._stack.append(element)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        element = Element(tag, {name: (value or "") for name, value in attrs}, parent=self._stack[-1])
        self._stack[-1].children.append(element)

    def handle_endtag(self, tag: str) -> None:
        # Pop back to the matching open tag, ignoring stray closers.
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    def handle_data(self, data: str) -> None:
        self._stack[-1].append_text(data)


def parse_html(markup: str) -> Element:
    """Parse ``markup`` into a document-rooted :class:`Element` tree."""
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    return builder.root


# --------------------------------------------------------------------------
# CSS selector engine
# --------------------------------------------------------------------------

_SIMPLE_RE = re.compile(
    r"""
    (?P<tag>\*|[a-zA-Z][a-zA-Z0-9-]*)?
    (?P<parts>(?:\#[\w-]+|\.[\w-]+|\[[^\]]+\])*)
    """,
    re.VERBOSE,
)
_PART_RE = re.compile(r"\#([\w-]+)|\.([\w-]+)|\[([^\]]+)\]")
_ATTR_RE = re.compile(r"^([\w-]+)\s*(?:([~^$*|]?=)\s*(.*))?$")


class _Compound:
    """One compound selector: tag + ids + classes + attribute tests."""

    __slots__ = ("tag", "ids", "classes", "attr_tests")

    def __init__(self, token: str) -> None:
        match = _SIMPLE_RE.fullmatch(token)
        if not match or (not match.group("tag") and not match.group("parts")):
            raise ValueError(f"unsupported selector token: {token!r}")
        self.tag = match.group("tag") or "*"
        self.ids: list[str] = []
        self.classes: list[str] = []
        self.attr_tests: list[tuple[str, str, str]] = []
        for id_name, class_name, attr_body in _PART_RE.findall(match.group("parts") or ""):
            if id_name:
                self.ids.append(id_name)
            elif class_name:
                self.classes.append(class_name)
            else:
                attr_match = _ATTR_RE.match(attr_body.strip())
                if not attr_match:
                    raise ValueError(f"unsupported attribute selector: [{attr_body}]")
                name, operator, raw_value = attr_match.groups()
                value = (raw_value or "").strip("\"'")
                self.attr_tests.append((name, operator or "", value))

    def matches(self, element: Element) -> bool:
        if self.tag != "*" and element.tag != self.tag:
            return False
        if any(element.id != wanted for wanted in self.ids):
            return False
        if any(wanted not in element.classes for wanted in self.classes):
            return False
        for name, operator, value in self.attr_tests:
            actual = element.attrs.get(name)
            if actual is None:
                return False
            if operator == "" and value == "":
                continue
            if operator == "=" and actual != value:
                return False
            if operator == "^=" and not actual.startswith(value):
                return False
            if operator == "$=" and not actual.endswith(value):
                return False
            if operator == "*=" and value not in actual:
                return False
            if operator == "~=" and value not in actual.split():
                return False
            if operator == "|=" and actual != value and not actual.startswith(value + "-"):
                return False
        return True


def _tokenize_group(group: str) -> list[tuple[str, _Compound]]:
    """Split one selector group into ``(combinator, compound)`` steps."""
    tokens = re.findall(r">|[^\s>]+", group)
    steps: list[tuple[str, _Compound]] = []
    combinator = " "
    for token in tokens:
        if token == ">":
            combinator = ">"
            continue
        steps.append((combinator, _Compound(token)))
        combinator = " "
    if not steps:
        raise ValueError(f"empty selector group: {group!r}")
    return steps


def select(root: Element, selector: str) -> list[Element]:
    """Return descendants of ``root`` matching ``selector``, in document order."""
    results: list[Element] = []
    seen: set[int] = set()
    for group in selector.split(","):
        group = group.strip()
        if not group:
            continue
        steps = _tokenize_group(group)
        current: list[Element] = [root]
        for combinator, compound in steps:
            next_set: list[Element] = []
            bucket: set[int] = set()
            for base in current:
                candidates = base.descendants() if combinator == " " else iter(base.children)
                for candidate in candidates:
                    if id(candidate) not in bucket and compound.matches(candidate):
                        bucket.add(id(candidate))
                        next_set.append(candidate)
            current = next_set
        for element in current:
            if id(element) not in seen:
                seen.add(id(element))
                results.append(element)
    order = {id(node): index for index, node in enumerate(root.iter())}
    results.sort(key=lambda node: order.get(id(node), 1 << 30))
    return results
