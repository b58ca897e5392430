"""HTML parsing and CSS-style element location.

This is the substrate for the Selenium-like locator API in
:mod:`repro.web.browser`.  :func:`parse_html` tokenizes with
:mod:`html.parser` and lays the document out as one pre-order array of
:class:`Element` nodes: every element knows its position (``index``) and
the position just past its last descendant (``end``), so a subtree is a
contiguous slice of the array and document order is an integer compare.
A tree is read-only once :func:`parse_html` returns.

:func:`select` implements the selector subset the scraper uses:

- type selectors (``a``, ``div``), universal ``*``
- ``#id``, ``.class``, attribute ``[href]``, ``[rel=value]``,
  ``[class~=word]``, ``[href^=prefix]``, ``[href*=substring]``,
  ``[href$=suffix]``, ``[lang|=en]``
- compound selectors (``a.bot-link[data-id]``)
- descendant (whitespace) and child (``>``) combinators
- selector groups separated by commas

Each selector string is compiled once into per-compound filters and
cached; a call filters the root's slice and returns hits in index order.
"""

from __future__ import annotations

import functools
import re
from html.parser import HTMLParser
from operator import attrgetter
from typing import Callable, Iterator

#: Elements that never have a closing tag.
VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source", "track", "wbr"}
)


class Element:
    """One node of a parsed document: a slot in its pre-order array."""

    __slots__ = ("tag", "attrs", "parent", "index", "end", "_nodes", "_text", "_classes")

    def __init__(self, tag: str, attrs: dict[str, str], parent: "Element | None", nodes: list["Element"]) -> None:
        self.tag = tag
        self.attrs = attrs
        self.parent = parent
        #: Position in the document's pre-order array.
        self.index = len(nodes)
        #: One past the last descendant's position; set when the element closes.
        self.end = self.index + 1
        self._nodes = nodes
        self._text = ""
        self._classes: frozenset[str] | None = None
        nodes.append(self)

    # -- content --------------------------------------------------------------

    @property
    def own_text(self) -> str:
        """Text directly inside this element (not descendants)."""
        return self._text

    @property
    def text(self) -> str:
        """All descendant text, whitespace-normalised.

        Each element contributes its own text in pre-order, so an element's
        direct text precedes its children's.
        """
        return " ".join(" ".join([node._text for node in self._nodes[self.index : self.end]]).split())

    # -- attributes -------------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        return self.attrs.get(name, default)

    @property
    def id(self) -> str | None:
        return self.attrs.get("id")

    @property
    def classes(self) -> frozenset[str]:
        classes = self._classes
        if classes is None:
            classes = self._classes = frozenset((self.attrs.get("class") or "").split())
        return classes

    # -- traversal ---------------------------------------------------------------

    @property
    def children(self) -> list["Element"]:
        nodes = self._nodes
        found: list[Element] = []
        index = self.index + 1
        while index < self.end:
            child = nodes[index]
            found.append(child)
            index = child.end
        return found

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        return iter(self._nodes[self.index : self.end])

    def find_all(self, tag: str) -> list["Element"]:
        return [node for node in self._nodes[self.index + 1 : self.end] if node.tag == tag]

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
    """Builds the pre-order array, tolerating unclosed tags like a browser."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.nodes: list[Element] = []
        self.root = Element("document", {}, None, self.nodes)
        self._stack: list[Element] = [self.root]

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        element = Element(tag, {name: (value or "") for name, value in attrs}, self._stack[-1], self.nodes)
        if tag not in VOID_TAGS:
            self._stack.append(element)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        Element(tag, {name: (value or "") for name, value in attrs}, self._stack[-1], self.nodes)

    def handle_endtag(self, tag: str) -> None:
        stack = self._stack
        # Well-formed markup closes the innermost open element: a fast path
        # worth about 5% of parse time on the crawl's pages.
        if stack[-1].tag == tag and len(stack) > 1:
            stack.pop().end = len(self.nodes)
            return
        # Pop back to the matching open tag, ignoring stray closers.
        for index in range(len(stack) - 1, 0, -1):
            if stack[index].tag == tag:
                self._close(index)
                return

    def handle_data(self, data: str) -> None:
        self._stack[-1]._text += data

    def close(self) -> None:
        super().close()
        self._close(0)

    def _close(self, depth: int) -> None:
        """Close every open element from stack position ``depth`` up."""
        end = len(self.nodes)
        for element in self._stack[depth:]:
            element.end = end
        del self._stack[depth:]


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

#: Attribute operator -> test of the attribute's value against the selector's.
_ATTR_OPS: dict[str, Callable[[str, str], bool]] = {
    "=": lambda actual, value: actual == value,
    "~=": lambda actual, value: value in actual.split(),
    "^=": str.startswith,
    "$=": str.endswith,
    "*=": lambda actual, value: value in actual,
    "|=": lambda actual, value: actual == value or actual.startswith(value + "-"),
}

_INDEX = attrgetter("index")


class _Compound:
    """One compound selector (tag + ids + classes + attribute tests), as a filter."""

    __slots__ = ("tag", "ids", "classes", "attr_tests")

    def __init__(self, token: str) -> None:
        match = _SIMPLE_RE.fullmatch(token)
        if not match or (not match.group("tag") and not match.group("parts")):
            raise ValueError(f"unsupported selector token: {token!r}")
        tag = match.group("tag")
        self.tag = None if tag in (None, "*") else tag
        self.ids: list[str] = []
        self.classes: list[str] = []
        self.attr_tests: list[tuple[str, Callable[[str, str], bool] | None, str]] = []
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
                self.attr_tests.append((name, _ATTR_OPS.get(operator or ""), (raw_value or "").strip("\"'")))

    def filter(self, nodes: list[Element]) -> list[Element]:
        """The elements of ``nodes`` this compound matches, in their order."""
        if self.tag is not None:
            nodes = [node for node in nodes if node.tag == self.tag]
        for wanted in self.ids:
            nodes = [node for node in nodes if node.attrs.get("id") == wanted]
        for wanted in self.classes:
            nodes = [node for node in nodes if wanted in node.classes]
        for name, test, value in self.attr_tests:
            if test is None:
                nodes = [node for node in nodes if name in node.attrs]
            else:
                nodes = [node for node in nodes if name in node.attrs and test(node.attrs[name], value)]
        return nodes


_Steps = tuple[tuple[str, _Compound], ...]


def _tokenize_group(group: str) -> _Steps:
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
    return tuple(steps)


@functools.lru_cache(maxsize=256)
def _compile(selector: str) -> tuple[_Steps, ...]:
    """Parse ``selector`` once into its groups of steps."""
    groups = (group.strip() for group in selector.split(","))
    return tuple(_tokenize_group(group) for group in groups if group)


def _match_group(root: Element, steps: _Steps) -> list[Element]:
    """Elements below ``root`` that one selector group matches, in document order."""
    nodes = root._nodes
    current = [root]
    for combinator, compound in steps:
        if combinator == ">":
            candidates = [child for base in current for child in base.children]
            # Children of nested bases interleave: restore document order.
            candidates.sort(key=_INDEX)
        else:
            # ``current`` is in document order, so a base inside an earlier
            # base's subtree adds no candidates of its own.
            candidates = []
            limit = 0
            for base in current:
                if base.index >= limit:
                    candidates += nodes[base.index + 1 : base.end]
                    limit = base.end
        current = compound.filter(candidates)
    return current


def select(root: Element, selector: str) -> list[Element]:
    """Return descendants of ``root`` matching ``selector``, in document order."""
    groups = _compile(selector)
    if len(groups) == 1:
        return _match_group(root, groups[0])
    found: dict[int, Element] = {}
    for steps in groups:
        for element in _match_group(root, steps):
            found[element.index] = element
    return [found[index] for index in sorted(found)]
