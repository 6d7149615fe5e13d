"""Seeded inputs of the benchmark and the answers they must produce.

Every document is written here as XML text, so the node numbering is known
without asking the program: nodes are numbered in document (pre-)order,
the root being 0.  Expected answers come from the generators' own structure
(closed forms for the bibliography, restaurant and chain documents) or from
a small set-based evaluator over pre/post/parent columns (the random trees
of ``axis-cold``).  Neither path imports anything from ``repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np


# --------------------------------------------------------------- XML writer
class XmlBuilder:
    """Writes elements in document order and hands out their node numbers."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.labels: list[str] = []
        self.parent: list[int] = []
        self._open: list[int] = []

    def open(self, label: str) -> int:
        node = len(self.labels)
        self.labels.append(label)
        self.parent.append(self._open[-1] if self._open else -1)
        self.parts.append(f"<{label}>")
        self._open.append(node)
        return node

    def close(self) -> None:
        node = self._open.pop()
        self.parts.append(f"</{self.labels[node]}>")

    def leaf(self, label: str) -> int:
        node = self.open(label)
        self.parts[-1] = f"<{label}/>"
        self._open.pop()
        return node

    def text(self) -> str:
        assert not self._open, "unclosed elements"
        return "".join(self.parts)


@dataclass
class Doc:
    """One generated document: its XML and what the benchmark knows of it."""

    name: str
    xml: str
    labels: list[str]
    parent: list[int]
    #: Node numbers grouped by the generator, for closed-form answers.
    groups: list[dict] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.labels)


# ------------------------------------------------------------- bibliography
BOOK_CHILD_LABELS = ("author", "title", "editor", "year", "publisher", "price", "isbn", "note")


def bibliography(name: str, rng: random.Random, counts: list[dict[str, int]]) -> Doc:
    """A ``bib`` of books; ``counts[i]`` gives book i's children per label.

    The children of each book are shuffled by ``rng``; the counts themselves
    are fixed by the caller, so the answer sizes do not depend on the seed.
    """
    xml = XmlBuilder()
    xml.open("bib")
    books = []
    for book_counts in counts:
        children = [label for label, n in book_counts.items() for _ in range(n)]
        rng.shuffle(children)
        book = {"book": xml.open("book")}
        for label in children:
            book.setdefault(label, []).append(xml.leaf(label))
        xml.close()
        books.append(book)
    xml.close()
    return Doc(name, xml.text(), xml.labels, xml.parent, books)


def pair_query(first: str, second: str) -> tuple[str, tuple[str, ...]]:
    return (
        f"descendant::book[child::{first}[. is $y] and child::{second}[. is $z]]",
        ("y", "z"),
    )


def triple_query(first: str, second: str) -> tuple[str, tuple[str, ...]]:
    return (
        f"descendant::book[. is $b][child::{first}[. is $y] and child::{second}[. is $z]]",
        ("b", "y", "z"),
    )


def expected_pairs(doc: Doc, first: str, second: str, with_book: bool = False) -> frozenset:
    """Books x first-label children x second-label children."""
    answers = set()
    for book in doc.groups:
        for y in book.get(first, ()):
            for z in book.get(second, ()):
                answers.add((book["book"], y, z) if with_book else (y, z))
    return frozenset(answers)


# -------------------------------------------------------------- restaurants
RESTAURANT_ATTRIBUTES = ("name", "address", "phone", "fax", "street", "city")


def restaurants(name: str, rng: random.Random, count: int, incomplete: int) -> Doc:
    """A ``guide`` of restaurants; ``incomplete`` of them lack one attribute.

    Which restaurants are incomplete, which attribute they lack and the
    order of every restaurant's children are drawn from ``rng``.
    """
    lacking = dict.fromkeys(rng.sample(range(count), incomplete))
    for index in lacking:
        lacking[index] = rng.choice(RESTAURANT_ATTRIBUTES)
    xml = XmlBuilder()
    xml.open("guide")
    groups = []
    for index in range(count):
        children = [a for a in RESTAURANT_ATTRIBUTES if a != lacking.get(index)]
        children += ["review", "review"]
        rng.shuffle(children)
        restaurant = {"restaurant": xml.open("restaurant")}
        for label in children:
            restaurant.setdefault(label, []).append(xml.leaf(label))
        xml.close()
        groups.append(restaurant)
    xml.close()
    return Doc(name, xml.text(), xml.labels, xml.parent, groups)


def restaurant_query(width: int) -> tuple[str, tuple[str, ...]]:
    variables = tuple(f"x{i}" for i in range(width))
    tests = " and ".join(
        f"child::{label}[. is ${variable}]"
        for label, variable in zip(RESTAURANT_ATTRIBUTES, variables)
    )
    return f"descendant::restaurant[{tests}]", variables


def expected_restaurants(doc: Doc, width: int) -> frozenset:
    """One tuple per restaurant that has each of the first ``width`` attributes."""
    answers = set()
    for restaurant in doc.groups:
        wanted = RESTAURANT_ATTRIBUTES[:width]
        if all(label in restaurant for label in wanted):
            answers.add(tuple(restaurant[label][0] for label in wanted))
    return frozenset(answers)


# -------------------------------------------------------------------- chain
def chain(name: str, length: int) -> Doc:
    xml = XmlBuilder()
    for _ in range(length - 1):
        xml.open("a")
    xml.leaf("a")
    for _ in range(length - 1):
        xml.close()
    return Doc(name, xml.text(), xml.labels, xml.parent)


CHAIN_QUERY = ("descendant::a[. is $x]", ("x",))


def expected_chain(doc: Doc) -> frozenset:
    """Every node but the root."""
    return frozenset((node,) for node in range(1, doc.size))


# -------------------------------------------------------------- random trees
TREE_LABELS = ("a", "b", "c", "d")


def random_tree(name: str, rng: random.Random, size: int, max_depth: int = 10) -> Doc:
    """A random tree of exactly ``size`` nodes, built in document order.

    Each new node goes to a depth drawn uniformly from ``1..max_depth`` (at
    most one below the previous node), so its parent is an open element on
    the current path.  The draws are independent, so trees of one size have
    much the same depth profile and fan-out whatever the seed.
    """
    xml = XmlBuilder()
    xml.open(rng.choice(TREE_LABELS))
    depth = 1  # elements open, root included
    for _ in range(size - 1):
        target = min(depth, rng.randint(1, max_depth))
        for _ in range(depth - target):
            xml.close()
        xml.open(rng.choice(TREE_LABELS))
        depth = target + 1
    for _ in range(depth):
        xml.close()
    return Doc(name, xml.text(), xml.labels, xml.parent)


# --------------------------------------------------- unary queries with axes
# A step is (axis, label, tests); a test is ("path", steps), ("not", test)
# or ("and", test, test).  The same structure renders the XPath text the
# program receives and drives the set-based evaluator below.
INVERSE = {
    "child": "parent",
    "parent": "child",
    "descendant": "ancestor",
    "ancestor": "descendant",
    "following-sibling": "preceding-sibling",
    "preceding-sibling": "following-sibling",
    "following": "preceding",
    "preceding": "following",
}


def render_steps(steps) -> str:
    return "/".join(
        f"{axis}::{label}" + "".join(f"[{render_test(test)}]" for test in tests)
        for axis, label, tests in steps
    )


def render_test(test) -> str:
    kind = test[0]
    if kind == "path":
        return render_steps(test[1])
    if kind == "not":
        return f"not({render_test(test[1])})"
    return f"{render_test(test[1])} and {render_test(test[2])}"


def unary_query(steps) -> tuple[str, tuple[str, ...]]:
    return f"{render_steps(steps)}[. is $x]", ("x",)


def axis_queries(rng: random.Random) -> list:
    """Three low-output unary queries over sibling, ancestor and following axes.

    Each negated test comes first in its conjunction, so it is probed on
    every node of the step's label.  The program materialises a leaf
    relation once a leaf has been probed more than a fixed number of times;
    with at least a quarter of the nodes probed every leaf gets past that
    threshold on every tree, and the work does not jump from seed to seed.
    """
    a, b, c, d = rng.sample(TREE_LABELS, 4)
    return [
        [("descendant", a, [("and",
                             ("not", ("path", [("ancestor", c, [])])),
                             ("path", [("following-sibling", b, [])]))])],
        [("descendant", b, [("and",
                             ("not", ("path", [("following", d, [])])),
                             ("path", [("ancestor", a, [])]))])],
        [("descendant", c, [("not", ("path", [("preceding-sibling", a, [])]))]),
         ("following-sibling", d, [("path", [("child", b, [])])])],
    ]


class Columns:
    """A tree as pre/post/parent columns; axis images over node sets.

    Nodes are numbered in pre-order, so ``pre`` is the identity.  Each axis
    image is one pass over the columns (the pre/post formulations of the
    XPath axes), with no per-node recursion and no use of the program.
    """

    def __init__(self, doc: Doc) -> None:
        n = doc.size
        self.n = n
        self.parent = np.asarray(doc.parent, dtype=np.int64)
        subtree = np.ones(n, dtype=np.int64)
        for node in range(n - 1, 0, -1):
            subtree[self.parent[node]] += subtree[node]
        depth = np.zeros(n, dtype=np.int64)
        for node in range(1, n):
            depth[node] = depth[self.parent[node]] + 1
        self.pre = np.arange(n)
        # post(v) = pre(v) + |subtree(v)| - 1 - depth(v)
        self.post = self.pre + subtree - 1 - depth
        self.labels = np.asarray(doc.labels)

    def label(self, name: str) -> np.ndarray:
        return self.labels == name

    def image(self, axis: str, nodes: np.ndarray) -> np.ndarray:
        """The nodes reached from some member of ``nodes`` along ``axis``."""
        n, parent, post = self.n, self.parent, self.post
        result = np.zeros(n, dtype=bool)
        if axis == "child":
            result[1:] = nodes[parent[1:]]
        elif axis == "parent":
            members = np.flatnonzero(nodes)
            members = members[members > 0]
            result[parent[members]] = True
        elif axis in ("descendant", "following"):
            # Some u in S with pre(u) < pre(v) and post(u) > post(v)
            # (descendant) or post(u) < post(v) (following).
            big = np.iinfo(np.int64).max
            if axis == "descendant":
                keyed = np.where(nodes, post, -1)
                before = np.concatenate(([-1], np.maximum.accumulate(keyed)[:-1]))
                result = before > post
            else:
                keyed = np.where(nodes, post, big)
                before = np.concatenate(([big], np.minimum.accumulate(keyed)[:-1]))
                result = before < post
        elif axis in ("ancestor", "preceding"):
            # Some u in S with pre(u) > pre(v) and post(u) < post(v)
            # (ancestor) or post(u) > post(v) (preceding).
            big = np.iinfo(np.int64).max
            if axis == "ancestor":
                keyed = np.where(nodes, post, big)[::-1]
                after = np.concatenate(([big], np.minimum.accumulate(keyed)[:-1]))[::-1]
                result = after < post
            else:
                keyed = np.where(nodes, post, -1)[::-1]
                after = np.concatenate(([-1], np.maximum.accumulate(keyed)[:-1]))[::-1]
                result = after > post
        elif axis in ("following-sibling", "preceding-sibling"):
            members = np.flatnonzero(nodes)
            members = members[members > 0]
            others = np.arange(1, n)
            if axis == "following-sibling":
                first = np.full(n, n, dtype=np.int64)
                np.minimum.at(first, parent[members], members)
                result[1:] = others > first[parent[1:]]
            else:
                last = np.full(n, -1, dtype=np.int64)
                np.maximum.at(last, parent[members], members)
                result[1:] = others < last[parent[1:]]
        else:
            raise ValueError(f"axis {axis!r} is not supported by the checker")
        return result

    def forward(self, steps, start: np.ndarray) -> np.ndarray:
        current = start
        for axis, label, tests in steps:
            current = self.image(axis, current) & self.label(label)
            for test in tests:
                current = current & self.satisfies(test)
        return current

    def backward(self, steps) -> np.ndarray:
        """Nodes from which ``steps`` reach at least one node."""
        target = np.ones(self.n, dtype=bool)
        for axis, label, tests in reversed(steps):
            here = target & self.label(label)
            for test in tests:
                here = here & self.satisfies(test)
            target = self.image(INVERSE[axis], here)
        return target

    def satisfies(self, test) -> np.ndarray:
        kind = test[0]
        if kind == "path":
            return self.backward(test[1])
        if kind == "not":
            return ~self.satisfies(test[1])
        return self.satisfies(test[1]) & self.satisfies(test[2])

    def unary_answers(self, steps) -> frozenset:
        """Answers of ``unary_query(steps)``, started from every node."""
        reached = self.forward(steps, np.ones(self.n, dtype=bool))
        return frozenset((int(node),) for node in np.flatnonzero(reached))
