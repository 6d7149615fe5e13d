"""The three workloads: set-up, one round of operations, checks and tracing.

Each workload offers the same small surface to :mod:`run` (shared parts in
:class:`Workload`):

* ``setup()`` builds the corpus and starts what serves it (timed as
  ``setup_s``); ``close()`` stops it again.
* ``ops`` is one round: a fixed list of operations drawn from the seed.
  Runs repeat whole rounds, so every run does the same work.
* ``execute(op)`` performs one operation through the program's public
  surface and returns what the checker needs; ``check(op, out)`` compares
  it with answers computed apart from the program (see :mod:`inputs`).
* ``counters()`` snapshots the program's own counters, and ``traced(op,
  layers)`` performs the operation again as separate calls into each
  layer, adding their times to ``layers``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import threading
import time
from collections import Counter

import inputs
from repro.core.ppl import ppl_violations
from repro.core.translate import ppl_to_hcl
from repro.hcl.answering import HclAnswerer
from repro.hcl.binding import PPLbinOracle
from repro.hcl.mc import MCTable
from repro.hcl.sharing import HeadFilter, HeadLeaf, SharedCompose, SharedUnion, normalize
from repro.pplbin import bitmatrix
from repro.session import ExecutionPolicy, ServingPolicy, Session
from repro.trees.xml_io import tree_from_xml
from repro.xpath.parser import parse_path

clock = time.perf_counter


# ------------------------------------------------------------------ tracing
class Layers:
    """Per-layer totals of one traced pass: seconds and counts by name."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, name: str, started: float) -> float:
        """Charge the time since ``started`` to ``name``; return the clock."""
        now = clock()
        self.seconds[name] += now - started
        return now


def distinct_leaves(shared, system) -> list:
    """Every distinct PPLbin leaf of a sharing formula and its equations."""
    leaves: dict = {}
    stack = [shared] + [formula for _, formula in system.items()]
    while stack:
        formula = stack.pop()
        if isinstance(formula, SharedUnion):
            stack += [formula.left, formula.right]
        elif isinstance(formula, SharedCompose):
            if isinstance(formula.head, HeadLeaf):
                leaves.setdefault(formula.head.query)
            elif isinstance(formula.head, HeadFilter):
                stack.append(formula.head.inner)
            stack.append(formula.tail)
    return list(leaves)


def decomposed_answer(tree, oracle, text: str, variables, layers: Layers) -> frozenset:
    """Answer one query as separate calls into each layer, in pipeline order.

    Unlike the program's own path, which probes leaf rows on demand, this
    materialises every leaf relation in full before the MC table is built.
    """
    started = clock()
    parsed = parse_path(text)
    started = layers.add("xpath.parse_ms", started)
    if ppl_violations(parsed):
        raise ValueError(f"not a PPL query: {text}")
    hcl = ppl_to_hcl(parsed)
    started = layers.add("core.translate_ms", started)
    shared, system = normalize(hcl)
    started = layers.add("hcl.sharing.normalize_ms", started)
    for leaf in distinct_leaves(shared, system):
        oracle.relation(leaf)
    started = layers.add("pplbin.relations_ms", started)
    table = MCTable(tree, shared, system, oracle)
    for node in tree.nodes():
        table.value(shared, node)
    mc_seconds = clock() - started
    layers.seconds["hcl.mc_ms"] += mc_seconds
    layers.counts["hcl.mc_entries"] += table.entries_computed()
    started = clock()
    answers = HclAnswerer(tree, oracle).answer_shared(shared, system, variables)
    # answer_shared builds its own MC table; its MC share is taken out here.
    layers.seconds["hcl.answering.vals_ms"] += clock() - started - mc_seconds
    return answers


def program_counters(store) -> dict:
    """Counters the program keeps itself, for per-layer counts and ratios."""
    kernel = bitmatrix.counters()
    answer = store.answer_cache.stats if store.answer_cache is not None else None
    return {
        "pplbin.relations_built": kernel["relations_built"],
        "pplbin.compose_ops": kernel["full_compose"],
        "pplbin.row_union_ops": kernel["row_union"],
        "corpus.parse_count": store.stats.parse_count,
        "answer_hits": answer.hits if answer else 0,
        "answer_misses": answer.misses if answer else 0,
    }


def execution_policy(**fields) -> ExecutionPolicy:
    return ExecutionPolicy(strategy="serial", engine="polynomial", **fields)


class Workload:
    """What the workloads share: one session, its counters, its teardown."""

    session: Session

    def close(self) -> None:
        self.session.close()

    def counters(self) -> dict:
        return program_counters(self.session.store)

    def matrix_counts(self) -> tuple[int, int]:
        """Matrix-cache (hits, misses) over the resident documents' lifetimes."""
        stats = self.session.store.matrix_cache_stats()
        return stats.hits, stats.misses

    def start_trace(self) -> None:
        """Called once before the traced rounds."""


# ---------------------------------------------------------------- nary-output
class NaryOutput(Workload):
    """Fig. 8 on resident documents with warm leaf relations, no answer cache."""

    name = "nary-output"
    why = (
        "output-heavy n-ary queries on resident documents with the answer cache "
        "off, so the MC table and Fig. 8 vals enumeration do the work"
    )
    #: (authors, titles, editors, years, publishers) of the books of one
    #: bibliography; the seed decides which book gets which row.
    BOOKS = [(3, 2, 0, 1, 1), (2, 2, 1, 1, 0), (4, 1, 0, 1, 1), (1, 3, 1, 1, 0),
             (2, 1, 0, 1, 1), (3, 3, 1, 1, 1)] * 10
    #: Bibliography pairs of the round, besides the author/title triple.
    PAIRS = (("author", "title"), ("title", "editor"), ("author", "year"))
    RESTAURANTS = 80
    INCOMPLETE = 12
    CHAIN = 300

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scale = (
            f"bibliography 2x{len(self.BOOKS)} books, restaurants {self.RESTAURANTS}, "
            f"chain {self.CHAIN} nodes"
        )

    def _documents(self) -> list:
        rng = random.Random(self.seed)
        docs = []
        for index in range(2):
            rows = list(self.BOOKS)
            rng.shuffle(rows)
            counts = [dict(zip(inputs.BOOK_CHILD_LABELS, row)) for row in rows]
            docs.append(inputs.bibliography(f"bib{index}", rng, counts))
        docs.append(inputs.restaurants("guide", rng, self.RESTAURANTS, self.INCOMPLETE))
        docs.append(inputs.chain("chain", self.CHAIN))
        return docs

    def _round(self) -> list:
        bibs, guide, chain = self.docs[:2], self.docs[2], self.docs[3]
        ops = []
        for bib in bibs:
            ops += [(bib, *inputs.pair_query(*pair)) for pair in self.PAIRS]
            ops.append((bib, *inputs.triple_query("author", "title")))
        for width in (3, 4, 5, 6):
            ops.append((guide, *inputs.restaurant_query(width)))
        ops.append((chain, *inputs.CHAIN_QUERY))
        random.Random(self.seed + 1).shuffle(ops)
        return ops

    def expected(self) -> None:
        bibs, guide, chain = self.docs[:2], self.docs[2], self.docs[3]
        self._expected = {(chain.name, inputs.CHAIN_QUERY[0]): inputs.expected_chain(chain)}
        for bib in bibs:
            for first, second in self.PAIRS:
                self._expected[bib.name, inputs.pair_query(first, second)[0]] = (
                    inputs.expected_pairs(bib, first, second))
            self._expected[bib.name, inputs.triple_query("author", "title")[0]] = (
                inputs.expected_pairs(bib, "author", "title", with_book=True))
        for width in (3, 4, 5, 6):
            self._expected[guide.name, inputs.restaurant_query(width)[0]] = (
                inputs.expected_restaurants(guide, width))

    def setup(self) -> None:
        self.docs = self._documents()
        self.session = Session(execution=execution_policy(answer_cache_bytes=0))
        for doc in self.docs:
            self.session.add_xml(doc.name, doc.xml)
        self.ops = self._round()
        # Warm-up: parse every document, compile every plan and probe the
        # leaf rows until the oracle materialises their relations.
        for _ in range(3):
            for op in self.ops:
                self.execute(op)

    def execute(self, op):
        doc, text, variables = op
        return self.session.query(doc.name, text, variables)

    def check(self, op, answers) -> bool:
        return answers == self._expected[op[0].name, op[1]]

    def traced(self, op, layers: Layers):
        doc, text, variables = op
        document = self.session.document(doc.name)
        return decomposed_answer(document.tree, document.oracle, text, variables, layers)

    #: Layers whose times add up to an operation (no layer nests in another).
    TOP_LAYERS = ("xpath.parse_ms", "core.translate_ms", "hcl.sharing.normalize_ms",
                  "pplbin.relations_ms", "hcl.mc_ms", "hcl.answering.vals_ms")


# ------------------------------------------------------------------ axis-cold
class AxisCold(Workload):
    """Ingest a fresh random tree, run axis queries with negation, discard it."""

    name = "axis-cold"
    why = (
        "each operation parses a new random tree and builds its sibling, ancestor "
        "and following leaf relations, so XML parsing and axis-relation build dominate"
    )
    #: Node counts of the trees of one round; the seed draws their shapes.
    #: Fifty sizes 4 nodes apart, so operation costs form a continuum and
    #: the median does not fall into a gap between two size classes.
    SIZES = tuple(range(300, 500, 4))
    #: Tree sizes of the warm-up at set-up.  Its trees and queries come from
    #: a fixed seed, so set-up does the same work whatever the run's seed.
    WARM_UP_SIZES = SIZES[::5]
    WARM_UP_SEED = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scale = f"{len(self.SIZES)} random trees of {min(self.SIZES)}-{max(self.SIZES)} nodes"
        self._ingested = 0
        self._matrix = Counter(hits=0, misses=0)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.ops = []
        for index, size in enumerate(self.SIZES):
            doc = inputs.random_tree(f"tree{index}", rng, size)
            steps = inputs.axis_queries(rng)
            self.ops.append((doc, [inputs.unary_query(s) for s in steps], steps))
        rng.shuffle(self.ops)
        self.session = Session(execution=execution_policy())
        # Warm-up, which also makes set-up long enough to time.
        warm = random.Random(self.WARM_UP_SEED)
        for index, size in enumerate(self.WARM_UP_SIZES):
            doc = inputs.random_tree(f"warm{index}", warm, size)
            steps = inputs.axis_queries(warm)
            self.execute((doc, [inputs.unary_query(s) for s in steps], steps))

    def expected(self) -> None:
        """Answers from the set-based evaluator, keyed by (tree, query text)."""
        self._expected = {}
        for doc, queries, steps in self.ops:
            columns = inputs.Columns(doc)
            for (text, _), query_steps in zip(queries, steps):
                self._expected[doc.name, text] = columns.unary_answers(query_steps)

    def execute(self, op):
        doc, queries, _ = op
        self._ingested += 1
        name = f"ingest{self._ingested}"
        session = self.session
        session.add_xml(name, doc.xml)
        answers = [session.query(name, text, variables) for text, variables in queries]
        tree = session.document(name).tree
        session.store.discard(name)
        return answers, tree

    def check(self, op, out) -> bool:
        doc, queries, _ = op
        answers, tree = out
        # The tree is gone from the store once discarded; its matrix-cache
        # counters are collected here, outside the operation's time.
        stats = tree.matrix_cache().stats
        self._matrix["hits"] += stats.hits
        self._matrix["misses"] += stats.misses
        return all(
            got == self._expected[(doc.name, text)]
            for got, (text, _) in zip(answers, queries)
        )

    def matrix_counts(self) -> tuple[int, int]:
        """Matrix-cache (hits, misses) summed over every tree checked so far."""
        return self._matrix["hits"], self._matrix["misses"]

    def traced(self, op, layers: Layers):
        doc, queries, _ = op
        started = clock()
        tree = tree_from_xml(doc.xml)
        layers.add("trees.xml_io.parse_ms", started)
        oracle = PPLbinOracle(tree)
        answers = [
            decomposed_answer(tree, oracle, text, variables, layers)
            for text, variables in queries
        ]
        return answers, tree

    TOP_LAYERS = ("trees.xml_io.parse_ms",) + NaryOutput.TOP_LAYERS


# ------------------------------------------------------------------ serve-mix
class ServeMix(Workload):
    """One closed-loop NDJSON client against an in-process server on loopback."""

    name = "serve-mix"
    why = (
        "Zipf-drawn pair queries over 12 answer-cached documents through the NDJSON "
        "server, one document replaced every 25th operation"
    )
    DOCUMENTS = 12
    #: Children per label of the books of one document (see BOOK_CHILD_LABELS).
    BOOKS = [(2, 1, 1, 1, 1, 1, 0, 1), (1, 2, 0, 1, 0, 1, 1, 2), (3, 1, 1, 1, 1, 0, 1, 0),
             (1, 1, 0, 1, 1, 1, 1, 1), (2, 2, 1, 1, 0, 1, 0, 1), (1, 1, 1, 0, 1, 1, 1, 0)]
    QUERY_OPS = 288
    REPLACE_EVERY = 25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pairs = [
            (first, second)
            for i, first in enumerate(inputs.BOOK_CHILD_LABELS)
            for j, second in enumerate(inputs.BOOK_CHILD_LABELS)
            if 1 <= (j - i) % len(inputs.BOOK_CHILD_LABELS) <= 6
        ]
        self.scale = (
            f"{self.DOCUMENTS} documents x 2 versions of {len(self.BOOKS)} books, "
            f"{len(self.pairs)} pair queries, {self.QUERY_OPS} queries + "
            f"{self.DOCUMENTS} replacements per round"
        )

    def _versions(self) -> dict:
        rng = random.Random(self.seed)
        versions = {}
        for index in range(self.DOCUMENTS):
            name = f"bib{index:02d}"
            for version in (0, 1):
                rows = list(self.BOOKS)
                rng.shuffle(rows)
                counts = [dict(zip(inputs.BOOK_CHILD_LABELS, row)) for row in rows]
                versions[name, version] = inputs.bibliography(name, rng, counts)
        return versions

    def _round(self) -> list:
        rng = random.Random(self.seed + 1)
        ranked = list(range(len(self.pairs)))
        rng.shuffle(ranked)
        # Zipf(1) frequencies, rounded to whole counts that sum to QUERY_OPS.
        weights = [1 / rank for rank in range(1, len(ranked) + 1)]
        shares = [self.QUERY_OPS * w / sum(weights) for w in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
        for i in by_remainder[: self.QUERY_OPS - sum(counts)]:
            counts[i] += 1
        queries = [("query", ranked[i]) for i, n in enumerate(counts) for _ in range(n)]
        rng.shuffle(queries)
        replaced = [f"bib{index:02d}" for index in range(self.DOCUMENTS)]
        rng.shuffle(replaced)
        ops = []
        for op in queries:
            if len(ops) % self.REPLACE_EVERY == self.REPLACE_EVERY - 1 and replaced:
                ops.append(("replace", replaced.pop()))
            ops.append(op)
        ops += [("replace", name) for name in replaced]
        return ops

    def setup(self) -> None:
        # Client, event loop and dispatch pool hand each request back and
        # forth a few dozen times.  On a 2-vCPU VM a hand-off between CPUs
        # made a request take 16 ms instead of 9.5 ms, and swung with the
        # hypervisor's scheduling; on one CPU the hand-offs stay local.
        # Threads started from here on inherit the affinity.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.docs = self._versions()
        self.current = {name: 0 for name, version in self.docs if version == 0}
        self.session = Session(
            execution=execution_policy(), serving=ServingPolicy(max_concurrent=1)
        )
        for name in self.current:
            self.session.add_xml(name, self.docs[name, 0].xml)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="serve-mix-loop")
        self.thread.start()
        protocol = self.session.protocol()
        self.server = self._call(protocol.serve_tcp("127.0.0.1", 0))
        port = self.server.sockets[0].getsockname()[1]
        self.client = socket.create_connection(("127.0.0.1", port))
        self.client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.client.makefile("rb")
        self._next_id = 0
        self._stale: set = set()
        self.ops = self._round()
        # Warm-up: every distinct query once, so the answer cache is full.
        for index in range(len(self.pairs)):
            self.execute(("query", index))

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def close(self) -> None:
        self.reader.close()
        self.client.close()

        async def shutdown() -> None:
            self.server.close()
            await self.server.wait_closed()
            await self.session.aclose()

        try:
            self._call(shutdown())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join()
            self.loop.close()

    def expected(self) -> None:
        self._expected = {
            (name, version, index): inputs.expected_pairs(doc, *pair)
            for (name, version), doc in self.docs.items()
            for index, pair in enumerate(self.pairs)
        }

    def _request(self, payload: dict) -> list:
        self._next_id += 1
        payload["id"] = self._next_id
        self.client.sendall(json.dumps(payload).encode() + b"\n")
        lines = []
        while True:
            line = json.loads(self.reader.readline())
            if line.get("type") == "error":
                raise RuntimeError(f"server error: {line.get('error')}")
            lines.append(line)
            if line.get("type") != "result":
                return lines

    def execute(self, op):
        kind, target = op
        if kind == "replace":
            version = 1 - self.current[target]
            self.session.store.discard(target)
            self.session.add_xml(target, self.docs[target, version].xml)
            self.current[target] = version
            return None
        text, variables = inputs.pair_query(*self.pairs[target])
        return self._request({"op": "submit", "query": text, "vars": list(variables)})

    def check(self, op, lines) -> bool:
        kind, target = op
        if kind == "replace":
            # Every query on the new version misses the answer cache once.
            self._stale.update((target, query) for query in range(len(self.pairs)))
            return True
        index = target
        self._stale.difference_update((name, index) for name in self.current)
        result_lines = [line for line in lines if line["type"] == "result"]
        results = {line["doc"]: line for line in result_lines}
        # One result line per current document: no document left out, none twice.
        if (len(result_lines) != len(self.current) or sorted(results) != sorted(self.current)
                or lines[-1]["type"] != "done"):
            return False
        return all(
            frozenset(map(tuple, results[name]["answers"]))
            == self._expected[name, self.current[name], index]
            for name in results
        )

    def server_stats(self) -> dict:
        return self._request({"op": "stats"})[0]["stats"]

    def traced(self, op, layers: Layers):
        kind, target = op
        if kind == "replace":
            out = self.execute(op)
            # The program parses the new version on its next query; parse
            # the same text here once to time the XML layer on its own.
            started = clock()
            self._trees[target] = tree_from_xml(self.docs[target, self.current[target]].xml)
            layers.add("trees.xml_io.parse_ms", started)
            return out
        index = target
        text, variables = inputs.pair_query(*self.pairs[index])
        started = clock()
        self.session.compile(text, variables)
        layers.add("session.compile_ms", started)
        before = self.server_stats()
        started = clock()
        lines = self.execute(op)
        round_trip = clock() - started
        after = self.server_stats()
        execution = after["latency"]["sum"] - before["latency"]["sum"]
        layers.seconds["serve.exec_ms"] += execution
        layers.seconds["serve.queue_wait_ms"] += (
            after["queue_wait"]["sum"] - before["queue_wait"]["sum"]
        )
        layers.seconds["serve.protocol_ms"] += round_trip - execution
        # Documents replaced since this query last ran missed the answer
        # cache; the engine layers of those misses are timed on a copy.
        for name in self.current:
            if (name, index) in self._stale:
                tree = self._trees[name]
                decomposed_answer(tree, PPLbinOracle(tree), text, variables, layers)
        return lines

    def start_trace(self) -> None:
        self._trees = {name: tree_from_xml(self.docs[name, version].xml)
                       for name, version in self.current.items()}

    #: The server's execution time and everything around it on the client
    #: side; the engine layers of cache misses nest inside serve.exec_ms.
    TOP_LAYERS = ("session.compile_ms", "serve.exec_ms", "serve.protocol_ms")


WORKLOADS = {cls.name: cls for cls in (NaryOutput, AxisCold, ServeMix)}
