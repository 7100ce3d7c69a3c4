"""The four workloads: how each opens its engine and what it sends.

Every workload is a closed loop with one client: the next operation is sent
when the previous one has answered.  The engine is GES_f* on the SF100 mini
graph, opened from files written beforehand (see ``prepare.py``).

* ``snb-read`` — the LDBC IC+IS mix on a store that is never written.  The
  factorized executor, f-Tree and storage fast paths do nearly all the
  work and every plan comes from the plan cache.
* ``snb-mixed`` — IC+IS+IU at 1:4:2 on a durable database in ``fsync``
  mode.  The warm-up commits writes, so every measured read runs on a
  versioned view and every commit pays the transaction and WAL code.  Its
  reads are snb-read's, so a read-path gain that hurts reads after writes
  shows here.
* ``snb-read-pooled`` — snb-read's stream through a two-worker pool, which
  isolates pool dispatch, shared-memory export and IPC.
* ``cypher-adhoc`` — Cypher text with inlined literals, so every text is
  new: the only workload where parse, bind and optimize run on each query.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro import GES, EngineConfig
from repro.engine.registry import ModuleRegistry
from repro.exec.base import ExecStats
from repro.ldbc import BenchmarkDriver, ParameterGenerator, SnbDataset
from repro.ldbc.datagen import DatasetInfo
from repro.ldbc.params import CATEGORY_MIX, INTERLEAVES
from repro.ldbc.queries import queries_of
from repro.ldbc.schema import ID_BASE
from repro.storage.io import load_graph

#: Workers of the pooled workload: the vCPUs of the machine it was made on.
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    updates: bool = False
    durable: bool = False
    workers: int = 1
    adhoc: bool = False

    def shares(self) -> dict[str, float]:
        """Each query type's share of the spec mix the schedule draws from."""
        if self.adhoc:
            total = sum(CATEGORY_MIX[c] for c in ADHOC_TEMPLATES)
            return {
                name: CATEGORY_MIX[c] / total / len(templates)
                for c, templates in ADHOC_TEMPLATES.items()
                for name, _, _ in templates
            }
        categories = ["IC", "IS"] + (["IU"] if self.updates else [])
        total = sum(CATEGORY_MIX[c] for c in categories)
        shares = {}
        for category in categories:
            defs = queries_of(category)
            within = [
                1.0 / INTERLEAVES[q.name] if category == "IC" else 1.0 for q in defs
            ]
            for query, weight in zip(defs, within):
                shares[query.name] = CATEGORY_MIX[category] / total * weight / sum(within)
        return shares

    def open_engine(self, files: Path, registry: ModuleRegistry | None) -> GES:
        """Open the engine from the files ``prepare.py`` wrote."""
        if self.durable:
            return GES.open(
                files / "db",
                config=EngineConfig.ges_f_star(durability="fsync"),
                registry=registry,
            )
        return GES(
            load_graph(files / "graph"),
            config=EngineConfig.ges_f_star(workers=self.workers),
            registry=registry,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "snb-read",
            "LDBC IC+IS reads on a never-written store: executor, f-Tree and storage fast paths",
        ),
        Workload(
            "snb-mixed",
            "IC+IS+IU 1:4:2 on a durable fsync database: reads on versioned views, txn and WAL",
            updates=True,
            durable=True,
        ),
        Workload(
            "snb-read-pooled",
            "snb-read's stream through a 2-worker pool: dispatch, shared-memory export and IPC",
            workers=POOL_WORKERS,
        ),
        Workload(
            "cypher-adhoc",
            "Cypher text with fresh literals overflows the plan cache: parse, bind and optimize",
            adhoc=True,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One operation of a schedule: an LDBC query or a Cypher text."""

    index: int
    name: str
    category: str  # IC | IS | IU
    params: dict[str, Any] | None = None
    text: str | None = None

    @property
    def reads(self) -> bool:
        return self.category != "IU"

    def run(
        self, engine: GES, stats: ExecStats, queries: Mapping[str, Callable[..., list]]
    ) -> list:
        """Answer the operation; ``queries`` maps LDBC names to functions."""
        if self.text is not None:
            return engine.execute(self.text, stats=stats).rows
        return queries[self.name](engine, self.params, stats)


def first_query_text() -> str:
    """The query ``setup_s`` waits for: the first answer of a fresh engine."""
    return (
        f"MATCH (p:Person {{id: {ID_BASE['Person']}}})-[:IS_LOCATED_IN]->(c:Place) "
        "RETURN p.firstName AS firstName, c.name AS city"
    )


#: IS- and IC-shaped Cypher patterns of the ad-hoc workload.  Literals are
#: inlined, so each text is new to the plan cache.
ADHOC_TEMPLATES: dict[str, list[tuple[str, str, str]]] = {
    "IS": [
        (
            "A-IS1",
            "IS1",
            "MATCH (p:Person {{id: {personId}}})-[:IS_LOCATED_IN]->(c:Place) "
            "RETURN p.firstName AS firstName, p.lastName AS lastName, "
            "p.birthday AS birthday, c.id AS cityId",
        ),
        (
            "A-IS3",
            "IS3",
            "MATCH (p:Person {{id: {personId}}})-[:KNOWS]->(f:Person) "
            "RETURN f.id AS friendId, f.firstName AS firstName, f.lastName AS lastName "
            "ORDER BY friendId LIMIT 20",
        ),
        (
            "A-IS4",
            "IS4",
            "MATCH (m:Message {{id: {messageId}}})-[:HAS_CREATOR]->(p:Person) "
            "RETURN m.creationDate AS created, p.id AS personId, p.firstName AS firstName",
        ),
    ],
    "IC": [
        (
            "A-IC1",
            "IC1",
            "MATCH (p:Person {{id: {personId}}})-[:KNOWS*1..2]->(f:Person) "
            "WHERE f.firstName = '{firstName}' "
            "RETURN DISTINCT f.id AS friendId, f.lastName AS lastName "
            "ORDER BY lastName, friendId LIMIT 20",
        ),
        (
            "A-IC2",
            "IC2",
            "MATCH (p:Person {{id: {personId}}})-[:KNOWS]->(f:Person)"
            "<-[:HAS_CREATOR]-(m:Message) WHERE m.creationDate <= {maxDate} "
            "RETURN f.id AS friendId, m.id AS messageId, m.creationDate AS created "
            "ORDER BY created DESC, messageId LIMIT 20",
        ),
    ],
}


def ldbc_schedule(
    engine: GES, info: DatasetInfo, seed: int, updates: bool, length: int
) -> list[Op]:
    """One driver's schedule over the engine's own, not yet written, store.

    A single ``BenchmarkDriver`` per store: each driver's parameter
    generator restarts its fresh-id counter, so a second driver on the same
    store would insert duplicate keys.
    """
    driver = BenchmarkDriver(
        engine, SnbDataset(engine.store, info), seed=seed, include_updates=updates
    )
    return [
        Op(op.index, op.name, op.category, params=op.params)
        for op in driver.build_schedule(length)
    ]


def adhoc_schedule(engine: GES, info: DatasetInfo, seed: int, length: int) -> list[Op]:
    """Cypher texts in the LDBC IS:IC balance, literals from ``ParameterGenerator``."""
    rng = np.random.default_rng(seed)
    params = ParameterGenerator(SnbDataset(engine.store, info), seed=seed)
    share_is = CATEGORY_MIX["IS"] / (CATEGORY_MIX["IS"] + CATEGORY_MIX["IC"])
    ops = []
    for index in range(length):
        category = "IS" if rng.random() < share_is else "IC"
        templates = ADHOC_TEMPLATES[category]
        name, shape, text = templates[int(rng.integers(0, len(templates)))]
        ops.append(
            Op(index, name, category, text=text.format(**params.params_for(shape)))
        )
    return ops
