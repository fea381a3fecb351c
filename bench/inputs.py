"""Seeded input generation: databases, statement lists, request schedules.

Every function is a pure function of ``(seed, scale)``; nothing here
reads the clock or the environment.  Databases use the frozen generator
seeds of :mod:`spec` so a run's amount of data never depends on
``--seed``; everything the system is *asked* (literals, arrival order,
request mix positions) does.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

from repro.storage.database import Database
from repro.workloads import tpox, xmark
from repro.workloads.stream import drifting_stream, synthetic_stream
from repro.xmlmodel.serializer import serialize

import spec


def sha256_of(value) -> str:
    """Digest of a JSON-serialisable input structure (provenance)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------
def tpox_database(sizes: Tuple[int, int, int]) -> Database:
    securities, orders, customers = sizes
    return tpox.build_database(
        num_securities=securities,
        num_orders=orders,
        num_customers=customers,
        seed=spec.TPOX_DATA_SEED,
    )


def xmark_database(sizes: Tuple[int, int, int]) -> Database:
    items, persons, auctions = sizes
    return xmark.build_database(
        num_items=items,
        num_persons=persons,
        num_auctions=auctions,
        seed=spec.XMARK_DATA_SEED,
    )


def mixed_database(
    tpox_sizes: Tuple[int, int, int], xmark_sizes: Tuple[int, int, int]
) -> Database:
    """One database holding both benchmarks' six collections."""
    database = tpox_database(tpox_sizes)
    for name, collection in xmark_database(xmark_sizes).collections.items():
        database.create_collection(name)
        for document in collection:
            database.insert_document(name, serialize(document.root))
    return database


# ----------------------------------------------------------------------
# Statement lists
# ----------------------------------------------------------------------
def sweep_statements(seed: int, scale: spec.Scale) -> Dict[str, List[str]]:
    """Statement texts per ``advise_sweep`` database: TPoX 11 queries +
    4 updates, XMark 8 queries, mixed 19 queries."""
    securities = scale.tpox[0]
    mixed_securities = scale.mixed_tpox[0]
    return {
        "tpox": tpox.tpox_queries(securities, seed=seed)
        + tpox.tpox_updates(4, securities, seed=seed),
        "xmark": xmark.xmark_queries(seed=seed),
        "mixed": tpox.tpox_queries(mixed_securities, seed=seed)
        + xmark.xmark_queries(seed=seed),
    }


def stream_texts(
    count: int, seed: int, securities: int, update_fraction: float
) -> List[str]:
    """Texts of one Zipfian TPoX+XMark stream over a mixed database."""
    workload = synthetic_stream(
        count,
        seed=seed,
        num_securities=securities,
        update_fraction=update_fraction,
    )
    return [entry.statement.describe() for entry in workload]


def advise_streams(seed: int, scale: spec.Scale) -> List[List[str]]:
    return [
        stream_texts(
            scale.stream_statements,
            seed * 100 + index,
            scale.mixed_tpox[0],
            spec.STREAM_UPDATE_FRACTION,
        )
        for index in range(scale.streams)
    ]


def drift_stream(seed: int, scale: spec.Scale) -> List[str]:
    texts, _ = drifting_stream(
        num_statements=scale.drift_statements,
        seed=seed,
        num_securities=scale.small_tpox[0],
        phases=scale.drift_phases,
        update_fraction=spec.ONLINE_UPDATE_FRACTION,
    )
    return texts


# ----------------------------------------------------------------------
# Serve schedules
# ----------------------------------------------------------------------
def query_pool(seed: int, scale: spec.Scale) -> List[str]:
    """Read-only stream texts the serve schedules draw from (Zipfian
    over the stream templates, literals from their finite pools)."""
    return stream_texts(scale.query_pool, seed, scale.mixed_tpox[0], 0.0)


def advise_request(kind: str, rng, pool, scale, budget_bytes) -> Dict:
    if kind == "whatif":
        return {
            "kind": "whatif",
            "statements": rng.sample(pool, scale.whatif_statements),
            "patterns": list(spec.WHATIF_PATTERNS),
            "collection": "SDOC",
        }
    return {
        "kind": "recommend",
        "statements": rng.sample(pool, scale.recommend_statements),
        "budget_bytes": budget_bytes,
    }


def insert_text(index: int, rng: random.Random) -> Tuple[str, str]:
    """An insert of a fresh security document, and its symbol."""
    document = " ".join(tpox.security_document(index, rng).split())
    return f"insert into SDOC value '{document}'", tpox.symbol_for(index)


def delete_text(symbol: str) -> str:
    return f'delete from SDOC where /Security/Symbol = "{symbol}"'


def serve_schedule(
    seed: int,
    scale: spec.Scale,
    pool: List[str],
    budget_bytes: int,
    write_heavy: bool,
) -> List[Dict]:
    """One block of closed-loop requests, its order shuffled by the
    seed.  Advise requests never carry DML.  The block's DML is self
    contained -- every insert is of a fresh security and is deleted
    again, at least ``DELETE_LAG`` requests later where the block allows
    it, by a delete that removes exactly that document -- so the block
    leaves the collection as it found it and can repeat."""
    rng = random.Random(seed * 7919 + (1 if write_heavy else 0))
    if write_heavy:
        dml, queries, whatifs, recommends = scale.write_block
    else:
        dml = 0
        queries, whatifs, recommends = scale.read_block
    kinds = (
        ["dml"] * dml
        + ["query"] * queries
        + ["whatif"] * whatifs
        + ["recommend"] * recommends
    )
    rng.shuffle(kinds)
    schedule: List[Dict] = []
    next_document = scale.mixed_tpox[0] + 1000
    live: List[Tuple[int, str]] = []  # (schedule position, symbol)
    dml_left = dml
    for position, kind in enumerate(kinds):
        if kind == "query":
            schedule.append({"kind": "query", "text": rng.choice(pool)})
        elif kind == "dml":
            must_delete = len(live) >= min(dml_left, spec.LIVE_EXTRA_DOCS)
            may_delete = live and position - live[0][0] >= spec.DELETE_LAG
            if must_delete or (may_delete and rng.random() < 0.5):
                text = delete_text(live.pop(0)[1])
            else:
                text, symbol = insert_text(next_document, rng)
                next_document += 1
                live.append((position, symbol))
            dml_left -= 1
            schedule.append({"kind": "dml", "text": text})
        else:
            schedule.append(
                advise_request(kind, rng, pool, scale, budget_bytes)
            )
    return schedule
