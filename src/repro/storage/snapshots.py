"""Compatibility shim: there is no snapshot engine any more.

Advise requests on the serve path run on the live database (serve/
server.py): every served request is atomic, so no write can reach an
advisor half way, and advising writes nothing the database keeps.  So
nothing needs a shared read-only copy of a database.
:class:`SnapshotStore` stays because the benchmark harness's ``storage``
and ``serve`` probes still call ``snapshot()`` and read ``stats()``, the
way ``AdvisorServer.gate`` stays for its gate probes.  A snapshot is a
private, writable ``pickle`` round-trip of the database as of the call.
"""

from __future__ import annotations

import pickle
from typing import Dict

from repro.storage.database import Database

#: Serialization protocol of every snapshot.
PROTOCOL = pickle.HIGHEST_PROTOCOL


class SnapshotStore:
    """Hands out private copies of a database; holds nothing."""

    def __init__(self) -> None:
        #: Snapshots taken.
        self.compositions = 0

    def snapshot(self, database: Database) -> Database:
        """``database`` as of now: ``pickle.loads(pickle.dumps(database,
        PROTOCOL))``.  Later writes to either side do not reach the
        other."""
        self.compositions += 1
        return pickle.loads(pickle.dumps(database, PROTOCOL))

    def stats(self) -> Dict[str, int]:
        """Snapshots taken."""
        return {"compositions": self.compositions}
