"""Synthetic high-volume statement streams (the PR 7 scale setting).

Real tuning inputs are *streams*: thousands of statement arrivals drawn
from a few dozen application templates, literals drawn from finite
domains (tickers, accounts, categories), popularity roughly Zipfian.
That shape is exactly what workload compression exploits -- exact
duplicates collapse, literal variants share templates, and coverage
clustering pools the rest -- so the generator here produces it
deterministically: a seeded mix of TPoX and XMark query templates (plus
a small update mix) at any requested length.

Used by the ``advise_stream`` benchmark workload and the compression
tests.  :func:`drifting_stream` produces the phase-shifted variant the
``online_drift`` benchmark workload and ``repro serve`` replay;
:func:`~repro.workloads.drift.drift_texts` turns any recorded stream
into its sibling/literal-drifted replica.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.query.workload import Workload
from repro.workloads.tpox import security_document, symbol_for
from repro.workloads.xmark import CITIES, REGIONS

#: Finite literal pools: quantized thresholds keep the number of
#: *distinct* statement texts bounded (streams repeat themselves).
_YIELDS = ("2.5", "3.5", "4.5", "5.5", "6.5", "7.5")
_ASK_LOWS = ("60", "80", "100", "120", "140", "160", "180")
_PES = ("20", "30", "40", "45", "50")
_QTYS = ("500", "1000", "2000")
_AMOUNTS = ("500000", "750000", "900000")
_INCREASES = ("10", "20", "30")
_CURRENTS = ("50", "100", "150")
_INCOMES = ("50000", "100000", "150000")
_SECTORS = (
    "Energy", "Technology", "Finance", "Healthcare",
    "Utilities", "Materials", "Industrial", "ConsumerGoods",
)
_COUNTRIES = ("US", "DE", "UK", "JP", "CA")


def _templates(
    num_securities: int,
) -> List[Callable[[random.Random], str]]:
    """The application templates: each draws its literals from a finite
    pool, so a long stream revisits the same statement texts."""
    def sym(rng: random.Random) -> str:
        return symbol_for(rng.randrange(num_securities))

    def account(rng: random.Random) -> str:
        return f"ACCT{rng.randrange(max(1, num_securities // 2)):05d}"

    return [
        # -- TPoX side ------------------------------------------------
        lambda rng: (
            f"for $s in SECURITY('SDOC')/Security "
            f'where $s/Symbol = "{sym(rng)}" return $s'
        ),
        lambda rng: (
            f"for $s in SECURITY('SDOC')/Security "
            f'where $s/Symbol = "{sym(rng)}" '
            f"return $s/Price/LastTrade/Rate"
        ),
        lambda rng: (
            f"for $s in SECURITY('SDOC')/Security"
            f"[Yield>{rng.choice(_YIELDS)}] "
            f'where $s/SecInfo/*/Sector = "{rng.choice(_SECTORS)}" '
            f"return $s/Name"
        ),
        lambda rng: (
            lambda low: (
                f"for $s in SECURITY('SDOC')/Security "
                f"where $s/Price/Ask >= {low} "
                f"and $s/Price/Ask <= {int(low) + 20} "
                f"return $s/Symbol"
            )
        )(rng.choice(_ASK_LOWS)),
        lambda rng: (
            f"for $s in SECURITY('SDOC')/Security"
            f'[SecurityType="Stock"] '
            f"where $s/PE > {rng.choice(_PES)} return $s/Symbol"
        ),
        lambda rng: (
            f"for $o in ORDER('ODOC')/FIXML/Order "
            f'where $o/@ID = "{100000 + rng.randrange(300)}" return $o'
        ),
        lambda rng: (
            f"for $o in ORDER('ODOC')/FIXML/Order "
            f'where $o/@Acct = "{account(rng)}" return $o/Instrmt'
        ),
        lambda rng: (
            f"for $o in ORDER('ODOC')/FIXML/Order "
            f'where $o/Instrmt/@Sym = "{sym(rng)}" '
            f"and $o/OrdQty/@Qty > {rng.choice(_QTYS)} return $o/Px"
        ),
        lambda rng: (
            f"for $c in CUSTACC('CDOC')/Customer "
            f'where $c/@id = "C{rng.randrange(150):06d}" return $c/Name'
        ),
        lambda rng: (
            f"for $c in CUSTACC('CDOC')/Customer "
            f'where $c/Nationality = "{rng.choice(_COUNTRIES)}" '
            f"and $c/Accounts/Account/Balance/OnlineActualBal/Amt > "
            f"{rng.choice(_AMOUNTS)} return $c/Name/Last"
        ),
        # -- XMark side -----------------------------------------------
        lambda rng: (
            f"for $p in PERSONS('PDOC')/person "
            f'where $p/@id = "person{rng.randrange(200)}" return $p/name'
        ),
        lambda rng: (
            f"for $a in AUCTIONS('ADOC')/open_auction "
            f"where $a/bidder/increase > {rng.choice(_INCREASES)} "
            f"return $a/itemref"
        ),
        lambda rng: (
            f"for $a in AUCTIONS('ADOC')/open_auction"
            f"[current >= {rng.choice(_CURRENTS)}] return $a/seller"
        ),
        lambda rng: (
            f"for $i in ITEMS('IDOC')/item "
            f'where $i/location = "{rng.choice(REGIONS)}" return $i/name'
        ),
        lambda rng: (
            f"for $i in ITEMS('IDOC')/item "
            f'where $i/incategory/@category = "category{rng.randrange(50)}" '
            f"return $i/name"
        ),
        lambda rng: (
            f"for $p in PERSONS('PDOC')/person "
            f"where $p/profile/@income > {rng.choice(_INCOMES)} "
            f'and $p/*/city = "{rng.choice(CITIES)}" '
            f"return $p/emailaddress"
        ),
        lambda rng: (
            f"for $a in AUCTIONS('ADOC')/open_auction "
            f'where $a/itemref/@item = "item{rng.randrange(200)}" '
            f"return $a/current"
        ),
    ]


def synthetic_stream(
    num_statements: int = 10_000,
    seed: int = 0,
    num_securities: int = 120,
    update_fraction: float = 0.02,
) -> Workload:
    """A seeded TPoX+XMark statement stream of ``num_statements``
    arrivals (each with frequency 1 -- compression is the caller's job).

    Template popularity is Zipfian (template ``k`` drawn with weight
    ``1/(k+1)``); ``update_fraction`` of arrivals are update statements
    (security inserts and symbol deletes) so maintenance costs
    participate.  Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    templates = _templates(num_securities)
    weights = [1.0 / (rank + 1) for rank in range(len(templates))]
    texts: List[str] = []
    for _ in range(num_statements):
        if rng.random() < update_fraction:
            if rng.random() < 0.5:
                doc = security_document(
                    num_securities + 1000 + rng.randrange(64), rng
                )
                flat = " ".join(doc.split())
                texts.append(f"insert into SDOC value '{flat}'")
            else:
                texts.append(
                    f"delete from SDOC where /Security/Symbol = "
                    f'"{symbol_for(rng.randrange(num_securities))}"'
                )
        else:
            template = rng.choices(templates, weights=weights)[0]
            texts.append(template(rng))
    return Workload.from_statements(texts)


def drifting_stream(
    num_statements: int = 600,
    seed: int = 0,
    num_securities: int = 120,
    phases: int = 3,
    update_fraction: float = 0.0,
) -> Tuple[List[str], List[int]]:
    """A replayable *drifting* statement stream (the PR 8 online-daemon
    setting): arrivals are split into ``phases`` equal segments, and
    phase ``p`` draws only from its own disjoint slice of the template
    list (Zipfian within the slice).  The coverage-signature
    distribution is therefore stationary inside a phase and shifts
    sharply at each boundary -- exactly the shape the daemon's drift
    detector gates on.

    Returns ``(texts, boundaries)`` where ``boundaries[p]`` is the index
    of phase ``p``'s first arrival.  Deterministic in ``seed``; replaying
    the same stream twice drives the daemon through the same cycles.
    """
    if phases <= 0:
        raise ValueError(f"phases must be positive, got {phases}")
    rng = random.Random(seed)
    templates = _templates(num_securities)
    if phases > len(templates):
        raise ValueError(
            f"at most {len(templates)} phases (one disjoint template "
            f"slice each), got {phases}"
        )
    slice_size = len(templates) // phases
    per_phase = num_statements // phases
    texts: List[str] = []
    boundaries: List[int] = []
    for phase in range(phases):
        boundaries.append(len(texts))
        pool = templates[phase * slice_size:(phase + 1) * slice_size]
        weights = [1.0 / (rank + 1) for rank in range(len(pool))]
        count = per_phase if phase < phases - 1 else num_statements - len(texts)
        for _ in range(count):
            if update_fraction > 0 and rng.random() < update_fraction:
                texts.append(
                    f"delete from SDOC where /Security/Symbol = "
                    f'"{symbol_for(rng.randrange(num_securities))}"'
                )
            else:
                template = rng.choices(pool, weights=weights)[0]
                texts.append(template(rng))
    return texts, boundaries


def stream_profile(workload: Workload) -> Tuple[int, int]:
    """(arrivals, distinct statement texts) of a stream -- the headroom
    exact compression alone can reclaim."""
    return (
        len(workload),
        len({entry.statement.describe() for entry in workload}),
    )
