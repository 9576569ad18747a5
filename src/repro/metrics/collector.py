"""First-class telemetry on the RoundEvent / ShuffleRecord streams.

:class:`MetricsCollector` is the consumer the instrumentation hooks were
built for: attach one to a :class:`~repro.congest.network.CongestNetwork`
(``on_round``) and — on the MPC backend — to the
:class:`~repro.mpc.runtime.MPCRuntime` shuffle trace (``on_shuffle``),
and it aggregates the streams into per-phase series (messages, words,
cut words, awake counts, shuffle loads, rounds per shuffle) plus a
structured JSON document suitable to sit next to the ``BENCH_*.json``
files.

The document is split in two, and the split is the contract:

* ``deterministic`` — machine-independent fields only: phase structure,
  per-phase round counts, the per-round message/word/cut series, and
  named convergence series recorded by the solver drivers
  (:meth:`MetricsCollector.record_convergence`).
  These are covered by the engine parity contract *and* untouched by
  shuffle compression, so the section (and its canonical-JSON
  ``deterministic_sha256``) must be byte-identical across engines
  v1/v2 and across every ``compress`` setting (``"auto"`` included) on
  the same workload.
* ``variant`` — everything legitimately environment- or backend-
  dependent: the ``awake`` series (the activity-scheduling observable:
  engine v1 invokes every live node, while engine v2 and the compiled
  MPC backend share one round kernel and so agree with each other at
  every window length and worker count), the executing engine's name,
  the MPC shuffle ledger (shuffle count, window lengths, per-machine
  loads) and the auto-compression ledger.

Phases are detected on the event stream itself: every ``run`` emits a
round-0 event, so a new phase starts exactly there.  A phase is named by
the ``stage_label`` that ``run(label=...)`` stamps on its events, or
positionally (``phaseN``) when it has none.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.contract import (
    find_timing_scoped_keys,
    is_deterministic_int,
    reject_non_integer_series,
)

#: Schema identifier stamped on every emitted document.  ``/2`` added
#: the ``convergence`` section to the deterministic payload.
SCHEMA = "repro.metrics/2"


def _canonical(payload: Any) -> str:
    """Canonical JSON: the byte form the determinism digest is over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def deterministic_sha256(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


class MetricsCollector:
    """Aggregate round events and shuffle records into metrics JSON.

    ``label`` names the collected workload (a solver, a sweep cell key)
    inside the deterministic section; collectors are single-use — one
    collector per instrumented computation.
    """

    def __init__(self, label: str | None = None) -> None:
        self.label = label
        #: One entry per detected phase: its stage label plus the
        #: phase's ordered RoundEvents.
        self.phases: list[dict[str, Any]] = []
        #: Live ShuffleRecord references (``absorb_early_finish`` may
        #: still shrink the last one, so aggregation happens at emit
        #: time, never at append time).
        self.shuffle_records: list[Any] = []
        self.engine: str | None = None
        self.mpc: dict[str, Any] | None = None
        #: Named deterministic convergence series — recorded by solver
        #: drivers from model-level state (cover growth, |DS|/|U| per
        #: phase, matched edges), never from engine scheduling, so they
        #: belong in the deterministic section.
        self.convergence: dict[str, list[int]] = {}

    # -- the hooks ---------------------------------------------------------

    def on_round(self, event: Any) -> None:
        """RoundEvent hook: pass as ``on_round=`` (or via :meth:`attach`)."""
        if event.round_index == 0 or not self.phases:
            self.phases.append({"label": event.stage_label, "events": []})
        phase = self.phases[-1]
        if phase["label"] is None and event.stage_label is not None:
            phase["label"] = event.stage_label
        phase["events"].append(event)

    def on_shuffle(self, record: Any) -> None:
        """ShuffleRecord hook for :attr:`MPCRuntime.on_shuffle`."""
        self.shuffle_records.append(record)

    def attach(self, network: Any) -> "MetricsCollector":
        """Hook this collector into ``network`` (and its MPC runtime).

        Sets the network-level ``on_round`` default — so every stage a
        solver runs on the network is observed — and, when the network
        carries an MPC runtime (:class:`MPCCongestNetwork`), the
        runtime's ``on_shuffle`` hook as well.  Returns ``self``.
        """
        network.on_round = self.on_round
        # Back-reference so solver drivers can record convergence series
        # without threading the collector through every signature.
        network.collector = self
        self.set_engine(network.engine_name)
        runtime = getattr(network, "runtime", None)
        if runtime is not None:
            runtime.on_shuffle = self.on_shuffle
        return self

    # -- backend metadata --------------------------------------------------

    def set_engine(self, name: str) -> None:
        self.engine = name

    def record_mpc(self, summary: dict[str, Any]) -> None:
        """Store the final MPC ledger (``mpc_summary()``) for the variant.

        Callers may extend the summary with execution provenance — the
        compiled solvers add ``workers``, the process-parallel shard
        count.  Worker count belongs here in the *variant* section (like
        ``awake`` and timing) precisely because the deterministic section
        must stay byte-identical at any count: sharding changes where
        local computation runs, never what the ledger records.
        """
        self.mpc = summary

    def record_convergence(self, name: str, values: list[int]) -> None:
        """Record a named deterministic convergence series.

        ``values`` must be derived from model-level solver state (set
        sizes, matched edges) — never from engine scheduling observables
        like per-round awake counts, which legitimately differ across
        engines.  Re-recording a name overwrites it, so parity re-runs
        on the same collector stay idempotent.
        """
        self.convergence[name] = [int(v) for v in values]

    # -- aggregation -------------------------------------------------------

    def _phase_name(self, index: int, phase: dict[str, Any]) -> str:
        if phase["label"] is not None:
            return str(phase["label"])
        return f"phase{index}"

    def deterministic_payload(self) -> dict[str, Any]:
        """The machine-independent section (see the module docstring)."""
        phases = []
        totals = {"rounds": 0, "messages": 0, "words": 0, "cut_words": 0}
        for index, phase in enumerate(self.phases):
            events = phase["events"]
            entry = {
                "index": index,
                "label": self._phase_name(index, phase),
                # round 0 is the on_start emission, so the last round
                # index is the phase's round count.
                "rounds": events[-1].round_index if events else 0,
                "messages": sum(e.messages for e in events),
                "words": sum(e.words for e in events),
                "cut_words": sum(e.cut_words for e in events),
                "series": {
                    "messages": [e.messages for e in events],
                    "words": [e.words for e in events],
                    "cut_words": [e.cut_words for e in events],
                },
            }
            phases.append(entry)
            totals["rounds"] += entry["rounds"]
            totals["messages"] += entry["messages"]
            totals["words"] += entry["words"]
            totals["cut_words"] += entry["cut_words"]
        return {
            "schema": SCHEMA,
            "label": self.label,
            "phases": phases,
            "totals": totals,
            "convergence": {
                name: list(values)
                for name, values in sorted(self.convergence.items())
            },
        }

    def deterministic_sha256(self) -> str:
        return deterministic_sha256(self.deterministic_payload())

    def variant_payload(self) -> dict[str, Any]:
        """The engine/backend-dependent section."""
        payload: dict[str, Any] = {
            "engine": self.engine,
            "awake": {
                "per_phase": [
                    [e.awake for e in phase["events"]]
                    for phase in self.phases
                ],
                "total": sum(
                    e.awake
                    for phase in self.phases
                    for e in phase["events"]
                ),
            },
        }
        records = self.shuffle_records
        if records:
            shuffles = len(records)
            congest_rounds = sum(r.congest_rounds for r in records)
            payload["shuffle"] = {
                "shuffles": shuffles,
                "congest_rounds": congest_rounds,
                "rounds_per_shuffle": congest_rounds / shuffles,
                "messages": sum(r.messages for r in records),
                "words": sum(r.words for r in records),
                "max_in_words": max(r.max_in_words for r in records),
                "max_out_words": max(r.max_out_words for r in records),
                "window_ks": [r.congest_rounds for r in records],
            }
        if self.mpc is not None:
            payload["mpc"] = self.mpc
        return payload

    def to_json(self) -> dict[str, Any]:
        """The full document: schema, both sections, and the digest."""
        deterministic = self.deterministic_payload()
        return {
            "schema": SCHEMA,
            "label": self.label,
            "deterministic": deterministic,
            "deterministic_sha256": deterministic_sha256(deterministic),
            "variant": self.variant_payload(),
        }

    def write(self, path: str | Path) -> Path:
        """Write the document next to the ``BENCH_*.json`` files."""
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))
        return path


def validate_metrics(document: dict[str, Any]) -> None:
    """Schema-validity gate for emitted metrics documents.

    Raises ``ValueError`` naming the first violated constraint; CI runs
    this over every document it emits.
    """
    if not isinstance(document, dict):
        raise ValueError("metrics document must be a JSON object")
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"metrics schema must be {SCHEMA!r}, got "
            f"{document.get('schema')!r}"
        )
    for key in ("deterministic", "deterministic_sha256", "variant"):
        if key not in document:
            raise ValueError(f"metrics document is missing {key!r}")
    deterministic = document["deterministic"]
    if document["deterministic_sha256"] != deterministic_sha256(
        deterministic
    ):
        raise ValueError(
            "deterministic_sha256 does not match the deterministic section"
        )
    if not isinstance(deterministic.get("phases"), list):
        raise ValueError("deterministic.phases must be a list")
    totals = deterministic.get("totals")
    if not isinstance(totals, dict):
        raise ValueError("deterministic.totals must be an object")
    for key in ("rounds", "messages", "words", "cut_words"):
        if key not in totals:
            raise ValueError(f"deterministic.totals is missing {key!r}")
    leaked = find_timing_scoped_keys(deterministic)
    if leaked:
        raise ValueError(
            "timing-scope: deterministic section contains timing-scoped "
            f"field(s): {', '.join(leaked)}"
        )
    for key in ("rounds", "messages", "words", "cut_words"):
        if not is_deterministic_int(totals[key]):
            raise ValueError(
                f"integer-series: totals[{key!r}] must be an integer, "
                f"got {totals[key]!r} ({type(totals[key]).__name__})"
            )
    convergence = deterministic.get("convergence")
    if not isinstance(convergence, dict):
        raise ValueError("deterministic.convergence must be an object")
    for name, series in convergence.items():
        reject_non_integer_series(
            f"convergence.{name}", series, "integer-series"
        )
    for index, phase in enumerate(deterministic["phases"]):
        for key in ("index", "label", "rounds", "messages", "words",
                    "cut_words", "series"):
            if key not in phase:
                raise ValueError(f"phase {index} is missing {key!r}")
        series = phase["series"]
        for key in ("messages", "words", "cut_words"):
            reject_non_integer_series(
                f"phases[{index}].series.{key}", series[key],
                "integer-series",
            )
        lengths = {len(series[k]) for k in ("messages", "words", "cut_words")}
        if len(lengths) != 1:
            raise ValueError(f"phase {index} series lengths disagree")
        if phase["rounds"] != max(len(series["messages"]) - 1, 0):
            raise ValueError(
                f"phase {index} rounds do not match its series length"
            )
