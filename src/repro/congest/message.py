"""Message size accounting.

CONGEST messages carry O(log n) bits.  We measure payloads in *words* of
``ceil(log2(n+1))`` bits:

* ``int`` — ``ceil(bit_length / word_bits)`` words, at least one.  Node
  identifiers and counts up to ``poly(n)`` therefore cost O(1) words.
* ``float`` — two words.  Lemma 29 argues O(log n) bits of precision
  suffice for the exponential-variable estimates, so a float models a
  fixed-precision real of Theta(log n) bits.
* ``bool`` / ``None`` — one word (a tag still occupies the channel).
* ``str`` — ``ceil(8 * len / word_bits)`` words (used only in tests).
* ``tuple`` / ``list`` — the sum of the component costs.

Anything else is rejected: algorithms must express messages in these terms
so that the accounting is honest.

Besides per-target outbox dictionaries, algorithms may return a
:class:`BatchOutbox` — one payload addressed to many targets.  A batch is
*semantically identical* to the dictionary ``{t: payload for t in targets}``
(plus the ability to meter duplicate targets twice): the reference engine
expands it message by message, while the activity engine meters the whole
batch with a single :func:`payload_words` call.  Both views must agree word
for word, which is only possible because a batch carries *one* payload
object whose cost is target-independent.
"""

from __future__ import annotations

from typing import Any, Iterator

# The word size is a property of the validated input; re-exported here
# beside the payload accounting that counts in it.
from repro.graphs.instance import word_bits_for  # noqa: F401


def payload_words(payload: Any, word_bits: int) -> int:
    """Return the size of ``payload`` in words of ``word_bits`` bits.

    This is the per-message (and, via the batch fast path, per-batch) hot
    path of the simulator, so the arithmetic is pure-integer ceiling
    division — equivalent to the ``math.ceil`` formulation but without
    float round trips.
    """
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return -((payload.bit_length() or 1) // -word_bits)
    if isinstance(payload, float):
        return 2
    if isinstance(payload, str):
        return -((8 * len(payload)) // -word_bits) or 1
    if isinstance(payload, (tuple, list)):
        total = 0
        for item in payload:
            total += payload_words(item, word_bits)
        return total
    raise TypeError(
        f"unsupported payload type {type(payload).__name__}; messages must be "
        "built from ints, floats, bools, strings, None and tuples"
    )


class BatchOutbox:
    """One payload addressed to many targets — the batched outbox form.

    Built by :meth:`~repro.congest.algorithm.NodeAlgorithm.broadcast` and
    :meth:`~repro.congest.algorithm.NodeAlgorithm.send_many`; engines accept
    it anywhere a ``{target: payload}`` mapping is accepted.  ``items()``
    yields the equivalent per-message view, so the reference engine's
    per-message loop runs on a batch verbatim; the activity engine instead
    takes the fast path (one metering operation for the whole batch).

    ``trusted`` marks batches whose target list is exactly the sender's
    adjacency tuple (the ``broadcast`` case): the fast path may then skip
    per-target validity checks, because the network built that tuple from
    the communication graph itself.  ``send_many`` batches are never
    trusted — their targets are validated like dictionary keys.

    Duplicate targets are legal and behave like two messages on the same
    edge in one round: each is metered, the later payload overwrites the
    earlier in the target's inbox (exactly what the per-message expansion
    does).
    """

    __slots__ = ("targets", "payload", "trusted")

    def __init__(
        self, targets: tuple[int, ...], payload: Any, trusted: bool = False
    ) -> None:
        self.targets = targets
        self.payload = payload
        self.trusted = trusted

    def __bool__(self) -> bool:
        return bool(self.targets)

    def __len__(self) -> int:
        return len(self.targets)

    def items(self) -> Iterator[tuple[int, Any]]:
        """Per-message view: ``(target, payload)`` pairs, dict-style."""
        payload = self.payload
        for target in self.targets:
            yield target, payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchOutbox(targets={self.targets!r}, "
            f"payload={self.payload!r}, trusted={self.trusted})"
        )
