"""The warning a crash-recovering shard pool raises when it gives up."""

from __future__ import annotations


class DegradedExecutionWarning(RuntimeWarning):
    """An MPC shard pool exhausted its recovery budget.

    Execution continues on the verbatim in-process serial path (state
    restored from the last barrier checkpoint plus a replay of the
    barriers since), so results and the shuffle ledger are unchanged —
    only the hardware parallelism is lost.
    """
