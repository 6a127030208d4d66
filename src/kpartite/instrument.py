"""Lightweight operation counting for complexity assertions in tests."""


class OpCounter:
    """Counts elementary steps (adjacency probes, scan visits) of an algorithm.

    Pass an instance to the operations that accept a ``counter`` argument and
    read ``count`` afterwards.  Counting is best-effort bookkeeping for scaling
    tests, not profiling.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self, k: int = 1) -> None:
        self.count += k

    def __repr__(self) -> str:
        return f"OpCounter(count={self.count})"
