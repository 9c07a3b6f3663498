"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subsystems get
their own branch of the hierarchy:

* :class:`GraphError` — graph substrate (:mod:`repro.graph`);
* :class:`ChainError` — blockchain substrate (:mod:`repro.ethereum`);
* :class:`EVMError` — EVM-lite execution failures (out of gas, stack
  violations, ...), which are *recoverable* at the transaction level:
  the transaction is recorded as failed but the chain keeps going;
* :class:`PartitionError` — partitioning methods (:mod:`repro.core`,
  :mod:`repro.metis`);
* :class:`SimulationError` — sharded-execution simulator
  (:mod:`repro.sharding`);
* :class:`StaleResultError` — a serialized result cell written by
  other code (:mod:`repro.experiments`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Errors from the graph substrate."""


class VertexNotFoundError(GraphError):
    """A vertex id was not present in the graph."""

    def __init__(self, vertex: object):
        super().__init__(f"vertex not in graph: {vertex!r}")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """An edge (src, dst) was not present in the graph."""

    def __init__(self, src: object, dst: object):
        super().__init__(f"edge not in graph: {src!r} -> {dst!r}")
        self.src = src
        self.dst = dst


class TraceFormatError(GraphError):
    """A trace file / record could not be parsed."""


class ChainError(ReproError):
    """Errors from the blockchain substrate."""


class InvalidBlockError(ChainError):
    """A block failed validation against the chain rules."""


class InvalidTransactionError(ChainError):
    """A transaction failed validation (bad nonce, unknown sender, ...)."""


class UnknownAccountError(ChainError):
    """An address was looked up that does not exist in the world state."""

    def __init__(self, address: object):
        super().__init__(f"unknown account: {address!r}")
        self.address = address


class EVMError(ReproError):
    """A transaction-level execution failure inside EVM-lite.

    EVM errors abort the *current message call frame* (and, per
    Ethereum semantics, consume the gas of the frame) but are not fatal
    to the chain: the enclosing transaction is recorded with a failed
    receipt.
    """


class OutOfGasError(EVMError):
    """Execution ran out of gas."""


class StackUnderflowError(EVMError):
    """An opcode popped more items than the stack held."""


class StackOverflowError_(EVMError):
    """The EVM-lite stack limit (1024 items) was exceeded."""


class InvalidOpcodeError(EVMError):
    """An undefined opcode was executed."""


class CallDepthExceededError(EVMError):
    """The message-call depth limit was exceeded."""


class InsufficientBalanceError(EVMError):
    """A value transfer exceeded the sender's balance."""


class PartitionError(ReproError):
    """Errors from partitioning methods and the multilevel partitioner."""


class InvalidPartitionError(PartitionError):
    """A partition assignment violated disjointness/coverage invariants."""


class BalanceConstraintError(PartitionError):
    """The partitioner could not honour the requested balance constraint."""


class SimulationError(ReproError):
    """Errors from the sharded-execution discrete-event simulator."""


class SimulationClockError(SimulationError):
    """An event was scheduled in the past."""


class UnassignedVertexError(SimulationError):
    """A replayed transaction touched a vertex with no shard assignment.

    Raised only under ``strict`` replays (the default of
    ``ShardedExecution.replay_columnar``, and what experiment cells run:
    every endpoint must have been partitioned); non-strict runs count
    the endpoint in ``ThroughputReport.unassigned_endpoints`` instead.
    """

    def __init__(self, vertex: object):
        super().__init__(f"endpoint vertex has no shard assignment: {vertex!r}")
        self.vertex = vertex


class StaleResultError(ReproError, ValueError):
    """A serialized result cell carries another format or algorithm stamp.

    Raised by :meth:`repro.experiments.results.CellResult.from_dict`;
    the result store declines such a cell and the sweep recomputes it.
    """
