"""Simulated message-passing substrate.

A :class:`SimCluster` plays the role of an MPI communicator for the
bulk-synchronous distributed Louvain: the program is organized as
supersteps (local compute → collective), and each collective charges a
:class:`TrafficLog` with the bytes/messages a real cluster would move.
The data-carrying collectives also perform the data movement (in
process); the community-aggregate ones are priced only, because the
shared sweep loop keeps the replicated aggregates itself.  An α–β
:class:`NetworkModel` turns the log into simulated communication time —
the distributed-memory analogue of :mod:`repro.parallel.costmodel` (see
DESIGN.md §1 for why simulation substitutes for real hardware here).

Collectives (with their standard cost shapes), each priced in one place:

* ``allreduce`` — ring algorithm: each rank sends ``2 (p-1)/p`` of the
  buffer; latency ``2 (p-1) α``.  :meth:`SimCluster.allreduce_sum` moves
  the data and charges it.
* ``sparse_allreduce`` — the Vite-style allgather of touched
  ``(index, value)`` pairs.
* ``allgatherv`` — ring: each rank receives everyone's block.
* ``halo_exchange`` — point-to-point neighbor exchange of boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.errors import ValidationError

__all__ = ["NetworkModel", "SimCluster", "TrafficLog"]

_ELEMENT_BYTES = 8  # int64 / float64 payloads throughout


@dataclass
class TrafficLog:
    """Bytes and message counts accumulated per collective kind."""

    bytes_by_op: dict[str, float] = field(default_factory=dict)
    messages_by_op: dict[str, int] = field(default_factory=dict)
    supersteps: int = 0

    def charge(self, op: str, nbytes: float, messages: int) -> None:
        self.bytes_by_op[op] = self.bytes_by_op.get(op, 0.0) + nbytes
        self.messages_by_op[op] = self.messages_by_op.get(op, 0) + messages

    @property
    def total_bytes(self) -> float:
        return sum(self.bytes_by_op.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_op.values())


@dataclass(frozen=True)
class NetworkModel:
    """α–β communication cost model.

    ``alpha`` is the per-message latency, ``beta`` the per-byte transfer
    time (defaults ~ a commodity cluster: 1 µs latency, 10 GB/s links).
    """

    alpha: float = 1e-6
    beta: float = 1e-10

    def time(self, log: TrafficLog) -> float:
        """Simulated communication time of an entire traffic log."""
        return self.alpha * log.total_messages + self.beta * log.total_bytes


class SimCluster:
    """A fixed set of ranks plus traffic-accounted collectives.

    The collectives operate on *lists indexed by rank* — the in-process
    stand-in for per-rank memory.  All data movement they model is
    performed exactly (results are real, not mocked); only the *cost* is
    simulated.
    """

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise ValidationError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.traffic = TrafficLog()

    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """End of a superstep (cost: one round of p messages)."""
        self.traffic.supersteps += 1
        if self.num_ranks > 1:
            self.traffic.charge("barrier", 0.0, self.num_ranks)

    def allreduce(self, size: int) -> None:
        """Charge a ring allreduce of a ``size``-element buffer."""
        if self.num_ranks > 1:
            p = self.num_ranks
            nbytes = size * _ELEMENT_BYTES
            # Ring allreduce: every rank sends 2 (p-1)/p of the buffer.
            self.traffic.charge(
                "allreduce", p * 2 * (p - 1) / p * nbytes, 2 * (p - 1) * p
            )

    def allreduce_sum(self, contributions: "list[np.ndarray]") -> np.ndarray:
        """Element-wise sum of per-rank arrays, visible to every rank."""
        if len(contributions) != self.num_ranks:
            raise ValidationError("one contribution per rank required")
        total = np.zeros_like(contributions[0])
        for arr in contributions:
            if arr.shape != total.shape:
                raise ValidationError("allreduce buffers must share a shape")
            total = total + arr
        self.allreduce(total.size)
        return total

    def sparse_allreduce(self, pairs: int) -> None:
        """Charge a sparse allreduce of ``pairs`` touched entries in all.

        The Vite-style optimization of the dense community-degree
        allreduce: each rank ships only its touched ``(index, value)``
        pairs (an allgather of pair lists, the standard sparse-allreduce
        realization), so traffic tracks the number of *moves*, not the
        community count.
        """
        if self.num_ranks > 1 and pairs:
            p = self.num_ranks
            nbytes = pairs * 2 * _ELEMENT_BYTES  # (index, value) pairs
            # Allgather of pair lists: every rank receives all others'.
            self.traffic.charge("sparse_allreduce", (p - 1) * nbytes,
                                (p - 1) * p)

    def allgatherv(self, blocks: "list[np.ndarray]") -> np.ndarray:
        """Concatenate per-rank blocks; every rank receives the result."""
        if len(blocks) != self.num_ranks:
            raise ValidationError("one block per rank required")
        out = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.float64)
        if self.num_ranks > 1:
            p = self.num_ranks
            nbytes = out.size * _ELEMENT_BYTES
            # Each rank ends up receiving everyone else's block.
            self.traffic.charge("allgatherv", (p - 1) * nbytes, (p - 1) * p)
        return out

    def halo_exchange(
        self,
        sends: "dict[tuple[int, int], np.ndarray]",
    ) -> "dict[tuple[int, int], np.ndarray]":
        """Point-to-point neighbor exchange.

        ``sends[(src, dst)]`` is the payload rank ``src`` sends to ``dst``;
        the return maps the same keys to the delivered arrays (delivery is
        trivially exact in-process; the traffic is what matters).
        """
        nbytes = 0
        messages = 0
        for (src, dst), payload in sends.items():
            if not (0 <= src < self.num_ranks and 0 <= dst < self.num_ranks):
                raise ValidationError("rank out of range in halo exchange")
            if src == dst:
                continue
            nbytes += payload.size * _ELEMENT_BYTES
            messages += 1
        if messages:
            self.traffic.charge("halo", float(nbytes), messages)
        return dict(sends)

    def broadcast(self, value: np.ndarray, root: int = 0) -> np.ndarray:
        """Root sends ``value`` to every other rank (binomial tree cost)."""
        if not 0 <= root < self.num_ranks:
            raise ValidationError("root rank out of range")
        if self.num_ranks > 1:
            nbytes = np.asarray(value).size * _ELEMENT_BYTES
            self.traffic.charge(
                "broadcast",
                (self.num_ranks - 1) * nbytes,
                self.num_ranks - 1,
            )
        return value
