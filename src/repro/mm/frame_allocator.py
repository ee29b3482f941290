"""Physical frame allocation with kswapd-style watermarks.

The allocator owns ``capacity`` frames.  Three watermarks mirror the
kernel's zone watermarks:

- **high**: background reclaim (kswapd) stops once free frames reach it;
- **low**: dropping below it wakes kswapd;
- **min**: dropping below it forces the allocating thread into *direct
  reclaim* — the latency-visible case the paper's tail-latency results
  hinge on.

The allocator itself never reclaims; :class:`~repro.mm.system.
MemorySystem` reacts to the watermark state.
"""

from __future__ import annotations

from typing import List, Optional

from repro import observe
from repro.errors import ConfigError, SimulationError


class FrameAllocator:
    """A free-list allocator over ``capacity`` physical frames."""

    def __init__(
        self,
        capacity: int,
        min_watermark_frac: float = 0.02,
        low_watermark_frac: float = 0.05,
        high_watermark_frac: float = 0.10,
    ) -> None:
        if capacity < 8:
            raise ConfigError(f"capacity {capacity} frames is too small")
        if not (
            0.0
            <= min_watermark_frac
            <= low_watermark_frac
            <= high_watermark_frac
            < 1.0
        ):
            raise ConfigError("watermarks must satisfy 0 <= min <= low <= high < 1")
        self.capacity = capacity
        #: Free-frame thresholds, in frames (at least 1/2/3 so they are
        #: distinct and nonzero even for tiny capacities).
        self.min_watermark = max(1, int(capacity * min_watermark_frac))
        self.low_watermark = max(self.min_watermark + 1, int(capacity * low_watermark_frac))
        self.high_watermark = max(self.low_watermark + 1, int(capacity * high_watermark_frac))
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        #: Lifetime allocation count (for stats).
        self.total_allocations = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def n_free(self) -> int:
        """Frames currently free."""
        return len(self._free)

    @property
    def n_used(self) -> int:
        """Frames currently allocated."""
        return self.capacity - len(self._free)

    def below_min(self) -> bool:
        """True when an allocation must enter direct reclaim."""
        return len(self._free) <= self.min_watermark

    def below_low(self) -> bool:
        """True when kswapd should be woken."""
        return len(self._free) <= self.low_watermark

    def below_high(self) -> bool:
        """True while kswapd should keep reclaiming."""
        return len(self._free) < self.high_watermark

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def alloc(self, charge=None) -> Optional[int]:
        """Take a free frame, or ``None`` if none remain.

        Watermark policy is the caller's job: the allocator will hand out
        its very last frame if asked.

        ``charge`` is an optional :class:`~repro.memcg.cgroup.MemCgroup`
        charged one page *atomically with the grant* — the ledger and
        the free list move in the same call, so the multi-tenant
        invariant (sum of cgroup usage == ``n_used``) can never observe
        a half-applied transition.
        """
        if not self._free:
            return None
        self.total_allocations += 1
        frame = self._free.pop()
        if charge is not None:
            charge.charge()
        if (hook := observe.frames_changed) is not None:
            hook(self, len(self._free))
        return frame

    def free(self, frame: int, uncharge=None) -> None:
        """Return *frame* to the free list.

        ``uncharge``: optional cgroup whose ledger releases one page
        atomically with the free (the counterpart of ``alloc(charge=)``).
        """
        if not 0 <= frame < self.capacity:
            raise SimulationError(f"freeing bogus frame {frame}")
        if uncharge is not None:
            uncharge.uncharge()
        self._free.append(frame)
        if len(self._free) > self.capacity:
            raise SimulationError("double free detected (free list overflow)")
        if (hook := observe.frames_changed) is not None:
            hook(self, len(self._free))
