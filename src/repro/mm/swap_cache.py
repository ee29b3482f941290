"""Swap-slot bookkeeping and shadow entries for refault tracking.

When a page is reclaimed, the kernel stores a *shadow entry* in place of
its swap-cache entry, recording when the eviction happened in the
policy's own clock.  On refault, the shadow lets the policy compute the
*refault distance* — the information MG-LRU's tier PID controller
consumes (§III-D) and the workingset code uses generally.

Slot lifetime follows swap-cache semantics: a refault *keeps* the slot
(the on-swap copy remains valid while the page is clean), so a later
eviction of the still-clean page costs no device write.  The memory
system releases the slot when the copy goes stale.

:class:`SwapSpace` tracks the slots and shadows; it does not model
latency (that is the swap device's job).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import observe
from repro.errors import SimulationError, SwapFullError
from repro.mm.page import Page


class ShadowEntry:
    """Policy snapshot stored at eviction time.

    ``policy_clock`` is policy-defined: MG-LRU stores ``min_seq``; Clock
    stores its eviction counter.  ``tier`` is the MG-LRU usage tier.
    ``evict_time_ns`` supports inter-refault latency analyses.

    A plain ``__slots__`` class: one is built per eviction, and the
    frozen-dataclass ``object.__setattr__`` init showed up in profiles.
    """

    __slots__ = ("policy_clock", "tier", "evict_time_ns")

    def __init__(
        self, policy_clock: int, tier: int, evict_time_ns: int
    ) -> None:
        self.policy_clock = policy_clock
        self.tier = tier
        self.evict_time_ns = evict_time_ns

    def __repr__(self) -> str:
        return (
            f"ShadowEntry(policy_clock={self.policy_clock}, "
            f"tier={self.tier}, evict_time_ns={self.evict_time_ns})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShadowEntry):
            return NotImplemented
        return (
            self.policy_clock == other.policy_clock
            and self.tier == other.tier
            and self.evict_time_ns == other.evict_time_ns
        )


class SwapSpace:
    """Allocates swap slots and remembers shadow entries per VPN."""

    def __init__(self, n_slots: int) -> None:
        if n_slots < 1:
            raise SimulationError("swap space needs at least one slot")
        self.n_slots = n_slots
        self._free_slots = list(range(n_slots - 1, -1, -1))
        self._shadows: Dict[int, ShadowEntry] = {}
        #: Lifetime counters.
        self.stores = 0
        self.loads = 0

    @property
    def n_used(self) -> int:
        """Slots currently assigned to pages."""
        return self.n_slots - len(self._free_slots)

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------

    def store(self, page: Page, shadow: ShadowEntry) -> int:
        """Assign a slot to *page* at eviction and record its shadow."""
        if page.swap_slot is not None:
            raise SimulationError(f"page vpn={page.vpn} already on swap")
        if not self._free_slots:
            raise SwapFullError(f"swap exhausted ({self.n_slots} slots in use)")
        slot = self._free_slots.pop()
        page.swap_slot = slot
        self._shadows[page.vpn] = shadow
        self.stores += 1
        if (hook := observe.swap_slots) is not None:
            hook(self.n_used, self.n_slots)
        return slot

    def set_shadow(self, page: Page, shadow: ShadowEntry) -> None:
        """Refresh the shadow of a page that already holds a slot
        (eviction of a clean page whose swap copy is still valid)."""
        if page.swap_slot is None:
            raise SimulationError(f"page vpn={page.vpn} holds no slot")
        self._shadows[page.vpn] = shadow
        self.stores += 1

    def refault(self, page: Page) -> Optional[ShadowEntry]:
        """Consume the shadow at swap-in; the slot is *kept* (the swap
        copy stays valid while the page is clean)."""
        if page.swap_slot is None:
            raise SimulationError(f"page vpn={page.vpn} not on swap")
        self.loads += 1
        return self._shadows.pop(page.vpn, None)

    def release(self, page: Page) -> None:
        """Free *page*'s slot (its swap copy went stale or was dropped)."""
        if page.swap_slot is None:
            raise SimulationError(f"page vpn={page.vpn} holds no slot")
        self._free_slots.append(page.swap_slot)
        page.swap_slot = None
        self._shadows.pop(page.vpn, None)
        if (hook := observe.swap_slots) is not None:
            hook(self.n_used, self.n_slots)

    def peek_shadow(self, page: Page) -> Optional[ShadowEntry]:
        """Read a page's shadow entry without consuming it."""
        return self._shadows.get(page.vpn)
