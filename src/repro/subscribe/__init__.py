"""Standing subscriptions: continuous PCS queries with pushed diffs.

The paper frames profiled community search as *exploration*; this layer
turns the point-in-time serving tier into a streaming one. Clients
register a standing query (:class:`~repro.api.subscription.Subscription`)
and receive :class:`~repro.api.subscription.CommunityDiff` events —
joined/left member vertices tagged with the exact ``graph_version`` —
whenever an edit batch changes their community.

Re-evaluation is **selective**: the engine's post-update hook hands the
manager each batch's :class:`~repro.index.maintenance.BatchDamage`, and
the :class:`~repro.subscribe.matcher.SubscriptionMatcher` intersects its
dirty-label set with every subscription's label footprint — only the
subscriptions an edit could possibly affect re-execute (the same
CP-tree-maintenance argument that bounds index patching; see the matcher
module for the soundness story and its over-approximation fallbacks).

Layering: this package sits above :mod:`repro.api` (it evaluates through
the engine behind :class:`~repro.api.service.CommunityService`) and below
:mod:`repro.server`, which mounts the HTTP surface (``POST /subscribe``
and the ``POST /subscribe/poll`` long-poll, a cursor read with
last-event-id resume) on every gateway role.
"""

from repro.api.subscription import CommunityDiff, Subscription
from repro.subscribe.manager import (
    DEFAULT_EVENT_LOG_SIZE,
    SubscriptionManager,
    SubscriptionNotFoundError,
)
from repro.subscribe.matcher import SubscriptionMatcher

__all__ = [
    "CommunityDiff",
    "Subscription",
    "SubscriptionManager",
    "SubscriptionMatcher",
    "SubscriptionNotFoundError",
    "DEFAULT_EVENT_LOG_SIZE",
]
