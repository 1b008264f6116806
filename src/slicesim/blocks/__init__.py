"""The six building blocks as deterministic message-driven state machines.

Each module exposes a state dataclass, the named operations over it, and a
``handle(state, msg, ctx)`` transition returning ``(state, drafts, events)``:
``msg`` is the delivered message's trace record and ``drafts`` are the
messages it sends.  ``handle`` calls the function that its module's
per-kind table (``BY_KIND``; the AF has ``UPLINK`` and ``DOWNLINK``) holds
for the message's kind, with fresh ``drafts`` and ``events`` lists
(``common.by_kind``); a kind the table lacks is ignored, but the AF traces
a device's kind that it cannot forward.  A helper that emits appends to the
``drafts`` and ``events`` lists of its handler call, in emission order;
only a helper that builds nothing but messages returns them, as one list.
Only a block's own module writes its state.  Handlers are deterministic;
the engine invokes them sequentially per run.
"""

from . import af, cghf, cm, fm, mm, sam  # noqa: F401
from .common import (  # noqa: F401
    AccessNodeInfo, Anchoring, AuthScheme, BlockContext, BlockEvent,
    HandoverStyle, MobilityPolicy, PathStrategy, SlicePolicy, Tech,
)
