"""A crash-tolerant asyncio sync daemon for peer data exchange.

:mod:`repro.netd` moves the :mod:`repro.net` protocol stack — stamped
idempotent ingestion, journal-backed resume, delta transfer,
anti-entropy — from the in-memory simulator onto real TCP and unix
sockets, without changing a line of the protocol itself:

* :mod:`repro.netd.frames` — the wire codec: length-prefixed, versioned
  frames carrying the simulator's own ``Message``/``Stamp``/``Delta``
  payloads, with a max-frame guard and a close-don't-corrupt
  :class:`~repro.exceptions.ProtocolError` contract;
* :class:`SyncDaemon` — an asyncio daemon multiplexing one journaled
  :class:`~repro.sync.SyncSession` per hosted peer behind heartbeats,
  idle timeouts, bounded send queues (backpressure, then degrade), and
  a graceful drain-on-shutdown;
* :class:`PublisherClient` — the publisher side: jittered reconnect
  backoff on :meth:`~repro.runtime.RetryPolicy.pause_async`'s
  deterministic schedule, a bounded pending queue, and delta transfer
  with full-snapshot fallback;
* :class:`ChaosProxy` — a socket-level fault proxy driven by the same
  seeded :class:`~repro.runtime.FaultSchedule` objects as the
  simulator, so every scripted scenario re-runs as an integration test
  against real sockets;
* :func:`run_scenario_netd` — the harness tying them together: it runs
  any simulator scenario on one daemon per peer, wired along the
  scenario's relay graph (:attr:`~repro.net.Scenario.relay_links`, so a
  star is just the derived graph), maps ``Crash`` / ``Restart`` to the
  peer daemon's ``crash_peer`` / ``restart_peer``, and judges the result
  with the simulator's own :func:`~repro.net.check_convergence` oracle.

The CLI front door is ``repro.cli serve`` / ``repro.cli connect``.
"""

from repro.netd.chaos import ChaosProxy
from repro.netd.client import PublisherClient, fetch_stats
from repro.netd.daemon import DaemonState, SendQueue, SyncDaemon, open_stream
from repro.netd.frames import (
    DEFAULT_MAX_FRAME,
    Frame,
    FrameDecoder,
    FrameKind,
    PROTOCOL_VERSION,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.netd.harness import NetdReport, run_scenario_netd

__all__ = [
    "ChaosProxy",
    "DEFAULT_MAX_FRAME",
    "DaemonState",
    "Frame",
    "FrameDecoder",
    "FrameKind",
    "NetdReport",
    "PROTOCOL_VERSION",
    "PublisherClient",
    "SendQueue",
    "SyncDaemon",
    "decode_message",
    "encode_frame",
    "encode_message",
    "fetch_stats",
    "open_stream",
    "run_scenario_netd",
]
