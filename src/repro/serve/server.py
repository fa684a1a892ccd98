"""The TCP front-end of the gesture serving layer.

One :class:`AirFingerServer` multiplexes N device connections over a
single event loop into a shared :class:`~repro.serve.session.SessionManager`.
Everything about serving — the message switch, the per-session pump,
the idle reaper, telemetry — lives in
:class:`~repro.serve.service.SessionService`; this module only frames
messages on a byte stream.  Per connection a reader task decodes the
length-prefixed messages of :mod:`repro.serve.protocol` and hands each
to the service, with the connection as its peer.  A refused message
gets an ``error`` and the connection closes: a stream has no way to
resynchronize after a message it could not act on.
"""

from __future__ import annotations

import asyncio
import contextlib
import time

from repro.obs.telemetry import TelemetryPlane
from repro.serve import protocol
from repro.serve.service import SessionService
from repro.serve.session import SessionManager

__all__ = ["AirFingerServer"]


class _StreamPeer:
    """One TCP connection, as the service sees it."""

    __slots__ = ("writer",)

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer

    async def send(self, message: dict) -> None:
        self.writer.write(protocol.encode_message(message))
        await self.writer.drain()

    def close(self) -> None:
        self.writer.close()


class AirFingerServer(SessionService):
    """TCP server speaking the :mod:`repro.serve.protocol` wire format.

    Takes the :class:`~repro.serve.service.SessionService` parameters
    (``manager``, ``telemetry``, ``telemetry_interval_s``,
    ``timeline_path``, ``wall_clock``, ``mono_clock``) plus the bind
    address: ``host`` / ``port``, where ``port=0`` picks a free port
    (tests) and the bound port is available as :attr:`port` after
    :meth:`start`.
    """

    def __init__(self, manager: SessionManager,
                 host: str = "127.0.0.1", port: int = 0,
                 telemetry: TelemetryPlane | bool | None = True,
                 telemetry_interval_s: float = 1.0,
                 timeline_path=None,
                 wall_clock=time.time, mono_clock=time.monotonic) -> None:
        super().__init__(manager, telemetry=telemetry,
                         telemetry_interval_s=telemetry_interval_s,
                         timeline_path=timeline_path,
                         wall_clock=wall_clock, mono_clock=mono_clock)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        """Bind and start accepting connections (+ background tasks)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        await super().start()

    async def stop(self) -> None:
        """Stop accepting, cancel background tasks, close connections."""
        if self._server is not None:
            self._server.close()
        await super().stop()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        peer = _StreamPeer(writer)
        decoder = protocol.MessageDecoder()
        try:
            while data := await reader.read(65536):
                for message in decoder.feed(data):
                    await self.handle(peer, message)
        except ConnectionError:
            pass  # peer vanished; the reaper evicts its session later
        except Exception as exc:
            # tell the peer why before closing instead of vanishing
            # mid-conversation; an engine/session failure is also logged
            await self._send_error(peer, exc)
            if not isinstance(exc, protocol.ProtocolError):
                raise
        finally:
            self.disconnect(peer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
