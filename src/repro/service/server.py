"""The JSON-lines TCP server fronting one :class:`JoinService`.

Protocol: one JSON object per line in, one JSON object per line out.

Requests::

    {"op": "point",  "x": 0.5, "y": 0.5}
    {"op": "window", "xlo": 0.1, "ylo": 0.1, "xhi": 0.4, "yhi": 0.4}
    {"op": "join"}
    {"op": "insert", "eid": 7, "xlo": ..., "ylo": ..., "xhi": ..., "yhi": ...}
    {"op": "delete", "eid": 7}
    {"op": "stats"}

Responses mirror :meth:`QueryOutcome.to_dict` for queries, or
``{"ok": true, "epoch": N}`` for mutations; a malformed or unknown
request gets ``{"error": ...}`` and the connection stays up — as does a
request line longer than :data:`MAX_LINE_BYTES`, which is discarded
through its newline and answered ``{"error": "RequestTooLarge: ..."}``.
One connection may pipeline any number of requests; requests on a
single connection are answered in order.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.service.api import JoinService

_CORNERS = ("xlo", "ylo", "xhi", "yhi")

MAX_LINE_BYTES = 64 * 1024
"""The longest request line the server buffers (every request of the
protocol fits in a few hundred bytes)."""


def _floats(request: dict[str, Any], *fields: str) -> list[float]:
    return [float(request[field]) for field in fields]


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line; ``b""`` at end of stream; ``None`` for a
    line over :data:`MAX_LINE_BYTES`, which is dropped through its
    newline so the next read starts at the next request.  (On overrun
    ``readuntil`` leaves the buffer untouched and says how much of it
    is newline-free.)"""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as eof:
        return eof.partial  # the stream ended, maybe mid-line
    except asyncio.LimitOverrunError as overrun:
        droppable = overrun.consumed
    while True:
        try:
            await reader.readexactly(droppable)
            await reader.readuntil(b"\n")
            return None
        except asyncio.LimitOverrunError as overrun:
            droppable = overrun.consumed
        except asyncio.IncompleteReadError:
            return None  # ended inside the oversized line


class ServiceServer:
    """An asyncio TCP server speaking the JSON-lines protocol."""

    def __init__(
        self, service: JoinService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` after start."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Start the service (compactor included) and bind the socket."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self.address

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    response = {
                        "error": "RequestTooLarge: request line exceeds "
                        f"{MAX_LINE_BYTES} bytes"
                    }
                elif line:
                    response = await self._dispatch(line)
                else:
                    break
                writer.write(json.dumps(response, sort_keys=True).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "point":
                outcome = await self.service.point(*_floats(request, "x", "y"))
                return outcome.to_dict()
            if op == "window":
                outcome = await self.service.window(*_floats(request, *_CORNERS))
                return outcome.to_dict()
            if op == "join":
                return (await self.service.join()).to_dict()
            if op == "insert":
                entity = Entity(
                    int(request["eid"]), Rect(*_floats(request, *_CORNERS))
                )
                epoch = await self.service.insert(entity)
                return {"ok": True, "epoch": epoch}
            if op == "delete":
                epoch = await self.service.delete(int(request["eid"]))
                return {"ok": True, "epoch": epoch}
            if op == "stats":
                return self.service.stats()
            return {"error": f"unknown op {op!r}"}
        except Exception as error:  # per-request fault isolation
            return {"error": f"{type(error).__name__}: {error}"}
