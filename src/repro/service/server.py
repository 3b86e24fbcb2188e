"""The JSON-lines TCP server fronting one :class:`JoinService`.

One JSON object per line in, one per line out; :data:`SCHEMA` defines
the requests, e.g. ``{"op": "window", "xlo": 0.1, "ylo": 0.1, "xhi":
0.4, "yhi": 0.4}`` or ``{"op": "delete", "eid": 7}``.  Replies mirror
:meth:`QueryOutcome.to_dict` for queries, or ``{"ok": true, "epoch":
N}`` for mutations.  A request off the schema is answered ``{"error":
"BadRequest: <field> ..."}`` and changes nothing, any other failure
``{"error": ...}``, and a line over :data:`MAX_LINE_BYTES` is dropped
through its newline and answered ``RequestTooLarge``; the connection
stays up in every case.  Pipelined requests are answered in order, each
inside the ``data_received`` call that completed its line, as nothing on
a request's path waits (DESIGN.md section 15).
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Callable

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.service.api import JoinService

_CORNERS = ("xlo", "ylo", "xhi", "yhi")
_ID, _NUMBER = "a JSON integer in int64", "a JSON number"
SCHEMA: dict[str, dict[str, str]] = {
    "point": dict.fromkeys(("x", "y"), _NUMBER),
    "window": dict.fromkeys(_CORNERS, _NUMBER),
    "join": {},
    "insert": {"eid": _ID, **dict.fromkeys(_CORNERS, _NUMBER)},
    "delete": {"eid": _ID},
    "stats": {},
}
"""op -> field -> JSON type, in argument order."""
_MUTATIONS, _INT64, _FLOAT_MAX = ("insert", "delete"), 2**63, sys.float_info.max
_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call

MAX_LINE_BYTES = 64 * 1024
"""The longest request line buffered (a valid one takes a few hundred)."""


class BadRequest(ValueError):
    """A request that does not match :data:`SCHEMA`."""


def _arguments(request: Any) -> tuple[str, list[Any]]:
    """A decoded request's op and field values, in schema order (tested with
    ``type()``: JSON ``true`` is a ``bool``, which ``isinstance`` calls an ``int``)."""
    if type(request) is not dict:
        raise BadRequest(f"request must be a JSON object, got {type(request).__name__}")
    op = request.get("op")
    fields = SCHEMA.get(op) if type(op) is str else None
    if fields is None:
        raise BadRequest(f"unknown op {op!r}")
    values = []
    for field, kind in fields.items():
        if field not in request:
            raise BadRequest(f"{field} is missing")
        value = request[field]
        if kind is _ID:
            if type(value) is not int or not -_INT64 <= value < _INT64:
                raise BadRequest(f"{field} must be {_ID}, got {value!r}")
        elif type(value) is not float and type(value) is not int:
            raise BadRequest(f"{field} must be {_NUMBER}, got {value!r}")
        elif not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN, inf, a huge int
            raise BadRequest(f"{field} must be finite, got {value!r}")
        values.append(value if kind is _ID else float(value))
    if len(request) > len(fields) + 1:
        extra = next(key for key in request if key != "op" and key not in fields)
        raise BadRequest(f"{extra} is not a field of op {op!r}")
    return op, values


class _Connection(asyncio.Protocol):
    """One connection: each read's complete lines are answered, in order, before it returns."""

    def __init__(self, reply: Callable[[bytes | None], bytes]) -> None:
        self._reply = reply
        self._tail = bytearray()  # the current line, newline not yet read
        self._skipping = False  # the current line overran MAX_LINE_BYTES

    def connection_made(self, transport: Any) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        *lines, rest = data.split(b"\n")
        if lines:
            if self._skipping:
                lines[0], self._skipping = None, False
            elif self._tail:
                lines[0] = bytes(self._tail + lines[0])
                self._tail.clear()
            self._transport.write(b"".join(map(self._reply, lines)))
        if rest and not self._skipping:
            self._tail += rest
            if len(self._tail) > MAX_LINE_BYTES:
                self._tail.clear()
                self._skipping = True

    def eof_received(self) -> None:  # returns None: close once flushed
        if self._skipping or self._tail:
            self._transport.write(self._reply(None if self._skipping else bytes(self._tail)))

    def pause_writing(self) -> None:  # back-pressure: the client is not reading
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()


class ServiceServer:
    """An asyncio TCP server speaking the JSON-lines protocol."""

    def __init__(self, service: JoinService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Start the service and its compactor, bind, and return the bound (host, port)."""
        await self.service.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self._reply), self.host, self.port
        )
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        """Serve until cancelled; :meth:`start` first."""
        assert self._server is not None
        await self._server.serve_forever()

    def _reply(self, line: bytes | None) -> bytes:
        """The encoded reply to one line (``None``: one over :data:`MAX_LINE_BYTES`)."""
        if line is None or len(line) > MAX_LINE_BYTES:
            response = {"error": f"RequestTooLarge: request line exceeds {MAX_LINE_BYTES} bytes"}
        else:
            request = self._dispatch(line)
            try:
                request.send(None)
            except StopIteration as done:
                response = done.value
            else:  # a request that suspends is a bug; answer it, loudly
                request.close()
                response = {"error": "RequestSuspended: a request waited on the event loop"}
        return _encode(response).encode() + b"\n"

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        """Every op but ``stats`` is the :class:`JoinService` method of
        its name, called with the schema's fields in order."""
        try:
            op, values = _arguments(json.loads(line.decode()))
            if op == "stats":
                return self.service.stats()
            if op == "insert":
                values = [Entity(values[0], Rect(*values[1:]))]
            answer = await getattr(self.service, op)(*values)
            return {"ok": True, "epoch": answer} if op in _MUTATIONS else answer.to_dict()
        except Exception as error:  # per-request fault isolation
            return {"error": f"{type(error).__name__}: {error}"}
