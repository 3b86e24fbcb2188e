"""Fuzz of the JSON-lines front door over a real socket.

``verify.scenario.op_schedule``'s ops, as request lines, are interleaved
with mutated lines — type swaps, missing or extra keys, non-object JSON,
invalid UTF-8, ids past int64, lines over ``MAX_LINE_BYTES`` — and the
stream is written to a live ``ServiceServer`` in random splits: one line
across several writes, several lines in one write.  Every valid line's
reply must equal ``LiveModel.expected``, every mutated line must get
exactly one ``{"error": ...}``, replies come back in request order, the
index ends equal to the model (``check_index``; the background compactor
folds while the stream runs), and the connection still answers.
"""

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import JoinService, PersistentIndex, ServiceServer
from repro.service.server import MAX_LINE_BYTES, SCHEMA
from repro.verify.scenario import LiveModel, check_index, op_schedule

CORNERS = ("xlo", "ylo", "xhi", "yhi")

NOT_AN_ID = st.one_of(
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63) - 1),
    st.lists(st.integers(), max_size=2),
)
NOT_A_NUMBER = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.floats(0, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
NOT_AN_OP = st.one_of(
    st.text(max_size=8).filter(lambda op: op not in SCHEMA),
    st.integers(),
    st.none(),
    st.lists(st.sampled_from(sorted(SCHEMA)), max_size=2),
)
NOT_AN_OBJECT = st.one_of(
    st.integers(), st.floats(), st.text(max_size=8), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=3),
)
MUTATIONS = ("swap", "swap", "swap", "missing", "extra", "not-object", "utf8", "oversized")
"""A type swap has the most variants (every field, every wrong type)."""


def request_of(op, payload) -> dict:
    """The request line's object for one ``op_schedule`` op."""
    if op == "insert":
        return {"op": op, "eid": payload.eid, **dict(zip(CORNERS, payload.mbr.as_tuple()))}
    if op == "delete":
        return {"op": op, "eid": payload}
    if op == "point":
        return {"op": op, "x": payload[0], "y": payload[1]}
    if op == "window":
        return {"op": op, **dict(zip(CORNERS, payload.as_tuple()))}
    return {"op": op}


def encode(value) -> bytes:
    return json.dumps(value).encode()


def mutated(data, template: dict) -> bytes:
    """A request line the server must refuse, derived from ``template``."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    if kind == "swap":
        field = data.draw(st.sampled_from(sorted(template)))
        if field == "op":
            wrong = NOT_AN_OP
        else:
            wrong = NOT_AN_ID if SCHEMA[template["op"]][field].endswith("int64") else NOT_A_NUMBER
        return encode({**template, field: data.draw(wrong)})
    if kind == "missing":
        field = data.draw(st.sampled_from(sorted(template)))
        return encode({key: value for key, value in template.items() if key != field})
    if kind == "extra":
        key = data.draw(st.text(max_size=6).filter(lambda key: key not in template))
        return encode({**template, key: data.draw(st.integers() | st.none())})
    if kind == "not-object":
        return encode(data.draw(NOT_AN_OBJECT))
    if kind == "utf8":  # 0xff never occurs in UTF-8
        junk = data.draw(st.binary(max_size=6).filter(lambda raw: b"\n" not in raw))
        return b'{"op": "' + junk + b'\xff"}'
    return b'{"op": "stats", "pad": "' + b"x" * data.draw(st.integers(MAX_LINE_BYTES, 70_000)) + b'"}'


def replies_agree(op: str, reply: dict, expected) -> bool:
    if op in ("insert", "delete"):
        return reply.get("ok") is True and set(reply) == {"ok", "epoch"}
    if reply.get("status") != "ok":
        return False
    if op == "join":
        return {tuple(pair) for pair in reply["pairs"]} == expected
    return tuple(reply["eids"]) == expected


async def exchange(index, lines: list[bytes], cuts: list[int]) -> tuple[list[dict], dict]:
    """Write the stream cut at ``cuts``, read one reply per line, then
    ask ``stats`` on the same connection."""
    server = ServiceServer(JoinService(index))
    reader, writer = await asyncio.open_connection(*await server.start())
    async def read_replies():
        return [await reader.readline() for _ in lines]

    try:
        replies = asyncio.create_task(asyncio.wait_for(read_replies(), 60))
        stream = b"".join(line + b"\n" for line in lines)
        for start, end in zip([0, *cuts], [*cuts, len(stream)]):
            writer.write(stream[start:end])
            await writer.drain()
            await asyncio.sleep(0)
        answered = [json.loads(raw) for raw in await replies]
        writer.write(b'{"op": "stats"}\n')
        stats = json.loads(await asyncio.wait_for(reader.readline(), 60))
        return answered, stats
    finally:
        writer.close()
        await writer.wait_closed()
        await server.stop()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**20), data=st.data())
def test_mutated_lines_in_random_splits_never_move_the_live_set(seed, data):
    loaded, schedule = op_schedule(seed, ops=30, bootstrap=30)
    model = LiveModel(loaded)
    lines: list[bytes] = []
    expected: list[tuple[str, object]] = []  # (op or "refused", answer)
    for op, payload in schedule:
        if op == "compact":  # the background compactor folds instead
            continue
        template = request_of(op, payload)
        for _ in range(data.draw(st.integers(0, 2))):
            lines.append(mutated(data, template))
            expected.append(("refused", None))
        lines.append(encode(template))
        expected.append((op, model.expected(op, payload) if op in ("point", "window", "join") else None))
        model.apply(op, payload)
    cuts = sorted(
        {
            sum(len(line) + 1 for line in lines[:at]) + min(offset, len(lines[at]))
            for at, offset in data.draw(
                st.lists(st.tuples(st.integers(0, len(lines) - 1), st.integers(0, 120)), max_size=30)
            )
        }
        - {0}
    )

    with PersistentIndex(loaded, compaction_threshold=8) as index:
        replies, stats = asyncio.run(exchange(index, lines, cuts))
        assert len(replies) == len(lines)
        for position, ((op, answer), reply) in enumerate(zip(expected, replies)):
            if op == "refused":
                assert set(reply) == {"error"}, (position, lines[position][:200], reply)
            else:
                assert replies_agree(op, reply, answer), (position, op, reply)
        assert stats["entities"] == len(model.live)
        assert check_index(index, model) == []
