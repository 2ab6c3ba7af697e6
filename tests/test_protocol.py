import json
import random
import socket
import string
import struct

import pytest

from qoffload.circuit import Histogram
from qoffload.resman import protocol


def _random_message(rng: random.Random) -> dict:
    kind = rng.choice(list(protocol.KNOWN_KINDS))
    if kind == "SubmitJob":
        qasm = "".join(rng.choices(string.printable, k=rng.randint(0, 200)))
        return protocol.submit_batch([(qasm, rng.randint(1, 10 ** 6),
                                       rng.randrange(2 ** 63))])
    if kind == "Result":
        n = rng.randint(1, 4)
        outcomes = sorted(rng.sample(range(2 ** n), rng.randint(1, 2 ** n)))
        counts = [rng.randint(1, 100) for _ in outcomes]
        return protocol.result(
            Histogram.from_outcomes(n, outcomes, counts, sum(counts)),
            rng.random())
    if kind == "Error":
        return protocol.error(rng.choice(["PARSE", "BAD_REQUEST", "CAPACITY"]),
                              "".join(rng.choices(string.ascii_letters, k=20)))
    return {"kind": kind}


class TestFraming:
    def test_ping_frame_bytes(self):
        frame = protocol.encode_frame(protocol.ping())
        assert frame == b"\x00\x00\x00\x0f" + b'{"kind":"Ping"}'

    def test_roundtrip_500_random_messages(self):
        rng = random.Random(4242)
        for _ in range(500):
            msg = _random_message(rng)
            assert protocol.decode_frame(protocol.encode_frame(msg)) == msg

    def test_roundtrip_200_random_batches(self):
        rng = random.Random(4343)
        for _ in range(200):
            msg = protocol.submit_batch(
                ("".join(rng.choices(string.printable, k=rng.randint(0, 200))),
                 rng.randint(1, 10 ** 6), rng.randrange(2 ** 63))
                for _ in range(rng.randint(1, 8)))
            assert protocol.decode_frame(protocol.encode_frame(msg)) == msg

    def test_submit_job_with_qasm_roundtrip(self):
        from qoffload.qasm import emit_qasm
        from qoffload.circuit import bell_circuit

        msg = protocol.submit_batch([(emit_qasm(bell_circuit()), 1000, 7)])
        assert protocol.decode_frame(protocol.encode_frame(msg)) == msg

    def test_truncated_header(self):
        with pytest.raises(protocol.TruncatedFrameError):
            protocol.decode_frame(b"\x00\x00")

    def test_truncated_body(self):
        frame = protocol.encode_frame(protocol.ping())
        with pytest.raises(protocol.TruncatedFrameError):
            protocol.decode_frame(frame[:-3])

    @pytest.mark.parametrize("sent", [2, 4, 9], ids=[
        "mid-header", "after-header", "mid-body"])
    def test_stream_closed_mid_frame(self, sent):
        frame = protocol.encode_frame(protocol.ping())
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(frame[:sent])
            theirs.close()
            with pytest.raises(protocol.TruncatedFrameError):
                protocol.recv_message(ours)

    def test_oversized_declared_length(self):
        with pytest.raises(protocol.OversizedFrameError):
            protocol.decode_frame(struct.pack("!I", 2 ** 25) + b"x")

    def test_unknown_kind(self):
        body = b'{"kind":"Nonsense"}'
        with pytest.raises(protocol.UnknownKindError):
            protocol.decode_frame(struct.pack("!I", len(body)) + body)

    def test_missing_required_field(self):
        body = b'{"kind":"SubmitJob"}'
        with pytest.raises(protocol.MalformedMessageError):
            protocol.decode_frame(struct.pack("!I", len(body)) + body)

    @pytest.mark.parametrize("body", [b"{not json", b"1" * 5000,
                                      b"[" * 100000],
                             ids=["not-json", "long-integer", "deep-nesting"])
    def test_invalid_json_body(self, body):
        with pytest.raises(protocol.MalformedMessageError):
            protocol.decode_frame(struct.pack("!I", len(body)) + body)

    def test_non_object_body(self):
        body = b"[1,2,3]"
        with pytest.raises(protocol.MalformedMessageError):
            protocol.decode_frame(struct.pack("!I", len(body)) + body)

    @pytest.mark.parametrize("kind", [[1], {}, 5, None],
                             ids=["list", "object", "int", "null"])
    def test_non_string_kind(self, kind):
        with pytest.raises(protocol.MalformedMessageError, match="must be a string"):
            protocol.validate_message({"kind": kind})
        body = json.dumps({"kind": kind}).encode()
        with pytest.raises(protocol.MalformedMessageError):
            protocol.decode_frame(struct.pack("!I", len(body)) + body)

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(protocol.UnknownKindError):
            protocol.encode_frame({"kind": "Bogus"})
