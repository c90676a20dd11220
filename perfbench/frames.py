"""Uplink bytes counted from real FCUL frames.

Installed as the hook after `coordinator.aggregate` in a traced replay: every
client message the server aggregates is encoded with `wire.encode_message`
and decoded again with `wire.decode_message`.  The check fails when a
decoded message differs from the original in any field or payload entry,
or when the frame pair's length differs from the bytes `account_round`
charges for the message plus two frame headers.

The checker holds the functions it was built with, so it keeps calling the
untraced originals while the tracer's wrappers are installed: the wire
spans then count only the program's own calls.
"""

from __future__ import annotations

import numpy as np

FRAME_HEADER_BYTES = 28  # magic 4s, version u16, variant u8, precision u8, five u32
FRAMES_PER_MESSAGE = 2  # the add payload, then the delete payload

_PRECISION_OF = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def _same_payload(a, b) -> bool:
    if type(a) is not type(b) or a.n != b.n:
        return False
    fields = ("S", "G") if hasattr(a, "S") else ("R", "G")
    return all(
        getattr(a, f).shape == getattr(b, f).shape and np.array_equal(getattr(a, f), getattr(b, f))
        for f in fields
    )


class FrameChecker:
    def __init__(self, wire_module, coordinator_module, approx: bool):
        self.encode = wire_module.encode_message
        self.decode = wire_module.decode_message
        self.account = coordinator_module.account_round
        self.approx = approx
        self.bytes: dict[str, int] = {}
        self.messages = 0
        self.failed_messages = 0
        self.failures: list[str] = []

    def __call__(self, messages, *_, **__) -> None:
        for msg in messages:
            precision = _PRECISION_OF[np.asarray(msg.add.G).dtype]
            buf = self.encode(msg, precision)
            decoded, decoded_precision, end = self.decode(buf)
            where = f"round {msg.round} client {msg.client_id}"
            failures = len(self.failures)
            if (
                end != len(buf)
                or decoded_precision != precision
                or (decoded.client_id, decoded.round, decoded.variant) != (msg.client_id, msg.round, msg.variant)
                or not _same_payload(decoded.add, msg.add)
                or not _same_payload(decoded.delete, msg.delete)
            ):
                self.failures.append(f"{where}: decoded message differs from the encoded one")
            accounted = self.account([msg], precision).total_bytes + FRAMES_PER_MESSAGE * FRAME_HEADER_BYTES
            if len(buf) != accounted:
                self.failures.append(f"{where}: frames hold {len(buf)} bytes, accounting says {accounted}")
            self.failed_messages += len(self.failures) > failures
            # approx mode ships full-statistics messages, labelled as variant A on the wire
            served = "approx" if self.approx else msg.variant
            self.bytes[served] = self.bytes.get(served, 0) + len(buf)
            self.messages += 1
