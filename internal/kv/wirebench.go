package kv

import (
	"errors"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// WireBenchRoundTrip drives one representative message through the full
// inter-process codec path — box a replica write, marshal it into a
// frame, read the frame back, decode into a pooled box, recycle — and
// returns the reusable buffer. The message set is unexported by design;
// this hook exists so the repository benchmark's per-layer probes
// (benchmark/probes.go, wire.frame_roundtrip_ns_per_msg) can track the
// per-message cost of the TCP mesh.
func WireBenchRoundTrip(buf []byte, seq uint64, value []byte) ([]byte, error) {
	w := replicaWrites.put(replicaWrite{
		ID:  reqID(seq),
		Key: "key:12345678",
		Cell: storage.Cell{
			Version: storage.Version{Timestamp: time.Duration(seq), Seq: seq},
			Value:   value,
		},
		Coord:   1,
		RingSeq: 3,
	})
	buf, ok := MarshalMessage(buf[:0], 1, 2, w)
	if !ok {
		return buf, errors.New("replica write has no wire form")
	}
	kind, body, _, err := wire.ReadFrame(buf)
	if err != nil {
		return buf, err
	}
	_, _, payload, err := UnmarshalMessage(kind, body)
	if err != nil {
		return buf, err
	}
	rw, ok := payload.(*replicaWrite)
	if !ok {
		return buf, errors.New("decoded payload is not a replica write")
	}
	replicaWrites.take(rw)
	return buf, nil
}
