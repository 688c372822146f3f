// Code generated by TestMessageSizeGenerated (wiresize_test.go) from the wire field lists; DO NOT EDIT.

package kv

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

// MessageSize is the bytes a message puts on the wire, which the
// transport meters: for a kind with a wire form, the length of the frame
// MarshalMessage would write, computed by the kind's size method below
// (straight-line arithmetic over the same field list, nothing encoded,
// checksummed or allocated), and for any other kind its declaredSize.
// It leaves payload untouched.
func (*boxes) MessageSize(from, to netsim.NodeID, payload any) int {
	switch m := payload.(type) {
	case *replicaRead:
		return m.size(from, to)
	case *replicaReadResp:
		return m.size(from, to)
	case *replicaWrite:
		return m.size(from, to)
	case *replicaWriteAck:
		return m.size(from, to)
	case *replicaBatchRead:
		return m.size(from, to)
	case *replicaBatchReadResp:
		return m.size(from, to)
	case *replicaBatchWrite:
		return m.size(from, to)
	case *replicaBatchWriteAck:
		return m.size(from, to)
	case aeOffer:
		return m.size(from, to)
	case aeReply:
		return m.size(from, to)
	case aePush:
		return m.size(from, to)
	case streamRequest:
		return m.size(from, to)
	case streamChunk:
		return m.size(from, to)
	case streamDone:
		return m.size(from, to)
	case streamAck:
		return m.size(from, to)
	}
	return declaredSize(payload)
}

func (m *replicaRead) size(from, to netsim.NodeID) int {
	return wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Key))) + len(m.Key) +
		wire.VarintLen(int64(m.Coord)) +
		wire.UvarintLen(uint64(m.RingSeq)) +
		1
}

func (m *replicaReadResp) size(from, to netsim.NodeID) int {
	return wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Key))) + len(m.Key) +
		wire.VarintLen(int64(m.Cell.Version.Timestamp)) +
		wire.UvarintLen(uint64(m.Cell.Version.Seq)) +
		wire.UvarintLen(uint64(len(m.Cell.Value))) + len(m.Cell.Value) +
		wire.VarintLen(int64(m.From)) +
		3
}

func (m *replicaWrite) size(from, to netsim.NodeID) int {
	return wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Key))) + len(m.Key) +
		wire.VarintLen(int64(m.Cell.Version.Timestamp)) +
		wire.UvarintLen(uint64(m.Cell.Version.Seq)) +
		wire.UvarintLen(uint64(len(m.Cell.Value))) + len(m.Cell.Value) +
		wire.VarintLen(int64(m.Coord)) +
		wire.UvarintLen(uint64(m.RingSeq)) +
		3
}

func (m *replicaWriteAck) size(from, to netsim.NodeID) int {
	return wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Key))) + len(m.Key) +
		wire.VarintLen(int64(m.Version.Timestamp)) +
		wire.UvarintLen(uint64(m.Version.Seq)) +
		wire.VarintLen(int64(m.From))
}

func (m *replicaBatchRead) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Idxs)))
	for i := range m.Idxs {
		n += wire.VarintLen(int64(m.Idxs[i]))
	}
	n += wire.UvarintLen(uint64(len(m.Keys)))
	for i := range m.Keys {
		n += wire.UvarintLen(uint64(len(m.Keys[i]))) + len(m.Keys[i])
	}
	n += wire.VarintLen(int64(m.Coord)) +
		wire.UvarintLen(uint64(m.RingSeq))
	return n
}

func (m *replicaBatchReadResp) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Items)))
	for i := range m.Items {
		n += wire.VarintLen(int64(m.Items[i].Idx)) +
			wire.VarintLen(int64(m.Items[i].Cell.Version.Timestamp)) +
			wire.UvarintLen(uint64(m.Items[i].Cell.Version.Seq)) +
			wire.UvarintLen(uint64(len(m.Items[i].Cell.Value))) + len(m.Items[i].Cell.Value) +
			2
	}
	n += wire.VarintLen(int64(m.From))
	return n
}

func (m *replicaBatchWrite) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Idxs)))
	for i := range m.Idxs {
		n += wire.VarintLen(int64(m.Idxs[i]))
	}
	n += wire.UvarintLen(uint64(len(m.Keys)))
	for i := range m.Keys {
		n += wire.UvarintLen(uint64(len(m.Keys[i]))) + len(m.Keys[i])
	}
	n += wire.UvarintLen(uint64(len(m.Cells)))
	for i := range m.Cells {
		n += wire.VarintLen(int64(m.Cells[i].Version.Timestamp)) +
			wire.UvarintLen(uint64(m.Cells[i].Version.Seq)) +
			wire.UvarintLen(uint64(len(m.Cells[i].Value))) + len(m.Cells[i].Value) +
			1
	}
	n += wire.VarintLen(int64(m.Coord)) +
		wire.UvarintLen(uint64(m.RingSeq))
	return n
}

func (m *replicaBatchWriteAck) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(m.ID)) +
		wire.UvarintLen(uint64(len(m.Idxs)))
	for i := range m.Idxs {
		n += wire.VarintLen(int64(m.Idxs[i]))
	}
	n += wire.VarintLen(int64(m.From))
	return n
}

func (m *aeOffer) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(len(m.Keys)))
	for i := range m.Keys {
		n += wire.UvarintLen(uint64(len(m.Keys[i]))) + len(m.Keys[i])
	}
	n += wire.UvarintLen(uint64(len(m.Versions)))
	for i := range m.Versions {
		n += wire.VarintLen(int64(m.Versions[i].Timestamp)) +
			wire.UvarintLen(uint64(m.Versions[i].Seq))
	}
	n += wire.VarintLen(int64(m.From))
	return n
}

func (m *aeReply) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(len(m.Updates)))
	for i := range m.Updates {
		n += wire.UvarintLen(uint64(len(m.Updates[i].Key))) + len(m.Updates[i].Key) +
			wire.VarintLen(int64(m.Updates[i].Cell.Version.Timestamp)) +
			wire.UvarintLen(uint64(m.Updates[i].Cell.Version.Seq)) +
			wire.UvarintLen(uint64(len(m.Updates[i].Cell.Value))) + len(m.Updates[i].Cell.Value) +
			1
	}
	n += wire.UvarintLen(uint64(len(m.Want)))
	for i := range m.Want {
		n += wire.UvarintLen(uint64(len(m.Want[i]))) + len(m.Want[i])
	}
	n += wire.VarintLen(int64(m.From))
	return n
}

func (m *aePush) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.UvarintLen(uint64(len(m.Updates)))
	for i := range m.Updates {
		n += wire.UvarintLen(uint64(len(m.Updates[i].Key))) + len(m.Updates[i].Key) +
			wire.VarintLen(int64(m.Updates[i].Cell.Version.Timestamp)) +
			wire.UvarintLen(uint64(m.Updates[i].Cell.Version.Seq)) +
			wire.UvarintLen(uint64(len(m.Updates[i].Cell.Value))) + len(m.Updates[i].Cell.Value) +
			1
	}
	return n
}

func (m *streamRequest) size(from, to netsim.NodeID) int {
	n := wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.VarintLen(int64(m.Joiner)) +
		wire.UvarintLen(uint64(len(m.Ranges)))
	for i := range m.Ranges {
		n += wire.UvarintLen(uint64(m.Ranges[i].Start)) +
			wire.UvarintLen(uint64(m.Ranges[i].End))
	}
	return n
}

func (m *streamChunk) size(from, to netsim.NodeID) int {
	return wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.VarintLen(int64(m.From)) +
		wire.UvarintLen(uint64(len(m.Data))) + len(m.Data) +
		wire.VarintLen(int64(m.Count))
}

func (m *streamDone) size(from, to netsim.NodeID) int {
	return wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.VarintLen(int64(m.From)) +
		wire.VarintLen(int64(m.Chunks)) +
		wire.VarintLen(int64(m.Cells)) +
		wire.VarintLen(int64(m.Bytes)) +
		1
}

func (m *streamAck) size(from, to netsim.NodeID) int {
	return wire.FrameOverhead +
		wire.VarintLen(int64(from)) +
		wire.VarintLen(int64(to)) +
		wire.VarintLen(int64(m.From))
}
