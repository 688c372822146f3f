package netsim

// TrafficMeter accumulates message and byte counts per link class; the
// cost model prices InterDC and InterRegion bytes. The zero value is
// ready to use.
type TrafficMeter struct {
	Messages [4]uint64 // indexed by LinkClass
	Bytes    [4]uint64
	Dropped  uint64
}

// Count records one message of size bytes on a link of class c.
func (m *TrafficMeter) Count(c LinkClass, size int) {
	m.Messages[c]++
	m.Bytes[c] += uint64(size)
}

// TotalBytes reports bytes carried across all classes.
func (m *TrafficMeter) TotalBytes() uint64 {
	var sum uint64
	for _, b := range m.Bytes {
		sum += b
	}
	return sum
}

// BilledBytes reports the bytes that cloud providers charge for:
// inter-DC (inter-AZ) and inter-region traffic.
func (m *TrafficMeter) BilledBytes() (interDC, interRegion uint64) {
	return m.Bytes[InterDC], m.Bytes[InterRegion]
}

// Snapshot returns a copy of the meter.
func (m *TrafficMeter) Snapshot() TrafficMeter { return *m }

// Sub returns the difference m − earlier, for per-interval accounting.
func (m *TrafficMeter) Sub(earlier TrafficMeter) TrafficMeter {
	var d TrafficMeter
	for i := range m.Messages {
		d.Messages[i] = m.Messages[i] - earlier.Messages[i]
		d.Bytes[i] = m.Bytes[i] - earlier.Bytes[i]
	}
	d.Dropped = m.Dropped - earlier.Dropped
	return d
}
