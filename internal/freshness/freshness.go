// Package freshness implements the paper's third future-work direction
// (§V): an eventually-consistent mode with guarantees on data freshness,
// by deadline enforcement. Every write is audited with a background read
// at level ALL shortly before its convergence deadline; the audit
// piggybacks on the store's read-repair machinery, pushing the write to
// any replica that still misses it. Compliance is the fraction of writes
// fully propagated within the deadline. The guarantee tiers
// (gold/silver/bronze) name the deadlines.
package freshness

import (
	"fmt"
	"time"

	"repro/internal/kv"
)

// Guarantee is a named convergence deadline.
type Guarantee struct {
	Name     string
	Deadline time.Duration
}

// The standard tiers. Gold is only achievable on low-latency topologies.
var (
	Gold   = Guarantee{Name: "gold", Deadline: 150 * time.Millisecond}
	Silver = Guarantee{Name: "silver", Deadline: 500 * time.Millisecond}
	Bronze = Guarantee{Name: "bronze", Deadline: 2 * time.Second}
)

// Clock is the scheduling surface the enforcer needs.
type Clock interface {
	Now() time.Duration
	Schedule(d time.Duration, fn func())
}

// Enforcer wraps a session so every write is audited against a
// convergence deadline.
type Enforcer struct {
	Inner     kv.Session
	Cluster   *kv.Cluster
	Clock     Clock
	Guarantee Guarantee
	// AuditMargin is how long before the deadline the audit read fires,
	// leaving time for the repair to land.
	AuditMargin time.Duration

	writes uint64
	audits uint64
}

// NewEnforcer wraps inner with deadline auditing.
func NewEnforcer(inner kv.Session, cluster *kv.Cluster, clock Clock, g Guarantee) *Enforcer {
	return &Enforcer{
		Inner: inner, Cluster: cluster, Clock: clock, Guarantee: g,
		AuditMargin: g.Deadline / 4,
	}
}

// Read implements kv.Session.
func (e *Enforcer) Read(key string, cb func(kv.ReadResult)) { e.Inner.Read(key, cb) }

// Write implements kv.Session: the write proceeds normally and an audit
// read at ALL fires before the deadline, repairing laggard replicas.
func (e *Enforcer) Write(key string, value []byte, cb func(kv.WriteResult)) {
	e.writes++
	e.Inner.Write(key, value, func(res kv.WriteResult) {
		if res.Err == nil {
			delay := e.Guarantee.Deadline - e.AuditMargin - res.Latency
			if delay < 0 {
				delay = 0
			}
			e.Clock.Schedule(delay, func() { e.audit(key) })
		}
		cb(res)
	})
}

// Delete implements kv.Session. Tombstones are not audited.
func (e *Enforcer) Delete(key string, cb func(kv.WriteResult)) { e.Inner.Delete(key, cb) }

// BatchRead implements kv.Session.
func (e *Enforcer) BatchRead(keys []string, cb func([]kv.ReadResult)) { e.Inner.BatchRead(keys, cb) }

// BatchWrite implements kv.Session: every successful non-delete item is
// audited against the deadline exactly like a single write.
func (e *Enforcer) BatchWrite(ops []kv.BatchOp, cb func([]kv.WriteResult)) {
	for _, op := range ops {
		if !op.Delete {
			e.writes++
		}
	}
	e.Inner.BatchWrite(ops, func(res []kv.WriteResult) {
		for i, r := range res {
			if r.Err == nil && !ops[i].Delete {
				delay := e.Guarantee.Deadline - e.AuditMargin - r.Latency
				if delay < 0 {
					delay = 0
				}
				key := ops[i].Key
				e.Clock.Schedule(delay, func() { e.audit(key) })
			}
		}
		cb(res)
	})
}

func (e *Enforcer) audit(key string) {
	e.audits++
	// The ALL read compares every replica's version; read repair (always
	// on for contacted replicas) pushes the freshest cell to any replica
	// that answered with an older one.
	e.Cluster.Read(key, kv.All, func(kv.ReadResult) {})
}

// Stats reports enforcement counters.
func (e *Enforcer) Stats() (writes, audits uint64) {
	return e.writes, e.audits
}

// Compliance measures deadline compliance from the oracle's propagation
// histogram: the fraction of writes whose full propagation finished
// within the deadline.
func Compliance(o *kv.Oracle, g Guarantee) float64 {
	h := o.Propagation()
	if h.Count() == 0 {
		return 1
	}
	// Binary-search the quantile whose value is the deadline.
	lo, hi := 0.0, 1.0
	for i := 0; i < 20; i++ {
		mid := (lo + hi) / 2
		if h.Quantile(mid) <= g.Deadline {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// String describes the guarantee.
func (g Guarantee) String() string {
	return fmt.Sprintf("%s(≤%v)", g.Name, g.Deadline)
}
