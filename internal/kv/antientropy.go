package kv

import (
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Anti-entropy: each round a node offers the versions of a key sample to
// one random live peer; the peer pushes back newer cells and pulls the
// ones where the initiator was ahead. Because cell application is
// last-write-wins, exchanges are idempotent and order-free, so replicas
// converge even for writes whose coordinator died before full
// propagation.

// antiEntropyRound starts one exchange with a random live peer.
func (n *Node) antiEntropyRound() {
	n.aeRounds++
	peer := n.pickAEPeer()
	if peer < 0 {
		return
	}
	count := n.engine.KeyCount()
	if count == 0 {
		return
	}
	sample := n.cluster.cfg.AntiEntropySample
	if sample <= 0 || sample > count {
		sample = count
	}
	keys := make([]string, 0, sample)
	versions := make([]storage.Version, 0, sample)
	if n.aeSeen == nil {
		n.aeSeen = make(map[string]bool, sample)
	} else {
		clear(n.aeSeen)
	}
	seen := n.aeSeen
	for len(keys) < sample {
		k := n.engine.KeyAt(n.rng.IntN(count))
		if seen[k] {
			// Collision in the sample: accept fewer keys rather than
			// loop unboundedly on tiny stores.
			if len(seen) >= count {
				break
			}
			continue
		}
		seen[k] = true
		cell, ok := n.engine.Peek(k)
		if !ok {
			continue
		}
		keys = append(keys, k)
		versions = append(versions, cell.Version)
	}
	cost := n.cluster.cfg.ReadService.Sample(n.rng)
	n.submitRead(cost, func() {
		n.cluster.net.Send(n.id, peer, aeOffer{Keys: keys, Versions: versions, From: n.id})
	})
}

// pickAEPeer returns a random live node other than n, or -1.
func (n *Node) pickAEPeer() netsim.NodeID {
	order := n.cluster.order
	if len(order) < 2 {
		return -1
	}
	for tries := 0; tries < 8; tries++ {
		p := order[n.rng.IntN(len(order))]
		if p != n.id && !n.cluster.isDown(p) {
			return p
		}
	}
	return -1
}

// onAEOffer answers an exchange: push cells where this node is newer,
// pull keys where the initiator is newer.
func (n *Node) onAEOffer(m aeOffer) {
	cost := n.cluster.cfg.ReadService.Sample(n.rng)
	n.submitRead(cost, func() {
		var updates []aeCell
		var want []string
		for i, key := range m.Keys {
			local, ok := n.engine.Peek(key)
			switch {
			case !ok || m.Versions[i].After(local.Version):
				want = append(want, key)
			case local.Version.After(m.Versions[i]):
				updates = append(updates, aeCell{Key: key, Cell: local})
			}
		}
		n.cluster.net.Send(n.id, m.From, aeReply{Updates: updates, Want: want, From: n.id})
	})
}

// onAEReply applies the peer's newer cells and pushes the requested ones.
func (n *Node) onAEReply(m aeReply) {
	cost := n.cluster.cfg.WriteService.Sample(n.rng)
	n.submitWrite(cost, func() {
		n.applyAECells(m.Updates)
		if len(m.Want) == 0 {
			return
		}
		var push []aeCell
		for _, key := range m.Want {
			if cell, ok := n.engine.Peek(key); ok {
				push = append(push, aeCell{Key: key, Cell: cell})
			}
		}
		n.cluster.net.Send(n.id, m.From, aePush{Updates: push})
	})
}

// onAEPush applies pushed cells, closing the exchange.
func (n *Node) onAEPush(m aePush) {
	cost := n.cluster.cfg.WriteService.Sample(n.rng)
	n.submitWrite(cost, func() { n.applyAECells(m.Updates) })
}

func (n *Node) applyAECells(cells []aeCell) {
	for _, u := range cells {
		if n.engine.Apply(u.Key, u.Cell) {
			n.cluster.oracle.Applied(n.id, u.Key, u.Cell.Version, n.cluster.net.Now())
		}
		n.cacheInvalidate(u.Key)
	}
}
