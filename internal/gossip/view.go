package gossip

import (
	"sort"

	"repro/internal/netsim"
)

// entry is one member's record in a view: the claimed status, the
// incarnation backing the claim, and how many more messages the rumor
// rides on (the piggyback budget).
type entry struct {
	status Status
	inc    uint64
	budget int
}

// View is one node's membership view: liveness entries for every member
// of its ring prefix, plus the probe rotation and the pending-rumor
// queue. Views are pure state machines — the embedding layer supplies
// timing, transport and randomness.
type View struct {
	self    netsim.NodeID
	entries map[netsim.NodeID]*entry
	ringSeq uint64
	budget  int

	// Probe rotation: a shuffled cycle over probeable members, rebuilt
	// when exhausted (SWIM's round-robin randomized probe order, which
	// bounds first-detection time to one cycle).
	cycle    []netsim.NodeID
	cycleIdx int
}

// shuffler is the randomness a view needs (stats.Source satisfies it);
// accepting the interface keeps the package clock- and RNG-agnostic.
type shuffler interface {
	Shuffle(n int, swap func(i, j int))
}

// NewView builds a view for self over the given founding members, all
// alive at incarnation 0, with ring knowledge anchored at ringSeq.
// budget is the per-rumor transmission budget (how many messages each
// new rumor piggybacks on before it stops spreading).
func NewView(self netsim.NodeID, members []netsim.NodeID, budget int, ringSeq uint64) *View {
	if budget <= 0 {
		budget = 3
	}
	v := &View{
		self:    self,
		entries: make(map[netsim.NodeID]*entry, len(members)),
		ringSeq: ringSeq,
		budget:  budget,
	}
	for _, m := range members {
		v.entries[m] = &entry{status: Alive}
	}
	if v.entries[self] == nil {
		v.entries[self] = &entry{status: Alive}
	}
	return v
}

// RingSeq reports the ring-event prefix this view has applied.
func (v *View) RingSeq() uint64 { return v.ringSeq }

// StatusOf reports the view's claim about id. Unknown nodes (their join
// event has not reached this view) report Left: the view cannot route
// to them and must not probe them.
func (v *View) StatusOf(id netsim.NodeID) Status {
	if e := v.entries[id]; e != nil {
		return e.status
	}
	return Left
}

// Incarnation reports the incarnation backing the view's claim about id.
func (v *View) Incarnation(id netsim.NodeID) uint64 {
	if e := v.entries[id]; e != nil {
		return e.inc
	}
	return 0
}

// Members returns the view's current ring members (everything not Left)
// in ascending id order.
func (v *View) Members() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(v.entries))
	for id, e := range v.entries {
		if e.status != Left {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apply merges one rumor into the view by SWIM precedence and reports
// whether it changed the view's claim (a changed claim re-arms the
// rumor's piggyback budget so the news keeps spreading). Rumors about
// unknown nodes are dropped — their join ring event has not arrived
// yet; the budget-bounded retransmission of the rumor elsewhere covers
// redelivery once it does.
//
// A rumor declaring the view's own node suspect or dead is refuted
// instead of applied: the node bumps its incarnation past the claim and
// re-announces itself alive with a full budget.
func (v *View) Apply(u Update) bool {
	e := v.entries[u.Node]
	if e == nil {
		return false
	}
	if u.Node == v.self {
		if u.Status != Alive && u.Status != Left && u.Incarnation >= e.inc {
			e.inc = u.Incarnation + 1
			e.status = Alive
			e.budget = v.budget
			return true
		}
		return false
	}
	accept := false
	switch u.Status {
	case Left:
		accept = e.status != Left
	case Alive:
		// A strictly newer incarnation overrides anything but Left —
		// including Dead (the node itself came back and refuted).
		accept = e.status != Left && u.Incarnation > e.inc
	case Suspect:
		accept = (e.status == Alive && u.Incarnation >= e.inc) ||
			(e.status == Suspect && u.Incarnation > e.inc)
	case Dead:
		accept = ((e.status == Alive || e.status == Suspect) && u.Incarnation >= e.inc) ||
			(e.status == Dead && u.Incarnation > e.inc)
	}
	if !accept {
		return false
	}
	e.status = u.Status
	e.inc = u.Incarnation
	e.budget = v.budget
	return true
}

// Suspect records a local failure-detector verdict: a probe of id went
// unanswered. It returns the rumor to disseminate; ok is false when the
// claim is moot (id unknown, already suspect/dead/left, or self).
func (v *View) Suspect(id netsim.NodeID) (Update, bool) {
	e := v.entries[id]
	if e == nil || id == v.self || e.status != Alive {
		return Update{}, false
	}
	e.status = Suspect
	e.budget = v.budget
	return Update{Node: id, Status: Suspect, Incarnation: e.inc}, true
}

// Confirm declares id dead after its suspicion timeout expired, but
// only when the view still holds the exact suspicion that armed the
// timer (same incarnation, still suspect) — a refutation in between
// cancels the confirmation. It returns the rumor to disseminate.
func (v *View) Confirm(id netsim.NodeID, inc uint64) (Update, bool) {
	e := v.entries[id]
	if e == nil || e.status != Suspect || e.inc != inc {
		return Update{}, false
	}
	e.status = Dead
	e.budget = v.budget
	return Update{Node: id, Status: Dead, Incarnation: e.inc}, true
}

// ApplyRingEvent advances the view's ring prefix by exactly one event;
// out-of-order events (a gap, or an already-applied prefix) are
// rejected and the caller retries once the missing suffix arrives. A
// join (re-)admits the node alive at incarnation 0; a leave marks it
// Left terminally.
func (v *View) ApplyRingEvent(ev RingEvent) bool {
	if ev.Seq != v.ringSeq+1 {
		return false
	}
	v.ringSeq = ev.Seq
	if ev.Join {
		v.entries[ev.Node] = &entry{status: Alive}
	} else if e := v.entries[ev.Node]; e != nil {
		e.status = Left
		e.budget = 0
	} else {
		v.entries[ev.Node] = &entry{status: Left}
	}
	return true
}

// Updates drains up to max pending rumors for piggybacking on an
// outgoing message, freshest first (highest remaining budget, ties by
// ascending node id — a total order, so dissemination is
// deterministic). Each returned rumor's budget is decremented; a rumor
// stops riding once its budget is spent.
func (v *View) Updates(max int) []Update {
	if max <= 0 {
		return nil
	}
	ids := make([]netsim.NodeID, 0, len(v.entries))
	for id, e := range v.entries {
		if e.budget > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		bi, bj := v.entries[ids[i]].budget, v.entries[ids[j]].budget
		if bi != bj {
			return bi > bj
		}
		return ids[i] < ids[j]
	})
	if len(ids) > max {
		ids = ids[:max]
	}
	out := make([]Update, len(ids))
	for i, id := range ids {
		e := v.entries[id]
		e.budget--
		out[i] = Update{Node: id, Status: e.status, Incarnation: e.inc}
	}
	return out
}

// NextPeer picks the next probe target: round-robin over a shuffled
// cycle of probeable members (alive or suspect, never self), rebuilt
// when exhausted. When NOTHING is alive or suspect — the view sat on
// the wrong side of a partition long enough to declare everyone dead —
// it falls back to cycling over Dead members: the last-ditch rejoin
// probe. Without it two sides that declared each other dead would never
// exchange another message and the refutation handshake could never
// run. It returns -1 only when every other member has Left. The caller
// supplies the randomness (a blessed stats.Source stream), so peer
// selection is deterministic per node.
func (v *View) NextPeer(rng shuffler) netsim.NodeID {
	for tries := 0; tries < 2; tries++ {
		for v.cycleIdx < len(v.cycle) {
			p := v.cycle[v.cycleIdx]
			v.cycleIdx++
			// Members can die or leave mid-cycle; skip them.
			if e := v.entries[p]; e != nil && (e.status == Alive || e.status == Suspect) {
				return p
			}
		}
		v.rebuildCycle(rng, false)
		if len(v.cycle) == 0 {
			break
		}
	}
	// Nobody alive or suspect: probe the dead, in case they aren't.
	v.rebuildCycle(rng, true)
	if len(v.cycle) == 0 {
		return -1
	}
	p := v.cycle[v.cycleIdx]
	v.cycleIdx++
	return p
}

// rebuildCycle refills the probe rotation from alive+suspect members,
// or from dead ones when deadFallback is set.
func (v *View) rebuildCycle(rng shuffler, deadFallback bool) {
	v.cycle = v.cycle[:0]
	for id, e := range v.entries {
		if id == v.self {
			continue
		}
		probeable := e.status == Alive || e.status == Suspect
		if deadFallback {
			probeable = e.status == Dead
		}
		if probeable {
			v.cycle = append(v.cycle, id)
		}
	}
	sort.Slice(v.cycle, func(i, j int) bool { return v.cycle[i] < v.cycle[j] })
	rng.Shuffle(len(v.cycle), func(i, j int) {
		v.cycle[i], v.cycle[j] = v.cycle[j], v.cycle[i]
	})
	v.cycleIdx = 0
}
