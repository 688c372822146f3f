package ring

import "testing"

// BenchmarkMembershipPlan measures what a membership change pays before
// any data moves: one 64 → 65-node join's post-change placement, built
// fresh, and the Diff that names the moved arcs.
func BenchmarkMembershipPlan(b *testing.B) {
	const vnodes, seed, rf = 32, 7, 3
	old := NewSimpleStrategy(New(nodeIDs(64), vnodes, seed), rf)
	members := nodeIDs(65)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := NewSimpleStrategy(New(members, vnodes, seed), rf)
		if len(Diff(old, next)) == 0 {
			b.Fatal("join moved nothing")
		}
	}
}

// BenchmarkReplicasLookup pins the per-operation placement lookup cost
// on the placement a 16 → 17-node join builds (the table must stay a
// zero-alloc cache).
func BenchmarkReplicasLookup(b *testing.B) {
	s := NewSimpleStrategy(New(nodeIDs(17), 32, 7), 3)
	keys := sampleKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Replicas(keys[i%len(keys)])) != 3 {
			b.Fatal("bad replica set")
		}
	}
}
