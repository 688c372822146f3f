package repro_test

import (
	"testing"

	"repro"
)

// TestParseFlags: every flag parser of cli.go accepts exactly the
// documented forms and refuses the rest with an error — trailing bytes,
// out-of-range numbers and deployments the store cannot build included.
func TestParseFlags(t *testing.T) {
	levels := []struct {
		in   string
		want repro.Level
		ok   bool
	}{
		{"ONE", repro.One, true},
		{"quorum", repro.Quorum, true},
		{"EACH_QUORUM", repro.EachQuorum, true},
		{"K(3)", repro.Count(3), true},
		{"k(2)", repro.Count(2), true},
		{"K(3)junk", repro.Level{}, false},
		{"ONEx", repro.Level{}, false},
		{"K(0)", repro.Level{}, false},
		{"K(-1)", repro.Level{}, false},
		{"K()", repro.Level{}, false},
		{"K(3", repro.Level{}, false},
		{"", repro.Level{}, false},
	}
	for _, tc := range levels {
		got, err := repro.ParseLevel(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}

	specs := []struct {
		in   string
		want repro.ClientSpec
		ok   bool
	}{
		{"harmony:0.05", repro.ClientSpec{Harmony: true, Alpha: 0.05}, true},
		{"harmony:0", repro.ClientSpec{Harmony: true}, true},
		{"harmony:1", repro.ClientSpec{Harmony: true, Alpha: 1}, true},
		{"ALL", repro.ClientSpec{Level: repro.All}, true},
		{"harmony:0.05x", repro.ClientSpec{}, false},
		{"harmony:", repro.ClientSpec{}, false},
		{"harmony:-0.1", repro.ClientSpec{}, false},
		{"harmony:1.5", repro.ClientSpec{}, false},
		{"harmony:NaN", repro.ClientSpec{}, false},
		{"K(3)junk", repro.ClientSpec{}, false},
	}
	for _, tc := range specs {
		got, err := repro.ParseClientSpec(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseClientSpec(%q) = %+v, %v; want %+v, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}

	topos := []struct {
		name  string
		n, rf int
		nodes int // the topology's node count; 0 when it must be refused
	}{
		{"g5k", 12, 3, 12},
		{"single", 3, 3, 3},
		{"single", 1, 1, 1},
		{"ec2", 4, 2, 4},
		{"geo", 4, 3, 3},
		{"single", 3, 5, 0}, // storesim -nodes 3 -rf 5
		{"geo", 2, 1, 0},    // storesim -topology geo -nodes 2
		{"g5k", 0, 3, 0},    // storesim -nodes 0
		{"single", 2, 3, 0}, // storeserve -nodes 2
		{"geo", 5, 4, 0},    // five nodes split three ways is three
		{"single", 3, 0, 0},
		{"single", -1, 1, 0},
		{"mars", 3, 3, 0},
	}
	for _, tc := range topos {
		topo, err := repro.ParseTopology(tc.name, tc.n, tc.rf)
		switch {
		case tc.nodes == 0 && err == nil:
			t.Errorf("ParseTopology(%q, %d, %d) built %d nodes; want an error", tc.name, tc.n, tc.rf, topo.N())
		case tc.nodes > 0 && err != nil:
			t.Errorf("ParseTopology(%q, %d, %d): %v", tc.name, tc.n, tc.rf, err)
		case tc.nodes > 0 && topo.N() != tc.nodes:
			t.Errorf("ParseTopology(%q, %d, %d) built %d nodes, want %d", tc.name, tc.n, tc.rf, topo.N(), tc.nodes)
		}
	}

	engines := []struct {
		in   string
		want repro.EngineKind
		ok   bool
	}{
		{"mem", repro.EngineMem, true},
		{"lsm", repro.EngineLSM, true},
		{"LSM", repro.EngineMem, false},
		{"lsmx", repro.EngineMem, false},
		{"", repro.EngineMem, false},
	}
	for _, tc := range engines {
		got, err := repro.ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
