package repro

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Shared flag→Config plumbing for the cmds (storesim, storeserve) and
// any embedding program: every command used to carry its own copy of
// the level parser and the topology/engine switches; they live here
// once instead.

// EngineKind selects a per-node storage engine (EngineMem, EngineLSM).
type EngineKind = storage.Kind

// ParseLevel parses a consistency level name: ONE, TWO, THREE, QUORUM,
// ALL, LOCAL_QUORUM, EACH_QUORUM or K(n) with n ≥ 1. Case-insensitive;
// the whole string must be the name.
func ParseLevel(s string) (Level, error) {
	up := strings.ToUpper(s)
	switch up {
	case "ONE":
		return One, nil
	case "TWO":
		return Two, nil
	case "THREE":
		return Three, nil
	case "QUORUM":
		return Quorum, nil
	case "ALL":
		return All, nil
	case "LOCAL_QUORUM":
		return LocalQuorum, nil
	case "EACH_QUORUM":
		return EachQuorum, nil
	}
	if n, ok := strings.CutPrefix(up, "K("); ok && strings.HasSuffix(n, ")") {
		if k, err := strconv.Atoi(strings.TrimSuffix(n, ")")); err == nil && k > 0 {
			return Count(k), nil
		}
	}
	return Level{}, fmt.Errorf("repro: unknown consistency level %q", s)
}

// ParseTopology builds a preset topology of n nodes by name for a store
// of replication factor rf: "g5k" (two Grid'5000 sites), "ec2" (two
// us-east-1 AZs), "single" (one datacenter) or "geo" (three regions; n
// is split across them, so it needs n ≥ 3). rf must lie in 1..N, N the
// topology's node count.
func ParseTopology(name string, n, rf int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("repro: topology %q needs at least one node, not %d", name, n)
	}
	var topo *Topology
	switch name {
	case "g5k":
		topo = G5KTwoSites(n)
	case "ec2":
		topo = EC2TwoAZ(n)
	case "single":
		topo = SingleDC(n)
	case "geo":
		if n < 3 {
			return nil, fmt.Errorf("repro: topology geo needs at least 3 nodes (one per region), not %d", n)
		}
		topo = GeoRegions(n/3, "us-east", "eu-west", "ap-south")
	default:
		return nil, fmt.Errorf("repro: unknown topology %q", name)
	}
	if rf < 1 || rf > topo.N() {
		return nil, fmt.Errorf("repro: replication factor %d outside 1..%d, the %s topology's node count", rf, topo.N(), name)
	}
	return topo, nil
}

// ParseEngine maps an engine name ("mem", "lsm") to its storage kind.
func ParseEngine(name string) (EngineKind, error) {
	switch name {
	case "mem":
		return EngineMem, nil
	case "lsm":
		return EngineLSM, nil
	}
	return EngineMem, fmt.Errorf("repro: unknown engine %q", name)
}

// ClientSpec is a parsed -level flag: either a fixed consistency level
// for both reads and writes, or the Harmony adaptive tuner with a
// stale-read tolerance.
type ClientSpec struct {
	Harmony bool
	Alpha   float64 // Harmony stale-read tolerance
	Level   Level   // fixed read+write level when !Harmony
}

// ParseClientSpec parses a level-or-tuner flag value: a level name
// (see ParseLevel) or "harmony:<alpha>" with alpha a number in [0, 1].
func ParseClientSpec(s string) (ClientSpec, error) {
	if alphaStr, ok := strings.CutPrefix(s, "harmony:"); ok {
		alpha, err := strconv.ParseFloat(alphaStr, 64)
		if err != nil || !(alpha >= 0 && alpha <= 1) {
			return ClientSpec{}, fmt.Errorf("repro: bad harmony tolerance %q (want a number in [0, 1])", alphaStr)
		}
		return ClientSpec{Harmony: true, Alpha: alpha}, nil
	}
	lvl, err := ParseLevel(s)
	if err != nil {
		return ClientSpec{}, err
	}
	return ClientSpec{Level: lvl}, nil
}
