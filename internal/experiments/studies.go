// Package experiments replays the paper's evaluation (§IV: Harmony
// against static levels on Grid'5000 and EC2, the bill per level, Bismar),
// the §V extensions, the ablations and every study grown since, in
// virtual time, and prints the rows the paper reports.
//
// Every simulated run stands on one rig (rig.go): the single wiring of
// engine, topology, transport, cluster, monitor and controller, with
// four verbs — preload a workload's records, run one phase of client
// load to completion, settle virtual time, and read the window a phase
// closed. A window holds the phase's own start, end and client metrics,
// the members and time-weighted read level at its end, and the oracle,
// usage and traffic counters differenced since the previous window
// closed. A study is a short script over a rig (recovery.go is the
// plainest) that renders its windows into a Table; Studies lists every
// study once, and cmd/paperbench, the golden-table test and
// EXPERIMENTS.md enumerate that list.
//
// To add a study: write the script, add one line to Studies, and pin its
// table in goldenTables (studies_test.go).
package experiments

import "fmt"

// Preset is a named platform a study can run on.
type Preset struct {
	Name     string
	Platform func() Platform
}

// Study is one entry of the registry.
type Study struct {
	Name string
	Doc  string
	// Presets lists the platforms the study runs on, the default first;
	// empty for a study that builds its own deployment.
	Presets []Preset
	// Run replays the study on the unscaled preset p at the given
	// operation/record scale. A study on a "small" preset runs it as it
	// stands, and one without presets ignores both.
	Run func(p Platform, scale float64, seed uint64) []*Table
}

var (
	g5kHarmony = Preset{"g5k", G5KHarmony}
	ec2Harmony = Preset{"ec2", EC2Harmony}
	g5kCost    = Preset{"g5k", G5KCost}
	ec2Cost    = Preset{"ec2", EC2Cost}
)

// small is the preset list of a phase study: its test-scale deployment.
func small(study string, nodes, threads int, ops uint64) []Preset {
	return []Preset{{"small", func() Platform { return smallG5K(study, nodes, threads, ops) }}}
}

// Studies is every study of the package, in EXPERIMENTS.md's order.
var Studies = []Study{
	{"harmony", "Exp A (§IV-A): Harmony at the platform's tolerated stale rates against static ONE and ALL",
		[]Preset{g5kHarmony, ec2Harmony}, func(p Platform, scale float64, seed uint64) []*Table {
			_, t := RunExpA(p.Scaled(scale), seed)
			return []*Table{t}
		}},
	{"fig1", "Fig. 1: the stale-read model's prediction against the oracle on a single key",
		nil, func(_ Platform, _ float64, seed uint64) []*Table {
			_, t := RunFig1Validation(seed)
			return []*Table{t}
		}},
	{"cost", "Exp B1 (§IV-B): the bill per consistency level, and the same usages under whole-hour billing",
		[]Preset{ec2Cost, g5kCost}, func(p Platform, scale float64, seed uint64) []*Table {
			rows, t := RunExpB1(p.Scaled(scale), seed)
			return []*Table{t, RunAblationBillingGranularity(rows)}
		}},
	{"efficiency", "Exp B2 (§IV-B): consistency-cost efficiency sampled over access patterns and levels",
		[]Preset{g5kCost, ec2Cost}, func(p Platform, scale float64, seed uint64) []*Table {
			_, t := RunExpB2Metric(p.Scaled(scale), seed)
			return []*Table{t}
		}},
	{"bismar", "Exp B2 (§IV-B): Bismar against every static level over the phased workload",
		[]Preset{g5kCost, ec2Cost}, func(p Platform, scale float64, seed uint64) []*Table {
			_, t := RunExpC(p, scale, seed)
			return []*Table{t}
		}},
	{"power", "Ext-1 (§V): energy per consistency level under each CPU governor",
		[]Preset{ec2Harmony, g5kHarmony}, func(p Platform, scale float64, seed uint64) []*Table {
			return []*Table{RunExtPower(p.Scaled(scale), seed)}
		}},
	{"provisioning", "Ext-2 (§V): the optimizer's cheapest plan per constraint set, predicted against simulated",
		nil, func(_ Platform, _ float64, seed uint64) []*Table {
			return []*Table{RunExtProvisioning(seed)}
		}},
	{"freshness", "Ext-3 (§V): freshness-deadline compliance and enforcement overhead per guarantee tier",
		[]Preset{ec2Harmony, g5kHarmony}, func(p Platform, scale float64, seed uint64) []*Table {
			return []*Table{RunExtFreshness(p.Scaled(scale), seed)}
		}},
	{"digest", "Ablation: QUORUM reads with and without digest reads",
		[]Preset{ec2Cost, g5kCost}, func(p Platform, scale float64, seed uint64) []*Table {
			_, t := RunAblationDigestReads(p.Scaled(scale), seed)
			return []*Table{t}
		}},
	{"readrepair", "Ablation: read repair and the global repair chance at level ONE",
		[]Preset{ec2Harmony, g5kHarmony}, func(p Platform, scale float64, seed uint64) []*Table {
			return []*Table{RunAblationReadRepair(p.Scaled(scale), seed)}
		}},
	{"window", "Ablation: the monitor's rate-estimation window under Harmony α=20%",
		[]Preset{g5kHarmony, ec2Harmony}, func(p Platform, scale float64, seed uint64) []*Table {
			return []*Table{RunAblationMonitorWindow(p.Scaled(scale), seed)}
		}},
	{"perkey", "Ablation: Harmony's aggregate estimator against the per-key refinement, α=20%",
		[]Preset{g5kHarmony, ec2Harmony}, func(p Platform, scale float64, seed uint64) []*Table {
			_, t := RunAblationPerKeyRates(p.Scaled(scale), 0.20, seed)
			return []*Table{t}
		}},
	{"targets", "Ablation: closest-replica reads against uniform random replica choice",
		[]Preset{g5kHarmony, ec2Harmony}, func(p Platform, scale float64, seed uint64) []*Table {
			return []*Table{RunAblationTargetPolicy(p.Scaled(scale), seed)}
		}},
	{"recovery", "Crash–recovery (PR 3): staleness and Harmony's read level across a replica crash, per engine",
		small("recovery", 12, 64, 12_000), func(p Platform, _ float64, seed uint64) []*Table {
			return []*Table{RunRecovery(p, seed)}
		}},
	{"elasticity", "Elasticity (PR 4): scaling M→M+2→M+1 under load, snapshot streaming and warming-aware routing",
		small("elasticity", 5, 48, 12_000), func(p Platform, _ float64, seed uint64) []*Table {
			_, t := RunElasticity(p, seed)
			return []*Table{t}
		}},
	{"autoscale", "Autoscale (PR 5): the provisioning optimizer enacting its plans against two static sizes",
		small("autoscale", 8, 112, 16_000), func(p Platform, _ float64, seed uint64) []*Table {
			_, t := RunAutoscale(p, seed)
			return []*Table{t}
		}},
	{"gossip", "Gossip membership (PR 7): SWIM dissemination against atomic placement under join, storm and flap",
		small("gossip", 6, 48, 12_000), func(p Platform, _ float64, seed uint64) []*Table {
			_, t := RunGossip(p, seed)
			return []*Table{t}
		}},
	{"hotkey", "Hot-key cache (PR 8): freshness-bounded coordinator reads and per-key levels under Zipfian traffic",
		small("hotkey", 6, 96, 15_000), func(p Platform, _ float64, seed uint64) []*Table {
			_, t := RunHotKey(p, seed)
			return []*Table{t}
		}},
	{"behavior", "Behaviour model (§III-C): a day traced, clustered into states and replayed under the runtime classifier",
		small("behavior", 12, 96, 29_000), func(p Platform, _ float64, seed uint64) []*Table {
			_, t := RunBehavior(p, seed)
			return []*Table{t}
		}},
	{"storage", "Storage cost (PR 10): pricing durability I/O, in the tuner and in engine provisioning",
		[]Preset{ec2Cost, g5kCost}, func(p Platform, scale float64, seed uint64) []*Table {
			_, t := RunStorageCost(p, scale, seed)
			return []*Table{t}
		}},
}

// FindStudy returns the study registered under name.
func FindStudy(name string) (Study, error) {
	for _, s := range Studies {
		if s.Name == name {
			return s, nil
		}
	}
	return Study{}, fmt.Errorf("unknown study %q (paperbench list names them)", name)
}

// Platform builds the preset registered under name; "" selects the
// study's default. A study without presets accepts only "" and returns
// the zero Platform, which its Run ignores.
func (s Study) Platform(name string) (Platform, error) {
	if len(s.Presets) == 0 {
		if name != "" {
			return Platform{}, fmt.Errorf("study %s builds its own deployment and takes no platform", s.Name)
		}
		return Platform{}, nil
	}
	for _, pr := range s.Presets {
		if name == "" || pr.Name == name {
			return pr.Platform(), nil
		}
	}
	return Platform{}, fmt.Errorf("study %s has no platform %q (it has %v)", s.Name, name, s.PresetNames())
}

// Scales reports whether Run heeds its scale: a study on a "small"
// preset or without presets runs one fixed size.
func (s Study) Scales() bool { return len(s.Presets) > 0 && s.Presets[0].Name != "small" }

// PresetNames lists the study's preset names, the default first.
func (s Study) PresetNames() []string {
	names := make([]string, len(s.Presets))
	for i, pr := range s.Presets {
		names[i] = pr.Name
	}
	return names
}
