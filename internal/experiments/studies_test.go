package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// smallPlatform is the named phase study's test-scale deployment.
func smallPlatform(t *testing.T, study string) Platform {
	t.Helper()
	s, err := FindStudy(study)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Platform("small")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenTables is the sha-256 of the rendered tables of one run of a
// study on its default preset at testScale, by "study/seed": a table is
// a pure function of (study, platform, scale, seed), whatever the
// worker-pool width and whatever harness the study's script stands on.
// The values were first computed on commit 43609a9, before the studies
// moved onto the rig — behavior's on the commit that added it, fig1's on
// commit ad0d385, before it moved onto the rig. EXPERIMENTS.md lists the
// entries that moved since, and why, and those added later.
var goldenTables = map[string]string{
	"recovery/1":     "aea4a53d467bf8396c98bbdfbc43193bcf25d544bca498294d8213940f94b532",
	"recovery/7":     "fe192cd65a48b1a43dc81ebaa915132cde057bafe6817584841b35519d34b830",
	"elasticity/1":   "e9d4a5ff63c8bd8dd29723980d3148e4f32a8f92489eee6073b0c523bb9bdc52",
	"elasticity/7":   "44b0086196b892d67b8a009385e6652cc48fe861b3bd670b7a41c0d69a273843",
	"gossip/1":       "8c921978cb97daea55a9061b5eb2babde6fd30c9e9334f5bf9800e7a47da0598",
	"gossip/7":       "359dc5b921c90e443697b84d1f0a8775e02914aa5a095ca101a579033c21232e",
	"hotkey/1":       "3b267f972b7377d5c703eb2901494000eef88d35c1814d532c83e34260593081",
	"hotkey/7":       "e12c52515e8d2315a6ed8afffd174efe7dfbf78ad3fd3baafac85c4ce22d1990",
	"autoscale/1":    "64ce16b908e52d94407f49af64a1e92880074c5710895edf3a4c13787d5d7506",
	"autoscale/7":    "9c34acf9c35182fc94cbda27bbb2d533aa8f457da443897e351b19fcde3d8bf7",
	"behavior/1":     "015a8e578bf15af17ad162b37dd820f747a394ef9ce63b9b3399e8c04d8d3a9d",
	"behavior/7":     "40bee873faca16ce3f49799cc7512773f935d2ee5a8b09f3de266259f15dbae4",
	"bismar/7":       "f20ef5823b8f2851d1f29d38a6925a5310dbff0f61c07092e11d8fae59c099f1",
	"harmony/7":      "f02ebf991cf0b10f95603917a2ecdabb5eb491e5a1c763efda32c8d07a571b1a",
	"storage/7":      "d7464c02a1fa14b713210303d7393a2a636684795fbd0d1aa820a19ba8b733d9",
	"provisioning/7": "8dafd756327d26f4a3930920900bd58b68110947102c30b3106c460de4699c81",
	"freshness/7":    "e11ed6fff7d420ed6c585a0ab636ab3b482fcacf7b16cf4211904376ccc8db7c",
	"targets/7":      "c01b447a08f08089965342b7acb55963f52950d8b0b023df5294c445527e748f",
	"readrepair/7":   "120d6a76a7dcfe4b58876c580bcaeaf76679fab92ebbeadeb1fa0f8ad15fe1cb",
	"fig1/1":         "5d6ca4f4cf8c2fc4b9ddc0097ee80580366bb574bc53f9bd5a46edf552f8201a",
	"fig1/7":         "d6e5dc6c01fc0bd653a9345bc154cc05e4327c4d07ece3737dc0022421a83af9",
}

// checkGolden compares what one run of study at seed rendered with its
// entry in goldenTables. When a change means to alter a table, the
// failure prints the new hash and the table.
func checkGolden(t *testing.T, study string, seed uint64, tables ...*Table) {
	t.Helper()
	var sb strings.Builder
	for _, tbl := range tables {
		tbl.Render(&sb)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	key := fmt.Sprintf("%s/%d", study, seed)
	if got, want := hex.EncodeToString(sum[:]), goldenTables[key]; got != want {
		t.Errorf("%s: table hash = %s, want %s; the table now renders as:\n%s", key, got, want, sb.String())
	}
}

// sharedSeed7 names the studies whose seed-7 run a shape test shares
// (harmonySeed7, bismarSeed7): the platform the shared run uses, which
// must be the study's default preset, and its table.
var sharedSeed7 = map[string]struct {
	platform string
	table    func() *Table
}{
	"harmony": {G5KHarmony().Name, func() *Table { _, t := harmonySeed7(); return t }},
	"bismar":  {G5KCost().Name, func() *Table { _, t := bismarSeed7(); return t }},
}

// TestStudyTablesGolden replays the seed-7 entries of goldenTables
// through the registry, except that harmony and bismar read the run
// their shape tests share. The seed-1 entries are checked where that
// run already happens: TestRecoveryStudyShape, TestElasticityStudy,
// TestGossipStudy, TestHotKeyStudy, TestAutoscaleStudy and
// TestBehaviorStudy hash the table whose outcomes they assert on;
// TestFig1Golden checks both fig1 entries.
// TestExpA_Grid5000Shape and TestExpCBismarShape also hash the seed-7
// harmony and bismar tables.
func TestStudyTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments; skipped with -short")
	}
	for _, study := range []string{"recovery", "elasticity", "gossip", "hotkey", "autoscale",
		"behavior", "bismar", "harmony", "storage", "provisioning", "freshness", "targets", "readrepair"} {
		s, err := FindStudy(study)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(study+"/7", func(t *testing.T) {
			p, err := s.Platform("")
			if err != nil {
				t.Fatal(err)
			}
			if shared, ok := sharedSeed7[study]; ok {
				if p.Name != shared.platform {
					t.Fatalf("default preset %s, but the shared run uses %s", p.Name, shared.platform)
				}
				checkGolden(t, study, 7, shared.table())
				return
			}
			checkGolden(t, study, 7, s.Run(p, testScale, 7)...)
		})
	}
}

// claimTests names, for each study without a goldenTables entry, the
// test that asserts the claim its table supports (EXPERIMENTS.md's study
// audit lists both kinds of check).
var claimTests = map[string]func(*testing.T){
	"cost":       TestExpB1CostShape,
	"efficiency": TestExpB2MetricShape,
	"digest":     TestAblationDigestReadsCutsTraffic,
	"perkey":     TestAblationPerKeyHoldsLowerLevels,
}

// TestStudiesRegistry: every study is listed once under a name of its
// own, is checked by a golden table or a named claim test, and every
// preset builds a deployment the store accepts; a name the registry
// does not know is an error rather than a default.
func TestStudiesRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Studies {
		if s.Name == "" || s.Name == "list" || s.Doc == "" || s.Run == nil {
			t.Errorf("study %+v: needs a name other than the list command, a doc line and a Run", s)
		}
		if seen[s.Name] {
			t.Errorf("study %s registered twice", s.Name)
		}
		seen[s.Name] = true
		if _, pinned := goldenTables[s.Name+"/7"]; !pinned && claimTests[s.Name] == nil {
			t.Errorf("study %s has neither a goldenTables entry nor a claim test: nothing would catch its table regressing", s.Name)
		}

		presets := map[string]bool{}
		for _, name := range s.PresetNames() {
			if presets[name] {
				t.Errorf("%s: preset %s listed twice", s.Name, name)
			}
			presets[name] = true
			p, err := s.Platform(name)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			rg := newRig(p, 1, nil, nil)
			if n, rf := len(rg.cl.Members()), rg.cl.RF(); n != p.Nodes || rf != p.RF || rf > n {
				t.Errorf("%s/%s: the store came up with %d members at RF %d, the preset says %d at RF %d",
					s.Name, name, n, rf, p.Nodes, p.RF)
			}
		}
		def, err := s.Platform("")
		if err != nil {
			t.Fatalf("%s: default preset: %v", s.Name, err)
		}
		if len(s.Presets) > 0 && def.Name != s.Presets[0].Platform().Name {
			t.Errorf("%s: default preset is %s, not the first listed", s.Name, def.Name)
		}
		if _, err := s.Platform("no-such-platform"); err == nil {
			t.Errorf("%s: an unknown preset name must be an error", s.Name)
		}
	}
	for name := range claimTests {
		if !seen[name] {
			t.Errorf("claimTests names %s, which is not a study", name)
		}
	}
	if _, err := FindStudy("no-such-study"); err == nil {
		t.Error("an unknown study name must be an error")
	}
}
