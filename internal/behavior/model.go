package behavior

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// State is one discovered application state with its associated policy.
type State struct {
	ID       int
	Name     string
	Centroid Features
	Policy   Policy
	RuleName string
	Periods  int // timeline periods assigned to this state
}

// Model is the fitted behaviour model: the clustering plus the
// state→policy association, ready for runtime classification.
type Model struct {
	PeriodLen  time.Duration
	Norm       Normalizer
	KM         *KMeans
	States     []State
	Silhouette float64
	Assign     []int // per-timeline-period state ids
}

// minStates and maxStates bound the number of states BuildModel explores.
const minStates, maxStates = 2, 6

// BuildModel runs the offline modeling process of §III-C: normalize the
// timeline's feature vectors, cluster them with k in [2, 6] selected by
// silhouette score (k-means seeded from seed), and associate each state
// with a policy via the rules engine.
func BuildModel(tl Timeline, seed uint64) (*Model, error) {
	if len(tl.Periods) < 2 {
		return nil, fmt.Errorf("behavior: timeline too short (%d periods)", len(tl.Periods))
	}
	points := make([][]float64, len(tl.Periods))
	raw := make([][]float64, len(tl.Periods))
	for i, p := range tl.Periods {
		raw[i] = p.Features.Vector()
	}
	norm := FitNormalizer(raw)
	for i := range raw {
		points[i] = norm.Apply(raw[i])
	}

	src := stats.NewSource(seed).Stream("behavior.kmeans")
	km, assign, score := SelectK(points, minStates, maxStates, src)

	rules := GenericRules()
	m := &Model{PeriodLen: tl.PeriodLen, Norm: norm, KM: km, Silhouette: score, Assign: assign}
	counts := make([]int, km.K)
	for _, a := range assign {
		counts[a]++
	}
	for i, c := range km.Centroids {
		f := featuresFromVector(norm.Restore(c))
		pol, rule := policyFor(f, rules)
		m.States = append(m.States, State{
			ID:       i,
			Name:     describeState(f),
			Centroid: f,
			Policy:   pol,
			RuleName: rule,
			Periods:  counts[i],
		})
	}
	return m, nil
}

// describeState produces a readable label from the centroid.
func describeState(f Features) string {
	var parts []string
	switch {
	case f.ReadRatio > 0.95:
		parts = append(parts, "read-only")
	case f.ReadRatio > 0.8:
		parts = append(parts, "read-mostly")
	case f.ReadRatio < 0.6:
		parts = append(parts, "update-heavy")
	default:
		parts = append(parts, "mixed")
	}
	if f.ReadAfterWrite > 0.15 {
		parts = append(parts, "raw-sensitive")
	}
	if f.KeySkew > 0.5 {
		parts = append(parts, "hot-keyed")
	}
	return strings.Join(parts, "/")
}

// Classify returns the state nearest to the features.
func (m *Model) Classify(f Features) *State {
	idx := m.KM.Assign(m.Norm.Apply(f.Vector()))
	return &m.States[idx]
}

// Describe renders the model for reports.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "behaviour model: %d states (silhouette %.3f, period %v)\n",
		len(m.States), m.Silhouette, m.PeriodLen)
	for _, s := range m.States {
		fmt.Fprintf(&b, "  state %d %-28s %4d periods  policy=%-18s rule=%s\n      centroid: %s\n",
			s.ID, s.Name, s.Periods, s.Policy.String(), s.RuleName, s.Centroid.String())
	}
	return b.String()
}
