package experiments

import (
	"os"
	"testing"
)

// Test scales keep the suite fast while preserving topology and pressure.
const testScale = 0.008

func TestExpA_Grid5000Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := G5KHarmony().Scaled(testScale)
	rows, table := RunExpA(p, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	assertExpAShape(t, rows)
}

func TestExpA_EC2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Harmony().Scaled(testScale)
	rows, table := RunExpA(p, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	assertExpAShape(t, rows)
}

// assertExpAShape checks the orderings the paper reports: Harmony cuts
// staleness massively versus eventual while beating strong throughput,
// and strong reads are never stale.
func assertExpAShape(t *testing.T, rows []ExpARow) {
	t.Helper()
	eventual, strong := rows[0], rows[1]
	if eventual.Throughput <= strong.Throughput {
		t.Errorf("eventual throughput %.0f should exceed strong %.0f",
			eventual.Throughput, strong.Throughput)
	}
	if strong.StaleRate != 0 {
		t.Errorf("strong (read ALL) must be fresh, got %.3f", strong.StaleRate)
	}
	for _, h := range rows[2:] {
		if h.StaleRate >= eventual.StaleRate {
			t.Errorf("%s: stale %.3f not below eventual %.3f", h.Approach, h.StaleRate, eventual.StaleRate)
		}
		if h.Throughput <= strong.Throughput {
			t.Errorf("%s: throughput %.0f not above strong %.0f", h.Approach, h.Throughput, strong.Throughput)
		}
		if h.AvgReadK <= 1.0-1e-9 || h.AvgReadK > 3.0 {
			t.Errorf("%s: avg read level %.2f outside [1, RF]", h.Approach, h.AvgReadK)
		}
	}
}

func TestExpB1CostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Cost().Scaled(testScale)
	rows, table := RunExpB1(p, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	if len(rows) != p.RF {
		t.Fatalf("want %d levels, got %d", p.RF, len(rows))
	}
	// Total cost must not decrease with stronger levels; staleness must
	// not increase.
	for i := 1; i < len(rows); i++ {
		if rows[i].Bill.Total() < rows[i-1].Bill.Total()*0.98 {
			t.Errorf("cost not monotone: %v $%.3f < %v $%.3f",
				rows[i].Level, rows[i].Bill.Total(), rows[i-1].Level, rows[i-1].Bill.Total())
		}
		if rows[i].StaleRate > rows[i-1].StaleRate+0.02 {
			t.Errorf("staleness not decreasing: %v %.3f > %v %.3f",
				rows[i].Level, rows[i].StaleRate, rows[i-1].Level, rows[i-1].StaleRate)
		}
	}
	one := rows[0]
	if one.RelToAll > 0.75 {
		t.Errorf("ONE should cut cost substantially vs ALL, got rel %.2f", one.RelToAll)
	}
	if one.StaleRate < 0.05 {
		t.Errorf("ONE at RF5 under heavy updates should be substantially stale, got %.3f", one.StaleRate)
	}
	quorum := rows[p.RF/2]
	if quorum.StaleRate != 0 {
		t.Errorf("QUORUM must read fresh, got %.3f", quorum.StaleRate)
	}
	if quorum.RelToAll >= 1.0 {
		t.Errorf("QUORUM should be cheaper than ALL, rel %.2f", quorum.RelToAll)
	}
}

func TestExpB2MetricShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Cost().Scaled(testScale)
	samples, table := RunExpB2Metric(p, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	for _, s := range samples {
		if s.Best && s.StaleRate > 0.25 {
			t.Errorf("most-efficient level %s (%s) has stale rate %.3f > 25%%",
				s.Level, s.Pattern, s.StaleRate)
		}
	}
}

func TestExpCBismarShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := G5KCost().Scaled(testScale)
	rows, table := RunExpC(p, testScale, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	var bismarRow, quorumRow, oneRow *ExpCRow
	for i := range rows {
		switch rows[i].Approach {
		case "bismar":
			bismarRow = &rows[i]
		case "static QUORUM":
			quorumRow = &rows[i]
		case "static ONE":
			oneRow = &rows[i]
		}
	}
	if bismarRow == nil || quorumRow == nil || oneRow == nil {
		t.Fatal("missing approaches in results")
	}
	if bismarRow.CostPerMops >= quorumRow.CostPerMops {
		t.Errorf("bismar $%.4f/Mops should undercut static QUORUM $%.4f/Mops",
			bismarRow.CostPerMops, quorumRow.CostPerMops)
	}
	if bismarRow.StaleRate > 0.15 {
		t.Errorf("bismar stale rate %.3f too high (paper: 3.5%%)", bismarRow.StaleRate)
	}
	if oneRow.CostPerMops >= quorumRow.CostPerMops {
		t.Errorf("static ONE should be the cheapest static level")
	}
	if oneRow.StaleRate <= bismarRow.StaleRate {
		t.Errorf("static ONE should be staler than bismar")
	}
}
