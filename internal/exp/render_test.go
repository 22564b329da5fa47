package exp

import (
	"strings"
	"testing"
)

// TestTableOneRunPoint: a point holding one observation has no confidence
// half-width, so its mean cells print the mean alone; a point of several
// runs keeps "mean ±half-width".
func TestTableOneRunPoint(t *testing.T) {
	one := Point{X: 2, Runs: 1}
	one.Vertices.Add(10)
	one.Lateness.Add(-3)
	two := Point{X: 3, Runs: 2}
	for _, v := range []float64{10, 20} {
		two.Vertices.Add(v)
		two.Lateness.Add(v / 10)
	}
	fig := Figure{ID: "one-run", Title: "one-run", XLabel: "m",
		Series: []Series{{Variant: "v", Points: []Point{one, two}}}}
	table := fig.Table()
	if strings.Contains(table, "Inf") {
		t.Fatalf("table prints an infinite half-width:\n%s", table)
	}
	var oneRun, multiRun []string
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "2":
			oneRun = append(oneRun, strings.Join(f[1:], " "))
		case f[0] == "3":
			multiRun = append(multiRun, strings.Join(f[1:], " "))
		}
	}
	// Rows: vertex mean, vertex median, lateness mean, runs.
	if want := []string{"10", "10", "-3.00", "1 (0)"}; strings.Join(oneRun, "|") != strings.Join(want, "|") {
		t.Fatalf("one-run cells %q, want %q\n%s", oneRun, want, table)
	}
	if len(multiRun) != 4 || !strings.HasPrefix(multiRun[0], "15 ±") || !strings.HasPrefix(multiRun[2], "1.50 ±") {
		t.Fatalf("multi-run cells %q lost their half-widths\n%s", multiRun, table)
	}
}
