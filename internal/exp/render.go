package exp

import (
	"fmt"
	"math"
	"strings"
)

// Table renders the figure as two aligned text tables — generated vertices
// (the paper's upper plots) and maximum task lateness (the lower plots) —
// with the confidence-interval half-widths used by the stop rule, plus an
// active-set table when any variant recorded one.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)

	section := func(title string, cell func(Point) string) {
		fmt.Fprintf(&b, "\n  %s\n", title)
		fmt.Fprintf(&b, "  %-14s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %20s", s.Variant)
		}
		b.WriteString("\n")
		if len(f.Series) == 0 {
			return
		}
		for j := range f.Series[0].Points {
			fmt.Fprintf(&b, "  %-14.3g", f.Series[0].Points[j].X)
			for _, s := range f.Series {
				fmt.Fprintf(&b, " %20s", cell(s.Points[j]))
			}
			b.WriteString("\n")
		}
	}

	label := func(override, fallback string) string {
		if override != "" {
			return override
		}
		return fallback
	}
	vlab := label(f.VertexLabel, "generated vertices")
	section(vlab+" (mean ±90% CI)", func(p Point) string {
		m, h := p.Vertices.MeanCI(0.90)
		return meanCell(m, h, 0)
	})
	section(vlab+" (median)", func(p Point) string {
		return fmt.Sprintf("%.0f", p.Vertices.Median())
	})
	section(label(f.LatenessLabel, "max task lateness")+" (mean ±95% CI)", func(p Point) string {
		m, h := p.Lateness.MeanCI(0.95)
		return meanCell(m, h, 2)
	})

	hasAS := false
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.MaxAS.Max() > 0 {
				hasAS = true
			}
		}
	}
	if hasAS {
		section(label(f.ASLabel, "active-set high-water mark")+" (mean)", func(p Point) string {
			return fmt.Sprintf("%.0f", p.MaxAS.Mean())
		})
	}

	hasFailed := false
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Failed > 0 {
				hasFailed = true
			}
		}
	}
	section(label(f.RunsLabel, "runs (censored)"), func(p Point) string {
		cell := fmt.Sprintf("%d (%d)", p.Runs, p.Censored)
		if hasFailed {
			cell += fmt.Sprintf(" %df", p.Failed)
		}
		return cell
	})
	return b.String()
}

// meanCell renders a table cell's mean and confidence half-width with prec
// decimals. A point of fewer than two observations has no half-width
// (stats.Sample.CI is +Inf there) and prints its mean alone.
func meanCell(m, h float64, prec int) string {
	if math.IsInf(h, 1) {
		return fmt.Sprintf("%.*f", prec, m)
	}
	return fmt.Sprintf("%.*f ±%.*f", prec, m, prec, h)
}

// Distribution renders per-variant log-decade histograms of the generated
// vertices at one sweep position — the regime split (ties vs contested
// monsters) at a glance.
func (f Figure) Distribution(idx int) string {
	var b strings.Builder
	if len(f.Series) == 0 || idx < 0 || idx >= len(f.Series[0].Points) {
		return ""
	}
	fmt.Fprintf(&b, "%s — vertex distribution at %s=%g\n", f.ID, f.XLabel, f.Series[0].Points[idx].X)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s:\n%s", s.Variant, s.Points[idx].Vertices.LogHistogram().Bars())
	}
	return b.String()
}

// CSV renders the figure as one CSV block: a row per (variant, x) with all
// aggregates, suitable for external plotting.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,variant,x,runs,censored,failed,vertices_mean,vertices_ci90,lateness_mean,lateness_ci95,maxas_mean\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			vm, vh := p.Vertices.MeanCI(0.90)
			lm, lh := p.Lateness.MeanCI(0.95)
			fmt.Fprintf(&b, "%s,%s,%g,%d,%d,%d,%.2f,%.2f,%.3f,%.3f,%.1f\n",
				f.ID, s.Variant, p.X, p.Runs, p.Censored, p.Failed, vm, vh, lm, lh, p.MaxAS.Mean())
		}
	}
	return b.String()
}

// SeriesByName returns the named series and whether it exists.
func (f Figure) SeriesByName(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Variant == name {
			return s, true
		}
	}
	return Series{}, false
}

// PairedVertexRatios returns the per-instance ratios vertices(a)/vertices(b)
// at sweep position idx. Pairing relies on both variants having retained
// every run (the runner feeds all variants the same graphs in the same
// order); censoring breaks the alignment and yields an error.
func (f Figure) PairedVertexRatios(a, b string, idx int) ([]float64, error) {
	sa, oka := f.SeriesByName(a)
	sb, okb := f.SeriesByName(b)
	if !oka || !okb {
		return nil, fmt.Errorf("exp: unknown series %q/%q in %s", a, b, f.ID)
	}
	if idx < 0 || idx >= len(sa.Points) || idx >= len(sb.Points) {
		return nil, fmt.Errorf("exp: sweep index %d out of range", idx)
	}
	pa, pb := sa.Points[idx], sb.Points[idx]
	if pa.Censored > 0 || pb.Censored > 0 {
		return nil, fmt.Errorf("exp: censored runs break per-instance pairing (%d/%d)", pa.Censored, pb.Censored)
	}
	va, vb := pa.Vertices.Values(), pb.Vertices.Values()
	if len(va) != len(vb) {
		return nil, fmt.Errorf("exp: unpaired sample sizes %d vs %d", len(va), len(vb))
	}
	out := make([]float64, len(va))
	for i := range va {
		if vb[i] == 0 {
			return nil, fmt.Errorf("exp: zero vertices for %q in run %d", b, i)
		}
		out[i] = va[i] / vb[i]
	}
	return out, nil
}

// VertexRatio returns, per sweep position, the ratio of mean generated
// vertices between two named variants (a/b) — the quantity the paper's
// order-of-magnitude claims are about.
func (f Figure) VertexRatio(a, b string) ([]float64, error) {
	sa, oka := f.SeriesByName(a)
	sb, okb := f.SeriesByName(b)
	if !oka || !okb {
		return nil, fmt.Errorf("exp: unknown series %q/%q in %s", a, b, f.ID)
	}
	if len(sa.Points) != len(sb.Points) {
		return nil, fmt.Errorf("exp: series %q and %q have different sweeps", a, b)
	}
	out := make([]float64, len(sa.Points))
	for i := range sa.Points {
		den := sb.Points[i].Vertices.Mean()
		if den == 0 {
			return nil, fmt.Errorf("exp: zero mean vertices for %q at x=%v", b, sb.Points[i].X)
		}
		out[i] = sa.Points[i].Vertices.Mean() / den
	}
	return out, nil
}
