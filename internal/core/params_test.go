package core

import "testing"

func TestParseRules(t *testing.T) {
	var p Params
	if err := p.ParseRules("llb", "df", "lb0"); err != nil {
		t.Fatal(err)
	}
	if p.Selection != SelectLLB || p.Branching != BranchDF || p.Bound != BoundLB0 {
		t.Fatalf("parsed %+v", p)
	}
	if err := p.ParseRules("fifo", "bf1", "none"); err != nil {
		t.Fatal(err)
	}
	if p.Selection != SelectFIFO || p.Branching != BranchBF1 || p.Bound != BoundNone {
		t.Fatalf("parsed %+v", p)
	}
	for _, bad := range [][3]string{
		{"best", "bfn", "lb1"},
		{"lifo", "dfs", "lb1"},
		{"lifo", "bfn", "lb9"},
		{"LIFO", "bfn", "lb1"}, // names are case-sensitive
	} {
		if err := p.ParseRules(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}

	// "" is the paper's default, the zero value.
	p = Params{Selection: SelectFIFO, Branching: BranchBF1, Bound: BoundNone}
	if err := p.ParseRules("", "", ""); err != nil {
		t.Fatal(err)
	}
	if p.Selection != 0 || p.Branching != 0 || p.Bound != 0 {
		t.Fatalf(`"" parsed to %v/%v/%v, want the zero value`, p.Selection, p.Branching, p.Bound)
	}
}

// TestRuleNamesRoundTrip: each of the nine names prints back as itself,
// and a rule outside the named range has no name.
func TestRuleNamesRoundTrip(t *testing.T) {
	for _, sel := range []string{"lifo", "llb", "fifo"} {
		for _, br := range []string{"bfn", "df", "bf1"} {
			for _, bnd := range []string{"lb1", "lb0", "none"} {
				var p Params
				if err := p.ParseRules(sel, br, bnd); err != nil {
					t.Fatal(err)
				}
				gs, gb, gl, err := p.RuleNames()
				if err != nil {
					t.Fatal(err)
				}
				if gs != sel || gb != br || gl != bnd {
					t.Fatalf("%s/%s/%s printed as %s/%s/%s", sel, br, bnd, gs, gb, gl)
				}
			}
		}
	}
	for _, p := range []Params{
		{Selection: SelectionRule(3)},
		{Branching: BranchingRule(-1)},
		{Bound: BoundFunc(3)},
	} {
		if _, _, _, err := p.RuleNames(); err == nil {
			t.Errorf("named an out-of-range rule: %+v", p)
		}
	}
}
