package platform

import (
	"testing"
)

func TestNew(t *testing.T) {
	p := New(3)
	if p.M != 3 || p.CommDelay != 1 {
		t.Fatalf("New(3) = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNewPanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	bad := []Platform{
		{M: 0, CommDelay: 1},
		{M: -2, CommDelay: 1},
		{M: 4, CommDelay: -1},
		{M: 500, CommDelay: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad platform #%d accepted: %+v", i, p)
		}
	}
}

func TestCommCost(t *testing.T) {
	p := New(4)
	if got := p.CommCost(1, 1, 50); got != 0 {
		t.Fatalf("co-located cost = %d, want 0", got)
	}
	if got := p.CommCost(1, 2, 50); got != 50 {
		t.Fatalf("cross cost = %d, want 50", got)
	}
	if got := p.CommCost(2, 1, 50); got != 50 {
		t.Fatalf("cost not symmetric: %d", got)
	}
	if got := p.CommCost(0, 3, 0); got != 0 {
		t.Fatalf("zero-size message cost = %d, want 0", got)
	}

	slow := Platform{M: 2, CommDelay: 3}
	if got := slow.CommCost(0, 1, 7); got != 21 {
		t.Fatalf("delay scaling: got %d, want 21", got)
	}
	if got := slow.MessageCost(7); got != 21 {
		t.Fatalf("MessageCost = %d, want 21", got)
	}
}

func TestClasses(t *testing.T) {
	cases := []struct {
		name string
		p    Platform
		want []int
	}{
		{"homogeneous", New(3), []int{0, 0, 0}},
		{"homogeneous beyond 64 processors", New(100), make([]int, 100)},
		{"speeds", Platform{M: 4, CommDelay: 1, Speed: []float64{2, 1, 2, 0.5}}, []int{0, 1, 0, 2}},
		// Task 0 may run on processors 0 and 2, task 1 on every one: the
		// columns of 0 and 2 match, 1 and 3 match.
		{"affinity", Platform{M: 4, CommDelay: 1, Affinity: []uint64{0b0101, 0b1111}}, []int{0, 1, 0, 1}},
		{"speeds and affinity", Platform{M: 4, CommDelay: 1, Speed: []float64{1, 1, 2, 2}, Affinity: []uint64{0b0101, 0b1111}}, []int{0, 1, 2, 3}},
	}
	for _, c := range cases {
		got := c.p.Classes()
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d classes for %d processors", c.name, len(got), c.p.M)
		}
		for q := range got {
			if got[q] != c.want[q] {
				t.Errorf("%s: Classes() = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}
