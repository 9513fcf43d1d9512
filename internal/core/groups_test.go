package core

import (
	"testing"

	"corroborate/internal/truth"
)

func TestBuildGroupsMotivating(t *testing.T) {
	d := truth.MotivatingExample()
	groups := buildGroups(d)
	// Table 1 has 10 distinct vote signatures: r4=r10 and r7=r8 collapse.
	if len(groups) != 10 {
		t.Fatalf("got %d groups, want 10", len(groups))
	}
	total := 0
	sizes := make(map[string]int)
	for _, g := range groups {
		total += g.size()
		sizes[g.signature()] = g.size()
	}
	if total != d.NumFacts() {
		t.Errorf("groups cover %d facts, want %d", total, d.NumFacts())
	}
	if sizes[d.Signature(d.FactIndex("r7"))] != 2 {
		t.Error("r7/r8 group should have size 2")
	}
	if sizes[d.Signature(d.FactIndex("r4"))] != 2 {
		t.Error("r4/r10 group should have size 2")
	}
	// Ordinals follow first appearance: each group's first member comes
	// after the previous group's first member.
	for i, g := range groups {
		if g.ord != i {
			t.Fatalf("groups[%d].ord = %d", i, g.ord)
		}
		if i > 0 && groups[i-1].facts[0] >= g.facts[0] {
			t.Fatal("groups not in order of first appearance")
		}
	}
	// sortBySignature reorders and renumbers.
	sortBySignature(groups)
	for i, g := range groups {
		if g.ord != i {
			t.Fatalf("sorted groups[%d].ord = %d", i, g.ord)
		}
		if i > 0 && groups[i-1].signature() >= g.signature() {
			t.Fatal("groups not sorted by signature")
		}
	}
}

func TestGroupTake(t *testing.T) {
	g := &group{facts: []int{3, 5, 9}}
	got := g.take(2)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("take(2) = %v", got)
	}
	if g.size() != 1 {
		t.Errorf("size after take = %d", g.size())
	}
	// Taking more than available returns the remainder.
	got = g.take(10)
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("take(10) = %v", got)
	}
	if g.size() != 0 {
		t.Error("group should be exhausted")
	}
}

func TestGroupProb(t *testing.T) {
	d := truth.MotivatingExample()
	groups := buildGroups(d)
	trust := []float64{0.9, 0.9, 0.9, 0.9, 0.9}
	for _, g := range groups {
		p := g.prob(trust)
		sig := g.signature()
		switch sig {
		case d.Signature(d.FactIndex("r12")):
			if diff := p - (0.1+0.1+0.9)/3; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("prob(r12 group) = %v", p)
			}
		case d.Signature(d.FactIndex("r6")):
			if diff := p - 0.5; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("prob(r6 group) = %v, want 0.5", p)
			}
		default:
			if diff := p - 0.9; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("prob(%s) = %v, want 0.9", sig, p)
			}
		}
	}
}
