package planner

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/plantree"
	"repro/internal/virolab"
)

// mutateReference is Mutate as first written: it lists every node before
// drawing, so it is the draw-order and outcome reference for Mutate's lazy
// node list.
func mutateReference(rng *rand.Rand, tree *plantree.Node, services []string, rate float64, smax int) int {
	if rate <= 0 {
		return 0
	}
	applied := 0
	for _, loc := range tree.Nodes() {
		if rng.Float64() >= rate {
			continue
		}
		budget := smax - (tree.Size() - loc.Node.Size())
		if budget < 1 {
			continue
		}
		repl := plantree.Random(rng, services, budget)
		*loc.Node = *repl
		applied++
	}
	return applied
}

// TestMutateMatchesReference checks that Mutate leaves the same tree, applies
// the same number of mutations and leaves the random stream at the same
// point as mutateReference, over seeded random trees and rates from the
// Table-1 default to ones that hit several nodes (nested hits included).
func TestMutateMatchesReference(t *testing.T) {
	services := virolab.Catalog().Names()
	gen := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		smax := 5 + gen.Intn(40)
		tree := plantree.Random(gen, services, smax)
		rate := []float64{0.001, 0.05, 0.2, 0.6}[trial%4]
		seed := gen.Int63()
		got, want := tree.Clone(), tree.Clone()
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		n := Mutate(rngGot, got, services, rate, smax)
		m := mutateReference(rngWant, want, services, rate, smax)
		if n != m || !got.Equal(want) {
			t.Fatalf("trial %d (rate %g, smax %d) on %s:\n got %d %s\nwant %d %s", trial, rate, smax, tree, n, got, m, want)
		}
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("trial %d: next draw %d, reference %d", trial, a, b)
		}
	}
}

// TestSelectPopTakesEachTreeOnce checks that selection hands every slot of
// the next generation its own tree: first-time winners are taken, repeat
// winners cloned, so no two slots alias and each equals a parent tree.
func TestSelectPopTakesEachTreeOnce(t *testing.T) {
	for _, sel := range []SelectionScheme{SelectTournament, SelectRoulette} {
		p := DefaultParams()
		p.PopulationSize = 60
		p.Selection = sel
		gp, err := New(virolab.Problem(), p)
		if err != nil {
			t.Fatal(err)
		}
		pop := make([]Individual, p.PopulationSize)
		before := make([]*plantree.Node, len(pop))
		for i := range pop {
			pop[i].Tree = plantree.Random(gp.rng, gp.services, p.Smax)
			before[i] = pop[i].Tree.Clone()
		}
		gp.evaluateAll(context.Background(), pop)
		next := gp.selectPop(pop)
		seen := map[*plantree.Node]bool{}
		for i, ind := range next {
			if seen[ind.Tree] {
				t.Fatalf("selection %v: slot %d shares its tree with an earlier slot", sel, i)
			}
			seen[ind.Tree] = true
			found := false
			for _, b := range before {
				found = found || b.Equal(ind.Tree)
			}
			if !found {
				t.Fatalf("selection %v: slot %d tree %s is no parent's", sel, i, ind.Tree)
			}
		}
	}
}
