package plantree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Normalize is idempotent and preserves the leaf sequence.
func TestQuickNormalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64, sizeRaw uint8) bool {
		local := rand.New(rand.NewSource(seed))
		size := 1 + int(sizeRaw)%30
		tree := Random(local, services, size)
		leavesBefore := tree.Services()
		once := tree.Clone().Normalize()
		twice := once.Clone().Normalize()
		if !once.Equal(twice) {
			return false
		}
		leavesAfter := once.Services()
		if len(leavesBefore) != len(leavesAfter) {
			return false
		}
		for i := range leavesBefore {
			if leavesBefore[i] != leavesAfter[i] {
				return false
			}
		}
		return once.Size() <= tree.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Clone produces an equal tree whose mutation does not affect the
// original.
func TestQuickCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		tree := Random(local, services, 20)
		clone := tree.Clone()
		if !tree.Equal(clone) {
			return false
		}
		for _, leaf := range clone.Leaves() {
			leaf.Service = "MUTATED"
		}
		for _, leaf := range tree.Leaves() {
			if leaf.Service == "MUTATED" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: every node reported by Nodes() is reachable through its parent
// chain from the root, and pre-order positions are stable.
func TestQuickNodesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		tree := Random(local, services, 25)
		nodes := tree.Nodes()
		if len(nodes) != tree.Size() {
			return false
		}
		for i, loc := range nodes {
			if tree.At(i).Node != loc.Node {
				return false
			}
			if loc.Parent == nil {
				if loc.Node != tree {
					return false
				}
				continue
			}
			if loc.Parent.Children[loc.Index] != loc.Node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: ToProcess output always validates and has exactly one Begin and
// one End, with flow-control pairing counts matching the tree's controller
// census.
func TestQuickToProcessStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		tree := Random(local, services, 20)
		p, err := ToProcess("q", tree)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		// Count controllers that actually emit pairs (>= 2 children for
		// conc/sel; iter always emits).
		forks, sels, iters := 0, 0, 0
		for _, loc := range tree.Nodes() {
			switch loc.Node.Kind {
			case KindConcurrent:
				if len(loc.Node.Children) > 1 {
					forks++
				}
			case KindSelective:
				if len(loc.Node.Children) > 1 {
					sels++
				}
			case KindIterative:
				iters++
			}
		}
		join := 0
		choice := 0
		merge := 0
		for _, a := range p.Activities {
			switch a.Kind.String() {
			case "Join":
				join++
			case "Choice":
				choice++
			case "Merge":
				merge++
			}
		}
		return join == forks && choice == sels+iters && merge == sels+iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: At(i) is the i-th entry of Nodes() for every i, on seeded random
// trees of every size up to 60, and it panics out of range.
func TestAtMatchesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 300; trial++ {
		tree := Random(rng, services, 1+trial%60)
		nodes := tree.Nodes()
		for i, want := range nodes {
			if got := tree.At(i); got != want {
				t.Fatalf("tree %s: At(%d) = %+v, want %+v", tree, i, got, want)
			}
		}
		for _, i := range []int{-1, len(nodes)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("tree %s: At(%d) did not panic", tree, i)
					}
				}()
				tree.At(i)
			}()
		}
	}
}
