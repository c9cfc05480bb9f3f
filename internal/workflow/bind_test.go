package workflow_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// refBind is the interpreted reference binder: every condition is evaluated
// by expr.Node.Eval over a workflow.Binding whose formals hold the inputs
// bound so far, distinct items are tracked by pointer, and items are tried
// in list order. The compiled binding core must agree with it exactly.
func refBind(s *workflow.Service, items workflow.ItemList) (map[string]*workflow.DataItem, bool) {
	chosen := map[string]*workflow.DataItem{}
	used := map[*workflow.DataItem]bool{}
	env := workflow.Binding{Formals: chosen, Base: items}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(s.Inputs) {
			return true
		}
		p := s.Inputs[i]
		cond, err := expr.Parse(p.Condition)
		if err != nil {
			return false
		}
		for _, it := range items {
			if used[it] {
				continue
			}
			chosen[p.Name] = it
			if cond.Eval(env) {
				used[it] = true
				if rec(i + 1) {
					return true
				}
				used[it] = false
			}
			delete(chosen, p.Name)
		}
		return false
	}
	if rec(0) {
		return chosen, true
	}
	return nil, false
}

// refGoalMet is the interpreted reference goal check: a condition is met if
// some item, bound to G, satisfies it; unparsable conditions never are.
func refGoalMet(conditions []string, items workflow.ItemList) int {
	met := 0
	for _, src := range conditions {
		node, err := expr.Parse(src)
		if err != nil {
			continue
		}
		for _, it := range items {
			if node.Eval(workflow.Binding{Formals: map[string]*workflow.DataItem{"G": it}, Base: items}) {
				met++
				break
			}
		}
	}
	return met
}

// equivalenceServices is the virolab catalog plus hand-written services
// covering the condition shapes the paper's C1-C8 do not: disjunction and
// negation, ref-vs-ref comparisons, numeric coercion, a reference to a
// formal not yet bound (it falls back to the item of that name), and a
// reference to a concrete item name.
func equivalenceServices() []*workflow.Service {
	svcs := virolab.Catalog().Services()
	return append(svcs,
		&workflow.Service{Name: "OrNot", Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "3D Model" or A.Classification = "Orientation File"`},
			{Name: "B", Condition: `not (B.Classification = "2D Image") and B.Creator != "User"`},
		}},
		&workflow.Service{Name: "Bigger", Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Size > 0`},
			{Name: "B", Condition: `B.Size > A.Size`},
		}},
		&workflow.Service{Name: "Coerce", Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.value = 8`},
			{Name: "B", Condition: `B.value <= "9.5" and B.value >= A.value`},
		}},
		&workflow.Service{Name: "Forward", Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `A.Classification = "3D Model" and B.Classification = "2D Image"`},
			{Name: "B", Condition: `B.Classification = A.Classification`},
		}},
		&workflow.Service{Name: "Named", Inputs: []workflow.ParamSpec{
			{Name: "A", Condition: `D1.Classification = "POD-Parameter" and A.Classification = "3D Model"`},
			{Name: "B", Condition: `B.Classification = "3D Model" and D7.Size > 1000`},
			{Name: "C", Condition: `C.Classification = "Resolution File" or D12.value < 9`},
		}},
	)
}

// equivalenceGoals are goal conditions over the same shapes, plus one that
// does not parse.
var equivalenceGoals = []string{
	`G.Classification = "Resolution File"`,
	`G.value < 10 or G.Size > 5e8`,
	`not (G.Classification = "2D Image") and G.Creator = "P3DR"`,
	`D1.Classification = "POD-Parameter" and G.Creator = "PSF"`,
	`G.value = "8"`,
	`B.Classification = "3D Model" and G.Classification = B.Classification`,
	`(((`,
}

// itemPool draws list members: the virolab initial data, every service's
// shared output template, and hand-made items whose names collide with
// formals (A, B) and with Cons1's D12, carrying numbers as numbers and as
// text.
func itemPool() (pool []*workflow.DataItem, templates map[*workflow.DataItem]bool) {
	pool = virolab.InitialData()
	templates = map[*workflow.DataItem]bool{}
	for _, s := range equivalenceServices() {
		for _, t := range s.OutputTemplates() {
			pool = append(pool, t)
			templates[t] = true
		}
	}
	pool = append(pool,
		workflow.NewDataItem("A", "3D Model").With(workflow.PropSize, expr.Number(10)),
		workflow.NewDataItem("B", "2D Image").With(workflow.PropSize, expr.String("20")),
		workflow.NewDataItem("D12", "Resolution File").With(workflow.PropValue, expr.String("8")),
		workflow.NewDataItem("R1", "Resolution File").With(workflow.PropValue, expr.Number(9.5)),
		workflow.NewDataItem("R2", "Resolution File").With(workflow.PropValue, expr.Number(8)),
		workflow.NewDataItem("M1", "3D Model").With(workflow.PropSize, expr.Number(7e8)).
			With(workflow.PropCreator, expr.String("P3DR")),
	)
	return pool, templates
}

// drawLists returns one random item list in two forms: shared, where
// template picks are the one shared template item (so a template drawn
// twice appears twice by pointer, as in the planner's simulator), and
// distinct, where every entry is its own copy (as in enactment and in the
// reference, which tracks distinctness by pointer).
func drawLists(rng *rand.Rand, pool []*workflow.DataItem, templates map[*workflow.DataItem]bool) (shared, distinct workflow.ItemList) {
	n := rng.Intn(14)
	for i := 0; i < n; i++ {
		it := pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 && len(shared) > 0 {
			it = shared[rng.Intn(len(shared))] // an exact repeat
		}
		if !templates[it] && rng.Intn(2) == 0 {
			it = it.Clone() // a repeated name with its own identity
		}
		shared = append(shared, it)
		distinct = append(distinct, it.Clone())
	}
	return shared, distinct
}

// TestCompiledBindingMatchesInterpreted checks the compiled binding core
// against the interpreted reference over seeded random item lists: the same
// found/not-found verdict, the same chosen binding, and the same number of
// goal conditions met.
func TestCompiledBindingMatchesInterpreted(t *testing.T) {
	svcs := equivalenceServices()
	for _, s := range svcs {
		if err := s.Validate(); err != nil {
			t.Fatalf("service %s: %v", s.Name, err)
		}
	}
	pool, templates := itemPool()
	goal := workflow.NewGoal(equivalenceGoals...)
	literal := workflow.Goal{Conditions: equivalenceGoals} // compiled on demand
	var b workflow.Binder
	found := map[string]int{}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		shared, distinct := drawLists(rng, pool, templates)
		pos := map[*workflow.DataItem]int{}
		for i, it := range distinct {
			pos[it] = i
		}
		for _, s := range svcs {
			want, wantOK := refBind(s, distinct)
			got, gotOK := s.BindItems(distinct)
			if gotOK != wantOK {
				t.Fatalf("trial %d %s over %v: compiled found=%v, interpreted %v", trial, s.Name, distinct, gotOK, wantOK)
			}
			for f, it := range want {
				if got[f] != it {
					t.Fatalf("trial %d %s: formal %s bound to %v, interpreted chose %v", trial, s.Name, f, got[f], it)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: binding %v, interpreted %v", trial, s.Name, got, want)
			}
			// Over the shared list distinctness is positional: the verdict
			// and every chosen position's item must match the reference
			// run over the distinct copies.
			sharedGot, sharedOK := s.BindItems(shared)
			if sharedOK != wantOK || b.Bind(s, shared) != wantOK {
				t.Fatalf("trial %d %s over shared %v: found=%v, interpreted %v", trial, s.Name, shared, sharedOK, wantOK)
			}
			for f, it := range want {
				if sharedGot[f] != shared[pos[it]] {
					t.Fatalf("trial %d %s: shared formal %s bound to %v, want position %d", trial, s.Name, f, sharedGot[f], pos[it])
				}
			}
			if wantOK {
				found[s.Name]++
			}
		}
		want := refGoalMet(equivalenceGoals, distinct)
		if got := goal.Check().Met(distinct); got != want {
			t.Fatalf("trial %d goal over %v: met %d, interpreted %d", trial, distinct, got, want)
		}
		if got := literal.Check().Met(shared); got != want {
			t.Fatalf("trial %d goal over shared %v: met %d, interpreted %d", trial, shared, got, want)
		}
	}
	// Every service must bind somewhere, or the comparison proves little.
	for _, s := range svcs {
		if found[s.Name] == 0 {
			t.Errorf("service %s never bound in any trial", s.Name)
		}
	}
}

// TestPositionalDistinctness pins the case the shared templates make
// possible: PSF needs two different 3D models, and one shared template item
// listed twice offers exactly two.
func TestPositionalDistinctness(t *testing.T) {
	cat := virolab.Catalog()
	psf := cat.Get("PSF")
	model := cat.Get("P3DR").OutputTemplates()[0]
	param := workflow.NewDataItem("D6", "PSF-Parameter")
	var b workflow.Binder
	if b.Bind(psf, workflow.ItemList{param, model}) {
		t.Fatal("PSF bound with a single 3D model")
	}
	if !b.Bind(psf, workflow.ItemList{param, model, model}) {
		t.Fatal("PSF did not bind the 3D model template listed twice")
	}
	// The reference agrees once the two occurrences are separate items.
	if _, ok := refBind(psf, workflow.ItemList{param, model, model.Clone()}); !ok {
		t.Fatal("interpreted reference rejects two distinct 3D models")
	}
}

// TestGoalSatisfiedMatchesInterpreted checks Goal.Satisfied over states.
func TestGoalSatisfiedMatchesInterpreted(t *testing.T) {
	pool, _ := itemPool()
	goal := workflow.NewGoal(equivalenceGoals...)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		st := workflow.NewState()
		for i, n := 0, rng.Intn(10); i < n; i++ {
			it := pool[rng.Intn(len(pool))].Clone()
			if rng.Intn(3) > 0 {
				it.Name = fmt.Sprintf("%s-%d", it.Name, i)
			}
			st.Put(it)
		}
		met, total := goal.Satisfied(st)
		if want := refGoalMet(equivalenceGoals, st.Items()); met != want || total != len(equivalenceGoals) {
			t.Fatalf("trial %d over %v: Satisfied = %d/%d, interpreted %d/%d", trial, st, met, total, want, len(equivalenceGoals))
		}
	}
}

// TestGoalCheckFollowsEdits: a goal whose conditions are edited in place
// after NewGoal compiled them is answered from the edited conditions.
func TestGoalCheckFollowsEdits(t *testing.T) {
	goal := workflow.NewGoal(`G.Classification = "3D Model"`)
	st := workflow.NewState(workflow.NewDataItem("D7", "2D Image"))
	if met, _ := goal.Satisfied(st); met != 0 {
		t.Fatalf("met = %d before the edit, want 0", met)
	}
	goal.Conditions[0] = `G.Classification = "2D Image"`
	if met, _ := goal.Satisfied(st); met != 1 {
		t.Fatalf("met = %d after the edit, want 1", met)
	}
}
