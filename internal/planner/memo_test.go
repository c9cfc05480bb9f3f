package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/plantree"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// referenceEvaluate is the memo-free fitness simulation: every flow walks
// the tree from the initial state with a plain Binder and GoalCheck, looking
// each service up in the catalog. The state-memoized simulator must return
// exactly this Evaluation.
func referenceEvaluate(problem *workflow.Problem, params Params, tree *plantree.Node) Evaluation {
	type point struct {
		node   *plantree.Node
		domain int
	}
	var points []point
	var collect func(n *plantree.Node)
	collect = func(n *plantree.Node) {
		switch {
		case n.Kind == plantree.KindSelective && len(n.Children) > 1:
			points = append(points, point{n, len(n.Children)})
		case n.Kind == plantree.KindIterative && params.MaxLoopUnroll > 1:
			points = append(points, point{n, params.MaxLoopUnroll})
		case n.Kind == plantree.KindConcurrent && params.StrictConcurrency && len(n.Children) > 1:
			points = append(points, point{n, 2})
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(tree)
	odometer := make([]int, len(points))
	decision := func(n *plantree.Node) int {
		for i := len(points) - 1; i >= 0; i-- {
			if points[i].node == n {
				return odometer[i]
			}
		}
		return 0
	}

	var binder workflow.Binder
	valid, executed := 0, 0
	cost, nomTime := 0.0, 0.0
	var run func(n *plantree.Node, items workflow.ItemList) workflow.ItemList
	run = func(n *plantree.Node, items workflow.ItemList) workflow.ItemList {
		switch n.Kind {
		case plantree.KindActivity:
			executed++
			svc := problem.Catalog.Get(n.Service)
			if svc == nil || !binder.Bind(svc, items) {
				return items
			}
			valid++
			cost += svc.Cost
			nomTime += svc.BaseTime
			return append(items, svc.OutputTemplates()...)
		case plantree.KindConcurrent:
			if decision(n) == 1 {
				for i := len(n.Children) - 1; i >= 0; i-- {
					items = run(n.Children[i], items)
				}
				return items
			}
		case plantree.KindSelective:
			pick := decision(n)
			if pick >= len(n.Children) {
				pick = 0
			}
			return run(n.Children[pick], items)
		case plantree.KindIterative:
			for i := 0; i < decision(n); i++ {
				for _, c := range n.Children {
					items = run(c, items)
				}
			}
		}
		for _, c := range n.Children {
			items = run(c, items)
		}
		return items
	}

	goal := problem.Goal.Check()
	total := len(problem.Goal.Conditions)
	totalValid, totalExecuted, flows := 0, 0, 0
	goalSum, costSum, timeSum := 0.0, 0.0, 0.0
	for {
		valid, executed, cost, nomTime = 0, 0, 0, 0
		items := run(tree, problem.Initial.Items())
		totalValid += valid
		totalExecuted += executed
		if total == 0 {
			goalSum++
		} else {
			goalSum += float64(goal.Met(items)) / float64(total)
		}
		costSum += cost
		timeSum += nomTime
		flows++
		if flows >= params.MaxFlows {
			break
		}
		i := len(points) - 1
		for ; i >= 0; i-- {
			odometer[i]++
			if odometer[i] < points[i].domain {
				break
			}
			odometer[i] = 0
		}
		if i < 0 {
			break
		}
	}

	size := tree.Size()
	fr := max(1-float64(size)/float64(params.Smax), 0)
	fv := 1.0
	if totalExecuted > 0 {
		fv = float64(totalValid) / float64(totalExecuted)
	}
	fg := goalSum / float64(flows)
	c := costSum / float64(flows)
	tm := timeSum / float64(flows)
	penalty := 1.0
	if params.MaxCost > 0 && c > params.MaxCost {
		penalty *= params.MaxCost / c
	}
	if params.MaxTime > 0 && tm > params.MaxTime {
		penalty *= params.MaxTime / tm
	}
	f := params.WV*fv + params.WG*fg + params.WR*fr*penalty
	return Evaluation{Fitness: f, FV: fv, FG: fg, FR: fr, Size: size, Flows: flows, Cost: c, Time: tm}
}

// syntheticProblem covers condition shapes the virolab catalog lacks:
// disjunction and negation, references to concrete item names (present and
// absent), ref-vs-ref comparisons and a precondition-free service, with
// goals over the same shapes.
func syntheticProblem() *workflow.Problem {
	out := func(class string, value float64) []workflow.OutputSpec {
		return []workflow.OutputSpec{{Name: "O", Props: map[string]expr.Value{
			workflow.PropClassification: expr.String(class),
			"value":                     expr.Number(value),
		}}}
	}
	in := func(conds ...string) []workflow.ParamSpec {
		specs := make([]workflow.ParamSpec, len(conds))
		for i, c := range conds {
			specs[i] = workflow.ParamSpec{Name: string(rune('A' + i)), Condition: c}
		}
		return specs
	}
	svcs := []*workflow.Service{
		{Name: "Grow", Inputs: in(`A.Classification = "Seed"`),
			Outputs: out("Part", 5), Cost: 1, BaseTime: 10},
		{Name: "Join", Inputs: in(
			`A.Classification = "Part" or A.Classification = "Seed"`,
			`not (B.Classification = "Image") and B.value > A.value`),
			Outputs: out("Whole", 9), Cost: 2.5, BaseTime: 7},
		{Name: "Named", Inputs: in(
			`D1.Classification = "Seed" and A.Classification = "Whole"`,
			`B.Classification = "Part" and D7.Size > 1000`),
			Outputs: out("Result", 2), Cost: 4, BaseTime: 30},
		{Name: "Twin", Inputs: in(
			`A.Classification = "Part"`,
			`B.Classification = A.Classification`),
			Outputs: out("Result", 1), Cost: 0.5, BaseTime: 3},
		{Name: "Finish", Inputs: in(`A.Classification = "Result" or D12.value < 9`),
			Outputs: out("Final", 12), Cost: 1, BaseTime: 1},
		{Name: "Free", Outputs: out("Part", 1), Cost: 0.25, BaseTime: 2},
	}
	return &workflow.Problem{
		Name: "synthetic",
		Initial: workflow.NewState(
			workflow.NewDataItem("D1", "Seed").With("value", expr.Number(3)),
			workflow.NewDataItem("D2", "Seed").With("value", expr.Number(8)),
			workflow.NewDataItem("D7", "Image").With(workflow.PropSize, expr.Number(2000)),
		),
		Goal: workflow.NewGoal(
			`G.Classification = "Result"`,
			`G.Classification = "Final" and G.Creator = "Finish"`,
			`not (G.Classification = "Seed") and G.value >= 9`,
		),
		Catalog: workflow.NewCatalog(svcs...),
	}
}

// TestMemoizedEvaluationMatchesReference checks that the state-memoized
// simulator returns exactly the memo-free reference Evaluation on seeded
// random trees, for both catalogs (tree leaves may also name a service the
// catalog lacks), with strict concurrency on and off, loop unrolling 1-3,
// and a flow cap small enough to truncate. Each evaluator scores every tree
// on several simulators, so memos built by other trees are exercised, and
// the last case scores enough distinct states to reset a memo mid-run.
func TestMemoizedEvaluationMatchesReference(t *testing.T) {
	problems := []*workflow.Problem{virolab.Problem(), syntheticProblem()}
	for pi, problem := range problems {
		services := append(problem.Catalog.Names(), "Ghost")
		for _, strict := range []bool{true, false} {
			for unroll := 1; unroll <= 3; unroll++ {
				for _, flows := range []int{3, 32} {
					p := DefaultParams()
					p.StrictConcurrency, p.MaxLoopUnroll, p.MaxFlows = strict, unroll, flows
					if flows == 3 {
						p.MaxCost, p.MaxTime = 3, 20
					}
					name := fmt.Sprintf("%s/strict=%v/unroll=%d/flows=%d", problem.Name, strict, unroll, flows)
					t.Run(name, func(t *testing.T) {
						checkAgainstReference(t, problem, p, services, int64(100*pi+unroll), 150)
					})
				}
			}
		}
	}
	t.Run("reset", func(t *testing.T) {
		p := DefaultParams()
		p.MaxLoopUnroll = 3
		problem := syntheticProblem()
		resets := checkAgainstReference(t, problem, p, problem.Catalog.Names(), 7, 600)
		if resets == 0 {
			t.Fatalf("no simulator memo passed %d states; the reset path went unchecked", trieResetNodes)
		}
	})
}

// checkAgainstReference scores n seeded random trees on three simulators
// of one evaluator, twice each, against referenceEvaluate, and returns how
// many evaluations started by resetting a memo.
func checkAgainstReference(t *testing.T, problem *workflow.Problem, p Params, services []string, seed int64, n int) (resets int) {
	t.Helper()
	ev, err := NewEvaluator(problem, p)
	if err != nil {
		t.Fatal(err)
	}
	sims := ev.simulators(3)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tree := plantree.Random(rng, services, p.Smax)
		want := referenceEvaluate(problem, p, tree)
		for pass := 0; pass < 2; pass++ {
			sim := sims[(i+pass)%len(sims)]
			if len(sim.nodes) > trieResetNodes {
				resets++
			}
			if got := sim.evaluate(tree); got != want {
				t.Fatalf("tree %d %s (pass %d):\n got %+v\nwant %+v", i, tree, pass, got, want)
			}
		}
	}
	return resets
}
