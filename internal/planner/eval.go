package planner

import (
	"bytes"
	"encoding/binary"

	"repro/internal/plantree"
	"repro/internal/workflow"
)

// Evaluation is the fitness breakdown of one plan (Section 3.4.4).
type Evaluation struct {
	Fitness float64 // f  = wv*fv + wg*fg + wr*fr     (Equation 4)
	FV      float64 // fv = valid / executed          (Equation 1)
	FG      float64 // fg = goals met / goals, flow-averaged (Equation 2)
	FR      float64 // fr = 1 - size/Smax             (Equation 3)
	Size    int
	Flows   int // number of execution flows enumerated

	// Cost and Time are the flow-averaged nominal resource cost and run
	// time of the plan's valid activities, the quantities the MaxCost /
	// MaxTime constraint caps compare against.
	Cost float64
	Time float64
}

// defaultCacheLimit bounds the evaluation cache across long sweeps; past it,
// the oldest half of the entries is evicted.
const defaultCacheLimit = 1 << 17

// trieResetNodes bounds a simulator's state memo: an evaluation that starts
// with more states recorded than this clears the memo first. A larger memo
// binds less but raises the bytes allocated per GP run and the resident set.
const trieResetNodes = 1 << 12

// Evaluator scores plan trees against a planning problem. It caches
// per-tree results (selection duplicates individuals heavily) and
// pre-compiles the goal conditions.
type Evaluator struct {
	problem *workflow.Problem
	params  Params
	goal    *workflow.GoalCheck
	initial workflow.ItemList // the initial state, in name order
	// svcIndex maps a catalog service name to its dense index in services,
	// the key the simulators' state memos use.
	svcIndex map[string]int32
	services []*workflow.Service
	// sims holds one simulator per evaluation worker, kept for the
	// evaluator's life so each worker's state memo spans every tree it
	// scores; sims[0] serves Evaluate and the serial path.
	sims []*flowSim
	// cache is keyed by the hash of the tree's structural encoding (shape);
	// each entry keeps the encoding, so a hit is confirmed structurally and
	// a hash collision can never return another tree's result.
	cache    map[uint64]cacheEntry
	shapeBuf []byte // shape's scratch encoding
	// order lists the cached keys in insertion order, so trimming can evict
	// the oldest half instead of wiping the whole cache (a full wipe forces
	// the next generation to re-evaluate its entire population).
	order      []uint64
	cacheLimit int

	// Evaluations counts cache-missing evaluations performed.
	Evaluations int
}

// NewEvaluator builds an evaluator for the problem.
func NewEvaluator(problem *workflow.Problem, params Params) (*Evaluator, error) {
	if err := problem.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	services := problem.Catalog.Services()
	svcIndex := make(map[string]int32, len(services))
	for i, svc := range services {
		svcIndex[svc.Name] = int32(i)
	}
	ev := &Evaluator{
		problem:    problem,
		params:     params,
		goal:       problem.Goal.Check(),
		initial:    problem.Initial.Items(),
		svcIndex:   svcIndex,
		services:   services,
		cache:      make(map[uint64]cacheEntry),
		cacheLimit: defaultCacheLimit,
	}
	ev.simulators(1)
	return ev, nil
}

// simulators returns the first n per-worker simulators, creating any that
// do not exist yet. Call it before fanning work out to the workers.
func (ev *Evaluator) simulators(n int) []*flowSim {
	for len(ev.sims) < n {
		ev.sims = append(ev.sims, &flowSim{ev: ev})
	}
	return ev.sims[:n]
}

// takeSimCounts returns the precondition checks computed and answered from
// the memo by every simulator since the last call, and zeroes them.
func (ev *Evaluator) takeSimCounts() (binds, hits int64) {
	for _, fs := range ev.sims {
		binds += int64(fs.binds)
		hits += int64(fs.memoHits)
		fs.binds, fs.memoHits = 0, 0
	}
	return binds, hits
}

// cacheEntry is one cached evaluation with the structural encoding of the
// tree it belongs to.
type cacheEntry struct {
	shape []byte
	eval  Evaluation
}

// decisionPoint is one selective or iterative node, whose flow choice is
// enumerated.
type decisionPoint struct {
	node   *plantree.Node
	domain int // selective: child count; iterative: MaxLoopUnroll
}

// Evaluate scores the tree.
func (ev *Evaluator) Evaluate(tree *plantree.Node) Evaluation {
	key, shape := ev.shape(tree)
	if e, ok := ev.cached(key, shape); ok {
		return e
	}
	e := ev.sims[0].evaluate(tree)
	ev.Evaluations++
	ev.cacheAdd(key, shape, e)
	return e
}

// cached returns the cached evaluation of the tree with this shape and key.
func (ev *Evaluator) cached(key uint64, shape []byte) (Evaluation, bool) {
	c, ok := ev.cache[key]
	if !ok || !bytes.Equal(c.shape, shape) {
		return Evaluation{}, false
	}
	return c.eval, true
}

// cacheAdd stores one result and trims the cache if it outgrew the limit.
// On a hash collision the resident entry stays and the new tree goes
// uncached.
func (ev *Evaluator) cacheAdd(key uint64, shape []byte, e Evaluation) {
	if c, dup := ev.cache[key]; dup {
		if bytes.Equal(c.shape, shape) {
			ev.cache[key] = cacheEntry{shape: c.shape, eval: e}
		}
		return
	}
	ev.order = append(ev.order, key)
	ev.cache[key] = cacheEntry{shape: bytes.Clone(shape), eval: e}
	ev.trimCache()
}

// trimCache evicts the oldest half of the cache once it exceeds the limit,
// keeping the entries most likely to repeat (selection duplicates recent
// individuals, not ancient ones).
func (ev *Evaluator) trimCache() {
	if len(ev.cache) <= ev.cacheLimit {
		return
	}
	drop := len(ev.order) / 2
	for _, k := range ev.order[:drop] {
		delete(ev.cache, k)
	}
	n := copy(ev.order, ev.order[drop:])
	ev.order = ev.order[:n]
}

// shape encodes exactly what the simulator reads of a tree — per node in
// pre-order, the kind, child count and service length as uvarints, then the
// service — and returns the encoding with its 64-bit FNV-1a hash, the
// fitness-cache key. The encoding lives in a scratch buffer, valid until
// the next call; only the goroutine that owns the cache calls it.
func (ev *Evaluator) shape(tree *plantree.Node) (uint64, []byte) {
	ev.shapeBuf = appendShape(ev.shapeBuf[:0], tree)
	h := uint64(14695981039346656037)
	for _, b := range ev.shapeBuf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h, ev.shapeBuf
}

func appendShape(dst []byte, n *plantree.Node) []byte {
	dst = binary.AppendUvarint(dst, uint64(n.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
	dst = binary.AppendUvarint(dst, uint64(len(n.Service)))
	dst = append(dst, n.Service...)
	for _, c := range n.Children {
		dst = appendShape(dst, c)
	}
	return dst
}

// evaluate computes the fitness of the tree. A simulator is not safe for
// concurrent use; concurrent workers each use their own.
func (fs *flowSim) evaluate(tree *plantree.Node) Evaluation {
	ev := fs.ev
	size := tree.Size()
	fr := 1 - float64(size)/float64(ev.params.Smax)
	if fr < 0 {
		fr = 0
	}

	if len(fs.nodes) > trieResetNodes {
		fs.resetMemo()
	}
	if len(fs.nodes) == 0 {
		fs.nodes = append(fs.nodes, stateNode{edge: -1, met: -1})
	}
	fs.points = fs.points[:0]
	fs.collectPoints(tree)
	fs.odometer = append(fs.odometer[:0], make([]int, len(fs.points))...)
	totalValid, totalExecuted := 0, 0
	goalSum, costSum, timeSum := 0.0, 0.0, 0.0
	flows := 0
	for {
		fs.valid, fs.executed, fs.cost, fs.time = 0, 0, 0, 0
		fs.state = 0
		items := fs.run(tree, append(fs.items[:0], ev.initial...))
		fs.items = items
		totalValid += fs.valid
		totalExecuted += fs.executed
		goalSum += fs.goalFitness(items)
		costSum += fs.cost
		timeSum += fs.time
		flows++
		if flows >= ev.params.MaxFlows || !fs.advance() {
			break
		}
	}

	fv := 1.0
	if totalExecuted > 0 {
		fv = float64(totalValid) / float64(totalExecuted)
	}
	fg := goalSum / float64(flows)
	cost := costSum / float64(flows)
	nomTime := timeSum / float64(flows)
	// Budget/deadline constraints scale only the resource-preference slice
	// (wr*fr) of the fitness: over-cap plans lose preference proportionally
	// to how far they overshoot, but the validity and goal terms are never
	// discounted — a constraint must steer the search among enactable plans,
	// not make an invalid plan outrank a valid one.
	penalty := 1.0
	if ev.params.MaxCost > 0 && cost > ev.params.MaxCost {
		penalty *= ev.params.MaxCost / cost
	}
	if ev.params.MaxTime > 0 && nomTime > ev.params.MaxTime {
		penalty *= ev.params.MaxTime / nomTime
	}
	f := ev.params.WV*fv + ev.params.WG*fg + ev.params.WR*fr*penalty
	return Evaluation{Fitness: f, FV: fv, FG: fg, FR: fr, Size: size, Flows: flows, Cost: cost, Time: nomTime}
}

// goalFitness evaluates Equation 2 over the current state with the
// pre-compiled goal conditions, checked once per state: a condition is met
// if some data item, bound to the formal object G, satisfies it.
func (fs *flowSim) goalFitness(items workflow.ItemList) float64 {
	total := len(fs.ev.problem.Goal.Conditions)
	if total == 0 {
		return 1
	}
	st := &fs.nodes[fs.state]
	if st.met < 0 {
		st.met = int32(fs.ev.goal.Met(items))
	}
	return float64(st.met) / float64(total)
}

// flowSim simulates the execution flows of one plan (the validity simulation
// of Section 3.4.4): activities apply their service's pre- and
// postconditions to the metadata state; invalid activities count against fv
// and leave the state unchanged. The state is an append-only item list of
// read-only items (valid activities append their services' shared output
// templates), so a flow clones nothing. One flowSim serves every flow of
// every evaluation its worker runs: the binder, the item buffer, the
// decision points and the odometer are reused, and the counters reset per
// flow.
//
// A flow's item list is the initial state followed by the output templates
// of each valid activity in order, so it is a pure function of the sequence
// of services that ran validly, and so are a precondition check and the goal
// check over it. The simulator memoizes both in a trie keyed by that
// sequence: a state node records its goal-met count, and an edge (state,
// service) records whether the service binds there and, if it does, the
// state it leads to. Each check runs once per distinct state, and the memo
// is exact.
type flowSim struct {
	ev       *Evaluator
	binder   workflow.Binder
	items    workflow.ItemList // the previous flow's state, reused as a buffer
	points   []decisionPoint   // in pre-order
	odometer []int             // the current flow's decision per point
	valid    int
	executed int
	cost     float64 // nominal resource cost of valid activities
	time     float64 // nominal run time of valid activities

	nodes []stateNode // the state trie; nodes[0] is the initial state
	edges []stateEdge
	state int32 // the current flow's state node

	binds    int // precondition checks computed
	memoHits int // precondition checks answered by the memo
}

// stateNode is one simulated state in the trie.
type stateNode struct {
	edge int32 // first outgoing edge, -1 for none
	met  int32 // goal conditions met in this state, -1 until checked
}

// stateEdge is one memoized precondition check: service svc tried in the
// state that owns the edge.
type stateEdge struct {
	svc   int32 // dense service index
	next  int32 // the owning state's next edge, -1 for none
	child int32 // the state after the service ran; -1 when it does not bind
}

// resetMemo empties the state trie, keeping its storage.
func (fs *flowSim) resetMemo() {
	fs.nodes = fs.nodes[:0]
	fs.edges = fs.edges[:0]
}

// apply runs service svc in the current state: it reports whether the
// preconditions hold over items and, if they do, moves to the successor
// state. The binding search runs only the first time svc is tried in a
// state.
func (fs *flowSim) apply(svc int32, items workflow.ItemList) bool {
	for e := fs.nodes[fs.state].edge; e >= 0; e = fs.edges[e].next {
		if fs.edges[e].svc == svc {
			fs.memoHits++
			child := fs.edges[e].child
			if child < 0 {
				return false
			}
			fs.state = child
			return true
		}
	}
	fs.binds++
	child := int32(-1)
	if fs.binder.Bind(fs.ev.services[svc], items) {
		child = int32(len(fs.nodes))
		fs.nodes = append(fs.nodes, stateNode{edge: -1, met: -1})
	}
	fs.edges = append(fs.edges, stateEdge{svc: svc, next: fs.nodes[fs.state].edge, child: child})
	fs.nodes[fs.state].edge = int32(len(fs.edges) - 1)
	if child < 0 {
		return false
	}
	fs.state = child
	return true
}

// collectPoints records the tree's decision points in pre-order.
func (fs *flowSim) collectPoints(n *plantree.Node) {
	switch n.Kind {
	case plantree.KindSelective:
		if len(n.Children) > 1 {
			fs.points = append(fs.points, decisionPoint{n, len(n.Children)})
		}
	case plantree.KindIterative:
		if fs.ev.params.MaxLoopUnroll > 1 {
			fs.points = append(fs.points, decisionPoint{n, fs.ev.params.MaxLoopUnroll})
		}
	case plantree.KindConcurrent:
		// Concurrent children may run in any order; enumerating the
		// forward and reverse orders catches most order dependencies.
		if fs.ev.params.StrictConcurrency && len(n.Children) > 1 {
			fs.points = append(fs.points, decisionPoint{n, 2})
		}
	}
	for _, c := range n.Children {
		fs.collectPoints(c)
	}
}

// decision returns the current flow's choice at n (0 when n is not a
// decision point). A node reachable twice takes its last point's choice.
func (fs *flowSim) decision(n *plantree.Node) int {
	for i := len(fs.points) - 1; i >= 0; i-- {
		if fs.points[i].node == n {
			return fs.odometer[i]
		}
	}
	return 0
}

// advance increments the odometer; it reports false on wrap-around.
func (fs *flowSim) advance() bool {
	for i := len(fs.points) - 1; i >= 0; i-- {
		fs.odometer[i]++
		if fs.odometer[i] < fs.points[i].domain {
			return true
		}
		fs.odometer[i] = 0
	}
	return false
}

func (fs *flowSim) run(n *plantree.Node, items workflow.ItemList) workflow.ItemList {
	switch n.Kind {
	case plantree.KindActivity:
		fs.executed++
		idx, ok := fs.ev.svcIndex[n.Service]
		if !ok {
			return items // unknown service: invalid activity
		}
		if !fs.apply(idx, items) {
			return items
		}
		svc := fs.ev.services[idx]
		fs.valid++
		fs.cost += svc.Cost
		fs.time += svc.BaseTime
		return append(items, svc.OutputTemplates()...)

	case plantree.KindSequential:
		for _, c := range n.Children {
			items = fs.run(c, items)
		}
		return items

	case plantree.KindConcurrent:
		// Decision 0 runs the children left to right, decision 1 right to
		// left (StrictConcurrency); without strict mode only order 0 exists.
		if fs.decision(n) == 1 {
			for i := len(n.Children) - 1; i >= 0; i-- {
				items = fs.run(n.Children[i], items)
			}
			return items
		}
		for _, c := range n.Children {
			items = fs.run(c, items)
		}
		return items

	case plantree.KindSelective:
		if len(n.Children) == 0 {
			return items
		}
		pick := fs.decision(n)
		if pick >= len(n.Children) {
			pick = 0
		}
		return fs.run(n.Children[pick], items)

	case plantree.KindIterative:
		iters := fs.decision(n) + 1 // decision d means d+1 iterations
		for i := 0; i < iters; i++ {
			for _, c := range n.Children {
				items = fs.run(c, items)
			}
		}
		return items
	}
	return items
}
