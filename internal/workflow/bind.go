package workflow

import (
	"fmt"
	"slices"

	"repro/internal/expr"
)

// The binding core shared by the planner's fitness simulator and enactment.
//
// A service's input conditions are compiled once into slot-indexed
// predicates. A reference to a formal parameter that is already bound when
// the condition is checked becomes an index into the binder's slot slice; a
// literal is kept as a ready value; any other reference (a concrete item
// name such as D1, or a formal bound only later) is looked up by name in the
// item list, exactly as the interpreted Binding environment falls back to
// its base. The search then runs over list positions with a reusable
// Binder, so checking a precondition allocates nothing.

// argKind discriminates a compiled comparison operand.
type argKind uint8

const (
	argLit  argKind = iota // a literal value
	argSlot                // a property of the item bound to a formal slot
	argName                // a property of the first list item with that name
)

// arg is one compiled comparison operand.
type arg struct {
	kind argKind
	slot int
	obj  string
	prop string
	lit  expr.Value
}

func compileArg(o expr.Operand, slotOf func(obj string) int) arg {
	if !o.IsRef {
		return arg{kind: argLit, lit: o.Lit}
	}
	if s := slotOf(o.Ref.Obj); s >= 0 {
		return arg{kind: argSlot, slot: s, prop: o.Ref.Prop}
	}
	return arg{kind: argName, obj: o.Ref.Obj, prop: o.Ref.Prop}
}

func (a *arg) value(slots []*DataItem, items ItemList) (expr.Value, bool) {
	switch a.kind {
	case argSlot:
		return slots[a.slot].Prop(a.prop)
	case argName:
		return items.Lookup(a.obj, a.prop)
	}
	return a.lit, true
}

// predKind discriminates a compiled condition node.
type predKind uint8

const (
	predCmp predKind = iota
	predAnd
	predOr
	predNot
	predConst
)

// pred is a condition compiled against a fixed list of formal slots. It is
// immutable once built and safe for concurrent evaluation.
type pred struct {
	kind  predKind
	op    expr.Op
	l, r  arg
	terms []pred // and/or terms; the single operand of not
	val   bool   // const
}

// compilePred lowers a parsed condition. slotOf maps an object name to its
// formal slot, or to -1 for a name looked up in the item list.
func compilePred(n expr.Node, slotOf func(obj string) int) (pred, error) {
	switch n := n.(type) {
	case *expr.Cmp:
		return pred{kind: predCmp, op: n.Op, l: compileArg(n.Left, slotOf), r: compileArg(n.Right, slotOf)}, nil
	case *expr.And:
		return compileTerms(predAnd, n.Terms, slotOf)
	case *expr.Or:
		return compileTerms(predOr, n.Terms, slotOf)
	case *expr.Not:
		return compileTerms(predNot, []expr.Node{n.Term}, slotOf)
	case *expr.Const:
		return pred{kind: predConst, val: n.Val}, nil
	}
	return pred{}, fmt.Errorf("workflow: cannot compile condition node %T", n)
}

func compileTerms(kind predKind, nodes []expr.Node, slotOf func(obj string) int) (pred, error) {
	p := pred{kind: kind, terms: make([]pred, len(nodes))}
	for i, t := range nodes {
		var err error
		if p.terms[i], err = compilePred(t, slotOf); err != nil {
			return pred{}, err
		}
	}
	return p, nil
}

// parsePred parses and compiles one condition source.
func parsePred(src string, slotOf func(obj string) int) (pred, error) {
	node, err := expr.Parse(src)
	if err != nil {
		return pred{}, err
	}
	return compilePred(node, slotOf)
}

// eval evaluates the predicate with the formal slots bound to slots and
// name references resolved in items. The semantics are those of
// expr.Node.Eval: a comparison over a missing property is false.
func (p *pred) eval(slots []*DataItem, items ItemList) bool {
	switch p.kind {
	case predCmp:
		l, ok := p.l.value(slots, items)
		if !ok {
			return false
		}
		r, ok := p.r.value(slots, items)
		return ok && p.op.Holds(l, r)
	case predAnd:
		for i := range p.terms {
			if !p.terms[i].eval(slots, items) {
				return false
			}
		}
		return true
	case predOr:
		for i := range p.terms {
			if p.terms[i].eval(slots, items) {
				return true
			}
		}
		return false
	case predNot:
		return !p.terms[0].eval(slots, items)
	}
	return p.val
}

// serviceCore is a service's compiled form, built once on first use.
type serviceCore struct {
	// conds[i] checks input i with formals 0..i bound to slots 0..i; a
	// reference to a later formal falls back to the item list, as it does
	// in the interpreted search where that formal is not yet bound.
	conds []pred
	err   error // duplicate formal or invalid condition: never applicable

	// templates holds one immutable item per output spec, named
	// "<service>.<formal>" with the Creator property stamped.
	templates []*DataItem
}

// core compiles the service once. Services are shared by concurrent
// dispatch batches and planner workers, so the fill is synchronized. The
// specs must not change after the service is first used.
func (s *Service) core() *serviceCore {
	s.once.Do(func() { s.compiled = s.compileCore() })
	return s.compiled
}

func (s *Service) compileCore() *serviceCore {
	c := &serviceCore{templates: make([]*DataItem, len(s.Outputs))}
	for i, o := range s.Outputs {
		t := &DataItem{Name: s.Name + "." + o.Name, Props: make(map[string]expr.Value, len(o.Props)+1)}
		for k, v := range o.Props {
			t.Props[k] = v
		}
		if _, ok := t.Props[PropCreator]; !ok {
			t.Props[PropCreator] = expr.String(s.Name)
		}
		c.templates[i] = t
	}
	c.conds = make([]pred, len(s.Inputs))
	for i := range s.Inputs {
		p := &s.Inputs[i]
		for j := 0; j < i; j++ {
			if s.Inputs[j].Name == p.Name {
				c.err = fmt.Errorf("workflow: service %s has duplicate input %s", s.Name, p.Name)
				return c
			}
		}
		bound := s.Inputs[:i+1]
		slotOf := func(obj string) int {
			for j := range bound {
				if bound[j].Name == obj {
					return j
				}
			}
			return -1
		}
		var err error
		if c.conds[i], err = parsePred(p.Condition, slotOf); err != nil {
			c.err = fmt.Errorf("workflow: service %s input %s: %w", s.Name, p.Name, err)
			return c
		}
	}
	return c
}

// OutputTemplates returns one shared item per output spec, carrying the
// spec's properties with Creator stamped. The planner's simulator appends
// them to its read-only state directly; they must not be modified. Produce
// returns mutable copies.
func (s *Service) OutputTemplates() []*DataItem { return s.core().templates }

// Binder is reusable scratch for the binding search: one slot per formal
// parameter and one used flag per item-list position. Distinctness is
// positional, so a list holding the same shared item twice offers two
// distinct candidates, as two separately produced items would. The zero
// Binder is ready to use; it is not safe for concurrent use.
type Binder struct {
	slots []*DataItem
	used  []bool
}

// Bind reports whether the service's preconditions hold over items: whether
// some assignment of distinct list positions to the input parameters
// satisfies every condition. Items are tried in list order, so the result is
// deterministic.
func (b *Binder) Bind(s *Service, items ItemList) bool {
	c := s.core()
	if c.err != nil {
		return false
	}
	if cap(b.slots) < len(c.conds) {
		b.slots = make([]*DataItem, len(c.conds))
	}
	b.slots = b.slots[:len(c.conds)]
	if cap(b.used) < len(items) {
		b.used = make([]bool, len(items), 2*len(items))
	}
	b.used = b.used[:len(items)]
	clear(b.used)
	return b.search(c.conds, 0, items)
}

func (b *Binder) search(conds []pred, i int, items ItemList) bool {
	if i == len(conds) {
		return true
	}
	for j, it := range items {
		if b.used[j] {
			continue
		}
		b.slots[i] = it
		if conds[i].eval(b.slots, items) {
			b.used[j] = true
			if b.search(conds, i+1, items) {
				return true
			}
			b.used[j] = false
		}
	}
	return false
}

// GoalCheck is a goal's conditions compiled for the binding core: each
// condition binds the formal object G to one slot. It is immutable and safe
// for concurrent use.
type GoalCheck struct {
	src   []string // a private copy of the sources, for compiledFor
	conds []pred
}

// goalSlot binds the goal formal G to slot 0.
func goalSlot(obj string) int {
	if obj == "G" {
		return 0
	}
	return -1
}

func compileGoal(conditions []string) *GoalCheck {
	g := &GoalCheck{src: slices.Clone(conditions), conds: make([]pred, len(conditions))}
	for i, src := range conditions {
		p, err := parsePred(src, goalSlot)
		if err != nil {
			p = pred{kind: predConst, val: false} // never met
		}
		g.conds[i] = p
	}
	return g
}

// compiledFor reports whether g was compiled from exactly conditions.
func (g *GoalCheck) compiledFor(conditions []string) bool {
	return g != nil && slices.Equal(g.src, conditions)
}

// Met returns how many goal conditions hold over items: a condition holds
// if at least one item, bound to G, satisfies it.
func (g *GoalCheck) Met(items ItemList) int {
	var slot [1]*DataItem
	met := 0
	for i := range g.conds {
		for _, it := range items {
			slot[0] = it
			if g.conds[i].eval(slot[:], items) {
				met++
				break
			}
		}
	}
	return met
}
