package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/httpapi"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// ingestRate is the ingest workload's fixed Poisson arrival rate (tasks per
// second), well under what one free client connection sustains (~300/s).
const ingestRate = 100

// ingestPDL is the one-activity task of cmd/gridload's live mode.
const ingestPDL = `BEGIN, POD(D1, D7 -> D8), END`

// ingestGoal is the goal POD can meet: its output D8 is an orientation
// file. (cmd/gridload's live task asks for a "Density Map", which no
// service produces; its tasks end "succeeded" with the goal unmet.)
const ingestGoal = `G.Classification = "Orientation File"`

// ingestTenants is the ingest tenant mix, drawn 3:1:1.
var ingestTenants = []struct {
	id    string
	share int
}{{"alpha", 3}, {"beta", 1}, {"gamma", 1}}

// The plan workload's seed-1 reference: what the Table-1 GP with seed 1
// returns for the virolab case. Every plan must reproduce it exactly.
const (
	planRefFitness = 0.9175
	planRefTree    = "(seq POD (iter POD P3DR (iter P3DR POD) PSF))"
)

// resource names one kind of asynchronous HTTP resource the workloads
// submit and follow to a terminal state.
type resource struct {
	path string // collection path; an item is path + "/" + id
	kind string // span kind whose event marks the terminal state
	// firstCheck is how long after submission the first GET goes out when
	// no event has arrived; later fallback GETs back off up to maxCheck.
	firstCheck, maxCheck time.Duration
	// stuckAfter gives up on an operation never seen terminal.
	stuckAfter time.Duration
}

var (
	tasks = resource{path: "/api/v1/tasks", kind: "task",
		firstCheck: 50 * time.Millisecond, maxCheck: time.Second, stuckAfter: 30 * time.Second}
	// A Table-1 plan takes ~8 s, so its fallback GETs start well after that.
	plans = resource{path: "/api/v1/plans", kind: "plan",
		firstCheck: 15 * time.Second, maxCheck: 5 * time.Second, stuckAfter: 60 * time.Second}
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	res  resource
	// durable puts the store on the file backend in a fresh directory;
	// otherwise it is gridenv's default mem: backend.
	durable bool
	// window > 0 makes each client a closed loop keeping that many
	// operations outstanding; window == 0 makes one open-loop client.
	window int
	// closedClients caps the closed-loop clients (0 = as many as the
	// connection budget allows).
	closedClients int
	// rate is the open loop's arrival rate per second.
	rate float64
	// warmup runs before the measured phase so caches fill.
	warmup time.Duration
	// scrape is the operator scrape interval (0 = none).
	scrape time.Duration
	// body builds the submission for an operation.
	body func(id, tenant string) ([]byte, error)
	// check judges a terminal view: ok, or the failure reason and whether
	// the program claimed a success its output does not bear out;
	// checkDesc says what it checks.
	check     func(v *view) (ok bool, reason string, wrong bool)
	checkDesc string
}

// view is the union of the task and plan views the workloads read.
type view struct {
	httpapi.TaskView
	Eval *struct {
		Fitness, FV, FG, Cost, Time float64
	} `json:"eval"`
	Tree        string     `json:"tree"`
	Started     *time.Time `json:"startedAt"`
	Finished    *time.Time `json:"finishedAt"`
	Evaluations int        `json:"evaluations"`
	Generations int        `json:"generations"`
}

func (v *view) terminal() bool {
	switch v.Status {
	case "succeeded", "failed", "cancelled":
		return true
	}
	return false
}

var workloads = map[string]*workload{
	"enact": {
		name: "enact", res: tasks,
		window: 4, warmup: 2 * time.Second,
		body:      taskBody(virolab.PDLSource, virolab.GoalCondition),
		check:     finalDataCheck("D12", "Resolution File"),
		checkDesc: "succeeded, goal met, Resolution File D12 (or re-planned equivalent) in finalData",
	},
	"ingest":         ingest("ingest", false),
	"ingest-durable": ingest("ingest-durable", true),
	"plan": {
		name: "plan", res: plans,
		window: 1, closedClients: 1,
		body:      planBody,
		check:     planCheck,
		checkDesc: "validity 1, goal 1, fitness and tree equal to the seed-1 reference",
	},
}

// ingest is the open-loop workload on the mem: or the file: store.
func ingest(name string, durable bool) *workload {
	return &workload{
		name: name, res: tasks, durable: durable,
		rate: ingestRate, warmup: 2 * time.Second, scrape: time.Second,
		body:      taskBody(ingestPDL, ingestGoal),
		check:     finalDataCheck("D8", "Orientation File"),
		checkDesc: "succeeded, goal met, Orientation File D8 in finalData",
	}
}

// initialData is virolab's D1-D7 in the submission format.
func initialData() []httpapi.DataItemJSON {
	var out []httpapi.DataItemJSON
	for _, d := range virolab.InitialData() {
		it := httpapi.DataItemJSON{Name: d.Name, Classification: d.Classification()}
		for k, v := range d.Props {
			if k == workflow.PropClassification {
				continue
			}
			if v.Kind() == expr.KindNumber {
				if it.Props == nil {
					it.Props = map[string]float64{}
				}
				it.Props[k], _ = v.Num()
				continue
			}
			if it.TextProps == nil {
				it.TextProps = map[string]string{}
			}
			it.TextProps[k] = v.Str()
		}
		out = append(out, it)
	}
	return out
}

func taskBody(pdl, goal string) func(id, tenant string) ([]byte, error) {
	data := initialData()
	return func(id, tenant string) ([]byte, error) {
		return json.Marshal(httpapi.TaskSubmission{
			ID: id, Name: id, PDL: pdl, InitialData: data,
			Goal: []string{goal}, Tenant: tenant,
		})
	}
}

func planBody(id, _ string) ([]byte, error) {
	return json.Marshal(httpapi.PlanSubmission{
		ID: id, InitialData: initialData(),
		Goal: []string{virolab.GoalCondition}, NoCache: true,
	})
}

// finalDataCheck accepts a succeeded task that met its goal and holds a
// data item of the given classification: the named item, or, when a fault
// re-plan replaced the process, an item the new plan named.
func finalDataCheck(item, class string) func(v *view) (bool, string, bool) {
	want := "{Classification=" + class + ","
	return func(v *view) (bool, string, bool) {
		if v.Status != "succeeded" {
			return false, "ended " + v.Status + ": " + firstLine(v.Error), false
		}
		if !v.Completed || v.GoalFitness != 1 {
			return false, "ended succeeded with the goal unmet", false
		}
		for _, d := range v.FinalData {
			name, _, _ := strings.Cut(d, "{")
			if strings.Contains(d, want) && (name == item || v.Replans > 0) {
				return true, "", false
			}
		}
		return false, "goal met but no " + item + " " + class + " in finalData", true
	}
}

// planCheck accepts a valid, goal-meeting plan equal to the seed-1
// reference.
func planCheck(v *view) (bool, string, bool) {
	switch {
	case v.Status != "succeeded":
		return false, "ended " + v.Status + ": " + firstLine(v.Error), false
	case v.Eval == nil || v.Eval.FV != 1 || v.Eval.FG != 1:
		return false, "plan invalid or goal unmet", true
	case v.Eval.Fitness != planRefFitness || v.Tree != planRefTree:
		return false, fmt.Sprintf("plan differs from the seed-1 reference: fitness %v tree %s", v.Eval.Fitness, v.Tree), true
	}
	return true, "", false
}

func firstLine(s string) string {
	s, _, _ = strings.Cut(s, "\n")
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// idSource draws operation IDs from the workload seed.
type idSource struct {
	rng    *rand.Rand
	prefix string
	seen   map[string]bool
}

func newIDSource(seed int64, prefix string) *idSource {
	return &idSource{rng: rand.New(rand.NewSource(seed)), prefix: prefix, seen: map[string]bool{}}
}

func (s *idSource) next() string {
	for {
		id := fmt.Sprintf("%s-%012x", s.prefix, s.rng.Int63()&(1<<48-1))
		if !s.seen[id] {
			s.seen[id] = true
			return id
		}
	}
}

// arrival is one scheduled open-loop submission.
type arrival struct {
	at     time.Duration // offset from the loop start
	id     string
	tenant string
}

// arrivals draws a Poisson schedule at rate per second over span, with
// tenants drawn by share and IDs from the same seeded stream.
func arrivals(seed int64, rate float64, span time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	ids := newIDSource(seed^0x1d5, "in")
	total := 0
	for _, t := range ingestTenants {
		total += t.share
	}
	var out []arrival
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= span {
			return out
		}
		pick := rng.Intn(total)
		tenant := ""
		for _, t := range ingestTenants {
			if pick < t.share {
				tenant = t.id
				break
			}
			pick -= t.share
		}
		out = append(out, arrival{at: at, id: ids.next(), tenant: tenant})
	}
}
