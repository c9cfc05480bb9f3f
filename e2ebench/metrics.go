package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count, percentile caveats
}

// report collects metrics in print order; NaN values are left out.
type report []metric

func (r *report) add(name, unit string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	*r = append(*r, metric{name: name, unit: unit, value: v, note: note})
}

// median adds d's median with its sample count.
func (r *report) median(name, unit string, d *dist) {
	r.add(name, unit, d.median(), fmt.Sprintf("n=%d", d.n()))
}

// tail adds d's q-quantile under the percentile rule: it is left out when
// fewer than minBeyond samples lie beyond it.
func (r *report) tail(name, unit string, d *dist, q float64) {
	v, ok := d.tail(q)
	if !ok {
		return
	}
	r.add(name, unit, v, fmt.Sprintf("n=%d", d.n()))
}

func (r report) get(name string) (metric, bool) {
	for _, m := range r {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// perOp divides by the operation count, NaN for none.
func perOp(x float64, ops int) float64 {
	if ops == 0 {
		return math.NaN()
	}
	return x / float64(ops)
}

// opsPerSecond is the measured operations that succeeded per second, from
// the start of the measured phase to the last of them.
func (res *phaseResult) opsPerSecond() float64 {
	span := res.rec.lastDone.Sub(res.measure).Seconds()
	if res.rec.ok == 0 || span <= 0 {
		return math.NaN()
	}
	return float64(res.rec.ok) / span
}

func (res *phaseResult) cpuMSPerOp() float64 {
	return perOp(ms(res.to.cpu-res.from.cpu), res.rec.ok)
}

// endToEnd is what a user of the system sees.
func endToEnd(res *phaseResult) report {
	var r report
	r.add("setup_s", "s", res.setup.median(), fmt.Sprintf("median of %d set-ups", res.setup.n()))
	r.add("ops_per_s", "1/s", res.opsPerSecond(), fmt.Sprintf("n=%d", res.rec.ok))
	r.median("latency_p50_ms", "ms", &res.rec.latency)
	r.tail("latency_p99_ms", "ms", &res.rec.latency, 0.99)
	r.median("admit_p50_ms", "ms", &res.rec.admit)
	r.tail("admit_p99_ms", "ms", &res.rec.admit, 0.99)
	r.add("error_rate", "ratio", res.rec.tally.errorRate(),
		fmt.Sprintf("%d of %d", res.rec.tally.failed(), res.rec.tally.attempted))
	r.add("success_ratio", "ratio", 1-res.rec.tally.errorRate(), "")
	r.median("sim_makespan_s", "s", &res.rec.simTime)
	r.median("sim_cost", "cost", &res.rec.simCost)
	r.add("alloc_kb_per_op", "KiB", perOp(rtDelta(res, "/gc/heap/allocs:bytes")/1024, res.rec.ok), "")
	r.add("cpu_ms_per_op", "ms", res.cpuMSPerOp(), "")
	r.add("peak_rss_mb", "MiB", res.peakRSS, "")
	r.add("grid.quarantined_nodes", "count", float64(res.to.reg.Counters["monitoring.quarantines"]),
		"nodes taken out of rotation for good since set-up")
	return r
}

// rtDelta is the change of a scalar runtime metric over the measured phase.
func rtDelta(res *phaseResult, name string) float64 {
	return rtValue(res.to.rt, name) - rtValue(res.from.rt, name)
}

func rtValue(s []metrics.Sample, name string) float64 {
	for _, m := range s {
		if m.Name != name {
			continue
		}
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
	}
	return math.NaN()
}

// histQuantile is the q-quantile of the change of a runtime histogram over
// the measured phase, as the upper bound of the bucket holding it.
func histQuantile(from, to []metrics.Sample, name string, q float64) float64 {
	var a, b *metrics.Float64Histogram
	for i := range to {
		if to[i].Name == name && to[i].Value.Kind() == metrics.KindFloat64Histogram {
			b = to[i].Value.Float64Histogram()
			a = from[i].Value.Float64Histogram()
		}
	}
	if a == nil || b == nil {
		return math.NaN()
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return math.NaN()
	}
	var seen uint64
	for i, c := range delta {
		seen += c
		if float64(seen) >= q*float64(total) {
			if up := b.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return b.Buckets[i]
		}
	}
	return math.NaN()
}

func counterDelta(res *phaseResult, name string) float64 {
	return float64(res.to.reg.Counters[name] - res.from.reg.Counters[name])
}

func histDelta(res *phaseResult, name string) (sum float64, count int64) {
	a, b := res.from.reg.Histograms[name], res.to.reg.Histograms[name]
	return b.Sum - a.Sum, b.Count - a.Count
}

// perLayer is what the traced phase says about each layer; untraced is the
// untraced phase of the same run, the base of trace.overhead_pct. Counts and
// the time a layer spent are given per operation (a task or a plan), so they
// are defined, and zero when untouched, on every workload; percentiles are
// given where the layer saw enough samples.
func perLayer(res, untraced *phaseResult) report {
	var r report
	pr := res.probe
	ops := res.rec.ok
	count := func(name, counter string) {
		r.add(name, "count", perOp(counterDelta(res, counter), ops), "")
	}
	// stageMS is the time a stage histogram accumulated, in ms per op.
	stageMS := func(name, hist string) {
		sum, n := histDelta(res, hist)
		r.add(name, "ms", perOp(sum*1e3, ops), fmt.Sprintf("%d spans", n))
	}

	// httpapi
	pr.httpMu.Lock()
	httpMS := map[string]*dist{"submit": {}, "view": {}, "scrape": {}}
	for k, v := range pr.httpMS {
		httpMS[k] = v
	}
	pr.httpMu.Unlock()
	r.median("httpapi.submit_ms.p50", "ms", httpMS["submit"])
	r.tail("httpapi.submit_ms.p99", "ms", httpMS["submit"], 0.99)
	r.median("httpapi.view_ms.p50", "ms", httpMS["view"])
	r.add("httpapi.requests_per_op", "count", perOp(float64(res.rec.requests), res.rec.resolved),
		fmt.Sprintf("terminal events delivered for %d of %d ops", res.rec.events, res.rec.resolved))
	r.median("httpapi.scrape_ms.p50", "ms", httpMS["scrape"])

	// engine, fairq
	stageMS("engine.queue_wait_ms_per_op", "trace.stage.queue_wait.seconds")
	stageMS("engine.journal_commit_ms_per_op", "trace.stage.journal_commit.seconds")
	if tr := res.rec.traces; tr != nil {
		r.median("engine.queue_wait_ms.p50", "ms", &tr.queueWait)
		r.tail("engine.queue_wait_ms.p99", "ms", &tr.queueWait, 0.99)
		r.median("engine.journal_commit_ms.p50", "ms", &tr.journal)
		r.tail("engine.journal_commit_ms.p99", "ms", &tr.journal, 0.99)
	}
	count("engine.journal_records_per_task", "engine.journal.records")
	pr.sampleMu.Lock()
	r.add("engine.queue_depth.max", "count", float64(pr.depthMax), "")
	r.add("engine.workers_busy.mean", "count", pr.busy.mean(), fmt.Sprintf("n=%d", pr.busy.n()))
	heapPeak := pr.heapPeak
	pr.sampleMu.Unlock()

	// coordination, atn
	stageMS("coordination.enact_ms_per_op", "trace.stage.enact.seconds")
	stageMS("coordination.schedule_ms_per_op", "trace.stage.schedule.seconds")
	if tr := res.rec.traces; tr != nil {
		r.median("coordination.schedule_ms.p50", "ms", &tr.schedule)
		r.median("coordination.enact_ms.p50", "ms", &tr.enact)
	}
	r.add("coordination.activities_per_task", "count",
		perOp(float64(res.to.postProcess-res.from.postProcess), ops), "steering-hook calls")
	count("coordination.retries_per_task", "coordination.retries")
	count("coordination.replans_per_task", "coordination.replans")
	executed := counterDelta(res, "coordination.activities.executed")
	failed := counterDelta(res, "coordination.dispatch.failures")
	if executed+failed > 0 {
		r.add("coordination.useful_exec_ratio", "ratio", executed/(executed+failed), "executions that completed")
	}
	ckpt, _ := histDelta(res, "coordination.checkpoint.bytes")
	r.add("coordination.checkpoint_kb_per_task", "KiB", perOp(ckpt/1024, ops), "")

	// agent
	r.add("agent.msgs_per_task", "count", perOp(float64(res.to.msgs-res.from.msgs), ops), "")
	pr.agentMu.Lock()
	var services []string
	var callSum float64
	for k, d := range pr.callMS {
		services = append(services, k)
		for _, x := range d.xs {
			callSum += x
		}
	}
	sort.Strings(services)
	r.add("agent.call_ms_per_op", "ms", perOp(callSum, ops), "request-reply round trips")
	for _, s := range services {
		r.median("agent.call_ms."+s+".p50", "ms", pr.callMS[s])
		r.tail("agent.call_ms."+s+".p99", "ms", pr.callMS[s], 0.99)
	}
	pr.agentMu.Unlock()

	// services
	if req := counterDelta(res, "matchmaking.requests"); req > 0 {
		r.add("services.matchmaking_hit_ratio", "ratio", counterDelta(res, "matchmaking.hits")/req, "")
	}
	count("services.brokerage_requests_per_task", "brokerage.requests")

	// grid
	r.add("grid.executions_per_task", "count", perOp(executed+failed, ops), "")
	r.add("grid.failures_per_task", "count", perOp(failed, ops), "")
	r.add("grid.quarantined_nodes", "count", float64(res.to.reg.Counters["monitoring.quarantines"]), "since set-up")

	// store
	r.add("store.sync_puts_per_task", "count", perOp(float64(res.to.syncPuts-res.from.syncPuts), ops), "Put and Replace")
	r.add("store.async_puts_per_task", "count", perOp(float64(res.to.asyncPuts-res.from.asyncPuts), ops), "")
	pr.storeMu.Lock()
	var putSum float64
	for _, x := range pr.putMS.xs {
		putSum += x
	}
	r.add("store.put_ms_per_op", "ms", perOp(putSum, ops), "waiting on synchronous puts")
	r.median("store.put_ms.p50", "ms", &pr.putMS)
	r.tail("store.put_ms.p99", "ms", &pr.putMS, 0.99)
	pr.storeMu.Unlock()
	r.add("store.kb_per_task", "KiB", perOp(float64(res.to.putBytes-res.from.putBytes)/1024, ops), "values written")
	count("store.syncs_per_task", "store.flushes")
	if sum, n := histDelta(res, "store.batch.size"); n > 0 {
		r.add("store.batch_records.mean", "count", sum/float64(n), fmt.Sprintf("%d batches", n))
	}

	// planner
	count("planner.evals_per_plan", "planner.evaluations")
	count("planner.generations_per_plan", "planner.generations")
	planSum, plans := histDelta(res, "planner.service.plan_seconds")
	r.add("planner.plan_s_per_op", "s", perOp(planSum, ops), fmt.Sprintf("%d plans", plans))
	if res.rec.planRun.n() > 0 {
		r.median("planner.run_s.p50", "s", &res.rec.planRun)
		r.median("planner.queue_ms.p50", "ms", &res.rec.planQueue)
		r.add("planner.eval_us", "us", res.rec.planRun.mean()/res.rec.evals.mean()*1e6, "run time per evaluation")
	}

	// telemetry
	count("telemetry.events_per_task", "telemetry.events.published")
	r.add("telemetry.events_dropped", "count", counterDelta(res, "telemetry.events.dropped"), "")

	// runtime
	cpu := (res.to.cpu - res.from.cpu).Seconds()
	r.add("runtime.allocs_per_op", "count", perOp(rtDelta(res, "/gc/heap/allocs:objects"), ops), "")
	r.add("runtime.gc_cpu_share", "ratio", rtDelta(res, "/cpu/classes/gc/total:cpu-seconds")/cpu, "of process CPU")
	r.add("runtime.heap_live_peak_mb", "MiB", float64(heapPeak)/(1<<20), "")
	r.add("runtime.sched_latency_p99_us", "us",
		histQuantile(res.from.rt, res.to.rt, "/sched/latencies:seconds", 0.99)*1e6, "bucket upper bound")

	// loadgen, trace
	r.median("loadgen.lag_ms.p50", "ms", &res.rec.lag)
	r.tail("loadgen.lag_ms.p99", "ms", &res.rec.lag, 0.99)
	if tr := res.rec.traces; tr != nil && tr.samples > 0 {
		r.median("loadgen.completion_wait_ms.p50", "ms", &tr.completionWait)
		r.add("trace.unattributed_pct", "%", 100*tr.unattributedSum/tr.latencySum,
			fmt.Sprintf("%d sampled tasks; bar 10%%", tr.samples))
	}
	r.add("trace.overhead_pct", "%", 100*(res.cpuMSPerOp()/untraced.cpuMSPerOp()-1),
		"traced vs untraced CPU per op")
	return r
}

// declared is a metric BENCHMARK.json names, with its unit.
type declared struct{ name, unit string }

// endToEndNames and perLayerNames are the metrics BENCHMARK.json declares,
// the ones every gated workload measures: the last output line carries
// exactly these, by trace mode.
var endToEndNames = []declared{
	{"cpu_ms_per_op", "ms"}, {"alloc_kb_per_op", "KiB"}, {"peak_rss_mb", "MiB"},
	{"success_ratio", "ratio"}, {"setup_s", "s"},
}

var perLayerNames = []declared{
	{"httpapi.submit_ms.p50", "ms"}, {"httpapi.view_ms.p50", "ms"}, {"httpapi.requests_per_op", "count"},
	{"engine.queue_wait_ms_per_op", "ms"}, {"engine.journal_commit_ms_per_op", "ms"},
	{"engine.journal_records_per_task", "count"}, {"engine.queue_depth.max", "count"},
	{"engine.workers_busy.mean", "count"},
	{"coordination.enact_ms_per_op", "ms"}, {"coordination.schedule_ms_per_op", "ms"},
	{"coordination.activities_per_task", "count"}, {"coordination.retries_per_task", "count"},
	{"coordination.replans_per_task", "count"}, {"coordination.checkpoint_kb_per_task", "KiB"},
	{"agent.msgs_per_task", "count"}, {"agent.call_ms_per_op", "ms"},
	{"services.brokerage_requests_per_task", "count"},
	{"grid.executions_per_task", "count"}, {"grid.failures_per_task", "count"},
	{"store.sync_puts_per_task", "count"}, {"store.async_puts_per_task", "count"},
	{"store.put_ms_per_op", "ms"}, {"store.kb_per_task", "KiB"}, {"store.syncs_per_task", "count"},
	{"planner.evals_per_plan", "count"}, {"planner.generations_per_plan", "count"},
	{"planner.plan_s_per_op", "s"},
	{"telemetry.events_per_task", "count"}, {"telemetry.events_dropped", "count"},
	{"runtime.allocs_per_op", "count"}, {"runtime.gc_cpu_share", "ratio"},
	{"runtime.heap_live_peak_mb", "MiB"}, {"runtime.sched_latency_p99_us", "us"},
	{"loadgen.lag_ms.p50", "ms"}, {"trace.overhead_pct", "%"},
}

// print writes the report as aligned lines.
func (r report) print(title string) {
	fmt.Printf("%s\n", title)
	for _, m := range r {
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Printf("  %-40s %14.6g %-6s%s\n", m.name, m.value, m.unit, note)
	}
}

// printTally writes the attempted/succeeded/failed counts, the output-check
// verdict and each failure reason.
func printTally(name string, t *tally, checkDesc string) {
	fmt.Printf("%s: attempted %d, succeeded %d, failed %d (error rate %.5f)\n",
		name, t.attempted, t.succeeded, t.failed(), t.errorRate())
	verdict := "pass"
	if !t.correct() {
		verdict = "FAIL"
	}
	fmt.Printf("  output check (%s): %s; %d passed, %d wrong outputs, %d lost or stuck\n",
		checkDesc, verdict, t.succeeded, t.wrongOutputs, t.lost)
	var reasons []string
	for k := range t.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Printf("  failure ×%d: %s\n", t.reasons[k], strings.TrimSpace(k))
	}
}
