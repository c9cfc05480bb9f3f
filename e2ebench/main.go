// Command e2ebench is the repository's end-to-end benchmark. It builds the
// grid environment in-process as cmd/gridenv does with its default flags,
// serves its HTTP API on a loopback port, and drives one named workload
// against it from this process with at most one goroutine and one
// keep-alive connection per CPU (one of them the event stream).
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload enact|ingest|plan --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with the program's own
// telemetry on, as in production. --trace 1 runs an untraced and then a
// traced phase and reports the per-layer metrics, timed from outside the
// layers' public surfaces. The report goes to standard output; its last
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// hardLimit ends a run that has not finished in time, whatever it waits on.
const hardLimit = 170 * time.Second

// setupRepeats is how many environments a run builds to time set-up.
const setupRepeats = 31

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: ingest, plan, enact or ingest-durable")
		seed    = fs.Int64("seed", 1, "workload seed: arrivals, tenant draws, operation IDs")
		seconds = fs.Float64("seconds", 10, "length of the measured phase")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "e2ebench"), "directory for durable stores")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl := workloads[*name]
	if wl == nil {
		var known []string
		for k := range workloads {
			known = append(known, k)
		}
		sort.Strings(known)
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(known, ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	// Past the limit the context stops the load; should anything still
	// hang, the process ends a few seconds later regardless.
	time.AfterFunc(hardLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: hard time limit exceeded")
		os.Exit(1)
	})
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	measured := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("workload %s, seed %d, %v measured, trace %d, %d request connection(s) + 1 event stream\n",
		wl.name, *seed, measured, *trace, connBudget())

	var (
		t    tally
		last report
	)
	if *trace == 0 {
		res, err := phase{wl: wl, seed: *seed, seconds: measured, setups: setupRepeats, workdir: *workdir}.run(ctx)
		if err != nil {
			return err
		}
		t = res.rec.tally
		printTally(wl.name, &t, wl.checkDesc)
		last = endToEnd(res)
		last.print("end-to-end metrics:")
	} else {
		// The untraced phase is the base of trace.overhead_pct; the traced
		// phase gets the larger share of the time.
		base, err := phase{wl: wl, seed: *seed, seconds: measured / 3, setups: 1, workdir: *workdir}.run(ctx)
		if err != nil {
			return err
		}
		res, err := phase{wl: wl, seed: *seed, seconds: measured - measured/3, setups: 1, traced: true, workdir: *workdir}.run(ctx)
		if err != nil {
			return err
		}
		printTally(wl.name+", untraced phase", &base.rec.tally, wl.checkDesc)
		printTally(wl.name+", traced phase", &res.rec.tally, wl.checkDesc)
		t = base.rec.tally
		t.merge(&res.rec.tally)
		endToEnd(res).print("end-to-end metrics of the traced phase:")
		last = perLayer(res, base)
		last.print("per-layer metrics:")
		if tr := res.rec.traces; tr != nil && tr.latencySum > 0 {
			printParts(tr)
		}
	}
	names := endToEndNames
	if *trace == 1 {
		names = perLayerNames
	}
	return printResult(&t, last, names)
}

// printParts writes the latency reconciliation of the sampled tasks.
func printParts(tr *traceRecorder) {
	fmt.Printf("latency split over %d sampled tasks (share of client latency):\n", tr.samples)
	var keys []string
	for k := range tr.parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-22s %6.2f%%\n", k, 100*tr.parts[k]/tr.latencySum)
	}
	fmt.Printf("  %-22s %6.2f%%\n", "unattributed", 100*tr.unattributedSum/tr.latencySum)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the last line: the verdict, the counts and the
// declared metrics this workload measures.
func printResult(t *tally, r report, names []declared) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{t.correct(), t.attempted, t.failed(), map[string]jsonMetric{}}
	var missing []string
	for _, d := range names {
		m, ok := r.get(d.name)
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	if len(missing) > 0 {
		fmt.Printf("not measured by this workload: %s\n", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
