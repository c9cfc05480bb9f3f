package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p99 needs 1000 samples and a
// run of a handful of plans reports no tail at all.
const minBeyond = 10

// dist is a set of samples of one quantity (milliseconds, counts, ...).
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// quantile returns the nearest-rank q-quantile, or NaN when empty.
func (d *dist) quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	i := int(math.Ceil(q*float64(len(d.xs)))) - 1
	return d.xs[min(max(i, 0), len(d.xs)-1)]
}

func (d *dist) median() float64 { return d.quantile(0.5) }

// supports reports whether n samples satisfy the percentile rule for q.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tail returns the q-quantile and whether the sample count supports it
// under the percentile rule.
func (d *dist) tail(q float64) (float64, bool) {
	return d.quantile(q), supports(d.n(), q)
}

func (d *dist) mean() float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// tally counts operations against attempts: every attempted operation ends
// in exactly one success or one failure, whatever the failure was (a non-2xx
// or refused submission, a task lost or stuck, a terminal status other than
// succeeded, a goal left unmet, a failed output check).
type tally struct {
	attempted int
	succeeded int
	reasons   map[string]int // failure reason → count
	// wrongOutputs counts operations the program reported as successful
	// whose output failed its check; lost counts operations never seen in
	// a terminal state. Both make a run incorrect.
	wrongOutputs int
	lost         int
}

func (t *tally) attempt() { t.attempted++ }

func (t *tally) ok() { t.succeeded++ }

// fail records a failure the program reported as such.
func (t *tally) fail(reason string) {
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// wrong records an operation reported successful with a wrong output.
func (t *tally) wrong(reason string) {
	t.wrongOutputs++
	t.fail(reason)
}

// lose records an operation lost or stuck before a terminal state.
func (t *tally) lose(reason string) {
	t.lost++
	t.fail(reason)
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.succeeded += o.succeeded
	t.wrongOutputs += o.wrongOutputs
	t.lost += o.lost
	for k, v := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[k] += v
	}
}

func (t *tally) failed() int {
	n := 0
	for _, c := range t.reasons {
		n += c
	}
	return n
}

// unresolved counts attempts that have neither succeeded nor failed.
func (t *tally) unresolved() int { return t.attempted - t.succeeded - t.failed() }

// errorRate is failed ÷ attempted (0 for no attempts).
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// correct is the run's verdict on the program's outputs: something
// succeeded, every attempt was resolved, nothing was lost, and no success
// carried a wrong output. Failures the program itself reports (a failed
// task, a goal left unmet, a refused submission) are counted in failed and
// error_rate instead.
func (t *tally) correct() bool {
	return t.succeeded > 0 && t.unresolved() == 0 && t.wrongOutputs == 0 && t.lost == 0
}
