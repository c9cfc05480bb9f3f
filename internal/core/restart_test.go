package core

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/coordination"
	"repro/internal/planner"
	"repro/internal/virolab"
)

// TestRestartSurvivability is the full durability story: an environment runs
// the case study with checkpointing on a file: store and is shut down. A
// brand-new environment (fresh platform, fresh agents, fresh coordinator)
// reopens the same store directory and resumes the task from an intermediate
// checkpoint to completion — the "persistent and reliable" core-services
// promise of Section 2 made concrete.
func TestRestartSurvivability(t *testing.T) {
	if testing.Short() {
		t.Skip("full restart cycle in -short mode")
	}
	dsn := "file:" + filepath.Join(t.TempDir(), "store")
	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15

	// First life: run, checkpoint, die.
	env1, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
		Checkpoint:  true,
		StoreDSN:    dsn,
	})
	if err != nil {
		t.Fatal(err)
	}
	report1, err := env1.SubmitContext(context.Background(), virolab.Task(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report1.Completed {
		t.Fatal("first life did not complete")
	}
	env1.Close()

	// Second life: fresh everything over the reopened store directory.
	env2, err := NewEnvironment(Options{
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
		Checkpoint:  true,
		StoreDSN:    dsn,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env2.Close()
	if kind := env2.Store.Kind(); kind != "file" {
		t.Fatalf("store kind = %q, want file", kind)
	}

	// The checkpoints survived the restart; pick a mid-run snapshot and
	// resume it on the brand-new coordinator.
	snap, err := coordination.LoadCheckpointVersion(env2.Services.Storage, "T1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Executed >= report1.Executed {
		t.Fatalf("snapshot v4 executed=%d not intermediate (total %d)", snap.Executed, report1.Executed)
	}
	report2, err := env2.Coordinator.ResumeContext(context.Background(), snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report2.Completed {
		t.Fatalf("resumed task did not complete after restart: %+v", report2.Trace)
	}
	if report2.Executed != report1.Executed {
		t.Errorf("resumed total executions = %d, want %d", report2.Executed, report1.Executed)
	}
	d12 := report2.FinalState.Get("D12")
	if d12 == nil || d12.Classification() != "Resolution File" {
		t.Errorf("restarted final state missing D12: %v", d12)
	}
}
