package sieve

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"github.com/sieve-microservices/sieve/internal/lab"
)

// runShareLatexArtifact runs the full pipeline on a fresh ShareLatex
// simulation (deterministic for the fixed seeds) at the given worker
// count — GOMAXPROCS, the only size the pipeline's fan-outs have — and
// returns the serialized artifact.
func runShareLatexArtifact(t *testing.T, workers int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	app, err := NewShareLatex(21)
	if err != nil {
		t.Fatal(err)
	}
	artifact, _, err := Run(app, RandomLoad(7, 120, 200, 1800), DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalArtifact(artifact)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunParallelismDeterminism asserts the concurrent executor is
// invisible in the output: Run at 1, 4, and the machine's GOMAXPROCS
// workers produces byte-identical artifacts on a ShareLatex capture.
func TestRunParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	sequential := runShareLatexArtifact(t, 1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := runShareLatexArtifact(t, par); !bytes.Equal(sequential, got) {
			t.Errorf("parallelism %d: artifact differs from sequential (%d vs %d bytes)",
				par, len(got), len(sequential))
		}
	}
}

// canceledAtTick is a context that reports cancellation once the
// simulated application has advanced tick ticks; the capture loop polls
// Err between steps.
type canceledAtTick struct {
	context.Context
	app  *App
	tick int64
}

func (c canceledAtTick) Err() error {
	if c.app.Now() >= c.tick*c.app.TickMS() {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestRunContextCancellation asserts context.Canceled surfaces promptly
// from mid-pipeline: the capture stage is canceled a few ticks in, and
// the simulation must not have drained the (huge) remaining pattern.
func TestRunContextCancellation(t *testing.T) {
	app, err := NewShareLatex(21)
	if err != nil {
		t.Fatal(err)
	}
	ctx := canceledAtTick{Context: context.Background(), app: app, tick: 10}
	_, _, err = lab.Run(ctx, app, ConstantLoad(500, 100000), DefaultPipelineOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextPreCanceled asserts an already-canceled context returns
// immediately without running any stage.
func TestRunContextPreCanceled(t *testing.T) {
	app, err := NewShareLatex(21)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = lab.Run(ctx, app, ConstantLoad(500, 100), DefaultPipelineOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
