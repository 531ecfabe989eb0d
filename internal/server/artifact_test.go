package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/sieve-microservices/sieve/internal/app"
	"github.com/sieve-microservices/sieve/internal/core"
	"github.com/sieve-microservices/sieve/internal/loadgen"
)

// filledServer is a chain-app server whose window holds enough data for
// a pipeline cycle; nothing has run yet.
func filledServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, hs, c := newTestServer(t, Options{AppName: "chain", WindowMS: 64 * 500, CallGraph: chainGraph()})
	a, err := app.New(chainSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	driveChunk(t, a, c, loadgen.Random(5, 90, 100, 1500))
	return s, hs, c
}

// stallWriter is a ResponseWriter whose first Write blocks until
// released: a client that stopped reading mid-body.
type stallWriter struct {
	h        http.Header
	entered  chan struct{}
	released chan struct{}
	once     sync.Once
}

func (w *stallWriter) Header() http.Header { return w.h }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.released
	})
	return len(p), nil
}

// within fails the test unless f returns, without error, within 2 s.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked after 2s behind a stalled GET /artifact", what)
	}
}

// TestArtifactStalledReaderBlocksNothing: a GET /artifact whose client
// stops reading mid-body holds up neither the pipeline nor any other
// route, because the body is written outside every server lock.
func TestArtifactStalledReaderBlocksNothing(t *testing.T) {
	s, hs, c := filledServer(t)
	ctx := context.Background()
	if _, err := s.RunPipelineOnce(ctx); err != nil {
		t.Fatal(err)
	}

	w := &stallWriter{h: http.Header{}, entered: make(chan struct{}), released: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/artifact", nil))
	}()
	defer func() {
		close(w.released)
		<-served
	}()
	select {
	case <-w.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("GET /artifact never started writing its body")
	}

	var next *RunInfo
	within(t, "RunPipelineOnce", func() (err error) {
		next, err = s.RunPipelineOnce(ctx)
		return err
	})
	within(t, "GET /stats", func() error {
		st, err := c.Stats()
		if err == nil && st.Generation != next.Generation {
			err = fmt.Errorf("generation %d, want %d", st.Generation, next.Generation)
		}
		return err
	})
	within(t, "POST /callgraph", func() error { return c.PostCallGraph(chainGraph()) })
	within(t, "a second GET /artifact", func() error {
		resp, err := http.Get(hs.URL + "/artifact")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var env ArtifactEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return err
		}
		if env.Generation != next.Generation {
			return fmt.Errorf("generation %d, want %d", env.Generation, next.Generation)
		}
		return nil
	})
}

// TestArtifactEncodedOncePerGeneration: a generation's body is encoded
// once, by its first read, however many readers race for it; a cycle
// nobody reads encodes nothing; and the body is byte for byte the
// envelope json.NewEncoder writes around core.MarshalArtifact.
func TestArtifactEncodedOncePerGeneration(t *testing.T) {
	s, hs, _ := filledServer(t)
	ctx := context.Background()
	encodes := s.tel.marshalSeconds.Count

	for gen := int64(1); gen <= 2; gen++ {
		before := encodes()
		info, err := s.RunPipelineOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != gen {
			t.Fatalf("generation %d, want %d", info.Generation, gen)
		}
		if got := encodes(); got != before {
			t.Fatalf("generation %d: a cycle nobody read encoded %d times", gen, got-before)
		}

		p := s.pub.Load()
		data, err := core.MarshalArtifact(p.art)
		if err != nil {
			t.Fatal(err)
		}
		metric, relations := p.art.Graph.MostFrequentMetric()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ArtifactEnvelope{
			Generation:  info.Generation,
			App:         "chain",
			WindowStart: info.Start,
			WindowEnd:   info.End,
			ElapsedMS:   info.Elapsed.Milliseconds(),
			Signal:      Signal{Metric: metric, Relations: relations},
			Artifact:    data,
		}); err != nil {
			t.Fatal(err)
		}

		const readers = 8
		bodies := make([][]byte, readers)
		var wg sync.WaitGroup
		for round := 0; round < 2; round++ {
			for i := range bodies {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Get(hs.URL + "/artifact")
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					bodies[i], err = io.ReadAll(resp.Body)
					if err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if got := encodes(); got != before+1 {
				t.Fatalf("generation %d, round %d: %d readers moved the encode count by %d, want 1",
					gen, round, readers, got-before)
			}
			for i, b := range bodies {
				if !bytes.Equal(b, want.Bytes()) {
					t.Fatalf("generation %d, round %d, reader %d: body (%d bytes) differs from the reference envelope (%d bytes)",
						gen, round, i, len(b), want.Len())
				}
			}
		}
	}
}

// TestStatsGenerationMatchesLastRun: /stats reports its generation and
// last_run from one publication, so they agree while cycles publish.
func TestStatsGenerationMatchesLastRun(t *testing.T) {
	s, _, c := filledServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // concurrent cycles, serialized by runMu
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := s.RunPipelineOnce(ctx); err != nil && ctx.Err() == nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reads := 0
	for ; ctx.Err() == nil; reads++ {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case st.LastRun == nil && st.Generation != 0:
			t.Fatalf("/stats generation %d with no last_run", st.Generation)
		case st.LastRun != nil && st.LastRun.Generation != st.Generation:
			t.Fatalf("/stats generation %d beside last_run.generation %d", st.Generation, st.LastRun.Generation)
		}
	}
	wg.Wait()
	if g := s.generation(); g < 2 {
		t.Fatalf("only %d generations published during %d reads", g, reads)
	}
}
