// Package parallel provides the deterministic worker-pool primitive
// behind the pipeline's concurrent stages. Tasks are addressed by index,
// so callers write results into pre-sized slices and merge them in task
// order afterwards — the output is bit-identical to a sequential loop at
// any worker count. The package is separate from internal/core (whose
// ReduceContext and IdentifyDependenciesContext stages fan out through
// it) so that internal/kshape, which core imports, can fan out its
// silhouette sweep through the same pool.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Workers resolves a requested pool size to an effective worker count:
// 0 means runtime.GOMAXPROCS(0), read at call time — what every stage
// that owns its pool asks for; a non-zero size is how an outer fan-out
// hands a nested one its share (Reduce's per-component sweeps) —
// anything below 1 clamps to 1.
func Workers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// ForEach runs task(ctx, i) for every i in [0, n) on up to workers
// goroutines (workers is resolved via Workers). A task failure cancels
// the derived context so in-flight siblings can stop early and workers
// stop claiming queued tasks (a task claimed concurrently with the
// cancellation may still start, with an already-canceled ctx). Error selection approximates the sequential
// loop: among the observed failures, the lowest task index wins, and a
// real error is never displaced by a sibling echoing the cancellation it
// triggered (a lower-index task aborted mid-flight by that cancellation
// reports an echo rather than the error it might eventually have hit, so
// exact sequential equivalence of the error value is best-effort). When
// the parent context is canceled before every task has completed,
// ForEach returns ctx.Err() promptly without draining the remaining
// tasks; once all n tasks have finished successfully it returns nil, as
// the sequential loop would.
//
// Tasks receive only their index: callers keep determinism by writing
// into a pre-allocated slot per index and merging in index order after
// ForEach returns.
func ForEach(ctx context.Context, workers, n int, task func(ctx context.Context, i int) error) error {
	return ForEachWorker(ctx, workers, n, func(ctx context.Context, _, i int) error {
		return task(ctx, i)
	})
}

// ForEachWorker is ForEach with the executing worker's id (in
// [0, Workers(workers))) passed to each task. The id lets callers thread
// per-worker scratch buffers through the fan-out — index into a pre-sized
// slice of scratches, no sync.Pool, race-detector clean — while the
// worker count stays an execution detail that never affects results.
// The sequential fast path always reports worker 0.
func ForEachWorker(ctx context.Context, workers, n int, task func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(ctx, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		mu        sync.Mutex
		next      int
		completed int
		firstErr  error
		errIdx    int
		wg        sync.WaitGroup
	)
	// fail records the failure the sequential loop would have surfaced:
	// lowest task index wins, and a cancellation echo (a sibling
	// returning ctx.Err() because an earlier failure canceled the pool)
	// never displaces a real error.
	fail := func(i int, err error) {
		mu.Lock()
		echo := errors.Is(err, context.Canceled)
		switch {
		case firstErr == nil:
			firstErr, errIdx = err, i
		case !echo && errors.Is(firstErr, context.Canceled):
			firstErr, errIdx = err, i
		case echo == errors.Is(firstErr, context.Canceled) && i < errIdx:
			firstErr, errIdx = err, i
		}
		mu.Unlock()
		cancel()
	}
	claim := func() int {
		mu.Lock()
		i := next
		next++
		mu.Unlock()
		return i
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := claim()
				if i >= n {
					return
				}
				if err := task(ctx, worker, i); err != nil {
					fail(i, err)
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	// Like the sequential loop, a cancellation racing the tail of the
	// run only surfaces if some task was actually left undone.
	if completed < n {
		return parent.Err()
	}
	return nil
}
