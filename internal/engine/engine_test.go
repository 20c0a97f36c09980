package engine

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestShardPlanCoversPopulation(t *testing.T) {
	for _, tc := range []struct {
		items, size int
		wantShards  int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{256, 0, 1},
		{257, 0, 2},
		{1000, 100, 10},
		{1001, 100, 11},
		{5, 2, 3},
	} {
		j := Job{Items: tc.items, ShardSize: tc.size, Seed: 42}
		shards := j.Shards()
		if len(shards) != tc.wantShards {
			t.Fatalf("items=%d size=%d: %d shards, want %d", tc.items, tc.size, len(shards), tc.wantShards)
		}
		next := 0
		for i, sh := range shards {
			if sh.Index != i {
				t.Fatalf("shard %d has Index %d", i, sh.Index)
			}
			if sh.Start != next {
				t.Fatalf("shard %d starts at %d, want %d", i, sh.Start, next)
			}
			if sh.Count <= 0 {
				t.Fatalf("shard %d empty", i)
			}
			next = sh.Start + sh.Count
		}
		if next != tc.items {
			t.Fatalf("plan covers %d items, want %d", next, tc.items)
		}
	}
}

func TestShardPlanIgnoresParallelism(t *testing.T) {
	a := Job{Items: 1000, ShardSize: 64, Seed: 7, Parallelism: 1}.Shards()
	b := Job{Items: 1000, ShardSize: 64, Seed: 7, Parallelism: 16}.Shards()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shard plan depends on parallelism")
	}
}

func TestDeriveSeedDeterministicAndSpread(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at shard %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
}

func TestRunResultsIndependentOfWorkerCount(t *testing.T) {
	fn := func(sh Shard) []int64 {
		out := make([]int64, sh.Count)
		for k := range out {
			out[k] = sh.Seed + int64(sh.Start+k)
		}
		return out
	}
	var reference [][]int64
	for _, p := range []int{1, 2, 8} {
		j := Job{Items: 333, ShardSize: 16, Seed: 99, Parallelism: p}
		got, err := RunCtx(context.Background(), j, fn)
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = got
			continue
		}
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("parallelism %d changed results", p)
		}
	}
}

func TestExecuteReportsProgress(t *testing.T) {
	var calls int
	last := 0
	j := Job{Items: 50, ShardSize: 10, Seed: 1, Parallelism: 4,
		OnTrialDone: func(done, total int) {
			calls++
			if total != 5 {
				t.Errorf("total %d, want 5", total)
			}
			if done <= last {
				t.Errorf("done not monotonic: %d after %d", done, last)
			}
			last = done
		}}
	if _, err := RunCtx(context.Background(), j, func(sh Shard) int { return sh.Index }); err != nil {
		t.Fatal(err)
	}
	if calls != 5 || last != 5 {
		t.Fatalf("progress calls=%d last=%d, want 5/5", calls, last)
	}
}

// TestParallelRunsAllThunks: heterogeneous thunks (the Table 6
// comparison's shape) run through RunCtx over a ShardSize 1 job, each
// exactly once, with shard i running thunk i.
func TestParallelRunsAllThunks(t *testing.T) {
	var n atomic.Int64
	fns := make([]func() int, 17)
	for i := range fns {
		fns[i] = func() int { n.Add(1); return i * i }
	}
	got, err := RunCtx(context.Background(), Job{Items: len(fns), ShardSize: 1, Parallelism: 4},
		func(sh Shard) int { return fns[sh.Start]() })
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 17 {
		t.Fatalf("ran %d thunks, want 17", n.Load())
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestEmptyJob(t *testing.T) {
	for _, p := range []int{1, 4} {
		got, err := RunCtx(context.Background(), Job{Items: 0, Seed: 1, Parallelism: p}, func(Shard) int { return 1 })
		if err != nil || len(got) != 0 {
			t.Fatalf("parallelism %d: empty job produced %d results, err %v", p, len(got), err)
		}
	}
}

// TestRunCtxCancellationStopsDispatch pins the cancellation contract:
// once the context is cancelled no further shard starts, and the
// context's error comes back instead of a silent partial merge.
func TestRunCtxCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	j := Job{Items: 100, ShardSize: 1, Seed: 3, Parallelism: 1}
	_, err := RunCtx(ctx, j, func(sh Shard) int {
		if started.Add(1) == 5 {
			cancel()
		}
		return sh.Index
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Serial execution checks ctx before each trial: exactly the five
	// trials up to the cancelling one ran.
	if started.Load() != 5 {
		t.Fatalf("%d trials started after cancellation, want 5", started.Load())
	}

	// Parallel path: in-flight shards finish, the rest never start.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	var ran atomic.Int64
	_, err = RunCtx(ctx2, Job{Items: 64, ShardSize: 1, Seed: 4, Parallelism: 8},
		func(sh Shard) int { ran.Add(1); return sh.Index })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d trials ran under a pre-cancelled context, want 0", ran.Load())
	}
}

// TestRunCtxBackgroundMatchesRun: with a background context RunCtx
// returns, with a nil error, exactly what running fn over the shard
// plan in order returns.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	fn := func(sh Shard) int64 { return sh.Seed + int64(sh.Start) }
	j := Job{Items: 40, ShardSize: 8, Seed: 12, Parallelism: 4}
	got, err := RunCtx(context.Background(), j, fn)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, sh := range j.Shards() {
		want = append(want, fn(sh))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunCtx(Background) = %v, want %v", got, want)
	}
}

// TestDeriveSeedKeyStableAndDistinct pins the identity-keyed seed
// derivation: deterministic for the same (base, key), different for
// different keys or bases, and independent of any positional index —
// the property that keeps filtered campaign runs cell-for-cell
// identical to full runs.
func TestDeriveSeedKeyStableAndDistinct(t *testing.T) {
	a := DeriveSeedKey(42, "saddns/web/bind/0x20")
	if b := DeriveSeedKey(42, "saddns/web/bind/0x20"); a != b {
		t.Fatalf("unstable: %d vs %d", a, b)
	}
	seen := map[int64]string{}
	for _, key := range []string{"a", "b", "ab", "ba", "hijack/web/bind/none", "hijack/web/bind/dnssec"} {
		s := DeriveSeedKey(7, key)
		if prev, dup := seen[s]; dup {
			t.Fatalf("collision between %q and %q", prev, key)
		}
		seen[s] = key
	}
	if DeriveSeedKey(1, "x") == DeriveSeedKey(2, "x") {
		t.Fatal("base seed ignored")
	}
}

// TestRunWorkersResultsIndependentOfWorkersAndBurst pins the
// determinism contract across the burst dispatcher: neither the worker
// count nor the burst size may change results or their order, and
// every index runs exactly once on a worker in range.
func TestRunWorkersResultsIndependentOfWorkersAndBurst(t *testing.T) {
	const total = 333
	for _, workers := range []int{1, 2, 3, 8} {
		for _, burst := range []int{1, 3, 64, 1000} {
			got := make([]int64, total)
			runs := make([]atomic.Int64, total)
			err := executeBursts(context.Background(), workers, burst, total, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("index %d ran on worker %d of %d", i, w, workers)
				}
				runs[i].Add(1)
				got[i] = DeriveSeed(99, i)
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if n := runs[i].Load(); n != 1 {
					t.Fatalf("workers %d burst %d: index %d ran %d times", workers, burst, i, n)
				}
				if got[i] != DeriveSeed(99, i) {
					t.Fatalf("workers %d burst %d: result[%d] wrong", workers, burst, i)
				}
			}
		}
	}

	type state struct{ scratch []int64 }
	fn := func(s *state, sh Shard) int64 {
		s.scratch = append(s.scratch, sh.Seed)
		return sh.Seed + int64(sh.Start)
	}
	var reference []int64
	for _, p := range []int{1, 2, 8} {
		j := Job{Items: 333, ShardSize: 4, Seed: 99, Parallelism: p}
		got, err := RunWorkersCtx(context.Background(), j, func() *state { return &state{} }, fn)
		if err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference = got
			continue
		}
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("parallelism %d changed results", p)
		}
	}
}

// TestRunWorkersStatePerWorker: newState runs once per participating
// worker, and every shard runs exactly once, on one worker's state.
func TestRunWorkersStatePerWorker(t *testing.T) {
	type state struct{ ran []int }
	var made atomic.Int64
	j := Job{Items: 200, ShardSize: 1, Seed: 5, Parallelism: 4}
	states, err := RunWorkersCtx(context.Background(), j,
		func() *state { made.Add(1); return &state{} },
		func(s *state, sh Shard) *state {
			s.ran = append(s.ran, sh.Index)
			return s
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n < 1 || n > 4 {
		t.Fatalf("newState ran %d times, want 1..4", n)
	}
	seen := map[int]int{}
	uniq := map[*state]bool{}
	for _, s := range states {
		if uniq[s] {
			continue
		}
		uniq[s] = true
		for _, idx := range s.ran {
			seen[idx]++
		}
	}
	if int64(len(uniq)) != made.Load() {
		t.Fatalf("%d states ran shards, %d were made", len(uniq), made.Load())
	}
	for i := 0; i < j.Items; i++ {
		if seen[i] != 1 {
			t.Fatalf("shard %d ran %d times, want 1", i, seen[i])
		}
	}
}

// TestRunWorkersCtxCancellation: the burst dispatcher must honour the
// no-new-trials-after-cancel rule on the parallel path too.
func TestRunWorkersCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := RunWorkersCtx(ctx, Job{Items: 64, ShardSize: 1, Seed: 4, Parallelism: 8},
		func() int { return 0 },
		func(int, Shard) int { ran.Add(1); return 0 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d trials ran under a pre-cancelled context, want 0", ran.Load())
	}
}
