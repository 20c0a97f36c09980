package campaign

import "sync"

// ArenaPool recycles trial workers — each carrying a warmed wire-buffer
// arena and sample slices — across campaign runs in one resident
// process. Within a run each worker is owned by exactly one engine
// goroutine (pool.Wire is single-goroutine by design); the pool only
// hands a worker out again after the run that used it has fully
// completed, so cross-run reuse never races.
//
// Reuse is invisible in results for the same reason it is within a
// run: trialWorker.reset rewinds the sample slices before every cell,
// and the wire arena's buffers carry capacity, not state.
//
// When a run returns its workers, each is trimmed to
// DefaultMaxArenaBytes of wire-buffer capacity and DefaultMaxPoolNodes
// clock-event and delivery nodes, so a job that briefly needed big
// frag-attack buffers or a flood's worth of nodes does not pin them
// for the lifetime of the server.
type ArenaPool struct {
	mu   sync.Mutex
	free []*trialWorker
}

// DefaultMaxArenaBytes is the wire-buffer capacity a parked worker
// retains (largest buffers dropped first): enough to keep the
// steady-state DNS-sized working set warm, small enough that a fleet
// of workers stays in cache-friendly territory between jobs.
const DefaultMaxArenaBytes = 1 << 20

// DefaultMaxPoolNodes is the number of clock-event and delivery nodes
// (each) a parked worker retains: comfortably above the steady-state
// working set of a trial, far below what one flood burst can park.
const DefaultMaxPoolNodes = 1 << 12

// arenaLease tracks the workers one run borrowed so endRun can return
// exactly those, after the engine's goroutines have all finished.
type arenaLease struct {
	pool   *ArenaPool
	mu     sync.Mutex
	handed []*trialWorker
}

func (p *ArenaPool) beginRun() *arenaLease { return &arenaLease{pool: p} }

// get borrows a parked worker (or makes a fresh one). Called from
// engine worker goroutines via RunWorkersCtx's newState hook.
func (l *arenaLease) get() *trialWorker {
	l.pool.mu.Lock()
	var w *trialWorker
	if n := len(l.pool.free); n > 0 {
		w = l.pool.free[n-1]
		l.pool.free[n-1] = nil
		l.pool.free = l.pool.free[:n-1]
	}
	l.pool.mu.Unlock()
	if w == nil {
		w = newTrialWorker()
	}
	l.mu.Lock()
	l.handed = append(l.handed, w)
	l.mu.Unlock()
	return w
}

// endRun parks the run's workers back in the pool, trimming each
// worker's wire arena and node freelists to their retained-capacity
// bounds. Must only run after the engine call that used the lease has
// returned (all worker goroutines joined).
func (l *arenaLease) endRun() {
	l.mu.Lock()
	handed := l.handed
	l.handed = nil
	l.mu.Unlock()
	for _, w := range handed {
		w.wire.Trim(DefaultMaxArenaBytes)
		w.events.Trim(DefaultMaxPoolNodes)
		w.deliv.Trim(DefaultMaxPoolNodes)
	}
	l.pool.mu.Lock()
	l.pool.free = append(l.pool.free, handed...)
	l.pool.mu.Unlock()
}
