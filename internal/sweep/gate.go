package sweep

import (
	"context"
	"sync"
	"sync/atomic"
)

// RowGate is a test seam for landing a cancel, drain or deadline at an
// exact point of a campaign instead of racing the wall clock. A row sink
// calls Pass after writing each row; the first run to write the row with
// index At is parked there until the test releases it or the run's context
// ends. The test waits on Parked, then cancels, drains or lets a deadline
// fire — Pass returns the context's error, so the engine stops with row At
// written but not checkpointed — or calls Release to let the run go on. A
// nil *RowGate is a no-op, which is what production code carries.
type RowGate struct {
	At int

	fired   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

// NewRowGate returns a gate that parks after the row with index at.
func NewRowGate(at int) *RowGate {
	return &RowGate{At: at, parked: make(chan struct{}), release: make(chan struct{})}
}

// Parked is closed once a run is parked at the gate.
func (g *RowGate) Parked() <-chan struct{} { return g.parked }

// Release lets a parked run continue and disarms the gate, so no later run
// parks.
func (g *RowGate) Release() {
	g.once.Do(func() {
		g.fired.Store(true)
		close(g.release)
	})
}

// Pass is called by a row sink after row index has been written. The first
// call for index At parks until Release (returning nil) or until ctx ends
// (returning ctx.Err()); every other call returns nil at once.
func (g *RowGate) Pass(ctx context.Context, index int) error {
	if g == nil || index != g.At || !g.fired.CompareAndSwap(false, true) {
		return nil
	}
	close(g.parked)
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
