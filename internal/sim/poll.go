package sim

import "context"

// Poll reports ctx's error once ctx is done, without taking a lock on the
// way. done is ctx.Done(), read once by the caller before its loop. Up to
// Go 1.24 a cancelCtx's Err locks the context's mutex on every call, so
// goroutines that call it once per packet on a shared context serialize
// on that lock, while a receive from a still-open Done channel takes none.
// A context whose Done is nil (Background, or a test context that counts
// its Err calls) is asked through Err.
func Poll(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return ctx.Err()
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}
