// Package cxfix is a ctxflow fixture under internal/: severing an
// incoming context with a fresh Background/TODO, ignoring a ctx
// parameter, and minting contexts in library code are flagged, even in a
// context-free wrapper; proper threading passes.
package cxfix

import "context"

func work(ctx context.Context) error { return ctx.Err() }

func noCtx(n int) int { return n + 1 }

// good threads its context: clean.
func good(ctx context.Context) error {
	if err := work(ctx); err != nil {
		return err
	}
	noCtx(1)
	return nil
}

// derived passes a child context: clean.
func derived(ctx context.Context) error {
	sub, cancel := context.WithCancel(ctx)
	defer cancel()
	return work(sub)
}

// severs receives ctx but hands the callee a fresh one: flagged.
func severs(ctx context.Context) error {
	return work(context.TODO()) // want `passes a fresh context`
}

// ignores never touches its ctx while calling a context-accepting
// callee: flagged at the declaration.
func ignores(ctx context.Context) error { // want `context parameter ctx is never used`
	return work(nil)
}

// mints builds its own context in library code: flagged.
func mints() error {
	ctx := context.Background() // want `context\.Background/TODO in internal/`
	return work(ctx)
}

// compat is a context-free wrapper: flagged, and no tag silences it.
func compat() error {
	return work(context.Background()) // want `context\.Background/TODO in internal/`
}
