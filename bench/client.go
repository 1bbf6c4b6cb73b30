package main

import (
	"context"
	"errors"
	"sync"

	"github.com/pglp/panda/internal/server"
)

// userKey tags a request's context with the user it acts for, so the
// traced transport can label its client span.
type userKey struct{}

func withUser(u int) context.Context {
	return context.WithValue(context.Background(), userKey{}, u)
}

// start brings this set-up's server up.
func (e *env) start(o rigOptions) error {
	r, err := startRig(e.in.grid, o, e.tr, e.cfg.wrapStore)
	if err != nil {
		return err
	}
	e.rig = r
	return nil
}

func (e *env) close() error {
	if e.rig == nil {
		return nil
	}
	return e.rig.close()
}

// warmup has every phone fetch its policy and build the mechanism for
// it before measuring starts, as a phone does when it joins.
func (e *env) warmup() error {
	return e.forUsers(e.renegotiate)
}

// forUsers runs fn for every user over the load generator's workers and
// returns the first error.
func (e *env) forUsers(fn func(u int) error) error {
	var (
		once sync.Once
		err  error
	)
	closedLoop(workers(), e.in.users, func(u int) {
		if ferr := fn(u); ferr != nil {
			once.Do(func() { err = ferr })
		}
	})
	return err
}

// renegotiate fetches user u's current policy and adopts it.
func (e *env) renegotiate(u int) error {
	cp, err := e.rig.client.PolicyContext(withUser(u), u)
	if err != nil {
		return err
	}
	return e.ph.adopt(u, cp)
}

// encoding is how a phone sends its reports.
type encoding int

const (
	jsonSync    encoding = iota // JSON, acknowledged once stored
	binarySync                  // binary frames, acknowledged once stored
	binaryAsync                 // binary frames, acknowledged once queued (?mode=async)
)

// report perturbs user u's timesteps [t0, t0+n) and sends them; the
// phone records the releases as acknowledged only on success.
func (e *env) report(enc encoding, u, t0, n int) error {
	rel, err := e.ph.perturb(u, t0, n)
	if err != nil {
		return err
	}
	ctx := withUser(u)
	switch enc {
	case jsonSync:
		_, err = e.rig.client.ReportBatchContext(ctx, u, rel)
	case binarySync:
		_, err = e.rig.client.ReportBatchBinaryContext(ctx, u, rel)
	case binaryAsync:
		var ack server.AsyncAck
		ack, err = e.rig.client.ReportBatchBinaryAsyncContext(ctx, u, rel)
		if err == nil && ack.SyncFallback {
			err = errors.New("server answered an async report synchronously")
		}
	}
	if err != nil {
		return err
	}
	e.ph.ack(u, rel)
	return nil
}

// do runs one measured operation worth ops units of work (releases,
// queries, renegotiations or marks), counting it as attempted and, if
// it errs, as failed. It reports whether the operation succeeded.
func (e *env) do(what string, ops int, op func() error) bool {
	e.attempted.Add(1)
	if err := op(); err != nil {
		e.fail(what, err)
		return false
	}
	e.ops.Add(int64(ops))
	return true
}
