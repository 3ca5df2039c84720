package main

import (
	"errors"
	"strings"

	"thedb/internal/proc"
	"thedb/internal/wire"
)

// outcome is how one call ended.
type outcome int

const (
	committed outcome = iota
	// userAbort is a procedure's own rejection (TPC-C's NewOrder
	// rollback, SmallBank's insufficient funds): the transaction ran
	// and rolled back by design, so it is neither a commit nor a
	// failure.
	userAbort
	// failed is every other error, including client.ErrMaybeCommitted
	// and retryable rejections (shed, contended, draining) that
	// outlived the client's retries.
	failed
)

// classify sorts a call's error into an outcome and, for aborts, the
// procedure's stated reason. Local sessions return *proc.AbortError;
// the network client returns *wire.RemoteError with CodeAbort and the
// reason as its message. A retryable remote code wrapped in a
// retries-exhausted error stays a failure.
func classify(err error) (outcome, string) {
	if err == nil {
		return committed, ""
	}
	var ab *proc.AbortError
	if errors.As(err, &ab) {
		return userAbort, reason(ab.Reason)
	}
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Code == wire.CodeAbort {
		return userAbort, reason(re.Msg)
	}
	return failed, err.Error()
}

// reason groups abort reasons that differ only in the record they
// name, such as "delete of non-existent record NEW_ORDER[1234]".
func reason(s string) string {
	if i := strings.IndexByte(s, '['); i > 0 {
		return s[:i]
	}
	return s
}
