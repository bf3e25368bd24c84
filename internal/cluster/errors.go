package cluster

import (
	"errors"
	"fmt"
)

// errPeerDown is the cause recorded when a request short-circuits on a
// peer whose circuit breaker is open (recent failures, cooldown not yet
// elapsed) — no RPC was attempted.
var errPeerDown = errors.New("circuit open (recent failures)")

// UnavailableError reports that a shard node could not be reached (or
// kept failing past the retry budget), so the request was refused
// rather than answered from a partial or torn view. It carries the
// structured code internal/server maps to a 503 refusal with
// {"error":{"code":"shard_unavailable"}}.
type UnavailableError struct {
	Peer int
	Err  error
}

func (e *UnavailableError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("cluster: shard %d unavailable: %v", e.Peer, e.Err)
	}
	return fmt.Sprintf("cluster: shard %d unavailable", e.Peer)
}

func (e *UnavailableError) Unwrap() error { return e.Err }

// ErrorCode marks the error for the API envelope (see
// internal/server/error.go's coded-error mapping).
func (e *UnavailableError) ErrorCode() string { return "shard_unavailable" }
