package service

import (
	"encoding/json"
	"time"
)

// Wire types for POST /v1/replicate, the anti-entropy pull endpoint. A
// peer presents its cursor for this node's store log and receives the
// next page of records plus the advanced cursor; it keeps pulling while
// More is set. A caught-up peer long-polls: the ?wait= query parameter
// (not a body field, so servers that predate it ignore it rather than
// refuse the request) parks the pull until the log grows. The cursor
// contract (generation bumps invalidating byte offsets) is store.Since's;
// this layer only ferries it over HTTP.

// MaxReplicateWait caps the ?wait= of one replicate pull.
const MaxReplicateWait = time.Minute

// ReplicateRequest is the puller's cursor into the serving node's log.
type ReplicateRequest struct {
	// Gen is the log generation the Offset is valid for; zero (or any
	// stale value) restarts the cursor from the top of the live log.
	Gen uint64 `json:"gen"`
	// Offset is the byte position to resume from.
	Offset int64 `json:"offset"`
	// MaxBytes bounds the page of on-disk record data returned;
	// non-positive means the server default (store.DefaultSinceBytes).
	MaxBytes int `json:"max_bytes,omitempty"`
}

// ReplicateRecord is one replicated verdict: the content-address
// fingerprint key and the stored result document.
type ReplicateRecord struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// ReplicateResponse is one page of the serving node's log.
type ReplicateResponse struct {
	// Node names the serving node (cluster mode; empty single-node).
	Node string `json:"node,omitempty"`
	// Gen and Next form the cursor for the next pull.
	Gen  uint64 `json:"gen"`
	Next int64  `json:"next"`
	// More reports that records past Next already exist; the puller
	// should continue immediately rather than sleep.
	More bool `json:"more"`
	// Records is the page, in log order.
	Records []ReplicateRecord `json:"records,omitempty"`
}
