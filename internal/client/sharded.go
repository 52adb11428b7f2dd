package client

import (
	"repro/internal/shard"
)

// NewSharded creates a client over a multi-shard store: backends[i] is shard
// i's transport (wire.NewDirect against a server configured with ShardID=i,
// ShardCount=len(backends), or a wire.Dial connection to its daemon). Retry
// belongs below the router — wrap each shard's transport in wire.WithRetry
// before passing it, so a re-sent Prepare or Decide reaches the same shard
// that missed it. The router itself is returned for placement control
// (AllocPageOn) and recovery resolution (Recover).
func NewSharded(cfg Config, backends []shard.Backend) (*Client, *shard.Router) {
	router := shard.NewRouter(backends)
	return New(cfg, router), router
}
