package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"skute/internal/ring"
	"skute/internal/store"
	"skute/internal/transport"
)

// Partition transfer: a node adopting a replica (economic replication,
// migration, or the standby fill after a join) pulls the partition from
// the donor in bounded, key-ordered chunks instead of one giant
// envelope. The donor throttles outbound bytes with a token bucket so a
// mass rebalance cannot starve the data path, and the adopter remembers
// a per-(partition, donor) resume cursor so a pull interrupted
// mid-stream restarts after the last applied key, not from scratch.

// defaultChunkItems bounds one fetchChunk response when the descriptor
// does not set Config.TransferChunkItems.
const defaultChunkItems = 128

// rateLimiter is a token-bucket byte throttle. A nil limiter means
// unlimited. The bucket holds at most one second of budget, so a long
// idle gap cannot bank an arbitrarily large burst.
type rateLimiter struct {
	mu          sync.Mutex
	bytesPerSec float64
	tokens      float64
	last        time.Time
}

// newRateLimiter returns nil (no throttling) when bytesPerSec <= 0.
func newRateLimiter(bytesPerSec int64) *rateLimiter {
	if bytesPerSec <= 0 {
		return nil
	}
	return &rateLimiter{bytesPerSec: float64(bytesPerSec)}
}

// wait blocks until nbytes of budget are available (or the context
// ends). Oversized single requests are allowed through after draining
// the bucket — the debt delays the next caller — so a chunk larger than
// one second of budget still makes progress.
func (rl *rateLimiter) wait(ctx context.Context, nbytes int) error {
	if rl == nil || nbytes <= 0 {
		return nil
	}
	rl.mu.Lock()
	now := time.Now()
	if rl.last.IsZero() {
		rl.last = now
		rl.tokens = rl.bytesPerSec // start with one second of budget
	}
	rl.tokens += now.Sub(rl.last).Seconds() * rl.bytesPerSec
	if rl.tokens > rl.bytesPerSec {
		rl.tokens = rl.bytesPerSec
	}
	rl.last = now
	rl.tokens -= float64(nbytes)
	var delay time.Duration
	if rl.tokens < 0 {
		delay = time.Duration(-rl.tokens / rl.bytesPerSec * float64(time.Second))
	}
	rl.mu.Unlock()
	if delay <= 0 {
		return nil
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// handleFetchChunk serves one key-ordered chunk of a partition, resumed
// after the caller's cursor. The byte throttle is paid before the reply
// leaves, so donors under a bandwidth cap naturally pace their adopters.
func (n *Node) handleFetchChunk(ctx context.Context, req fetchChunkReq) (transport.Envelope, error) {
	if _, _, err := n.partition(req.Ring, req.Part); err != nil {
		return transport.Envelope{}, err
	}
	max := req.MaxItems
	if max <= 0 || max > n.chunkItems {
		max = n.chunkItems
	}
	leaves := n.treeFor(req.Ring, req.Part).LeavesAfter(req.After, max)
	resp := fetchChunkResp{Done: len(leaves) < max, Next: req.After}
	bytes := 0
	for _, l := range leaves {
		resp.Next = l.Key
		vs := n.eng.Get(l.Key)
		if len(vs) == 0 {
			// Dropped between the leaf export and this read; the tree
			// already reflects it, the adopter just skips the key.
			continue
		}
		for _, v := range vs {
			bytes += len(v.Value)
		}
		resp.Items = append(resp.Items, kv{Key: l.Key, Versions: vs})
	}
	if err := n.throttle.wait(ctx, bytes); err != nil {
		return transport.Envelope{}, err
	}
	n.counters.TransferChunksServed.Inc()
	n.counters.TransferBytesOut.Add(int64(bytes))
	return transport.Envelope{Kind: "ok", Payload: encode(resp)}, nil
}

// pullPartition streams a partition from the donor in chunks, applying
// each as it lands. The resume cursor survives failed pulls: a retry —
// the coordinator re-issuing the adopt, or the joiner's next standby
// round — continues after the last applied key. The cursor is cleared
// on completion and kept on error.
func (n *Node) pullPartition(ctx context.Context, id ring.RingID, part int, donorAddr string) error {
	cursorKey := fmt.Sprintf("%s#%d@%s", id, part, donorAddr)
	n.xmu.Lock()
	after, resumed := n.resume[cursorKey]
	n.xmu.Unlock()
	if resumed {
		n.counters.TransferResumes.Inc()
		n.trace.Add("transfer", "resume %s#%d from %s after %q", id, part, donorAddr, after)
	} else {
		n.trace.Add("transfer", "pull %s#%d from %s", id, part, donorAddr)
	}
	for {
		resp, err := n.tr.Call(ctx, donorAddr, transport.Envelope{
			Kind:    kindFetchChunk,
			Payload: encode(fetchChunkReq{Ring: id, Part: part, After: after, MaxItems: n.chunkItems}),
		})
		if err != nil {
			return fmt.Errorf("cluster: chunk fetch from %s: %w", donorAddr, err)
		}
		var chunk fetchChunkResp
		if err := decode(resp.Payload, &chunk); err != nil {
			return err
		}
		var batch []store.Item
		for _, item := range chunk.Items {
			for _, v := range item.Versions {
				batch = append(batch, store.Item{Key: item.Key, Version: v})
			}
		}
		if _, err := n.eng.PutBatch(batch); err != nil {
			return err
		}
		n.counters.TransferChunks.Inc()
		n.counters.TransferItems.Add(int64(len(chunk.Items)))
		after = chunk.Next
		n.xmu.Lock()
		if chunk.Done {
			delete(n.resume, cursorKey)
		} else {
			n.resume[cursorKey] = after
		}
		n.xmu.Unlock()
		if chunk.Done {
			n.trace.Add("transfer", "complete %s#%d from %s", id, part, donorAddr)
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// handleAdopt makes this node a replica of the partition: it pulls the
// data from the donor address, chunk by chunk. Membership is NOT
// mutated here — the coordinator stamps the versioned placement delta
// after the adopt succeeds and disseminates it (this node included), so
// the replica set changes only through the one Apply path.
func (n *Node) handleAdopt(ctx context.Context, req adoptReq) (transport.Envelope, error) {
	if err := n.pullPartition(ctx, req.Ring, req.Part, req.FromAddr); err != nil {
		return transport.Envelope{}, err
	}
	return transport.Envelope{Kind: "ok"}, nil
}
