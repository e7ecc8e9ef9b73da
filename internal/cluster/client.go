package cluster

import (
	"context"

	"skute/internal/ring"
	"skute/internal/transport"
	"skute/internal/vclock"
)

// Client talks to one cluster node over a transport and has the node
// coordinate quorum operations on its behalf. It is what cmd/skutectl
// uses against a live cmd/skuted deployment.
//
// Every call takes a context and per-request options. The consistency
// level and timeout travel in the wire envelope, so the coordinating
// node honors the caller's choices instead of its own configured
// defaults; the timeout (and any context deadline) also bounds the
// client's own network exchange.
type Client struct {
	tr   transport.Transport
	addr string
}

// NewClient returns a client bound to the node at addr.
func NewClient(tr transport.Transport, addr string) *Client {
	return &Client{tr: tr, addr: addr}
}

// Get reads a key through the node: sibling values plus causal context.
func (c *Client) Get(ctx context.Context, id ring.RingID, key string, opts ReadOptions) ([][]byte, vclock.VC, error) {
	cctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	resp, err := c.tr.Call(cctx, c.addr, transport.Envelope{
		Kind:    kindClientGet,
		Payload: encode(clientGetReq{Ring: id, Key: key, Consistency: opts.Consistency, Timeout: opts.Timeout}),
	})
	if err != nil {
		return nil, nil, err
	}
	var r clientGetResp
	derr := decode(resp.Payload, &r)
	transport.RecyclePayload(resp.Payload) // decode copied it out
	if derr != nil {
		return nil, nil, derr
	}
	return r.Values, r.Context, nil
}

// Put writes a value through the node.
func (c *Client) Put(ctx context.Context, id ring.RingID, key string, value []byte, vctx vclock.VC, opts WriteOptions) error {
	cctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	resp, err := c.tr.Call(cctx, c.addr, transport.Envelope{
		Kind: kindClientPut,
		Payload: encode(clientPutReq{
			Ring: id, Key: key, Value: value, Context: vctx,
			Consistency: opts.Consistency, Timeout: opts.Timeout,
		}),
	})
	transport.RecyclePayload(resp.Payload) // ack payload is never inspected
	return err
}

// Delete tombstones a key through the node.
func (c *Client) Delete(ctx context.Context, id ring.RingID, key string, vctx vclock.VC, opts WriteOptions) error {
	cctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	resp, err := c.tr.Call(cctx, c.addr, transport.Envelope{
		Kind: kindClientDel,
		Payload: encode(clientPutReq{
			Ring: id, Key: key, Delete: true, Context: vctx,
			Consistency: opts.Consistency, Timeout: opts.Timeout,
		}),
	})
	transport.RecyclePayload(resp.Payload) // ack payload is never inspected
	return err
}

// MGet reads a batch of keys in one exchange; the node groups them by
// partition and sends at most one envelope per replica node. Missing
// keys map to an empty GetResult.
func (c *Client) MGet(ctx context.Context, id ring.RingID, keys []string, opts ReadOptions) (map[string]GetResult, error) {
	cctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	resp, err := c.tr.Call(cctx, c.addr, transport.Envelope{
		Kind:    kindClientMGet,
		Payload: encode(clientMGetReq{Ring: id, Keys: keys, Consistency: opts.Consistency, Timeout: opts.Timeout}),
	})
	if err != nil {
		return nil, err
	}
	var r clientMGetResp
	derr := decode(resp.Payload, &r)
	transport.RecyclePayload(resp.Payload) // decode copied it out
	if derr != nil {
		return nil, derr
	}
	out := make(map[string]GetResult, len(r.Items))
	for _, item := range r.Items {
		out[item.Key] = GetResult{Values: item.Values, Context: item.Context}
	}
	return out, nil
}

// MPut writes a batch of entries in one exchange; the node groups them
// by partition and sends one envelope per alive replica node.
func (c *Client) MPut(ctx context.Context, id ring.RingID, entries []Entry, opts WriteOptions) error {
	cctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	resp, err := c.tr.Call(cctx, c.addr, transport.Envelope{
		Kind:    kindClientMPut,
		Payload: encode(clientMPutReq{Ring: id, Entries: entries, Consistency: opts.Consistency, Timeout: opts.Timeout}),
	})
	transport.RecyclePayload(resp.Payload) // ack payload is never inspected
	return err
}

// Members dumps the node's member table: every member's gossiped state
// and incarnation plus the node's local probation/confirmation view
// (skutectl members).
func (c *Client) Members(ctx context.Context) ([]MemberRecord, error) {
	resp, err := c.tr.Call(ctx, c.addr, transport.Envelope{Kind: kindClientMembers})
	if err != nil {
		return nil, err
	}
	var r clientMembersResp
	if err := decode(resp.Payload, &r); err != nil {
		return nil, err
	}
	return r.Members, nil
}
