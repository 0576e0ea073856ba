package fl

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

// The TCP transport speaks a minimal gob protocol:
//
//	client → server  hello{ClientID}
//	server → client  serverMsg{Round}    (repeated, one per selected round)
//	client → server  roundReply{Update}  (or roundReply{Err})
//	server → client  serverMsg{Goodbye}  (graceful shutdown)
//
// gob's stream framing handles message boundaries; per-exchange deadlines
// bound the damage of a stalled peer.

type wireHello struct {
	ClientID string
}

// wireServerMsg is the tagged server→client envelope: either one round
// request or a goodbye.
type wireServerMsg struct {
	Goodbye bool
	Round   RoundRequest
}

type wireRoundReply struct {
	Update Update
	Err    string
}

func init() {
	gob.Register(wireHello{})
	gob.Register(wireServerMsg{})
	gob.Register(wireRoundReply{})
}

// TCPServerOptions tune the listener-side transport.
type TCPServerOptions struct {
	// ExchangeTimeout bounds one dispatch+reply round trip per client.
	// Zero means 30 seconds.
	ExchangeTimeout time.Duration
}

// TCPServer accepts FL clients over TCP and exposes them as a Roster. Each
// accepted connection is wrapped in a remoteClient whose HandleRound
// performs one synchronous exchange.
type TCPServer struct {
	ln   net.Listener
	opts TCPServerOptions

	mu      sync.Mutex
	clients map[string]*remoteClient
	roster  []Client // sorted snapshot taken by NumClients
	closed  bool
}

var _ Roster = (*TCPServer)(nil)

// ListenTCP starts accepting clients on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string, opts TCPServerOptions) (*TCPServer, error) {
	if opts.ExchangeTimeout == 0 {
		opts.ExchangeTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, opts: opts, clients: make(map[string]*remoteClient)}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listener address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.handshake(conn)
	}
}

func (s *TCPServer) handshake(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	_ = conn.SetReadDeadline(time.Now().Add(s.opts.ExchangeTimeout)) //oasis:allow-walltime handshake deadline against a remote peer is real time
	var hello wireHello
	if err := dec.Decode(&hello); err != nil || hello.ClientID == "" {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	rc := &remoteClient{
		id: hello.ClientID, conn: conn, enc: enc, dec: dec,
		timeout: s.opts.ExchangeTimeout,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	if old, ok := s.clients[hello.ClientID]; ok {
		_ = old.conn.Close() // replace a stale registration
	}
	s.clients[hello.ClientID] = rc
	s.mu.Unlock()
}

// NumClients snapshots the registered remote clients, sorted by client ID,
// and returns the snapshot's size. The snapshot feeds Server.selectRound's
// sampler, so its order must be a function of the population, not of map
// iteration or of the order in which connections happened to arrive —
// otherwise the same sampler rng draws would select different clients on
// every run. Lease indexes the same snapshot, so a client that connects
// mid-selection cannot shift the cohort.
func (s *TCPServer) NumClients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.clients))
	for id := range s.clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s.roster = s.roster[:0]
	for _, id := range ids {
		s.roster = append(s.roster, s.clients[id])
	}
	return len(s.roster)
}

// NumSamples returns 0: remote shard sizes are not known server-side, so
// size-weighted sampling weighs every peer as one sample.
func (s *TCPServer) NumSamples(int) int { return 0 }

// Lease returns the clients at indices of the last NumClients snapshot.
func (s *TCPServer) Lease(_ int, indices []int) ([]Client, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return leaseFrom(s.roster, indices)
}

// Release is a no-op: connections outlive rounds.
func (s *TCPServer) Release(int, []Client) {}

// WaitForClients blocks until at least n clients are connected or ctx ends.
func (s *TCPServer) WaitForClients(ctx context.Context, n int) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		have := len(s.clients)
		s.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fl: waiting for %d clients (have %d): %w", n, have, ctx.Err())
		case <-tick.C:
		}
	}
}

// Close sends goodbyes and tears down all connections and the listener.
// Each goodbye is serialized against any in-flight HandleRound on the same
// connection: gob encoders are not safe for concurrent Encode calls, and
// with a concurrent round engine a worker may still be mid-exchange.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ids := make([]string, 0, len(s.clients))
	for id := range s.clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	clients := make([]*remoteClient, 0, len(ids))
	for _, id := range ids {
		clients = append(clients, s.clients[id])
	}
	s.clients = map[string]*remoteClient{}
	s.mu.Unlock()
	for _, c := range clients {
		c.mu.Lock()
		_ = c.enc.Encode(wireServerMsg{Goodbye: true})
		c.mu.Unlock()
		_ = c.conn.Close()
	}
	return s.ln.Close()
}

// remoteClient is the server-side proxy for one TCP client. mu serializes
// every use of the connection's gob encoder/decoder pair — HandleRound
// exchanges and the Close-time goodbye — so a remoteClient satisfies the
// Client concurrency contract even though the worker pool dispatches
// different remote clients from different goroutines.
type remoteClient struct {
	id      string
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	timeout time.Duration
	mu      sync.Mutex
}

var _ Client = (*remoteClient)(nil)

// ID returns the client's self-reported identifier.
func (c *remoteClient) ID() string { return c.id }

// HandleRound performs one synchronous dispatch/reply exchange. Context
// cancellation is honored mid-exchange by forcing an immediate connection
// deadline; the interrupted gob stream is unusable afterwards, which is
// fine — cancellation means the run (or at least this round) is over, and
// a reconnecting client re-registers through the normal handshake.
//
//oasis:allow-walltime exchange deadlines against a remote peer are real-time by design
func (c *remoteClient) HandleRound(ctx context.Context, req RoundRequest) (Update, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Update{}, fmt.Errorf("fl: dispatch to %s: %w", c.id, err)
	}
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = c.conn.SetDeadline(deadline)
	defer c.conn.SetDeadline(time.Time{})
	stop := context.AfterFunc(ctx, func() { _ = c.conn.SetDeadline(time.Now()) })
	defer stop()
	if err := c.enc.Encode(wireServerMsg{Round: req}); err != nil {
		return Update{}, fmt.Errorf("fl: dispatch to %s: %w", c.id, err)
	}
	var reply wireRoundReply
	if err := c.dec.Decode(&reply); err != nil {
		return Update{}, fmt.Errorf("fl: reply from %s: %w", c.id, err)
	}
	if reply.Err != "" {
		return Update{}, fmt.Errorf("fl: client %s: %s", c.id, reply.Err)
	}
	return reply.Update, nil
}

// ServeTCP connects a local client to an FL server at addr and processes
// round requests until the server says goodbye, the connection drops, or ctx
// is cancelled. It returns nil on graceful shutdown.
func ServeTCP(ctx context.Context, addr string, client Client) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("fl: dial %s: %w", addr, err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(wireHello{ClientID: client.ID()}); err != nil {
		return fmt.Errorf("fl: hello: %w", err)
	}
	// Unblock the read loop when ctx is cancelled.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()
	for {
		var msg wireServerMsg
		if err := dec.Decode(&msg); err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("fl: receive: %w", err)
		}
		if msg.Goodbye {
			return nil
		}
		update, err := client.HandleRound(ctx, msg.Round)
		reply := wireRoundReply{Update: update}
		if err != nil {
			reply = wireRoundReply{Err: err.Error()}
		}
		if err := enc.Encode(reply); err != nil {
			return fmt.Errorf("fl: reply: %w", err)
		}
	}
}
