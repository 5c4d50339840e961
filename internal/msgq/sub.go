package msgq

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Sub is a subscribe socket. It connects to one or more publishers,
// registers topic-prefix subscriptions, and fans all matching messages
// into a single receive channel. Lost TCP connections are re-established
// with backoff, and subscriptions are replayed on reconnect.
type Sub struct {
	mu        sync.Mutex
	prefixes  map[string]bool
	conns     map[string]*subConn // endpoint -> connection state
	out       chan Message
	outMu     sync.RWMutex // serializes inproc deliveries vs close(out)
	outClosed bool
	readyCh   chan struct{} // closed+replaced on every readiness change
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	received  uint64
}

type subConn struct {
	ep     endpoint
	raw    net.Conn
	notify func() // wakes the owning Sub's readiness waiters
	mu     sync.Mutex
	peer   *inprocPeer // inproc only
	pub    *Pub        // inproc only
	ready  bool
}

func (c *subConn) setReady(v bool) {
	c.mu.Lock()
	c.ready = v
	c.mu.Unlock()
	if c.notify != nil {
		c.notify()
	}
}

func (c *subConn) isReady() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready
}

// SubOption configures a Sub socket.
type SubOption func(*Sub)

// WithRecvBuffer sets the receive channel capacity (default DefaultHWM).
func WithRecvBuffer(n int) SubOption {
	return func(s *Sub) {
		if n > 0 {
			s.out = make(chan Message, n)
		}
	}
}

// NewSub creates a subscribe socket.
func NewSub(opts ...SubOption) *Sub {
	s := &Sub{
		prefixes: make(map[string]bool),
		conns:    make(map[string]*subConn),
		readyCh:  make(chan struct{}),
		closed:   make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.out == nil {
		s.out = make(chan Message, DefaultHWM)
	}
	return s
}

// Connect attaches the socket to a publisher endpoint. Connecting before
// the publisher binds is allowed; the connection is retried until it
// succeeds or the socket closes.
func (s *Sub) Connect(ep string) error {
	e, err := parseEndpoint(ep)
	if err != nil {
		return err
	}
	c := &subConn{ep: e, notify: s.notifyReady}
	s.mu.Lock()
	if _, dup := s.conns[ep]; dup {
		s.mu.Unlock()
		return nil
	}
	s.conns[ep] = c
	s.mu.Unlock()
	s.wg.Add(1)
	go s.connLoop(c)
	return nil
}

// Subscribe registers interest in topics beginning with prefix. The empty
// prefix matches everything.
func (s *Sub) Subscribe(prefix string) {
	s.mu.Lock()
	s.prefixes[prefix] = true
	conns := s.snapshotConns()
	s.mu.Unlock()
	for _, c := range conns {
		c.sendCtl(ctlSubscribe, prefix)
		if c.peer != nil {
			c.peer.subscribe(prefix)
		}
	}
}

// Unsubscribe removes a prefix subscription.
func (s *Sub) Unsubscribe(prefix string) {
	s.mu.Lock()
	delete(s.prefixes, prefix)
	conns := s.snapshotConns()
	s.mu.Unlock()
	for _, c := range conns {
		c.sendCtl(ctlUnsubscribe, prefix)
		if c.peer != nil {
			c.peer.unsubscribe(prefix)
		}
	}
}

func (s *Sub) snapshotConns() []*subConn {
	out := make([]*subConn, 0, len(s.conns))
	for _, c := range s.conns {
		out = append(out, c)
	}
	return out
}

func (c *subConn) sendCtl(topic, prefix string) {
	c.mu.Lock()
	raw := c.raw
	c.mu.Unlock()
	if raw == nil {
		return
	}
	w := bufio.NewWriter(raw)
	_ = writeMessage(w, Message{Topic: topic, Payload: []byte(prefix)})
}

// C returns the receive channel. It is closed when the socket closes.
func (s *Sub) C() <-chan Message { return s.out }

// Recv receives the next message, unblocking when ctx is canceled. ok is
// false when the socket closed (after any buffered messages drained) or
// the context ended.
func (s *Sub) Recv(ctx context.Context) (m Message, ok bool) {
	select {
	case m, ok = <-s.out:
		return m, ok
	case <-ctx.Done():
		return Message{}, false
	}
}

// notifyReady wakes WaitReady/WaitAnyReady callers.
func (s *Sub) notifyReady() {
	s.mu.Lock()
	close(s.readyCh)
	s.readyCh = make(chan struct{})
	s.mu.Unlock()
}

// connLoop maintains one endpoint connection across failures. Retries
// use capped exponential backoff with jitter so a flock of subscribers
// chasing one restarting publisher (cluster join, node replacement)
// doesn't redial in lockstep.
func (s *Sub) connLoop(c *subConn) {
	defer s.wg.Done()
	retry := newBackoff(10*time.Millisecond, time.Second)
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		ok := false
		if c.ep.kind == epInproc {
			ok = s.runInproc(c)
		} else {
			ok = s.runTCP(c)
		}
		if !ok {
			select {
			case <-s.closed:
				return
			case <-time.After(retry.next()):
			}
			continue
		}
		retry.reset()
	}
}

// runInproc attaches to an in-process publisher; returns false to retry.
func (s *Sub) runInproc(c *subConn) bool {
	b, found := inprocLookup(c.ep.addr)
	if !found {
		return false
	}
	pub, isPub := b.(*Pub)
	if !isPub {
		return false
	}
	peer := &inprocPeer{prefixes: map[string]bool{}}
	peer.deliver = func(m Message) bool {
		// A publisher may call deliver from its own goroutine after this
		// peer detached (it snapshots peers before sending); the read
		// lock keeps such stragglers ordered before close(s.out).
		s.outMu.RLock()
		defer s.outMu.RUnlock()
		if s.outClosed {
			return false
		}
		select {
		case s.out <- m:
			return true
		case <-s.closed:
			return false
		}
	}
	s.mu.Lock()
	for p := range s.prefixes {
		peer.prefixes[p] = true
	}
	c.peer = peer
	c.pub = pub
	s.mu.Unlock()
	pub.attachInproc(peer)
	c.setReady(true)
	// Stay attached until the socket or the publisher closes.
	select {
	case <-s.closed:
		c.setReady(false)
		pub.detachInproc(peer)
		return true
	case <-pub.closed:
		c.setReady(false)
		pub.detachInproc(peer)
		s.mu.Lock()
		c.peer, c.pub = nil, nil
		s.mu.Unlock()
		return false
	}
}

// WaitReady blocks until every connected endpoint has an established,
// subscription-replayed link to its publisher, or the timeout elapses.
// PUB/SUB has no delivery guarantee for messages published before a
// subscriber attaches (the ZeroMQ "slow joiner"); callers that must not
// miss the first messages wait for readiness before triggering them.
func (s *Sub) WaitReady(timeout time.Duration) error {
	return s.waitUntil(timeout, "sub not ready", func() bool {
		for _, c := range s.conns {
			if !c.isReady() {
				return false
			}
		}
		return len(s.conns) > 0
	})
}

// WaitAnyReady blocks until at least one connected endpoint is ready, or
// the timeout elapses. Used when some publishers may come up later (e.g.
// an aggregator whose collectors restart independently).
func (s *Sub) WaitAnyReady(timeout time.Duration) error {
	return s.waitUntil(timeout, "no endpoint ready", func() bool {
		for _, c := range s.conns {
			if c.isReady() {
				return true
			}
		}
		return false
	})
}

// WaitEndpointReady blocks until the link to ep (as passed to Connect) is
// ready, or the timeout elapses — WaitReady for one publisher among
// several, some of which may be down.
func (s *Sub) WaitEndpointReady(ep string, timeout time.Duration) error {
	return s.waitUntil(timeout, "endpoint "+ep+" not ready", func() bool {
		c, ok := s.conns[ep]
		return ok && c.isReady()
	})
}

// waitUntil blocks until ready (evaluated under s.mu) holds, re-checking
// on every readiness change.
func (s *Sub) waitUntil(timeout time.Duration, what string, ready func() bool) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		ok := ready()
		change := s.readyCh
		s.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-change:
		case <-deadline.C:
			return fmt.Errorf("msgq: %s after %v", what, timeout)
		case <-s.closed:
			return fmt.Errorf("msgq: sub closed")
		}
	}
}

// runTCP serves one TCP connection lifetime; returns false to reconnect.
func (s *Sub) runTCP(c *subConn) bool {
	conn, err := net.DialTimeout("tcp", c.ep.addr, 2*time.Second)
	if err != nil {
		return false
	}
	c.mu.Lock()
	c.raw = conn
	c.mu.Unlock()
	// Replay subscriptions.
	w := bufio.NewWriter(conn)
	s.mu.Lock()
	prefixes := make([]string, 0, len(s.prefixes))
	for p := range s.prefixes {
		prefixes = append(prefixes, p)
	}
	s.mu.Unlock()
	for _, p := range prefixes {
		if err := writeMessage(w, Message{Topic: ctlSubscribe, Payload: []byte(p)}); err != nil {
			conn.Close()
			return false
		}
	}
	// Topic matching happens publisher-side at publish time, so the link
	// is ready only once the publisher has applied the subscriptions: it
	// acknowledges a SYNC sent after them, and the ack (read below)
	// declares readiness.
	if err := writeMessage(w, Message{Topic: ctlSync}); err != nil {
		conn.Close()
		return false
	}
	defer c.setReady(false)
	// Close the conn when the socket closes so the read loop unblocks.
	done := make(chan struct{})
	go func() {
		select {
		case <-s.closed:
			conn.Close()
		case <-done:
		}
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		m, err := readMessage(r)
		if err != nil {
			close(done)
			conn.Close()
			c.mu.Lock()
			c.raw = nil
			c.mu.Unlock()
			select {
			case <-s.closed:
				return true
			default:
				return false
			}
		}
		if m.Topic == ctlSyncAck {
			c.setReady(true)
			continue
		}
		s.mu.Lock()
		s.received++
		s.mu.Unlock()
		select {
		case s.out <- m:
		case <-s.closed:
			close(done)
			conn.Close()
			return true
		}
	}
}

// Depth returns the current receive-channel backlog — the queue-depth
// signal a deployment watches to spot a consumer falling behind.
func (s *Sub) Depth() int { return len(s.out) }

// Cap returns the receive-channel capacity.
func (s *Sub) Cap() int { return cap(s.out) }

// Received returns messages received over TCP connections.
func (s *Sub) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Close disconnects and closes the receive channel.
func (s *Sub) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.mu.Lock()
		for _, c := range s.conns {
			c.mu.Lock()
			if c.raw != nil {
				c.raw.Close()
			}
			c.mu.Unlock()
			if c.pub != nil {
				c.pub.detachInproc(c.peer)
			}
		}
		s.mu.Unlock()
		s.wg.Wait()
		s.outMu.Lock()
		s.outClosed = true
		s.outMu.Unlock()
		close(s.out)
	})
}
