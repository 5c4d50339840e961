package msgq

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"fsmonitor/internal/events"
)

// ErrClosed is returned by context-aware waits when the socket closes.
var ErrClosed = errors.New("msgq: socket closed")

// DefaultHWM is the default per-subscriber high-water mark (queued
// messages) for PUB sockets, mirroring ZeroMQ's send HWM.
const DefaultHWM = 10000

// Pub is a publish socket: every message is distributed to all connected
// subscribers whose subscription prefixes match the topic. Each subscriber
// has its own queue bounded by the high-water mark; when a subscriber
// cannot keep up the publisher either drops messages for that subscriber
// (ZeroMQ semantics, the default) or blocks (lossless backpressure, used
// by the collector→aggregator path where the paper requires "no overall
// loss of events").
type Pub struct {
	mu          sync.Mutex
	hwm         int
	blockOnFull bool
	bound       []string
	listeners   []net.Listener
	inprocName  []string
	subs        map[*pubSubscriber]struct{}
	inproc      map[*inprocPeer]struct{}
	subChange   chan struct{} // closed+replaced on every attach/detach
	closed      chan struct{}
	closeOnce   sync.Once
	dropped     atomic.Uint64
	published   atomic.Uint64
	wg          sync.WaitGroup
}

type pubSubscriber struct {
	conn     net.Conn
	queue    chan Message
	prefixes map[string]bool
	mu       sync.Mutex
	done     chan struct{}
	once     sync.Once
}

func (s *pubSubscriber) matches(topic string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.prefixes {
		if strings.HasPrefix(topic, p) {
			return true
		}
	}
	return false
}

func (s *pubSubscriber) stop() {
	s.once.Do(func() {
		close(s.done)
		s.conn.Close()
	})
}

// PubOption configures a Pub socket.
type PubOption func(*Pub)

// WithHWM sets the per-subscriber high-water mark.
func WithHWM(n int) PubOption {
	return func(p *Pub) {
		if n > 0 {
			p.hwm = n
		}
	}
}

// WithBlockOnFull makes Publish block instead of dropping when a
// subscriber queue is full.
func WithBlockOnFull() PubOption {
	return func(p *Pub) { p.blockOnFull = true }
}

// NewPub creates an unbound publish socket.
func NewPub(opts ...PubOption) *Pub {
	p := &Pub{
		hwm:       DefaultHWM,
		subs:      make(map[*pubSubscriber]struct{}),
		inproc:    make(map[*inprocPeer]struct{}),
		subChange: make(chan struct{}),
		closed:    make(chan struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Bind makes the socket reachable at the endpoint. A socket may bind
// multiple endpoints.
func (p *Pub) Bind(ep string) error {
	e, err := parseEndpoint(ep)
	if err != nil {
		return err
	}
	switch e.kind {
	case epInproc:
		if err := inprocBind(e.addr, p); err != nil {
			return err
		}
		p.mu.Lock()
		p.inprocName = append(p.inprocName, e.addr)
		p.bound = append(p.bound, ep)
		p.mu.Unlock()
		return nil
	default:
		ln, err := net.Listen("tcp", e.addr)
		if err != nil {
			return fmt.Errorf("msgq: pub bind %s: %w", ep, err)
		}
		p.mu.Lock()
		p.listeners = append(p.listeners, ln)
		p.bound = append(p.bound, "tcp://"+ln.Addr().String())
		p.mu.Unlock()
		p.wg.Add(1)
		go p.acceptLoop(ln)
		return nil
	}
}

// Addr returns the first bound endpoint (with the real port for tcp://
// binds to port 0), or "" if unbound.
func (p *Pub) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bound) == 0 {
		return ""
	}
	return p.bound[0]
}

func (p *Pub) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sub := &pubSubscriber{
			conn:     conn,
			queue:    make(chan Message, p.hwm),
			prefixes: make(map[string]bool),
			done:     make(chan struct{}),
		}
		p.mu.Lock()
		select {
		case <-p.closed:
			p.mu.Unlock()
			conn.Close()
			return
		default:
		}
		p.subs[sub] = struct{}{}
		p.notifySubChangeLocked()
		p.mu.Unlock()
		p.wg.Add(2)
		go p.subReader(sub)
		go p.subWriter(sub)
	}
}

// subReader processes SUB/UNSUB/SYNC control frames from the subscriber.
func (p *Pub) subReader(sub *pubSubscriber) {
	defer p.wg.Done()
	defer p.detach(sub)
	r := bufio.NewReader(sub.conn)
	for {
		m, err := readMessage(r)
		if err != nil {
			return
		}
		switch m.Topic {
		case ctlSubscribe:
			sub.mu.Lock()
			sub.prefixes[string(m.Payload)] = true
			sub.mu.Unlock()
		case ctlUnsubscribe:
			sub.mu.Lock()
			delete(sub.prefixes, string(m.Payload))
			sub.mu.Unlock()
		case ctlSync:
			// Every earlier SUB is applied, so any publish from here on
			// matches it. The ack rides the data queue, behind whatever
			// was already queued for this subscriber.
			select {
			case sub.queue <- Message{Topic: ctlSyncAck}:
			case <-sub.done:
				return
			}
		}
	}
}

// subWriter drains the subscriber queue onto the wire.
func (p *Pub) subWriter(sub *pubSubscriber) {
	defer p.wg.Done()
	defer p.detach(sub)
	w := bufio.NewWriterSize(sub.conn, 64<<10)
	for {
		select {
		case <-sub.done:
			return
		case m := <-sub.queue:
			if err := writeMessage(w, m); err != nil {
				return
			}
			// Batch any queued messages before the next flush-causing
			// write, amortizing syscalls at high event rates.
			for {
				select {
				case m = <-sub.queue:
					if err := writeMessage(w, m); err != nil {
						return
					}
					continue
				default:
				}
				break
			}
		}
	}
}

func (p *Pub) detach(sub *pubSubscriber) {
	sub.stop()
	p.mu.Lock()
	delete(p.subs, sub)
	p.notifySubChangeLocked()
	p.mu.Unlock()
}

// attachInproc implements inprocBindable.
func (p *Pub) attachInproc(peer *inprocPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inproc[peer] = struct{}{}
	p.notifySubChangeLocked()
}

// detachInproc removes an in-process peer.
func (p *Pub) detachInproc(peer *inprocPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inproc, peer)
	p.notifySubChangeLocked()
}

// notifySubChangeLocked wakes WaitSubscribed callers. Caller holds p.mu.
func (p *Pub) notifySubChangeLocked() {
	close(p.subChange)
	p.subChange = make(chan struct{})
}

// WaitSubscribed blocks until the socket has at least one attached
// subscriber (either transport), the context is canceled, or the socket
// closes. It is event-driven — collectors gate Changelog consumption on
// it so unconsumed events buffer source-side with no sleep/poll loop.
func (p *Pub) WaitSubscribed(ctx context.Context) error {
	for {
		p.mu.Lock()
		n := len(p.subs) + len(p.inproc)
		change := p.subChange
		p.mu.Unlock()
		if n > 0 {
			return nil
		}
		select {
		case <-change:
		case <-ctx.Done():
			return ctx.Err()
		case <-p.closed:
			return ErrClosed
		}
	}
}

// Publish distributes the message to all matching subscribers.
func (p *Pub) Publish(topic string, payload []byte) {
	p.PublishCtx(context.Background(), topic, payload)
}

// PublishCtx distributes the message to all matching subscribers and
// returns how many queues accepted it. Under blockOnFull a full
// subscriber queue exerts backpressure; canceling ctx unwinds the blocked
// send (that subscriber simply misses the message, reflected in the
// count).
func (p *Pub) PublishCtx(ctx context.Context, topic string, payload []byte) int {
	p.published.Add(1)
	m := Message{Topic: topic, Payload: payload}
	p.mu.Lock()
	tcpSubs := make([]*pubSubscriber, 0, len(p.subs))
	for s := range p.subs {
		tcpSubs = append(tcpSubs, s)
	}
	peers := make([]*inprocPeer, 0, len(p.inproc))
	for q := range p.inproc {
		peers = append(peers, q)
	}
	p.mu.Unlock()
	delivered := 0
	for _, s := range tcpSubs {
		if !s.matches(topic) {
			continue
		}
		if p.blockOnFull {
			select {
			case s.queue <- m:
				delivered++
			case <-s.done:
			case <-p.closed:
			case <-ctx.Done():
			}
		} else {
			select {
			case s.queue <- m:
				delivered++
			default:
				p.dropped.Add(1)
			}
		}
	}
	for _, q := range peers {
		if !q.matches(topic) {
			continue
		}
		if q.deliver(m) {
			delivered++
		} else {
			p.dropped.Add(1)
		}
	}
	return delivered
}

// PublishBlockCtx distributes an event block to all matching subscribers.
// It is the zero-copy form of PublishCtx: in-process subscribers receive
// the Block pointer itself (decode-never), TCP subscribers receive its
// wire image, and when no subscriber matches the topic the wire image is
// never even materialized.
//
// It returns how many queues accepted the message and whether any
// subscriber now shares the block's memory — the pointer itself for
// in-process peers, the wire image's backing array for queued TCP sends.
// Once shared is true the block is frozen: the caller must not mutate or
// recycle it. When shared is false the caller retains exclusive
// ownership and may return the block to its pool (the common case on a
// republish topic nobody subscribes to, which this makes free).
func (p *Pub) PublishBlockCtx(ctx context.Context, topic string, blk *events.Block) (delivered int, shared bool) {
	p.published.Add(1)
	p.mu.Lock()
	tcpSubs := make([]*pubSubscriber, 0, len(p.subs))
	for s := range p.subs {
		tcpSubs = append(tcpSubs, s)
	}
	peers := make([]*inprocPeer, 0, len(p.inproc))
	for q := range p.inproc {
		peers = append(peers, q)
	}
	p.mu.Unlock()
	var (
		m     Message
		built bool
	)
	build := func() {
		if !built {
			m = Message{Topic: topic, Payload: blk.Wire(), Block: blk}
			built = true
		}
	}
	for _, s := range tcpSubs {
		if !s.matches(topic) {
			continue
		}
		build()
		if p.blockOnFull {
			select {
			case s.queue <- m:
				delivered++
				shared = true
			case <-s.done:
			case <-p.closed:
			case <-ctx.Done():
			}
		} else {
			select {
			case s.queue <- m:
				delivered++
				shared = true
			default:
				p.dropped.Add(1)
			}
		}
	}
	for _, q := range peers {
		if !q.matches(topic) {
			continue
		}
		build()
		if q.deliver(m) {
			delivered++
			shared = true
		} else {
			p.dropped.Add(1)
		}
	}
	return delivered, shared
}

// Subscribers returns the number of attached subscribers (both transports).
func (p *Pub) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs) + len(p.inproc)
}

// Dropped returns messages dropped due to full subscriber queues.
func (p *Pub) Dropped() uint64 { return p.dropped.Load() }

// Published returns the number of Publish calls.
func (p *Pub) Published() uint64 { return p.published.Load() }

// Close shuts the socket down, disconnecting subscribers.
func (p *Pub) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.mu.Lock()
		for _, ln := range p.listeners {
			ln.Close()
		}
		for _, name := range p.inprocName {
			inprocUnbind(name)
		}
		subs := make([]*pubSubscriber, 0, len(p.subs))
		for s := range p.subs {
			subs = append(subs, s)
		}
		p.inproc = map[*inprocPeer]struct{}{}
		p.mu.Unlock()
		for _, s := range subs {
			s.stop()
		}
		p.wg.Wait()
	})
}
