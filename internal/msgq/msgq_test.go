package msgq

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func recvN(t *testing.T, ch <-chan Message, n int) []Message {
	t.Helper()
	var out []Message
	deadline := time.After(20 * time.Second)
	for len(out) < n {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d/%d messages", len(out), n)
			}
			out = append(out, m)
		case <-deadline:
			t.Fatalf("timeout after %d/%d messages", len(out), n)
		}
	}
	return out
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	msgs := []Message{
		{Topic: "a", Payload: []byte("hello")},
		{Topic: "", Payload: nil},
		{Topic: "events.mdt0", Payload: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	for _, m := range msgs {
		if err := writeMessage(w, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range msgs {
		got, err := readMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Topic != want.Topic || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("message %d mismatch", i)
		}
	}
}

func TestFrameQuick(t *testing.T) {
	f := func(topic string, payload []byte) bool {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeMessage(w, Message{Topic: topic, Payload: payload}); err != nil {
			return false
		}
		got, err := readMessage(bufio.NewReader(&buf))
		return err == nil && got.Topic == topic && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeMessage(w, Message{Topic: "t", Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := readMessage(bufio.NewReader(bytes.NewReader(full[:cut]))); err == nil {
			t.Errorf("accepted truncation at %d", cut)
		}
	}
}

func TestParseEndpoint(t *testing.T) {
	if _, err := parseEndpoint("bogus://x"); err == nil {
		t.Error("accepted bogus scheme")
	}
	if _, err := parseEndpoint("tcp://"); err == nil {
		t.Error("accepted empty tcp addr")
	}
	if _, err := parseEndpoint("inproc://"); err == nil {
		t.Error("accepted empty inproc name")
	}
	e, err := parseEndpoint("tcp://127.0.0.1:9999")
	if err != nil || e.kind != epTCP || e.addr != "127.0.0.1:9999" {
		t.Errorf("tcp parse = %+v, %v", e, err)
	}
}

func testPubSub(t *testing.T, ep string) {
	pub := NewPub()
	if err := pub.Bind(ep); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("events.")
	if err := sub.Connect(pub.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pub.Publish("events.mdt0", []byte(fmt.Sprintf("e%d", i)))
		pub.Publish("other.topic", []byte("filtered"))
	}
	msgs := recvN(t, sub.C(), 100)
	for i, m := range msgs {
		if m.Topic != "events.mdt0" {
			t.Fatalf("message %d topic %q", i, m.Topic)
		}
		if string(m.Payload) != fmt.Sprintf("e%d", i) {
			t.Fatalf("message %d payload %q (out of order?)", i, m.Payload)
		}
	}
}

func TestPubSubTCP(t *testing.T)    { testPubSub(t, "tcp://127.0.0.1:0") }
func TestPubSubInproc(t *testing.T) { testPubSub(t, "inproc://pubsub-basic") }

func TestPubMultipleSubscribers(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const numSubs = 4
	subs := make([]*Sub, numSubs)
	for i := range subs {
		subs[i] = NewSub()
		defer subs[i].Close()
		subs[i].Subscribe("")
		if err := subs[i].Connect(pub.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := subs[i].WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		pub.Publish("t", []byte{byte(i)})
	}
	for si, s := range subs {
		msgs := recvN(t, s.C(), 50)
		for i, m := range msgs {
			if m.Payload[0] != byte(i) {
				t.Fatalf("sub %d message %d = %d", si, i, m.Payload[0])
			}
		}
	}
}

func TestSubPrefixFiltering(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("inproc://prefix-filter"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("a.")
	sub.Subscribe("b.")
	if err := sub.Connect("inproc://prefix-filter"); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	pub.Publish("a.1", []byte("1"))
	pub.Publish("c.1", []byte("no"))
	pub.Publish("b.1", []byte("2"))
	msgs := recvN(t, sub.C(), 2)
	if msgs[0].Topic != "a.1" || msgs[1].Topic != "b.1" {
		t.Errorf("topics = %s, %s", msgs[0].Topic, msgs[1].Topic)
	}
	sub.Unsubscribe("a.")
	time.Sleep(50 * time.Millisecond)
	pub.Publish("a.2", []byte("no"))
	pub.Publish("b.2", []byte("3"))
	msgs = recvN(t, sub.C(), 1)
	if msgs[0].Topic != "b.2" {
		t.Errorf("after unsubscribe got %q", msgs[0].Topic)
	}
}

func TestPubDropOnSlowSubscriber(t *testing.T) {
	pub := NewPub(WithHWM(4))
	if err := pub.Bind("inproc://slow-sub"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub(WithRecvBuffer(2))
	sub.Subscribe("")
	if err := sub.Connect("inproc://slow-sub"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return pub.Subscribers() == 1 }, "attach")
	// In-process delivery blocks rather than drops (the sub channel is
	// the HWM); TCP is where ZMQ-style dropping occurs. Close the sub so
	// pending deliveries abort and count as drops.
	go func() {
		for i := 0; i < 10; i++ {
			pub.Publish("t", []byte{byte(i)})
		}
	}()
	time.Sleep(50 * time.Millisecond)
	sub.Close()
	waitFor(t, func() bool { return pub.Published() == 10 || pub.Dropped() > 0 }, "publishes settle")
}

func TestSubReconnect(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := pub.Addr()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return pub.Subscribers() == 1 }, "attach")
	pub.Publish("t", []byte("one"))
	recvN(t, sub.C(), 1)
	// Kill the publisher and bring up a new one on the same port.
	pub.Close()
	time.Sleep(50 * time.Millisecond)
	pub2 := NewPub()
	if err := pub2.Bind(addr); err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	waitFor(t, func() bool { return pub2.Subscribers() == 1 }, "reattach")
	// A freshly accepted connection may not have had its subscription
	// frame processed yet (the slow-joiner window), so publish until the
	// subscriber sees a message rather than racing a single publish.
	got := make(chan Message, 1)
	go func() {
		for m := range sub.C() {
			select {
			case got <- m:
			default:
			}
			return
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pub2.Publish("t", []byte("two"))
		select {
		case m := <-got:
			if string(m.Payload) != "two" {
				t.Errorf("after reconnect got %q", m.Payload)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after reconnect")
		}
	}
}

func TestConnectBeforeBind(t *testing.T) {
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect("inproc://late-bind"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	pub := NewPub()
	if err := pub.Bind("inproc://late-bind"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	waitFor(t, func() bool { return pub.Subscribers() == 1 }, "late attach")
	pub.Publish("t", []byte("hi"))
	msgs := recvN(t, sub.C(), 1)
	if string(msgs[0].Payload) != "hi" {
		t.Error("late bind delivery failed")
	}
}

func TestInprocDoubleBind(t *testing.T) {
	p1 := NewPub()
	if err := p1.Bind("inproc://dup"); err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2 := NewPub()
	if err := p2.Bind("inproc://dup"); err == nil {
		t.Error("double bind succeeded")
	}
}

func testPushPull(t *testing.T, ep string) {
	pull := NewPull(0)
	if err := pull.Bind(ep); err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	push, err := NewPush(pull.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer push.Close()
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			if err := push.Send(Message{Topic: "t", Payload: []byte{byte(i)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	msgs := recvN(t, pull.C(), n)
	for i, m := range msgs {
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d out of order", i)
		}
	}
	if pull.Received() != n {
		t.Errorf("Received = %d", pull.Received())
	}
}

func TestPushPullTCP(t *testing.T)    { testPushPull(t, "tcp://127.0.0.1:0") }
func TestPushPullInproc(t *testing.T) { testPushPull(t, "inproc://pushpull") }

func TestPushPullManyToOne(t *testing.T) {
	pull := NewPull(0)
	if err := pull.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	const pushers, per = 4, 250
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			push, err := NewPush(pull.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer push.Close()
			for i := 0; i < per; i++ {
				if err := push.Send(Message{Topic: fmt.Sprintf("mdt%d", p), Payload: []byte{byte(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	msgs := recvN(t, pull.C(), pushers*per)
	wg.Wait()
	// Per-pusher ordering is preserved even though the interleaving is
	// arbitrary (this is the property the aggregator relies on).
	next := map[string]byte{}
	for _, m := range msgs {
		if m.Payload[0] != next[m.Topic] {
			t.Fatalf("topic %s out of order: got %d want %d", m.Topic, m.Payload[0], next[m.Topic])
		}
		next[m.Topic]++
	}
}

func TestPushBlocksUntilPullExists(t *testing.T) {
	push, err := NewPush("inproc://pull-late")
	if err != nil {
		t.Fatal(err)
	}
	defer push.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- push.Send(Message{Topic: "t", Payload: []byte("x")})
	}()
	select {
	case err := <-errc:
		t.Fatalf("Send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	pull := NewPull(0)
	if err := pull.Bind("inproc://pull-late"); err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	recvN(t, pull.C(), 1)
}

func TestPushSendAfterClose(t *testing.T) {
	push, err := NewPush("inproc://closed-push")
	if err != nil {
		t.Fatal(err)
	}
	push.Close()
	if err := push.Send(Message{}); err == nil {
		t.Error("Send on closed socket succeeded")
	}
}

func TestPubSubHighVolume(t *testing.T) {
	pub := NewPub(WithBlockOnFull())
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect(pub.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	go func() {
		payload := bytes.Repeat([]byte{1}, 64)
		for i := 0; i < n; i++ {
			pub.Publish("events", payload)
		}
	}()
	recvN(t, sub.C(), n)
	if pub.Dropped() != 0 {
		t.Errorf("dropped %d with blocking pub", pub.Dropped())
	}
}

func TestWaitReadyInproc(t *testing.T) {
	pub := NewPub()
	if err := pub.Bind("inproc://waitready"); err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect("inproc://waitready"); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A ready subscriber receives the very next publish — no slow-joiner
	// loss.
	pub.Publish("t", []byte("first"))
	msgs := recvN(t, sub.C(), 1)
	if string(msgs[0].Payload) != "first" {
		t.Errorf("got %q", msgs[0].Payload)
	}
}

func TestWaitReadyTimesOutUnbound(t *testing.T) {
	sub := NewSub()
	defer sub.Close()
	sub.Subscribe("")
	if err := sub.Connect("inproc://never-bound-xyz"); err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitReady(100 * time.Millisecond); err == nil {
		t.Error("WaitReady succeeded with no publisher")
	}
}

func TestWaitReadyNoConnections(t *testing.T) {
	sub := NewSub()
	defer sub.Close()
	if err := sub.WaitReady(50 * time.Millisecond); err == nil {
		t.Error("WaitReady succeeded with zero endpoints")
	}
}

// WaitReady on a TCP subscriber means the publisher has applied its
// subscriptions: a single publish right after it must arrive, every time.
// Every tenth attach runs on one P against a spinning goroutine, so the
// publisher's control reader waits for a scheduler slice; readiness that
// is guessed after a fixed pause rather than acknowledged loses that
// publish.
func TestTCPReadyMeansSubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pub := NewPub()
	defer pub.Close()
	if err := pub.Bind("tcp://127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		stop := make(chan struct{})
		if i%10 == 0 {
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		sub := NewSub()
		sub.Subscribe("t.")
		if err := sub.Connect(pub.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := sub.WaitReady(5 * time.Second); err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		want := fmt.Sprintf("m%d", i)
		pub.Publish("t.x", []byte(want))
		select {
		case m := <-sub.C():
			if m.Topic != "t.x" || string(m.Payload) != want {
				t.Fatalf("attach %d: got %q %q, want t.x %q", i, m.Topic, m.Payload, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("attach %d: publish after WaitReady never arrived", i)
		}
		sub.Close()
		close(stop)
	}
}
