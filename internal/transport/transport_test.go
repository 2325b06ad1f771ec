package transport

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/types"
)

func TestClassify(t *testing.T) {
	tests := []struct {
		name    string
		from    types.NodeID
		inboxes int
		want    int
	}{
		{"single inbox client", types.ClientNode(5), 1, 0},
		{"single inbox replica", types.ReplicaNode(2), 1, 0},
		{"client goes to zero", types.ClientNode(5), 3, 0},
		{"replica avoids zero", types.ReplicaNode(0), 3, 1},
		{"replica spread", types.ReplicaNode(1), 3, 2},
		{"replica wraps", types.ReplicaNode(2), 3, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Classify(tt.from, tt.inboxes); got != tt.want {
				t.Fatalf("Classify = %d, want %d", got, tt.want)
			}
		})
	}
}

func env(from, to types.NodeID, body string) *types.Envelope {
	return &types.Envelope{From: from, To: to, Type: types.MsgPrepare, Body: []byte(body), Auth: []byte{1}}
}

func TestInprocDelivery(t *testing.T) {
	net := NewInproc()
	a := net.Endpoint(types.ReplicaNode(0), 3, 16)
	b := net.Endpoint(types.ReplicaNode(1), 3, 16)
	defer a.Close()
	defer b.Close()

	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), "hello")); err != nil {
		t.Fatal(err)
	}
	idx := Classify(types.ReplicaNode(0), 3)
	select {
	case got := <-b.Inbox(idx):
		if string(got.Body) != "hello" {
			t.Fatalf("Body = %q", got.Body)
		}
	case <-time.After(time.Second):
		t.Fatal("delivery timed out")
	}
}

func TestInprocClientClassification(t *testing.T) {
	net := NewInproc()
	r := net.Endpoint(types.ReplicaNode(0), 3, 16)
	c := net.Endpoint(types.ClientNode(7), 1, 16)
	defer r.Close()
	defer c.Close()

	if err := c.Send(env(types.ClientNode(7), types.ReplicaNode(0), "req")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-r.Inbox(0):
		if string(got.Body) != "req" {
			t.Fatalf("Body = %q", got.Body)
		}
	case <-time.After(time.Second):
		t.Fatal("client request not in inbox 0")
	}
}

func TestInprocUnknownDestination(t *testing.T) {
	net := NewInproc()
	a := net.Endpoint(types.ReplicaNode(0), 1, 4)
	defer a.Close()
	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(9), "x")); err == nil {
		t.Fatal("send to unknown node succeeded")
	}
}

func TestInprocDownDropsSilently(t *testing.T) {
	net := NewInproc()
	a := net.Endpoint(types.ReplicaNode(0), 1, 4)
	b := net.Endpoint(types.ReplicaNode(1), 1, 4)
	defer a.Close()
	defer b.Close()

	net.SetDown(types.ReplicaNode(1), true)
	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), "x")); err != nil {
		t.Fatalf("send to downed node errored: %v", err)
	}
	select {
	case <-b.Inbox(0):
		t.Fatal("downed node received traffic")
	case <-time.After(50 * time.Millisecond):
	}
	// Recovery restores delivery.
	net.SetDown(types.ReplicaNode(1), false)
	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), "y")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Inbox(0):
	case <-time.After(time.Second):
		t.Fatal("recovered node got nothing")
	}
}

func TestInprocCloseClosesInboxes(t *testing.T) {
	net := NewInproc()
	a := net.Endpoint(types.ReplicaNode(0), 2, 4)
	a.Close()
	for i := 0; i < 2; i++ {
		if _, ok := <-a.Inbox(i); ok {
			t.Fatalf("inbox %d not closed", i)
		}
	}
	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(0), "x")); err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	addrs := make(map[types.NodeID]string)
	a, err := NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(0), ListenAddr: "127.0.0.1:0", Addrs: addrs, Inboxes: 2, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(1), ListenAddr: "127.0.0.1:0", Addrs: addrs, Inboxes: 2, Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(types.ReplicaNode(1), b.Addr())
	b.SetPeerAddr(types.ReplicaNode(0), a.Addr())

	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), "over-tcp")); err != nil {
		t.Fatal(err)
	}
	idx := Classify(types.ReplicaNode(0), 2)
	select {
	case got := <-b.Inbox(idx):
		if string(got.Body) != "over-tcp" || got.From != types.ReplicaNode(0) {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP delivery timed out")
	}

	// Bidirectional: reply over a fresh (lazily dialed) connection.
	if err := b.Send(env(types.ReplicaNode(1), types.ReplicaNode(0), "reply")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-a.Inbox(Classify(types.ReplicaNode(1), 2)):
		if string(got.Body) != "reply" {
			t.Fatalf("got %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP reply timed out")
	}
}

func TestTCPManyFramesOrdered(t *testing.T) {
	addrs := make(map[types.NodeID]string)
	a, err := NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(0), ListenAddr: "127.0.0.1:0", Addrs: addrs, Inboxes: 1, Capacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(1), ListenAddr: "127.0.0.1:0", Addrs: addrs, Inboxes: 1, Capacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeerAddr(types.ReplicaNode(1), b.Addr())

	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(1), fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case got := <-b.Inbox(0):
			if want := fmt.Sprintf("m%04d", i); string(got.Body) != want {
				t.Fatalf("frame %d = %q, want %q", i, got.Body, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(0), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(5), "x")); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPCloseIsIdempotent(t *testing.T) {
	a, err := NewTCPWithConfig(TCPConfig{Self: types.ReplicaNode(0), ListenAddr: "127.0.0.1:0", Inboxes: 1, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.Close() // must not panic
	if err := a.Send(env(types.ReplicaNode(0), types.ReplicaNode(0), "x")); err == nil {
		t.Fatal("send after close succeeded")
	}
}
