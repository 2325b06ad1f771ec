package transport

import (
	"fmt"
	"testing"

	"resilientdb/internal/types"
)

// benchTCPBlast drives n envelopes through a localhost TCP pair, draining
// and releasing on the benchmark goroutine; without pool the receiver
// allocates every frame. It is the transport-level half of the zero-copy
// allocation comparison (run with -benchmem).
func benchTCPBlast(b *testing.B, pool bool) {
	a, err := NewTCPWithConfig(TCPConfig{
		Self: types.ReplicaNode(0), ListenAddr: "127.0.0.1:0",
		Inboxes: 1, Capacity: 1 << 14, BatchMax: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	recv, err := NewTCPWithConfig(TCPConfig{
		Self: types.ReplicaNode(1), ListenAddr: "127.0.0.1:0",
		Inboxes: 1, Capacity: 1 << 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	if !pool {
		recv.SetFrameBuffers(nil)
	}
	a.SetPeerAddr(types.ReplicaNode(1), recv.Addr())

	body := []byte(fmt.Sprintf("%0200d", 0))
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			_ = a.Send(&types.Envelope{
				From: types.ReplicaNode(0), To: types.ReplicaNode(1),
				Type: types.MsgPrepare, Body: body, Auth: body[:32],
			})
		}
	}()
	for i := 0; i < b.N; i++ {
		e := <-recv.Inbox(0)
		e.Release()
	}
	<-done
}

func BenchmarkTCPDeliveryNoPool(b *testing.B)   { benchTCPBlast(b, false) }
func BenchmarkTCPDeliveryZeroCopy(b *testing.B) { benchTCPBlast(b, true) }
