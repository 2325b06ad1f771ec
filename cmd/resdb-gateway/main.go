// Command resdb-gateway runs the multiplexed front door in front of a
// TCP deployment of resdb-node replicas: lightweight client sessions
// connect here (see resdb-client -gateway and internal/gateway for the
// session wire format), and the gateway coalesces their transactions
// into shared consensus requests signed under its own derived identities.
//
// The knobs follow the cluster-wide flag convention: 0 = default, -1 =
// explicitly disabled.
//
//   - -upstreams U: replica-facing consensus workers, each a closed loop
//     with its own identity and connection; the gateway's entire
//     replica-facing connection footprint (0 = default 4).
//   - -gw-batch B: transactions coalesced per consensus request (0 =
//     default 128, -1 disables coalescing — one transaction per request).
//     An upstream takes what is queued, up to B, and submits it; it never
//     waits for a fuller batch.
//   - -gw-queue Q: admission queue capacity between the front door and
//     the upstream workers; a full queue answers StatusBusy (0 = default
//     16384).
//   - -gw-busy T: replica queue-saturation gauge (1..255, piggybacked on
//     consensus responses) at or above which new submits are pushed back
//     busy (0 = default 230; -1 pushes back only at full saturation).
//   - -gw-busy-decay D: how long a saturated gauge keeps pushing back
//     without a fresh consensus response before admission expires it and
//     probes again (0 = default 4×timeout; negative never expires).
//   - -gw-dedup W: completed replies cached per session for retry replay
//     (0 = default 8); retries older than the window are rejected, never
//     re-executed.
//   - -gw-session-idle D: how long a session with nothing in flight
//     keeps its dedup state before eviction; state survives reconnects
//     until then (0 = default 5m; negative never evicts).
//
// Example, in front of the 4-replica deployment from the resdb-node docs:
//
//	resdb-gateway -listen 127.0.0.1:9000 -n 4 -replicas 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	resdb-client -gateway 127.0.0.1:9000 -sessions 100000 -clients 4 -n 4 -replicas ... -duration 10s
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resilientdb/cmd/internal/deploy"
	"resilientdb/internal/gateway"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

func main() {
	os.Exit(run())
}

func run() int {
	dep := deploy.Register(flag.CommandLine, false)
	listen := flag.String("listen", "127.0.0.1:9000", "session listen address")
	upstreams := flag.Int("upstreams", 0, "replica-facing consensus workers (0 = default 4)")
	gwBatch := flag.Int("gw-batch", 0, "transactions coalesced per consensus request (0 = default 128, -1 disables coalescing)")
	gwQueue := flag.Int("gw-queue", 0, "admission queue capacity; a full queue answers busy (0 = default 16384)")
	gwBusy := flag.Int("gw-busy", 0, "replica busy-gauge admission threshold 1..255 (0 = default 230, -1 pushes back only at full saturation)")
	gwBusyDecay := flag.Duration("gw-busy-decay", 0, "staleness after which a saturated gauge stops pushing back (0 = default 4×timeout, negative never expires)")
	gwDedup := flag.Int("gw-dedup", 0, "cached replies per session for retry replay (0 = default 8)")
	gwSessionIdle := flag.Duration("gw-session-idle", 0, "idle time before a session's dedup state is evicted (0 = default 5m, negative never evicts)")
	timeout := flag.Duration("timeout", 500*time.Millisecond, "upstream retransmission timeout")
	statsEvery := flag.Duration("stats", 5*time.Second, "stats print interval")
	flag.Parse()

	d, err := dep.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	cfg := gateway.Config{
		N:         d.N,
		Directory: d.Directory,
		Endpoint: func(id types.ClientID) (transport.Endpoint, error) {
			ep, err := d.ClientEndpoint(id)
			if err != nil {
				return nil, err // not ep: a nil *TCPEndpoint is a non-nil Endpoint
			}
			return ep, nil
		},
		Upstreams: *upstreams,
		Timeout:   *timeout,
		QueueCap:  *gwQueue,
	}
	if *gwBatch < 0 {
		cfg.Batch = 1
	} else {
		cfg.Batch = *gwBatch
	}
	switch {
	case *gwBusy < 0:
		cfg.BusyThreshold = 255
	case *gwBusy > 255:
		fmt.Fprintf(os.Stderr, "-gw-busy must be in 1..255, got %d\n", *gwBusy)
		return 2
	default:
		cfg.BusyThreshold = uint8(*gwBusy)
	}
	cfg.DedupWindow = *gwDedup
	// "Never" is a century and a half of nanoseconds — far enough out
	// that the decay/eviction clocks can still subtract it safely.
	const never = time.Duration(1 << 62)
	if *gwBusyDecay < 0 {
		cfg.BusyDecay = never
	} else {
		cfg.BusyDecay = *gwBusyDecay
	}
	if *gwSessionIdle < 0 {
		cfg.SessionIdle = never
	} else {
		cfg.SessionIdle = *gwSessionIdle
	}

	g, err := gateway.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer g.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	go func() {
		if err := g.Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		}
	}()
	fmt.Printf("gateway (%d replicas) listening on %s\n", d.N, ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*statsEvery)
	defer tick.Stop()
	var last uint64
	for {
		select {
		case <-stop:
			g.Close()
			s := g.Stats()
			fmt.Printf("final: completed=%d accepted=%d busy=%d dup-absorbed=%d dup-replayed=%d dup-rejected=%d requests=%d retx=%d conns=%d\n",
				s.Completed, s.Accepted, s.BusyRejected, s.DupAbsorbed, s.DupReplayed, s.DupRejected,
				s.Requests, s.Retransmits, s.Conns)
			return 0
		case <-tick.C:
			s := g.Stats()
			fmt.Printf("completed=%d (+%d) sessions=%d conns=%d busy-gauge=%d busy-rejected=%d dups=%d/%d/%d requests=%d retx=%d\n",
				s.Completed, s.Completed-last, s.Sessions, s.Conns, s.Busy, s.BusyRejected,
				s.DupAbsorbed, s.DupReplayed, s.DupRejected, s.Requests, s.Retransmits)
			last = s.Completed
		}
	}
}
