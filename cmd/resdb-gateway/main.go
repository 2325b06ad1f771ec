// Command resdb-gateway runs the multiplexed front door in front of a
// TCP deployment of resdb-node replicas: lightweight client sessions
// connect here (see resdb-client -gateway and internal/gateway for the
// session wire format), and the gateway coalesces their transactions
// into shared consensus requests signed under its own derived identities.
//
// Every flag is described by its usage string (resdb-gateway -h);
// -upstreams, -gw-batch and -timeout bind straight into gateway.Config,
// whose zero values are its defaults. docs/ARCHITECTURE.md's knob
// reference prints them.
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

// gatewayFlags is what resdb-gateway's command line sets.
type gatewayFlags struct {
	dep    *deploy.Flags
	listen string
	gw     gateway.Config
	stats  time.Duration
}

// register adds resdb-gateway's flags to fs.
func register(fs *flag.FlagSet) *gatewayFlags {
	f := &gatewayFlags{dep: deploy.Register(fs, false)}
	fs.StringVar(&f.listen, "listen", "127.0.0.1:9000", "session listen address")
	fs.IntVar(&f.gw.Upstreams, "upstreams", f.gw.Upstreams, "replica-facing consensus workers, each a closed loop with its own derived identity and connection: the gateway's whole replica-facing footprint (0 = 4)")
	fs.IntVar(&f.gw.Batch, "gw-batch", f.gw.Batch, "most transactions coalesced per signed consensus request; an upstream takes what is queued, up to this many, without waiting for more (0 = 128; 1 sends one transaction per request)")
	fs.DurationVar(&f.gw.Timeout, "timeout", f.gw.Timeout, "upstream retransmission timeout (0 = 500ms)")
	fs.DurationVar(&f.stats, "stats", 5*time.Second, "stats print interval")
	return f
}

func run() int {
	f := register(flag.CommandLine)
	flag.Parse()

	d, err := f.dep.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	f.gw.N, f.gw.Directory = d.N, d.Directory
	f.gw.Endpoint = func(id types.ClientID) (transport.Endpoint, error) {
		ep, err := d.ClientEndpoint(id)
		if err != nil {
			return nil, err // not ep: a nil *TCPEndpoint is a non-nil Endpoint
		}
		return ep, nil
	}
	g, err := gateway.New(f.gw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer g.Close()

	ln, err := net.Listen("tcp", f.listen)
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
	tick := time.NewTicker(f.stats)
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
