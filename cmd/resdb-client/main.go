// Command resdb-client drives load against a TCP deployment of
// resdb-node replicas: it runs many closed-loop clients, each submitting
// YCSB transactions and waiting for the protocol's response quorum, then
// reports throughput and latency.
//
// With -gateway ADDR the binary switches from direct per-client
// consensus to the session load generator: -sessions lightweight
// closed-loop sessions are multiplexed over -clients TCP connections to a
// resdb-gateway front door, which signs and batches on their behalf.
//
// Every flag is described by its usage string (resdb-client -h); the
// workload flags bind straight into workload.Config, whose conventions
// they follow. docs/ARCHITECTURE.md's knob reference prints them. Both
// modes seed their workload from -seed: direct client i draws from
// -seed + i, as cluster.New's clients do.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"resilientdb/cmd/internal/deploy"
	"resilientdb/internal/cluster"
	"resilientdb/internal/gateway"
	"resilientdb/internal/stats"
	"resilientdb/internal/types"
	"resilientdb/internal/workload"
)

func main() {
	os.Exit(run())
}

// clientFlags is what resdb-client's command line sets. The workload flags
// bind into the workload.Config that owns their defaults.
type clientFlags struct {
	dep      *deploy.Flags
	clients  int
	burst    int
	duration time.Duration
	timeout  time.Duration
	workload workload.Config
	readMode string
	gateway  string
	sessions int
}

// register adds resdb-client's flags to fs.
func register(fs *flag.FlagSet) *clientFlags {
	f := &clientFlags{dep: deploy.Register(fs, false), workload: workload.Default()}
	fs.IntVar(&f.clients, "clients", 16, "closed-loop clients; in gateway mode, connections to the gateway")
	fs.IntVar(&f.burst, "burst", 1, "transactions per request (client-side batching)")
	fs.DurationVar(&f.duration, "duration", 10*time.Second, "run length")
	fs.DurationVar(&f.timeout, "timeout", 500*time.Millisecond, "retransmission timeout; in gateway mode, the per-session retry interval, which the gateway's dedup window makes idempotent")
	fs.Float64Var(&f.workload.ReadFraction, "read-fraction", f.workload.ReadFraction, "fraction of read-only transactions in [0,1] (0 = write-only, -1 disables reads)")
	fs.Float64Var(&f.workload.ScanFraction, "scan-fraction", f.workload.ScanFraction, "fraction of range-scan transactions in [0,1] (0 = none, -1 disables scans); with -read-fraction at most 1")
	fs.IntVar(&f.workload.ScanLength, "scan-length", f.workload.ScanLength, "most rows per range scan, each covering 1..length keys drawn uniformly, the YCSB-E shape (0 = 100)")
	fs.StringVar(&f.workload.Preset, "workload", f.workload.Preset, "YCSB preset: a (50% reads) | b (95%) | c (read-only) | e (95% scans); excludes -read-fraction and -scan-fraction")
	fs.StringVar(&f.readMode, "read-mode", "quorum", "how write-free requests (reads and scans) travel: quorum (ordered through consensus) | local (served by one replica from its last-executed state under the client's staleness bound; a refusal falls back to quorum)")
	fs.StringVar(&f.gateway, "gateway", "", "gateway front-door address: run the session load generator against it instead of direct per-client consensus (empty = direct mode)")
	fs.IntVar(&f.sessions, "sessions", 1024, "closed-loop sessions in gateway mode, multiplexed over the -clients connections")
	return f
}

func run() int {
	f := register(flag.CommandLine)
	flag.Parse()

	if f.gateway != "" {
		return runSessions(gateway.LoadConfig{
			Sessions:     f.sessions,
			Conns:        f.clients,
			Dial:         func() (net.Conn, error) { return net.Dial("tcp", f.gateway) },
			Workload:     f.workload,
			Seed:         f.dep.Seed,
			RetryTimeout: f.timeout,
		}, f.duration)
	}

	d, err := f.dep.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	cls := make([]*cluster.Client, f.clients)
	for i := range cls {
		wl, err := workload.New(f.workload, f.dep.Seed+int64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		ep, err := d.ClientEndpoint(types.ClientID(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ep.Close()
		cls[i], err = cluster.NewClient(cluster.ClientConfig{
			ID:        types.ClientID(i),
			N:         d.N,
			Burst:     f.burst,
			Timeout:   f.timeout,
			Directory: d.Directory,
			Endpoint:  ep,
			Workload:  wl,
			ReadMode:  f.readMode,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	fmt.Println(cluster.RunClients(context.Background(), cls, f.duration))
	return 0
}

// runSessions is gateway mode: instead of one consensus engine per
// client, the sessions are multiplexed over the connections to the gateway
// front door, which batches, signs, and submits on their behalf.
func runSessions(lc gateway.LoadConfig, duration time.Duration) int {
	load, err := gateway.NewLoad(lc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	start := time.Now()
	if err := load.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	elapsed := time.Since(start)
	s := load.Stats()
	h := load.Latency()
	fmt.Printf("sessions=%d conns=%d txns=%d tput=%.0f txn/s p50=%s p95=%s p99=%s busy=%d retries=%d rejected=%d\n",
		lc.Sessions, lc.Conns, s.Completed, stats.Throughput(s.Completed, elapsed),
		h.Percentile(50), h.Percentile(95), h.Percentile(99),
		s.BusyReplies, s.Retries, s.Rejected)
	return 0
}
