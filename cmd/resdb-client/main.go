// Command resdb-client drives load against a TCP deployment of
// resdb-node replicas: it runs many closed-loop clients, each submitting
// YCSB transactions and waiting for the protocol's response quorum, then
// reports throughput and latency.
//
// The workload mix is controlled by -read-fraction and -scan-fraction
// (explicit shares in [0,1]) or -workload (YCSB presets: a = 50% reads,
// b = 95%, c = read-only, e = 95% scans); the default stays write-only.
// -scan-length caps the rows per range scan (the YCSB-E span).
// -read-mode picks how write-free requests — point reads and scans
// alike — travel: quorum (default) orders them through consensus, local
// sends them to a single replica answered from its last-executed
// snapshot without a consensus round, subject to the client's MinSeq
// staleness bound (refused requests fall back to quorum).
//
// With -gateway ADDR the binary switches from direct per-client
// consensus to the session load generator: -sessions lightweight
// closed-loop sessions (0 = default 1024) are multiplexed over -clients
// TCP connections to a resdb-gateway front door, which signs and batches
// on their behalf. Each connection's writer puts whatever submits are
// queued, up to 64, in one frame and sends it; -timeout is the
// per-session retry interval, which the gateway's dedup window makes
// idempotent.
//
// Both modes seed their workload from -seed: direct client i draws from
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

func run() int {
	dep := deploy.Register(flag.CommandLine, false)
	clients := flag.Int("clients", 16, "number of closed-loop clients")
	burst := flag.Int("burst", 1, "transactions per request")
	duration := flag.Duration("duration", 10*time.Second, "run duration")
	timeout := flag.Duration("timeout", 500*time.Millisecond, "client retransmission timeout")
	readFraction := flag.Float64("read-fraction", 0, "fraction of read-only transactions in [0,1] (0 = write-only default, -1 explicitly disables reads)")
	scanFraction := flag.Float64("scan-fraction", 0, "fraction of range-scan transactions in [0,1] (0 = none default, -1 explicitly disables scans)")
	scanLength := flag.Int("scan-length", 0, "max rows per range scan (0 = default 100)")
	preset := flag.String("workload", "", "YCSB workload preset: a (50% reads) | b (95%) | c (read-only) | e (95% scans); empty keeps -read-fraction/-scan-fraction")
	readMode := flag.String("read-mode", "quorum", "how write-free requests (reads and scans) travel: quorum (ordered through consensus) | local (served by one replica from its last-executed snapshot under the client's staleness bound)")
	gatewayAddr := flag.String("gateway", "", "gateway front-door address: run the session load generator against it instead of direct per-client consensus (empty = direct mode)")
	sessions := flag.Int("sessions", 0, "simulated closed-loop sessions in gateway mode (0 = default 1024)")
	flag.Parse()

	wcfg := workload.Default()
	wcfg.ReadFraction = *readFraction
	wcfg.ScanFraction = *scanFraction
	wcfg.ScanLength = *scanLength
	wcfg.Preset = *preset

	if *gatewayAddr != "" {
		return runSessions(sessionConfig{
			addr:     *gatewayAddr,
			sessions: *sessions,
			conns:    *clients,
			retry:    *timeout,
			duration: *duration,
			seed:     dep.Seed,
			workload: wcfg,
		})
	}

	d, err := dep.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	cls := make([]*cluster.Client, *clients)
	for i := range cls {
		wl, err := workload.New(wcfg, dep.Seed+int64(i))
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
			Burst:     *burst,
			Timeout:   *timeout,
			Directory: d.Directory,
			Endpoint:  ep,
			Workload:  wl,
			ReadMode:  *readMode,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	fmt.Println(cluster.RunClients(context.Background(), cls, *duration))
	return 0
}

type sessionConfig struct {
	addr            string
	sessions, conns int
	retry           time.Duration
	duration        time.Duration
	seed            int64
	workload        workload.Config
}

// runSessions is gateway mode: instead of one consensus engine per
// client, the -sessions population is multiplexed over -clients TCP
// connections to the gateway front door, which batches, signs, and
// submits on the sessions' behalf.
func runSessions(sc sessionConfig) int {
	if sc.sessions == 0 {
		sc.sessions = 1 << 10
	}
	load, err := gateway.NewLoad(gateway.LoadConfig{
		Sessions:     sc.sessions,
		Conns:        sc.conns,
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", sc.addr) },
		Workload:     sc.workload,
		Seed:         sc.seed,
		RetryTimeout: sc.retry,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), sc.duration)
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
		sc.sessions, sc.conns, s.Completed, stats.Throughput(s.Completed, elapsed),
		h.Percentile(50), h.Percentile(95), h.Percentile(99),
		s.BusyReplies, s.Retries, s.Rejected)
	return 0
}
