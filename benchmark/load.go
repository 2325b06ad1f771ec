package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/gateway"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// lateAfter is the latency past which a request counts as failed: a user of
// the system has given up by then, whatever the protocol later delivers.
const lateAfter = 2 * time.Second

// gatewayLoad is the gateway-sessions workload's traffic: a gateway.Gateway
// attached to the cluster's fabric, a loopback listener, and gateway.Load's
// closed-loop sessions — the only session load generator the gateway
// exposes (its wire encoders are unexported, so the benchmark cannot own
// this driver the way it owns the direct one).
type gatewayLoad struct {
	gw     *gateway.Gateway
	ln     net.Listener
	load   *gateway.Load
	cancel context.CancelFunc
	done   chan error
}

// gwMark is a timestamped snapshot of the session load's and the gateway's
// cumulative counters, taken at a slice boundary.
type gwMark struct {
	at       int64
	load     gateway.LoadStats
	gw       gateway.Stats
	latCount uint64
	latSumNS float64
}

func startGatewayLoad(sp *spec, seed int64, c *cluster.Cluster) (*gatewayLoad, error) {
	gw, err := gateway.New(gateway.Config{
		N:         replicaCount,
		Directory: c.Directory(),
		Endpoint: func(id types.ClientID) (transport.Endpoint, error) {
			return c.AttachClient(id, 0), nil
		},
		Upstreams: gwUpstreams,
		Batch:     gwBatch,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, err
	}
	go gw.Serve(ln) // returns when gw.Close closes the listener
	addr := ln.Addr().String()
	load, err := gateway.NewLoad(gateway.LoadConfig{
		Sessions: gwSessions,
		Conns:    gwConns,
		Dial:     func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Workload: sp.workloadConfig(seed),
		Seed:     seed,
		// A session retries a submit unanswered for this long, so Retries
		// counts the submits that took longer than the late limit.
		RetryTimeout: lateAfter,
	})
	if err != nil {
		gw.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &gatewayLoad{gw: gw, ln: ln, load: load, cancel: cancel, done: make(chan error, 1)}
	go func() { l.done <- load.Run(ctx) }()
	return l, nil
}

func (l *gatewayLoad) ackedTxns() uint64 { return l.load.Stats().Completed }

func (l *gatewayLoad) mark(tr *tracer) gwMark {
	h := l.load.Latency()
	n := h.Count()
	return gwMark{
		at: tr.now(), load: l.load.Stats(), gw: l.gw.Stats(),
		latCount: n, latSumNS: float64(h.Mean()) * float64(n),
	}
}

// stop ends the sessions, waits for the load generator's goroutines, and
// closes the gateway (which closes its listener and upstream endpoints).
func (l *gatewayLoad) stop() error {
	l.cancel()
	err := <-l.done
	l.gw.Close()
	if err != nil {
		return fmt.Errorf("gateway load: %w", err)
	}
	return nil
}
