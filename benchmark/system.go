package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"resilientdb/internal/cluster"
	"resilientdb/internal/crypto"
	"resilientdb/internal/replica"
	"resilientdb/internal/store"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

const (
	replicaCount       = 4
	checkpointInterval = 25
	preloadChunk       = 1024
)

// system is the cluster under test, however it was built: the replicas, the
// inner (unwrapped) stores for the agreement check, and a way to attach a
// client endpoint. Every layer is reached through public functions and the
// two seams cluster.Options offers (EndpointWrapper, StoreWrapper).
type system struct {
	dir *crypto.Directory
	// cluster is the in-process cluster (nil when the replicas were built
	// over TCP); the gateway attaches its upstreams to its fabric.
	cluster  *cluster.Cluster
	replicas []*replica.Replica
	stores   []store.Store
	// down marks crashed replicas; the gauge sampler reads it while the
	// measuring goroutine crashes one.
	down [replicaCount]atomic.Bool

	// Set only in a traced run: the wrappers around each replica's endpoint
	// and store.
	endpoints []*tracedEndpoint
	wrapped   []*tracedStore
	// tcp holds the replicas' TCP endpoints (write-mem-tcp only), for the
	// frame-pool counters.
	tcp []*transport.TCPEndpoint

	clientEndpoint func(id types.ClientID) (transport.Endpoint, error)
	closers        []func()
	dataDir        string
}

func (s *system) live(i int) bool { return !s.down[i].Load() }

// crash cuts replica i off the in-process fabric, like a dead host.
func (s *system) crash(i int) {
	s.cluster.Crash(i)
	s.down[i].Store(true)
}

// stop tears the system down in reverse build order and removes its data
// directory.
func (s *system) stop() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}

// openStore builds replica id's record store and preloads the table through
// Batcher.PutMany in 1 024-KV chunks. workload.InitTable does one Put per
// record, which on the sharded backend pays one group-commit wait each.
func (s *system) openStore(sp *spec, id types.ReplicaID) (store.Store, error) {
	cfg := store.BackendConfig{Backend: "mem", MemSizeHint: int(sp.records)}
	if sp.sharded {
		cfg = store.BackendConfig{
			Backend:    "sharded",
			Dir:        filepath.Join(s.dataDir, fmt.Sprintf("replica-%d", id)),
			ExecShards: sp.execThreads,
			SyncLinger: sp.storeSync,
			ReadIndex:  true,
		}
	}
	st, err := store.OpenBackend(cfg)
	if err != nil {
		return nil, err
	}
	batcher, ok := st.(store.Batcher)
	if !ok {
		st.Close()
		return nil, fmt.Errorf("store backend %q has no PutMany", cfg.Backend)
	}
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i)
	}
	kvs := make([]store.KV, 0, preloadChunk)
	for k := uint64(0); k < sp.records; k++ {
		kvs = append(kvs, store.KV{Key: k, Value: val})
		if len(kvs) == preloadChunk || k == sp.records-1 {
			if err := batcher.PutMany(kvs); err != nil {
				st.Close()
				return nil, fmt.Errorf("preloading replica %d: %w", id, err)
			}
			kvs = kvs[:0]
		}
	}
	s.stores = append(s.stores, st)
	s.closers = append(s.closers, func() { _ = st.Close() })
	return st, nil
}

func (s *system) wrapEndpoint(tr *tracer, id types.ReplicaID, ep transport.Endpoint) transport.Endpoint {
	if tr == nil {
		return ep
	}
	te := &tracedEndpoint{Endpoint: ep, tr: tr, replica: int(id)}
	s.endpoints = append(s.endpoints, te)
	return te
}

func (s *system) wrapStore(tr *tracer, id types.ReplicaID, st store.Store) store.Store {
	if tr == nil {
		return st
	}
	w, counters := wrapStore(tr, int(id), st)
	s.wrapped = append(s.wrapped, counters)
	return w
}

// buildSystem constructs and starts the cluster a spec describes. tr is nil
// in an untraced run, which then contains no wrapper at all.
func buildSystem(sp *spec, seed int64, tr *tracer, dataDir string) (*system, error) {
	s := &system{}
	if sp.sharded {
		s.dataDir = dataDir
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	if sp.tcp {
		err = s.buildTCP(sp, seed, tr)
	} else {
		err = s.buildInproc(sp, seed, tr)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// buildInproc uses cluster.New: the in-process fabric, so transport does no
// work and the wrappers sit on the seams the chaos harness uses.
func (s *system) buildInproc(sp *spec, seed int64, tr *tracer) error {
	c, err := cluster.New(cluster.Options{
		N:                  replicaCount,
		Clients:            1, // unused: the benchmark attaches its own
		Burst:              sp.burst,
		BatchSize:          sp.batchSize,
		ExecuteThreads:     sp.execThreads,
		ExecPipelineDepth:  sp.execDepth,
		Workload:           sp.workloadConfig(seed),
		ClientTimeout:      sp.clientTimeout,
		ViewTimeout:        sp.viewTimeout,
		CheckpointInterval: checkpointInterval,
		Seed:               seed,
		StoreFactory:       func(id types.ReplicaID) (store.Store, error) { return s.openStore(sp, id) },
		EndpointWrapper: func(id types.ReplicaID, ep transport.Endpoint, _ *crypto.Directory) transport.Endpoint {
			return s.wrapEndpoint(tr, id, ep)
		},
		StoreWrapper: func(id types.ReplicaID, st store.Store) store.Store { return s.wrapStore(tr, id, st) },
	})
	if err != nil {
		return err
	}
	// Registered after the stores' closers, so it runs before them: the
	// replicas stop writing before their stores close.
	s.closers = append(s.closers, c.Stop)
	c.Start()
	s.cluster = c
	s.dir = c.Directory()
	for i := 0; i < replicaCount; i++ {
		s.replicas = append(s.replicas, c.Replica(i))
	}
	s.clientEndpoint = func(id types.ClientID) (transport.Endpoint, error) {
		ep := c.AttachClient(id, 0)
		s.closers = append(s.closers, ep.Close)
		return ep, nil
	}
	return nil
}

// newDirectory derives crypto.Recommended() key material from the run's
// seed, the way resdb-node derives it from -seed.
func newDirectory(seed int64) (*crypto.Directory, error) {
	var seedBytes [32]byte
	for i := 0; i < 8; i++ {
		seedBytes[i] = byte(seed >> (8 * i))
	}
	return crypto.NewDirectory(crypto.Recommended(), seedBytes)
}

// buildTCP assembles what four resdb-node processes would: one TCP endpoint
// per replica with resdb-node's settings, on loopback, in one process.
func (s *system) buildTCP(sp *spec, seed int64, tr *tracer) error {
	dir, err := newDirectory(seed)
	if err != nil {
		return err
	}
	s.dir = dir
	addrs := make(map[types.NodeID]string, replicaCount)
	for i := 0; i < replicaCount; i++ {
		ep, err := transport.NewTCPWithConfig(transport.TCPConfig{
			Self:       types.ReplicaNode(types.ReplicaID(i)),
			ListenAddr: "127.0.0.1:0",
			Inboxes:    3,
			Capacity:   1 << 13,
			ZeroCopy:   true,
		})
		if err != nil {
			return err
		}
		s.tcp = append(s.tcp, ep)
		s.closers = append(s.closers, ep.Close)
		addrs[ep.Self()] = ep.Addr()
	}
	for _, ep := range s.tcp {
		for node, addr := range addrs {
			ep.SetPeerAddr(node, addr)
		}
	}
	for i := 0; i < replicaCount; i++ {
		id := types.ReplicaID(i)
		st, err := s.openStore(sp, id)
		if err != nil {
			return err
		}
		rep, err := replica.New(replica.Config{
			ID:                 id,
			N:                  replicaCount,
			Protocol:           replica.PBFT,
			BatchSize:          sp.batchSize,
			BatchThreads:       2,
			ExecuteThreads:     sp.execThreads,
			ExecPipelineDepth:  sp.execDepth,
			VerifyThreads:      2,
			WorkerThreads:      1,
			CheckpointInterval: checkpointInterval,
			Store:              s.wrapStore(tr, id, st),
			Directory:          dir,
			Endpoint:           s.wrapEndpoint(tr, id, s.tcp[i]),
			VerifyClientSigs:   true,
			ViewTimeout:        sp.viewTimeout,
		})
		if err != nil {
			return err
		}
		rep.Start()
		s.replicas = append(s.replicas, rep)
		s.closers = append(s.closers, rep.Stop)
	}
	s.clientEndpoint = func(id types.ClientID) (transport.Endpoint, error) {
		ep, err := transport.NewTCPWithConfig(transport.TCPConfig{
			Self:       types.ClientNode(id),
			ListenAddr: "127.0.0.1:0",
			Addrs:      addrs,
			Inboxes:    1,
			Capacity:   1 << 10,
			ZeroCopy:   true,
		})
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, ep.Close)
		// Clients have no listener the replicas know: the hello teaches each
		// replica the return path over the client-dialed connection.
		for node := range addrs {
			if err := ep.Hello(node); err != nil {
				return nil, err
			}
		}
		return ep, nil
	}
	return nil
}

// waitQuiesce blocks until every live replica's ledger agrees on one height
// and has retired through it, and that state has held still for a dwell
// window — cluster.WaitForQuiesce's rule, over Replica.LastRetired so it
// also serves the TCP-built cluster.
func (s *system) waitQuiesce(timeout time.Duration) bool {
	const dwell = 100 * time.Millisecond
	deadline := time.Now().Add(timeout)
	var settledAt time.Time
	var settledMax uint64
	for {
		var max uint64
		for i, r := range s.replicas {
			if h := r.Ledger().Height(); s.live(i) && h > max {
				max = h
			}
		}
		settled := true
		for i, r := range s.replicas {
			if s.live(i) && (r.Ledger().Height() != max || uint64(r.LastRetired()) < max) {
				settled = false
				break
			}
		}
		now := time.Now()
		switch {
		case !settled:
			settledAt = time.Time{}
		case settledAt.IsZero() || max != settledMax:
			settledAt, settledMax = now, max
		case now.Sub(settledAt) >= dwell:
			return true
		}
		if now.After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
